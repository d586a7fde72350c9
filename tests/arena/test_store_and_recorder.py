"""Unit tests of the columnar operation store and its recorder/adapters.

The arena engine keeps every recorded operation as one row of parallel
integer-typed arrays (:class:`repro.arena.store.OpArena`); objects only
exist when the adapter materialises them.  These tests pin the invariants
the rest of the engine builds on: the interning scheme (``BOTTOM`` is value
id 0, ``NO_SOURCE`` marks ⊥-reads), the derived row indexes, and the
requirement that :class:`repro.arena.recorder.ArenaRecorder` is observably
indistinguishable from the object :class:`repro.mcs.recorder.HistoryRecorder`
for the same recorded script.
"""

import random

import pytest

from repro.arena import adapter
from repro.arena.recorder import ArenaRecorder
from repro.arena.store import KIND_READ, KIND_WRITE, NO_SOURCE, OpArena
from repro.core.history import HistoryBuilder
from repro.core.operations import BOTTOM
from repro.exceptions import InvalidHistoryError
from repro.mcs.recorder import HistoryRecorder


class TestOpArena:
    def test_bottom_is_interned_first(self):
        arena = OpArena()
        row = arena.append_read(0, "x", BOTTOM, NO_SOURCE, None, None)
        assert arena.value[row] == 0
        assert arena.value_of(row) is BOTTOM

    def test_append_write_columns(self):
        arena = OpArena()
        row = arena.append_write(2, "x", "x#0", 1.0, 2.0)
        assert arena.kind[row] == KIND_WRITE
        assert arena.proc[row] == 2
        assert arena.var_name(arena.var[row]) == "x"
        assert arena.value_of(row) == "x#0"
        assert arena.source[row] == NO_SOURCE
        assert arena.timestamp(arena.invoked, row) == 1.0
        assert arena.timestamp(arena.completed, row) == 2.0

    def test_read_records_source_row(self):
        arena = OpArena()
        w = arena.append_write(0, "x", "x#0", None, None)
        r = arena.append_read(1, "x", "x#0", w, None, None)
        assert arena.kind[r] == KIND_READ
        assert arena.source[r] == w

    @pytest.mark.parametrize("source", ["own", "later", "read"])
    def test_a_read_source_must_be_an_earlier_write_row(self, source):
        arena = OpArena()
        w = arena.append_write(0, "x", "a", None, None)
        r = arena.append_read(1, "x", "a", w, None, None)
        row = {"own": len(arena), "later": len(arena) + 1, "read": r}[source]
        with pytest.raises(InvalidHistoryError, match="not an earlier write row"):
            arena.append_read(2, "x", "a", row, None, None)
        assert len(arena) == 2

    def test_program_index_is_per_process(self):
        arena = OpArena()
        arena.append_write(0, "x", "a", None, None)
        arena.append_write(1, "x", "b", None, None)
        arena.append_write(0, "y", "c", None, None)
        assert [arena.index[row] for row in arena.rows_of(0)] == [0, 1]
        assert [arena.index[row] for row in arena.rows_of(1)] == [0]

    def test_derived_row_indexes(self):
        arena = OpArena()
        w0 = arena.append_write(0, "x", "a", None, None)
        arena.append_read(0, "x", "a", w0, None, None)
        w1 = arena.append_write(0, "x", "b", None, None)
        w2 = arena.append_write(1, "y", "c", None, None)
        vx = arena.lookup_var("x")
        assert list(arena.write_rows_of(0)) == [w0, w1]
        assert list(arena.write_rows_on(0, vx)) == [w0, w1]
        assert 0 in arena.writers_of(vx)
        assert 1 not in arena.writers_of(vx)
        assert list(arena.write_rows_of(1)) == [w2]

    def test_declare_process_without_operations(self):
        arena = OpArena()
        arena.declare_process(5)
        assert 5 in arena.processes
        assert list(arena.rows_of(5)) == []

    def test_labels_match_operation_labels(self):
        arena = OpArena()
        recorder = ArenaRecorder()
        w = arena.append_write(0, "x", "x#0", None, None)
        r = arena.append_read(1, "x", "x#0", w, None, None)
        b = arena.append_read(1, "y", BOTTOM, NO_SOURCE, None, None)
        cache = {}
        for row in (w, r, b):
            op = adapter.materialize_row(arena, row, cache)
            assert arena.label(row) == op.label()
        del recorder

    def test_stats_and_column_bytes(self):
        arena = OpArena()
        for i in range(10):
            arena.append_write(i % 2, "x", f"x#{i}", None, None)
        stats = arena.stats()
        assert stats["operations"] == 10
        assert sum(arena.column_bytes().values()) > 0


def _drive(recorder, seed=3, processes=3, variables=2, ops=60):
    """Record the same random script into any recorder implementation."""
    rng = random.Random(seed)
    written = {}  # variable -> list of (write_id, value)
    counters = {}
    for pid in range(processes):
        recorder.declare_process(pid)
    for step in range(ops):
        pid = rng.randrange(processes)
        var = f"x{rng.randrange(variables)}"
        if rng.random() < 0.5:
            index = counters.get((pid, var), 0)
            counters[(pid, var)] = index + 1
            value = f"{var}#{pid}.{index}"
            write_id = (pid, step)
            recorder.record_write(pid, var, value, write_id, float(step), step + 0.5)
            written.setdefault(var, []).append((write_id, value))
        else:
            writes = written.get(var)
            if writes and rng.random() > 0.1:
                write_id, value = rng.choice(writes)
                recorder.record_read(pid, var, value, write_id, float(step), step + 0.5)
            else:
                recorder.record_read(pid, var, BOTTOM, None, float(step), step + 0.5)


class TestArenaRecorderParity:
    """ArenaRecorder must be a drop-in for the object HistoryRecorder."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_history_and_read_from_match_object_recorder(self, seed):
        obj, col = HistoryRecorder(), ArenaRecorder()
        _drive(obj, seed=seed)
        _drive(col, seed=seed)
        ho, hc = obj.history(), col.history()
        assert ho.processes == hc.processes
        for pid in ho.processes:
            assert [op.label() for op in ho.local(pid).operations] == \
                   [op.label() for op in hc.local(pid).operations]
        rfo = {r.label(): (w.label() if w else None) for r, w in obj.read_from().items()}
        rfc = {r.label(): (w.label() if w else None) for r, w in col.read_from().items()}
        assert rfo == rfc

    def test_log_matches_object_recorder(self):
        obj, col = HistoryRecorder(), ArenaRecorder()
        _drive(obj)
        _drive(col)
        lo = [(op.label(), src.label() if src else None) for op, src in obj.log()]
        lc = [(op.label(), src.label() if src else None) for op, src in col.log()]
        assert lo == lc

    def test_operation_count_and_processes(self):
        col = ArenaRecorder()
        _drive(col)
        assert col.operation_count() == len(col.arena) == 60
        assert col.processes == (0, 1, 2)

    def test_recording_allocates_no_objects_and_a_quarter_of_their_bytes(self):
        from repro.arena.info import OBJECT_OP_BYTES

        col = ArenaRecorder()
        _drive(col, processes=4, variables=8, ops=10_000)
        assert col.operation_count() == 10_000
        assert not col.cache  # integer appends only: nothing forced materialisation
        per_op = sum(col.arena.column_bytes().values()) / len(col.arena)
        assert per_op * 4 <= OBJECT_OP_BYTES, (per_op, OBJECT_OP_BYTES)

    def test_listeners_get_rows_and_materialise_nothing(self):
        col = ArenaRecorder()
        _drive(col, ops=25)
        seen = []
        listener = lambda row, source_row: seen.append((row, source_row))  # noqa: E731
        col.subscribe(listener)
        w = col.record_write(0, "x0", "late", (0, 999), None, None)
        r = col.record_read(1, "x0", "late", (0, 999), None, None)
        b = col.record_read(1, "x1", BOTTOM, None, None, None)
        col.unsubscribe(listener)
        col.record_write(0, "x0", "unseen", (0, 1000), None, None)
        assert (w, r, b) == (25, 26, 27)
        assert seen == [(w, NO_SOURCE), (r, w), (b, NO_SOURCE)]
        assert not col.cache

    def test_materialisation_is_cached_by_identity(self):
        col = ArenaRecorder()
        _drive(col, ops=20)
        first = col.history().operations
        second = col.history().operations
        assert all(a is b for a, b in zip(first, second))


class TestAdapterRoundTrip:
    def test_history_to_arena_and_back(self):
        obj = HistoryRecorder()
        _drive(obj, seed=11)
        history, read_from = obj.history(), obj.read_from()
        arena = adapter.arena_from_history(history, read_from)
        cache = {}
        back = adapter.history_from_arena(arena, cache)
        for pid in history.processes:
            assert [op.label() for op in history.local(pid).operations] == \
                   [op.label() for op in back.local(pid).operations]
        rf_back = adapter.read_from_of(arena, cache)
        assert {r.label(): (w.label() if w else None) for r, w in read_from.items()} == \
               {r.label(): (w.label() if w else None) for r, w in rf_back.items()}

    def test_sources_come_before_their_reads_and_seed_the_cache(self):
        b = HistoryBuilder()
        b.read(0, "x", "a").write(0, "y", "b")  # p0 reads p1's write, built later
        b.write(1, "x", "a")
        history = b.build()
        cache = {}
        arena = adapter.arena_from_history(history, cache=cache)
        assert [arena.label(row) for row in range(len(arena))] == \
            ["w1(x)'a'", "r0(x)'a'", "w0(y)'b'"]
        assert arena.source[1] == 0 and list(arena.index) == [0, 0, 1]
        assert [cache[row] for row in range(3)] == [
            history.local(1).operations[0], *history.local(0).operations]

    def test_no_arena_for_a_program_order_read_from_cycle(self):
        b = HistoryBuilder()
        b.read(1, "x", "w2").write(1, "y", "w1")
        b.read(2, "y", "w1").write(2, "x", "w2")
        assert adapter.arena_from_history(b.build()) is None
