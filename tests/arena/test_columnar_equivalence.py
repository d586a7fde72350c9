"""Property tests: the columnar checker must match the object engine.

:class:`repro.arena.check.ArenaBatchChecker` checks causal and pram over the
arena's integer columns at every size (monitor replica, bad-pattern sweep,
and saturation, which decides each view and builds its witness).  Both
engines emit witnesses by the one rule of :mod:`repro.core.serialization`,
so on randomly generated arenas the columnar result must equal the object
checker's over the materialised history — same verdict, same violation
strings in the same order, and label-identical witnesses per view.  That is
the equivalence guarantee every history-keeping ``Session`` is built on.
Where the stream monitors fire, both sides close with the polynomial sweep
merged after the monitor hits, so the reference is the fed object stream.
The object engine is :class:`PerProcessChecker` by name: ``get_checker``'s
causal and pram checkers decide on the arena themselves.
"""

import random

import pytest

from repro.api import Session
from repro.arena import adapter
from repro.arena.check import ArenaBatchChecker
from repro.arena.store import OpArena
from repro.core.consistency import PerProcessChecker, WindowedChecker
from repro.core.operations import BOTTOM
from repro.core.orders import causal_order, pram_generating_order
from repro.core.serialization import respects


def build_arena(seed, processes, variables, chaos):
    """A random live-recorded-shaped arena (sources always precede reads)."""
    rng = random.Random(seed * 7919 + processes * 1009 + variables * 101 + chaos * 13)
    arena = OpArena()
    writes = {}  # variable -> list of (row, value)
    counter = 0
    for _ in range(20 + (seed * 11) % 120):
        p = rng.randrange(processes)
        v = f"v{rng.randrange(variables)}"
        if rng.random() < 0.45:
            counter += 1
            row = arena.append_write(p, v, counter, None, None)
            writes.setdefault(v, []).append((row, counter))
        else:
            ws = writes.get(v)
            if not ws or rng.random() < 0.08:
                arena.append_read(p, v, BOTTOM, -1, None, None)
            elif not chaos and rng.random() < 0.9:
                row, val = ws[-1]
                arena.append_read(p, v, val, row, None, None)
            else:
                row, val = rng.choice(ws)
                arena.append_read(p, v, val, row, None, None)
    return arena


def result_key(result):
    return (
        result.criterion,
        result.consistent,
        result.exact,
        tuple(result.violations),
        {pid: [op.label() for op in witness]
         for pid, witness in result.serializations.items()},
    )


def object_checker(criterion):
    """The object per-view checker of ``criterion``."""
    builders = {"causal": causal_order, "pram": pram_generating_order}
    return PerProcessChecker(builders[criterion], criterion)


def object_check(criterion, arena, exact=True):
    """The object checker over the materialised history."""
    cache = {}
    history = adapter.history_from_arena(arena, cache)
    read_from = adapter.read_from_of(arena, cache)
    return object_checker(criterion).check(history, read_from=read_from, exact=exact)


def object_stream(criterion, arena, exact=True):
    """The object stream: the retaining incremental checker fed the arena's
    rows in recording order, and its first monitor hit as ``(row, message)``."""
    cache = {}
    read_from = adapter.read_from_of(arena, cache)
    stream = WindowedChecker(object_checker(criterion), window=None, exact=exact)
    first = None
    for row in range(len(arena)):
        op = cache[row]
        found = stream.feed(op, read_from.get(op))
        if found is not None and first is None:
            first = (row, found.violations[0])
    return stream, first


CASES = [(seed, p, v, chaos)
         for seed in range(12) for p in (2, 3, 4) for v in (1, 3)
         for chaos in (0, 1)]


def columnar_and_reference(criterion, arena):
    columnar = ArenaBatchChecker(criterion, arena, exact=True)
    result = columnar.finalize()
    if columnar.first_stream_violation is None:
        return result, object_check(criterion, arena)
    return result, object_stream(criterion, arena)[0].finalize()


@pytest.mark.parametrize("criterion", ["causal", "pram"])
@pytest.mark.parametrize("seed,processes,variables,chaos", CASES)
def test_columnar_matches_the_object_checker(criterion, seed, processes, variables, chaos):
    arena = build_arena(seed, processes, variables, chaos)
    columnar, reference = columnar_and_reference(criterion, arena)
    assert result_key(columnar) == result_key(reference)


def test_the_cases_hold_enough_consistent_views():
    """The witness comparison above is not vacuous: the cases hold 66
    consistent views, each compared label by label."""
    views = 0
    for criterion in ("causal", "pram"):
        for case in CASES:
            columnar, _ = columnar_and_reference(criterion, build_arena(*case))
            views += len(columnar.serializations)
    assert views == 66


@pytest.mark.parametrize("criterion", ["causal", "pram"])
def test_check_now_accumulation_matches(criterion):
    """The checkpoint path must dedup exactly like the object check_now."""
    for seed in range(8):
        arena = build_arena(seed, 3, 2, chaos=1)
        columnar = ArenaBatchChecker(criterion, arena, exact=True)
        stream, _ = object_stream(criterion, arena)
        ca, cb = columnar.check_now(), stream.check_now()
        assert (ca is None) == (cb is None)
        if ca is not None:
            assert ca.violations == cb.violations
            assert not ca.consistent and ca.exact
        assert result_key(columnar.finalize()) == result_key(stream.finalize())


def test_witnesses_are_legal_serializations():
    """Every columnar witness must respect the criterion's restricted order."""
    found = 0
    for seed in range(30):
        arena = build_arena(seed, 3, 2, chaos=0)
        cache = {}  # shared with the checker: one Operation identity per row
        columnar = ArenaBatchChecker("causal", arena, exact=True, cache=cache)
        result = columnar.finalize()
        if not result.consistent or not result.serializations:
            continue
        history = adapter.history_from_arena(arena, cache)
        read_from = adapter.read_from_of(arena, cache)
        relation = causal_order(history, read_from)
        for pid, witness in result.serializations.items():
            view_ops = set(history.local(pid).operations) | {
                op for op in history.operations if op.is_write
            }
            assert set(witness) == view_ops
            assert respects(witness, relation.restricted_to(witness))
            found += 1
    assert found >= 3, "the generator produced too few consistent cases"


def test_witnesses_materialise_on_first_access():
    """The check builds no Operation; a view's witness is built through the
    shared cache on its first access, memoised, and the result equals the
    object checker's over the history of the same cache."""
    arena = next(a for a in (build_arena(seed, 3, 2, chaos=0) for seed in range(30))
                 if ArenaBatchChecker("causal", a).finalize().consistent)
    cache = {}
    result = ArenaBatchChecker("causal", arena, exact=True, cache=cache).finalize()
    assert isinstance(result.serializations, adapter.Witnesses)
    assert not cache
    pid = min(result.serializations)
    witness = result.witness(pid)
    assert len(cache) == len(arena)
    assert result.witness(pid) is witness
    assert {id(op) for op in witness} <= {id(op) for op in cache.values()}
    with pytest.raises(KeyError):
        result.witness(max(arena.processes) + 1)
    with pytest.raises(TypeError):
        result.serializations[pid] = []
    history = adapter.history_from_arena(arena, cache)
    read_from = adapter.read_from_of(arena, cache)
    expected = object_checker("causal").check(history, read_from=read_from)
    assert result == expected and expected == result


def test_first_stream_violation_positions_agree():
    """The columnar monitors report the object feed's earliest hit (row,
    message)."""
    agreed = 0
    for seed in range(20):
        arena = build_arena(seed, 3, 2, chaos=1)
        columnar = ArenaBatchChecker("pram", arena, exact=False)
        columnar.finalize()
        _, first = object_stream("pram", arena, exact=False)
        assert columnar.first_stream_violation == first
        if first is not None:
            agreed += 1
    assert agreed >= 3, "the generator produced too few monitor violations"


def scale_session(total_ops):
    """One end-to-end scale run: simulate, record, exact causal check."""
    return Session(
        protocol="pram_partial",
        distribution=("random", {"processes": 4, "variables": 8,
                                 "replicas_per_variable": 2, "seed": 3}),
        workload=("uniform", {"operations_per_process": total_ops // 4,
                              "write_fraction": 0.4}),
        seed=3,
        criteria=("causal",),
        exact=True,
    )


def test_a_live_run_matches_the_object_checker_at_1000_ops():
    """1 000 operations of a live run: verdict, violations and every view's
    witness labels agree with the object checker over the recorded history."""
    session = scale_session(1_000)
    columnar = session.run().results["causal"]
    reference = object_check("causal", session.recorder.arena)
    assert reference.consistent and reference.exact
    assert result_key(columnar) == result_key(reference)


def test_columnar_check_at_10k_rows():
    """At scale saturation still decides every view and emits its witness;
    the polynomial sweep alone stays a falsification check."""
    session = scale_session(10_000)
    session.checkers = {}  # record only
    session.run()
    arena = session.recorder.arena
    exact = ArenaBatchChecker("causal", arena, exact=True).finalize()
    assert exact.consistent and exact.exact and exact.serializations
    quick = ArenaBatchChecker("causal", arena, exact=False).finalize()
    assert quick.consistent and not quick.exact and not quick.serializations
