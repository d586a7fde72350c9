"""Differential test: the windows a ``repro serve`` tenant checks, decided on
the arena, against the object path.

A finite :class:`~repro.core.consistency.incremental.WindowedChecker` keeps
its window as rows of its own arena: compacted once it has evicted, with
stand-ins for evicted writers spliced in before the rows that follow them.
Every due check and close is
:meth:`~repro.arena.check.ArenaBatchChecker.solved` on that arena.  The
reference is the object per-view path by name,
:meth:`PerProcessChecker.check`, on the window materialised
(:func:`~repro.arena.adapter.history_from_arena`,
:func:`~repro.arena.adapter.read_from_of`).  Both must give the same
verdict, exactness and violations in order.

Inputs: the traces of the sixty :class:`~repro.hunt.SpecSampler` runs (an
app run exports none), each replayed through a
:class:`~repro.serve.monitor.TenantMonitor` as recorded and with one read
mutated — re-pointed at another earlier write on its variable, whose value
it then returns, or at ⊥.  The grid is causal/pram × window 8/64 ×
``every:1``/``every:4``; each trace runs both criteria in one (window,
policy) cell, the cells taken in turn.  Every window of a mutated replay
that holds the mutated read is compared, and every ``STRIDE``-th window
otherwise, so that at least a fifth of the compared windows are
inconsistent.
"""

import dataclasses
import random

import pytest

from repro.api import Session
from repro.arena import adapter
from repro.arena.check import ArenaBatchChecker
from repro.core.consistency import PerProcessChecker, get_checker
from repro.core.consistency.incremental import WindowedChecker
from repro.core.operations import BOTTOM, Operation
from repro.core.orders import causal_order, pram_generating_order
from repro.exceptions import ConsistencyCheckError
from repro.hunt import SpecSampler
from repro.serve.monitor import TenantMonitor
from repro.serve.spec import TenantSpec
from repro.serve.trace import read_trace

BUILDERS = {"causal": causal_order, "pram": pram_generating_order}
CELLS = ((8, "every:1"), (64, "every:1"), (8, "every:4"), (64, "every:4"))
#: One window in ``STRIDE`` is compared where no mutated read is held.
STRIDE = 16


def mutated(records, rng):
    """``records`` with one read re-pointed, and that read's ``(process,
    index)``; ``(None, None)`` when no read can be."""
    writes, candidates = [], []
    for at, record in enumerate(records):
        if record.is_write:
            writes.append(record)
            continue
        others = [w for w in writes
                  if w.variable == record.variable and (w.process, w.index) != record.source]
        if others or record.source is not None:
            candidates.append((at, others))
    if not candidates:
        return None, None
    at, others = rng.choice(candidates)
    read = records[at]
    if others and rng.random() < 0.75:
        writer = rng.choice(others)
        changed = dataclasses.replace(read, value=writer.value,
                                      source=(writer.process, writer.index))
    else:
        changed = dataclasses.replace(read, value=BOTTOM, source=None)
    return records[:at] + [changed] + records[at + 1:], (read.process, read.index)


def holds(window, read):
    """``True`` iff ``window`` retains the read ``(process, index)``."""
    return any(op.is_read and (op.process, op.index) == read for op in window._cache.values())


def test_every_sampled_window_agrees_with_the_object_path(tmp_path, monkeypatch):
    decide, solved = WindowedChecker._decide, ArenaBatchChecker.solved
    tally = {"windows": 0, "closes": 0, "compared": 0, "inconsistent": 0}
    replay = {}

    def closing(checker):
        tally["closes"] += 1
        return solved(checker)

    def routed(self, exact):
        closes = tally["closes"]
        result = decide(self, exact)
        assert tally["closes"] == closes + 1  # decided on the arena
        tally["windows"] += 1
        read = replay["mutated"]
        if read is None:
            replay["seen"] += 1
            if replay["seen"] % STRIDE:
                return result
        elif not holds(self, read):
            return result
        history = adapter.history_from_arena(self._arena, self._cache)
        read_from = adapter.read_from_of(self._arena, self._cache)
        expected = PerProcessChecker(BUILDERS[self.criterion], self.criterion).check(
            history, read_from, exact)
        assert (result.consistent, result.exact, result.violations) == \
            (expected.consistent, expected.exact, expected.violations), (replay, self.criterion)
        tally["compared"] += 1
        tally["inconsistent"] += not expected.consistent
        return result

    monkeypatch.setattr(ArenaBatchChecker, "solved", closing)
    monkeypatch.setattr(WindowedChecker, "_decide", routed)
    for index in range(60):
        spec = SpecSampler(0).sample(index)
        if spec.app is not None:
            continue
        path = str(tmp_path / f"{index}.jsonl")
        Session.from_spec(spec, trace_out=path).run()
        meta, records = read_trace(path)
        window, policy = CELLS[index % len(CELLS)]
        changed, read = mutated(records, random.Random(index))
        for stream, mutated_read in ((records, None), (changed, read)):
            if stream is None:
                continue
            replay.update(index=index, mutated=mutated_read, seen=0)
            for criterion in BUILDERS:
                monitor = TenantMonitor(TenantSpec(name="t", criterion=criterion,
                                                   policy=policy, window=window), meta=meta)
                for record in stream:
                    monitor.ingest(record)
                monitor.finalize()
    assert tally["inconsistent"] >= 0.2 * tally["compared"] > 0, tally


@pytest.mark.parametrize("window", [None, 4])
def test_a_read_from_that_is_no_retained_fed_write_on_the_variable_is_refused(window):
    """A read's ``read_from`` must be a row of the window: a write not yet
    fed, a write on another variable, an evicted write and a read are each
    refused with ``ConsistencyCheckError`` — never given a verdict."""
    checker = WindowedChecker(get_checker("causal"), window=window)
    fed = [Operation.write(0, "x", 1, index=0), Operation.write(0, "y", 2, index=1)]
    for op in fed:
        checker.feed(op)
    reader = Operation.read(1, "x", 1, index=0)
    checker.feed(reader, read_from=fed[0])
    unfed = Operation.write(2, "x", 3, index=0)
    refused = [unfed, fed[1], reader]
    if window is not None:  # five newer writes on x evict the first ones
        for index in range(2, 7):
            checker.feed(Operation.write(0, "x", index, index=index))
        assert checker.lookup_write(0, 0) is None
        refused.append(fed[0])
    for source in refused:
        with pytest.raises(ConsistencyCheckError, match="not a retained, fed write on x"):
            checker.feed(Operation.read(1, "x", source.value, index=1), read_from=source)
    assert checker.ops_fed == len(fed) + 1 + (5 if window else 0)
