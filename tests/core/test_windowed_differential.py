"""Differential test: the windows a ``repro serve`` tenant checks, decided on
the arena, against the object path.

A finite :class:`~repro.core.consistency.incremental.WindowedChecker` hands
its checker a windowed ``History``: gap indices once it has evicted, and
stand-ins for evicted writers, built after the operations that follow them.
For causal and pram that check is the arena's
(:class:`~repro.core.consistency.criteria.ColumnarChecker`:
:func:`~repro.arena.adapter.arena_from_history`, then
:meth:`~repro.arena.check.ArenaBatchChecker.solved`).  The reference is the
object per-view path by name, :meth:`PerProcessChecker.check`.  Both must
give the same verdict, exactness and violations in order.

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

from repro.api import Session
from repro.arena.check import ArenaBatchChecker
from repro.core.consistency import PerProcessChecker
from repro.core.consistency.criteria import ColumnarChecker
from repro.core.operations import BOTTOM
from repro.core.orders import causal_order, pram_generating_order
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


def holds(history, read):
    process, index = read
    return process in history.processes and any(
        op.is_read and op.index == index for op in history.local(process).operations)


def test_every_sampled_window_agrees_with_the_object_path(tmp_path, monkeypatch):
    check, solved = ColumnarChecker.check, ArenaBatchChecker.solved
    tally = {"windows": 0, "closes": 0, "compared": 0, "inconsistent": 0}
    replay = {}

    def closing(checker):
        tally["closes"] += 1
        return solved(checker)

    def routed(self, history, read_from=None, exact=True):
        closes = tally["closes"]
        result = check(self, history, read_from, exact)
        if not history.windowed:
            return result
        assert tally["closes"] == closes + 1  # decided on the arena
        tally["windows"] += 1
        read = replay["mutated"]
        if read is None:
            replay["seen"] += 1
            if replay["seen"] % STRIDE:
                return result
        elif not holds(history, read):
            return result
        expected = PerProcessChecker(BUILDERS[self.name], self.name).check(
            history, read_from, exact)
        assert (result.consistent, result.exact, result.violations) == \
            (expected.consistent, expected.exact, expected.violations), (replay, self.name)
        tally["compared"] += 1
        tally["inconsistent"] += not expected.consistent
        return result

    monkeypatch.setattr(ArenaBatchChecker, "solved", closing)
    monkeypatch.setattr(ColumnarChecker, "check", routed)
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
