"""Differential test: columnar saturation alone decides every causal and PRAM view.

An exact arena check runs :meth:`~repro.arena.check.ArenaBatchChecker._witness`
with no bad-pattern gate before it, and the bad patterns only on a view it
rejects.  So saturation must be a complete decider by itself: called directly
on every view, on the view's fresh batch index, it returns ``None`` exactly
when the object per-view path (:class:`PerProcessChecker` by name, which keeps
the gate-first order) rejects that view, and it never raises — its witness
self-check (``_verify``) never fails.

Inputs: the batch-route differential's generator (half of the read-from maps
lie) and the sixty :class:`~repro.hunt.SpecSampler` runs with one read-from
mutation each, both criteria.
"""

import random

import pytest

from repro.api import Session
from repro.arena import adapter
from repro.arena.check import ArenaBatchChecker, _write_chains
from repro.core.consistency import PerProcessChecker
from repro.core.history import History, HistoryBuilder
from repro.core.orders import causal_order, pram_generating_order
from repro.hunt import SpecSampler
from repro.workloads.random_history import random_history
from test_batch_route_differential import HISTORIES
from test_quick_violations_differential import tampered
from test_saturation_differential import MUTATIONS, mutated

BUILDERS = {"causal": causal_order, "pram": pram_generating_order}


def gate_free(criterion, arena, pids):
    """Per view: its bad patterns and saturation's witness rows (``None``:
    rejected), each computed alone on the view's fresh batch index."""
    checker = ArenaBatchChecker(criterion, arena)
    clocks = checker._causal_vcs(pids) if criterion == "causal" else None
    chains = _write_chains(arena, pids)
    return {p: (checker._bad_patterns(p, checker._bounds(p, chains, clocks), chains, clocks),
                checker._witness(p, checker._bounds(p, chains, clocks), chains, clocks))
            for p in pids}


class Tally:
    """Views compared, rejected, and rejected with bad patterns."""

    def __init__(self):
        self.views = self.rejected = self.with_bad_patterns = 0


def compare(history, read_from, tally):
    """Saturation alone against the object path, view by view, both criteria;
    ``False`` when no arena can be built (a program-order ∪ read-from cycle)."""
    arena = adapter.arena_from_history(history, read_from)
    if arena is None:
        return False
    pids = sorted(history.processes)
    for criterion, builder in BUILDERS.items():
        reference = PerProcessChecker(builder, criterion).check(history, read_from, exact=True)
        assert reference.exact
        for p, (bad, witness) in gate_free(criterion, arena, pids).items():
            rejected = p not in reference.serializations
            assert (witness is None) == rejected, (criterion, p)
            assert not (bad and witness is not None), (criterion, p)
            tally.views += 1
            tally.rejected += rejected
            tally.with_bad_patterns += bool(bad)
    return True


def test_a_bottom_read_after_an_own_write_is_rejected():
    """``w0(x)1; r0(x)⊥``: the read of ⊥ follows an own write on x."""
    b = HistoryBuilder()
    b.write(0, "x", 1).read(0, "x")
    history = b.build()
    read = history.local(0).operations[1]
    arena = adapter.arena_from_history(history, {read: None})
    for criterion in BUILDERS:
        assert gate_free(criterion, arena, [0])[0][1] is None, criterion


def test_generated_histories():
    tally = Tally()
    for seed in range(HISTORIES):
        history = random_history(4, 2, 30, seed=seed)
        read_from = tampered(history, random.Random(seed)) if seed % 2 else history.read_from()
        compare(history, read_from, tally)
    assert tally.rejected >= 0.3 * tally.views
    assert tally.with_bad_patterns >= 1_000


@pytest.mark.parametrize("index", range(60))
def test_sampled_runs_and_one_mutation_each(index):
    report = Session.from_spec(SpecSampler(0).sample(index)).run()
    if not isinstance(report.history, History):
        pytest.skip("the scenario keeps no history")
    rng = random.Random(index)
    kind = MUTATIONS[index % len(MUTATIONS)]
    for read_from in (report.read_from, mutated(report.history, report.read_from, rng, kind)):
        if read_from is not None:
            compare(report.history, read_from, Tally())
