"""Differential test: the columnar checker's two short cuts change nothing.

:meth:`~repro.arena.check.ArenaBatchChecker._causal_vcs` skips a read's merge
of its source's clocks when the reader already counts the source write (its
causal past is then inside the reader's).  The clocks must equal those of the
unconditional entry-by-entry merge, given here as the reference.

:meth:`~repro.arena.check.ArenaBatchChecker._bounds` with ``read_only`` builds
only the chains the bad-pattern pass reads.  The violations it names must be
those named on every chain's bounds.

Inputs: the batch-route differential's generator (half of the read-from maps
lie) and the sixty :class:`~repro.hunt.SpecSampler` runs.
"""

import random
from array import array

import pytest

from repro.api import Session
from repro.arena import adapter
from repro.arena.check import ArenaBatchChecker, _write_chains
from repro.arena.store import KIND_WRITE, NO_SOURCE
from repro.hunt import SpecSampler
from repro.workloads.random_history import random_history
from test_batch_route_differential import HISTORIES
from test_quick_violations_differential import tampered


def merged_clocks(arena, pids):
    """``(vc, wvc, merges skipped)``: the sweep with every sourced read
    merged entry by entry, and how many of those merges changed nothing
    because the reader already counted its source write."""
    kind, proc, index, source = arena.kind, arena.proc, arena.index, arena.source
    n, P = len(kind), len(pids)
    pidx = {pid: j for j, pid in enumerate(pids)}
    vc = array("i", bytes(4 * n * P))
    wvc = array("i", bytes(4 * n * P))
    last, wcount, skippable = {}, {}, 0
    for row in range(n):
        p, base = proc[row], row * P
        if p in last:
            pb = last[p] * P
            vc[base:base + P] = vc[pb:pb + P]
            wvc[base:base + P] = wvc[pb:pb + P]
        if kind[row] == KIND_WRITE:
            wcount[p] = wcount.get(p, 0) + 1
            wvc[base + pidx[p]] = wcount[p]
        elif source[row] != NO_SOURCE:
            sb, j = source[row] * P, pidx[proc[source[row]]]
            skippable += wvc[sb + j] <= wvc[base + j]
            for k in range(P):
                vc[base + k] = max(vc[base + k], vc[sb + k])
                wvc[base + k] = max(wvc[base + k], wvc[sb + k])
        vc[base + pidx[p]] = index[row] + 1
        last[p] = row
    return vc, wvc, skippable


def compare(arena, pids):
    """Both short cuts against their references on ``arena``; the number of
    merges the sweep skipped."""
    vc, wvc, skipped = merged_clocks(arena, pids)
    for criterion in ("causal", "pram"):
        checker = ArenaBatchChecker(criterion, arena)
        clocks = checker._causal_vcs(pids) if criterion == "causal" else None
        if clocks is not None:
            assert (clocks[0], clocks[1]) == (vc, wvc)
        chains = _write_chains(arena, pids)
        for p in pids:
            every = checker._bounds(p, chains, clocks)
            read = checker._bounds(p, chains, clocks, read_only=True)
            assert all(read[q] == every[q] for q in read)
            assert checker._bad_patterns(p, read, chains, clocks) == \
                checker._bad_patterns(p, every, chains, clocks), (criterion, p)
    return skipped


def test_generated_histories():
    skipped = 0
    for seed in range(HISTORIES):
        history = random_history(4, 2, 30, seed=seed)
        read_from = tampered(history, random.Random(seed)) if seed % 2 else history.read_from()
        arena = adapter.arena_from_history(history, read_from)
        if arena is not None:
            skipped += compare(arena, sorted(history.processes))
    assert skipped > 0


@pytest.mark.parametrize("index", range(60))
def test_sampled_runs(index):
    session = Session.from_spec(SpecSampler(0).sample(index))
    session.run()
    arena = session.recorder.arena
    compare(arena, sorted(arena.processes))
