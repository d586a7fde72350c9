"""The columnar witness self-check rejects what it should, where it should.

:meth:`~repro.arena.check.ArenaBatchChecker._verify` reads a row's whole
causal clock only where the row's process merged a source clock since its
previous view row.  This test holds it to the per-row check it replaced,
:func:`reference_verify` (copied below, clocks read on every row): on the
witnesses of sampled causal and pram sessions, unchanged and mutated, both
raise on exactly the same witnesses, with the same message.

Inputs: the three session shapes of the benchmark (``scale_pram``,
``full_broadcast``, ``partial_causal``) at small size and sixty
:class:`~repro.hunt.SpecSampler` draws, each checked for both criteria.
Mutations of each witness: two rows swapped, a remote write moved one slot
back across a causal predecessor (which only the clock test can refuse when
the two rows belong to different processes), a row dropped, a row
duplicated.
"""

import dataclasses
import random
from operator import le
from unittest import mock

import pytest

from repro.api import Session
from repro.arena.check import ArenaBatchChecker
from repro.arena.store import KIND_WRITE, NO_SOURCE
from repro.hunt import SpecSampler
from repro.spec import CheckSpec
from repro.workloads.access_patterns import uniform_access_script
from repro.workloads.distributions import full_replication, random_distribution

CRITERIA = ("causal", "pram")
#: ``(protocol, distribution, operations, write fraction)`` of the benchmark's
#: three session workloads, at small size.
SHAPES = {
    "scale_pram": ("pram_partial", lambda: random_distribution(4, 8, 2, seed=3), 200, 0.4),
    "full_broadcast": ("causal_full", lambda: full_replication(16, 8), 64, 0.4),
    "partial_causal": ("causal_partial", lambda: random_distribution(6, 12, 3, seed=3), 300, 0.1),
}
SAMPLED = 60
#: Mutated witnesses per kind and captured view.
PER_KIND = 3


def reference_verify(arena, p, schedule, rows, clocks):
    """The self-check with the causal test on every row (clocks: the first
    three entries of ``_causal_vcs``)."""
    kind, proc, var, source = arena.kind, arena.proc, arena.var, arena.source
    lines = dict(rows)
    lines[p] = arena.rows_of(p)
    done = dict.fromkeys(lines, 0)
    if clocks is not None:
        vc, wvc, pidx = clocks[:3]
        counts, P = [0] * len(pidx), len(pidx)
    last = {}
    for row in schedule:
        q = proc[row]
        k = done[q]
        ok = k < len(lines[q]) and lines[q][k] == row
        done[q] = k + 1
        if kind[row] == KIND_WRITE:
            last[var[row]] = row
        elif last.get(var[row], NO_SOURCE) != source[row]:
            ok = False
        if clocks is not None and ok:
            counts[pidx[q]] = k + 1
            base = row * P
            ok = vc[base + pidx[p]] <= done[p] and all(map(le, wvc[base:base + P], counts))
        if not ok:
            raise AssertionError(f"p{p}: the columnar witness fails its self-check at row {row}")
    if any(done[q] != len(line) for q, line in lines.items()):
        raise AssertionError(f"p{p}: the columnar witness misses view operations")


def shape_session(name, criteria):
    protocol, distribution, operations, write_fraction = SHAPES[name]
    dist = distribution()
    script = uniform_access_script(dist, operations // len(dist.processes), write_fraction, seed=3)
    return Session(protocol, dist, script, seed=3, criteria=criteria, exact=True)


def sampled_sessions():
    """The scripted draws of the first ``SAMPLED`` (an application draw can
    run for tens of thousands of operations)."""
    check = CheckSpec(criteria=CRITERIA, policy="finalize", exact=True)
    for index in range(SAMPLED):
        spec = SpecSampler(0).sample(index)
        if spec.app is None:
            yield Session.from_spec(dataclasses.replace(spec, check=check))


def capture():
    """Per session (a shape name, or ``sampled``): ``(checker, p, witness
    rows, chain rows, clocks)`` of every ``_verify`` call it makes."""
    calls = {}
    real = ArenaBatchChecker._verify

    def recording(self, p, schedule, rows, clocks):
        calls.setdefault(source, []).append((self, p, list(schedule), rows, clocks))
        return real(self, p, schedule, rows, clocks)

    with mock.patch.object(ArenaBatchChecker, "_verify", recording):
        for source in SHAPES:
            shape_session(source, CRITERIA).run()
        source = "sampled"
        for session in sampled_sessions():
            session.run()
    return calls


BY_SOURCE = capture()
CALLS = [call for calls in BY_SOURCE.values() for call in calls]


def precedes(clocks, arena, a, b):
    """Whether row ``a`` is causally before row ``b`` (``b``'s clock counts it)."""
    vc, _, pidx, _ = clocks
    return vc[b * len(pidx) + pidx[arena.proc[a]]] > arena.index[a]


def mutations(checker, p, witness, rows, clocks, rng):
    """``(kind, witness)`` mutants of one witness."""
    arena = checker.arena
    n = len(witness)
    causal = checker._causal_vcs(sorted(rows))  # the order to move writes across, any criterion
    remote = [i for i in range(1, n) if p != arena.proc[witness[i]] != arena.proc[witness[i - 1]]
              and precedes(causal, arena, witness[i - 1], witness[i])]
    for _ in range(PER_KIND):
        i = rng.randrange(n)
        j = min(i + 1, n - 1) if rng.random() < 0.5 else rng.randrange(n)
        if i != j:
            swapped = list(witness)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            yield "swap", swapped
        if remote:
            k = rng.choice(remote)
            moved = list(witness)
            moved[k - 1], moved[k] = moved[k], moved[k - 1]
            yield "move", moved
        yield "drop", witness[:i] + witness[i + 1:]
        yield "duplicate", witness[:j] + [witness[i]] + witness[j:]


def outcome(verify, *args):
    try:
        verify(*args)
    except AssertionError as exc:
        return str(exc)
    return None


def test_the_sessions_give_both_criteria_and_many_views():
    criteria = [checker.criterion for checker, *_ in CALLS]
    assert criteria.count("causal") > 150 and criteria.count("pram") > 150
    assert all((clocks is None) == (checker.criterion == "pram")
               for checker, _, _, _, clocks in CALLS)


def test_each_captured_witness_passes_both_checks():
    for checker, p, witness, rows, clocks in CALLS:
        assert outcome(reference_verify, checker.arena, p, witness, rows, clocks) is None
        assert outcome(checker._verify, p, witness, rows, clocks) is None


def test_a_mutated_witness_fails_exactly_where_the_reference_fails():
    rng = random.Random(47)
    compared = rejected = clock_only = 0
    kinds = {}
    for checker, p, witness, rows, clocks in CALLS:
        for kind, mutant in mutations(checker, p, witness, rows, clocks, rng):
            expected = outcome(reference_verify, checker.arena, p, mutant, rows, clocks)
            assert outcome(checker._verify, p, mutant, rows, clocks) == expected, (kind, p)
            compared += 1
            kinds[kind] = kinds.get(kind, 0) + 1
            if expected is not None:
                rejected += 1
                if clocks is not None and outcome(
                        reference_verify, checker.arena, p, mutant, rows, None) is None:
                    clock_only += 1
    assert compared >= 2000 and min(kinds.values()) >= 400, kinds
    # both answers occur, and the clock test alone refuses a good share
    assert 0.2 * compared < rejected < compared
    assert clock_only >= 200


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_a_remote_write_moved_before_its_causal_predecessor_is_refused(name):
    """On every causal view of the shape, each remote write that directly
    follows a causal predecessor of another process is moved before it: the
    chains and sources still hold, so the clock test alone must refuse."""
    refused = 0
    for checker, p, witness, rows, clocks in BY_SOURCE[name]:
        if clocks is None:
            continue
        arena = checker.arena
        for i in range(1, len(witness)):
            a, b = witness[i - 1], witness[i]
            if arena.proc[b] == p or arena.proc[a] == arena.proc[b] \
                    or not precedes(clocks, arena, a, b):
                continue
            moved = witness[:i - 1] + [b, a] + witness[i + 1:]
            expected = outcome(reference_verify, arena, p, moved, rows, clocks)
            assert expected == f"p{p}: the columnar witness fails its self-check at row {b}"
            assert outcome(checker._verify, p, moved, rows, clocks) == expected
            refused += 1
    assert refused > 0
