"""Property tests: the columnar checker must match the materialised pipeline.

:class:`repro.arena.check.ArenaBatchChecker` has two modes sharing one
result contract — below ``materialize_max`` it replays the object engine's
incremental pipeline over materialised operations; above it, the pram and
causal criteria run entirely on the arena's integer columns (monitor
replica, quick bad-pattern enumeration, and saturation, which decides each
view and builds its witness).  Forcing each mode explicitly
(``materialize_max=0`` vs ``=∞``) on the same randomly generated arenas pins
the equivalence guarantee the
``Session(engine="arena")`` axis is built on: identical verdicts, identical
violation strings in identical order, and witnesses for the same views.
"""

import random

import pytest

from repro.api import Session
from repro.arena.check import ArenaBatchChecker
from repro.arena.store import OpArena
from repro.core.operations import BOTTOM
from repro.core.orders import causal_order
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
        tuple(sorted(result.serializations)),
    )


def checker_pair(criterion, arena, exact=True):
    columnar = ArenaBatchChecker(criterion, arena, exact=exact, materialize_max=0)
    materialised = ArenaBatchChecker(criterion, arena, exact=exact,
                                     materialize_max=10**9)
    return columnar, materialised


CASES = [(seed, p, v, chaos)
         for seed in range(12) for p in (2, 3, 4) for v in (1, 3)
         for chaos in (0, 1)]


@pytest.mark.parametrize("criterion", ["causal", "pram"])
@pytest.mark.parametrize("seed,processes,variables,chaos", CASES)
def test_columnar_matches_materialised(criterion, seed, processes, variables, chaos):
    arena = build_arena(seed, processes, variables, chaos)
    columnar, materialised = checker_pair(criterion, arena)
    assert result_key(columnar.finalize()) == result_key(materialised.finalize())


@pytest.mark.parametrize("criterion", ["causal", "pram"])
def test_check_now_accumulation_matches(criterion):
    """The checkpoint path must dedup exactly like PrefixChecker.check_now."""
    for seed in range(8):
        arena = build_arena(seed, 3, 2, chaos=1)
        columnar, materialised = checker_pair(criterion, arena)
        ca, cb = columnar.check_now(), materialised.check_now()
        assert (ca is None) == (cb is None)
        if ca is not None:
            assert ca.violations == cb.violations
            assert not ca.consistent and ca.exact
        assert result_key(columnar.finalize()) == result_key(materialised.finalize())


def test_witnesses_are_legal_serializations():
    """Every columnar witness must respect the criterion's restricted order."""
    from repro.arena import adapter

    found = 0
    for seed in range(30):
        arena = build_arena(seed, 3, 2, chaos=0)
        cache = {}  # shared with the checker: one Operation identity per row
        columnar = ArenaBatchChecker("causal", arena, exact=True,
                                     materialize_max=0, cache=cache)
        result = columnar.finalize()
        if not result.consistent or not result.serializations:
            continue
        adapter.materialize_prefix(arena, len(arena), cache)
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


def test_first_stream_violation_positions_agree():
    """Both modes must report the same earliest monitor hit (row, message)."""
    agreed = 0
    for seed in range(20):
        arena = build_arena(seed, 3, 2, chaos=1)
        columnar, materialised = checker_pair("pram", arena, exact=False)
        columnar.finalize()
        materialised.finalize()
        assert columnar.first_stream_violation == materialised.first_stream_violation
        if columnar.first_stream_violation is not None:
            agreed += 1
    assert agreed >= 3, "the generator produced too few monitor violations"


def scale_session(engine, total_ops):
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
        engine=engine,
    )


def test_engines_agree_at_the_object_engines_reference_size():
    """400 operations: the largest history the object engine checks exactly
    in seconds, not minutes (its cost grows superlinearly past it)."""
    results = {engine: scale_session(engine, 400).run().results["causal"]
               for engine in ("object", "arena")}
    assert results["object"].consistent and results["object"].exact
    assert result_key(results["object"]) == result_key(results["arena"])


def test_columnar_check_at_10k_rows():
    """Above every materialisation threshold: witnesses come from the
    scheduler, and the polynomial sweep alone stays a falsification check."""
    session = scale_session("arena", 10_000)
    session.checkers = {}  # record only
    session.run()
    arena = session.recorder.arena
    exact = ArenaBatchChecker("causal", arena, exact=True, materialize_max=0).finalize()
    assert exact.consistent and exact.exact and exact.serializations
    quick = ArenaBatchChecker("causal", arena, exact=False, materialize_max=0).finalize()
    assert quick.consistent and not quick.exact and not quick.serializations
