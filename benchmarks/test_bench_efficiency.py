"""Benchmarks for the replica-placement optimizer and the efficiency headline.

The series reported: placement-optimizer wall-clock at the two scales the
``repro.place`` package targets (exact search on a paper-sized system, seeded
local search at 100 processes) plus the Section 3.3 headline at 100 processes:
the optimized partial placement moves strictly fewer control bytes per message
than full replication on the same script, with every seeded count pinned
exactly.  The 40-process variant of the comparison is the e2e ``place_40p``
workload (``make bench``), whose counters ``expected.json`` pins.
"""

import pytest

from repro.api import Session
from repro.core.distribution import VariableDistribution
from repro.place import optimize_placement, synthetic_profile
from repro.workloads.access_patterns import zipfian_access_script

#: The headline's scale (Section 3.3 comparison point).
PROCESSES, VARIABLES = 100, 60


def test_optimize_exact_small(benchmark):
    profile = synthetic_profile(8, 6, accessors_per_variable=2, seed=2)
    result = benchmark.pedantic(
        lambda: optimize_placement(profile, "control", mode="exact", seed=0),
        rounds=3, iterations=1,
    )
    assert result.mode == "exact"
    assert result.cost <= result.minimal_cost


@pytest.fixture(scope="module")
def profile_100p():
    return synthetic_profile(PROCESSES, VARIABLES, accessors_per_variable=3, seed=7)


@pytest.fixture(scope="module")
def placement_100p(profile_100p):
    return optimize_placement(profile_100p, "control", seed=3, budget=25)


def test_optimize_greedy_at_scale(benchmark, profile_100p, placement_100p):
    result = benchmark.pedantic(
        lambda: optimize_placement(profile_100p, "control", seed=3, budget=25),
        rounds=1, iterations=1,
    )
    assert result.mode == "greedy"
    assert result.cost <= result.minimal_cost
    # same profile + seed must reproduce the same placement bit for bit
    assert result.distribution == placement_100p.distribution
    assert result.cost == placement_100p.cost


def test_placed_beats_full_replication_control_bytes(benchmark, profile_100p,
                                                     placement_100p):
    """The Section 3.3 headline at 100 processes, every seeded count exact.

    The script is generated against the accessor-minimal distribution, so it
    is valid on every placement.
    """
    script = zipfian_access_script(profile_100p.minimal_distribution(),
                                   operations_per_process=2,
                                   write_fraction=0.5, skew=1.0, seed=5)

    def run_placed():
        return Session("causal_tree", placement_100p.distribution, script,
                       seed=5, exact=False).run()

    placed = benchmark.pedantic(run_placed, rounds=1, iterations=1)
    full_dist = VariableDistribution.full_replication(
        range(PROCESSES), [f"x{i}" for i in range(VARIABLES)])
    full = Session("causal_full", full_dist, script, seed=5, exact=False).run()
    assert placed.outcome() == "pass"
    assert full.outcome() == "pass"
    assert placement_100p.evaluations == 25
    assert placed.efficiency.messages_sent == 5647
    assert full.efficiency.messages_sent == 9702
    assert round(placed.efficiency.control_bytes_per_message, 2) == 68.63
    assert round(full.efficiency.control_bytes_per_message, 2) == 1618.83
    assert (placed.efficiency.control_bytes_per_message
            < full.efficiency.control_bytes_per_message)
