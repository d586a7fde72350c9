"""Count-based guards: Theorem 1 is asked of a distribution once.

:meth:`ShareGraph.of` memoises the graph on its distribution, so the protocol
processes of one run, its efficiency report and the placement objectives all
read the same results.  These tests count the work — exact block passes and
adjacency builds — instead of timing it.
"""

import gc
import pickle
import weakref

import pytest

from repro.api import Session
from repro.core import share_graph as share_graph_module
from repro.core.consistency import get_checker
from repro.core.consistency.incremental import WindowedChecker
from repro.core.distribution import VariableDistribution
from repro.core.share_graph import ShareGraph
from repro.exceptions import RelationDomainError
from repro.place import optimize_placement, synthetic_profile
from repro.workloads.access_patterns import zipfian_access_script


@pytest.fixture
def work(monkeypatch):
    """Counts of exact Theorem 1 passes and of adjacency builds."""
    counts = {"block_passes": 0, "adjacencies": 0}
    real_pass = ShareGraph._block_pass

    def counting_pass(clique, adjacency):
        counts["block_passes"] += 1
        return real_pass(clique, adjacency)

    class CountingGraph(share_graph_module.LabelledGraph):
        def __init__(self):
            counts["adjacencies"] += 1
            super().__init__()

    monkeypatch.setattr(ShareGraph, "_block_pass", staticmethod(counting_pass))
    monkeypatch.setattr(share_graph_module, "LabelledGraph", CountingGraph)
    return counts


def placed_distribution():
    profile = synthetic_profile(12, 8, accessors_per_variable=3, seed=3)
    return profile.minimal_distribution()


def script_for(distribution):
    return zipfian_access_script(distribution, operations_per_process=2,
                                 write_fraction=0.5, seed=3)


def test_one_session_asks_theorem1_once_per_variable(work):
    distribution = placed_distribution()
    assert all(len(distribution.holders(v)) < len(distribution.processes)
               for v in distribution.variables)
    report = Session("causal_tree", distribution, script_for(distribution),
                     exact=False).run()
    assert report.relevance_violations == 0
    # every protocol process, every routing table and the efficiency report
    assert work == {"block_passes": len(distribution.variables), "adjacencies": 1}


def test_full_replication_builds_nothing(work):
    placed = placed_distribution()
    distribution = VariableDistribution.full_replication(placed.processes, placed.variables)
    Session("causal_full", distribution, script_for(placed), exact=False).run()
    share = ShareGraph.of(distribution)
    assert all(share.hoop_processes(v) == share.hoop_candidates(v) == frozenset()
               for v in distribution.variables)
    assert work == {"block_passes": 0, "adjacencies": 0}


def test_greedy_search_makes_no_exact_pass(work):
    profile = synthetic_profile(40, 24, accessors_per_variable=3, seed=3)
    result = optimize_placement(profile, "control", seed=3, budget=25)
    assert (result.mode, result.evaluations) == ("greedy", 25)
    assert work["block_passes"] == 0
    # one graph per scored placement; full replication needs none
    assert work["adjacencies"] == result.evaluations


def test_graph_is_memoised_on_the_instance_and_outside_its_value():
    distribution = placed_distribution()
    twin = placed_distribution()
    share = ShareGraph.of(distribution)
    assert ShareGraph.of(distribution) is share
    assert ShareGraph.of(twin) is not share
    assert distribution == twin and hash(distribution) == hash(twin)
    share.relevance_report()

    restored = pickle.loads(pickle.dumps(distribution))
    assert restored == distribution
    assert restored._share_graph is None
    assert len(pickle.dumps(distribution)) == len(pickle.dumps(twin))
    assert ShareGraph.of(distribution) is share


def test_a_distribution_and_its_graph_are_freed_by_reference_counting():
    """The graph keeps its distribution's tables, not the distribution: with
    the cyclic collector off, the pair dies with its last outside reference,
    also once a windowed checker (a served tenant's) has asked for it."""
    gc.disable()
    try:
        distribution = placed_distribution()
        share = ShareGraph.of(distribution)
        share.relevance_report()
        checker = WindowedChecker(get_checker("causal"), window=8, distribution=distribution)
        alive = weakref.ref(distribution), weakref.ref(share)
        del distribution, share, checker
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()


def test_group_of_is_answered_from_the_memoised_groups():
    share = ShareGraph(VariableDistribution({0: "ab", 1: "b", 2: "c", 3: "c", 4: ""}))
    groups = share.variable_groups()
    assert share.variable_groups() is groups
    assert [sorted(vars_) for vars_, _ in groups] == [["a", "b"], ["c"]]
    assert share.group_of("a") is share.group_of("b") is groups[0]
    assert share.group_of("c") == (frozenset("c"), frozenset({2, 3}))
    with pytest.raises(RelationDomainError, match="'z' not in the distribution"):
        share.group_of("z")
