"""Integration tests of the distributed Bellman-Ford case study (paper, §6)."""

import pytest

from repro.api import Session
from repro.apps.bellman_ford import (
    bellman_ford_distribution,
    bellman_ford_instance,
    distance_variable,
    round_variable,
)
from repro.apps.reference import bellman_ford as reference
from repro.core.consistency import get_checker
from repro.mcs.metrics import relevance_violations
from repro.workloads.topology import figure8_network, line_network, random_network


class TestDistribution:
    def test_paper_variable_distribution(self):
        dist = bellman_ford_distribution(figure8_network())
        # Section 6: X_2 = {x1, x2, x3, k1, k2, k3} etc.
        assert dist.variables_of(2) == frozenset(
            {"x1", "x2", "x3", "k1", "k2", "k3"}
        )
        assert dist.variables_of(1) >= {"x1", "k1"}
        assert dist.variables_of(5) == frozenset(
            {"x3", "x4", "x5", "k3", "k4", "k5"}
        )
        assert not dist.is_fully_replicated()

    def test_variable_names(self):
        assert distance_variable(3) == "x3"
        assert round_variable(4) == "k4"


def run_bellman_ford(graph, source=1, protocol="pram_partial"):
    """One unchecked Figure 7 run: the report and the per-round trace."""
    instance = bellman_ford_instance(graph, source=source)
    report = Session(protocol, app=instance, check=False).run()
    return report, instance.details["trace"]


class TestDistributedRun:
    def test_figure8_run_matches_reference(self):
        report, trace = run_bellman_ford(figure8_network())
        assert report.app_correct is True
        assert report.app_results == reference(figure8_network(), source=1)
        assert report.app_expected == reference(figure8_network(), source=1)
        assert max(len(entries) for entries in trace.values()) == figure8_network().node_count

    def test_history_is_pram_consistent_and_efficient(self):
        report, _ = run_bellman_ford(figure8_network())
        for criterion in ("pram", "slow"):
            checker = get_checker(criterion)
            assert checker.check(report.history, read_from=report.read_from).consistent
        assert report.efficiency.irrelevant_messages == 0
        dist = bellman_ford_distribution(figure8_network())
        assert relevance_violations(report.efficiency, dist) == {}

    def test_trace_records_every_round(self):
        _, trace = run_bellman_ford(figure8_network())
        for node, entries in trace.items():
            assert [k for k, _ in entries] == list(range(1, len(entries) + 1))
        assert set(trace) == set(figure8_network().nodes)

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            bellman_ford_instance(figure8_network(), source=77)

    def test_line_network(self):
        graph = line_network(4, weight=2.0)
        report, _ = run_bellman_ford(graph)
        assert report.app_correct is True
        assert report.app_results[4] == pytest.approx(6.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_networks(self, seed):
        graph = random_network(nodes=6, extra_edges=3, seed=seed)
        report, _ = run_bellman_ford(graph)
        assert report.app_correct is True, (report.app_results, report.app_expected)

    def test_run_on_causal_full_protocol_also_correct_but_not_efficient(self):
        # The algorithm only needs PRAM, but of course still works on the
        # stronger (and more expensive) full-replication causal memory.
        report, _ = run_bellman_ford(figure8_network(), protocol="causal_full")
        assert report.app_correct is True
        assert report.efficiency.irrelevant_messages > 0
