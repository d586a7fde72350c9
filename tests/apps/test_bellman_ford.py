"""Integration tests of the distributed Bellman-Ford case study (paper, §6)."""

import pytest

from repro.apps.bellman_ford import (
    bellman_ford_distribution,
    distance_variable,
    round_variable,
    run_distributed_bellman_ford,
)
from repro.apps.reference import bellman_ford as reference
from repro.core.consistency import get_checker
from repro.core.share_graph import ShareGraph
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


class TestDistributedRun:
    def test_figure8_run_matches_reference(self):
        run = run_distributed_bellman_ford(figure8_network(), source=1)
        assert run.correct
        assert run.distances == reference(figure8_network(), source=1)
        assert run.rounds == figure8_network().node_count

    def test_history_is_pram_consistent_and_efficient(self):
        run = run_distributed_bellman_ford(figure8_network(), source=1)
        history = run.report.history
        for criterion in ("pram", "slow"):
            checker = get_checker(criterion)
            assert checker.check(history, read_from=run.report.read_from).consistent
        assert run.report.efficiency.irrelevant_messages == 0
        dist = bellman_ford_distribution(figure8_network())
        assert relevance_violations(run.report.efficiency, dist) == {}

    def test_trace_records_every_round(self):
        run = run_distributed_bellman_ford(figure8_network(), source=1)
        for node, entries in run.trace.items():
            assert [k for k, _ in entries] == list(range(1, len(entries) + 1))
        assert set(run.trace) == set(figure8_network().nodes)

    def test_unknown_source_rejected(self):
        with pytest.raises(ValueError):
            run_distributed_bellman_ford(figure8_network(), source=77)

    def test_line_network(self):
        graph = line_network(4, weight=2.0)
        run = run_distributed_bellman_ford(graph, source=1)
        assert run.correct
        assert run.distances[4] == pytest.approx(6.0)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_random_networks(self, seed):
        graph = random_network(nodes=6, extra_edges=3, seed=seed)
        run = run_distributed_bellman_ford(graph, source=1)
        assert run.correct, (run.distances, run.reference)

    def test_run_on_causal_full_protocol_also_correct_but_not_efficient(self):
        # The algorithm only needs PRAM, but of course still works on the
        # stronger (and more expensive) full-replication causal memory.
        run = run_distributed_bellman_ford(figure8_network(), source=1,
                                           protocol="causal_full")
        assert run.correct
        assert run.report.efficiency.irrelevant_messages > 0
