"""Benchmarks for the Bellman-Ford case study (Figures 7-9, Section 6).

The series reported: correctness of the distributed run against the
centralised baselines, PRAM consistency of the recorded history, and the
absence of messages about unreplicated variables (the "efficient partial
replication" property), on the paper's network and on larger random networks.
"""

import pytest

from repro.apps.bellman_ford import bellman_ford_distribution, run_distributed_bellman_ford
from repro.apps.reference import bellman_ford as reference_bf
from repro.apps.reference import dijkstra
from repro.core.consistency import get_checker
from repro.mcs.metrics import relevance_violations
from repro.workloads.topology import figure8_network, random_network


def test_reference_bellman_ford_figure8(benchmark, figure8_graph):
    distances = benchmark(reference_bf, figure8_graph, 1)
    assert distances[5] == 4.0


def test_reference_dijkstra_figure8(benchmark, figure8_graph):
    distances = benchmark(dijkstra, figure8_graph, 1)
    assert distances == reference_bf(figure8_graph, 1)


def test_distributed_bellman_ford_figure8(benchmark, figure8_graph):
    run = benchmark.pedantic(
        run_distributed_bellman_ford, args=(figure8_graph,), kwargs={"source": 1},
        rounds=3, iterations=1,
    )
    assert run.correct
    assert run.report.efficiency.irrelevant_messages == 0
    history = run.report.history
    assert get_checker("pram").check(history, read_from=run.report.read_from).consistent
    dist = bellman_ford_distribution(figure8_graph)
    assert relevance_violations(run.report.efficiency, dist) == {}


def test_distributed_bellman_ford_random_network(benchmark):
    graph = random_network(nodes=10, extra_edges=8, seed=5)
    run = benchmark.pedantic(
        run_distributed_bellman_ford, args=(graph,), kwargs={"source": 1},
        rounds=2, iterations=1,
    )
    assert run.correct
    assert run.report.efficiency.irrelevant_messages == 0


def test_figure9_step_trace(benchmark):
    from repro.analysis.figures import figure9_step_trace

    result = benchmark.pedantic(figure9_step_trace, rounds=2, iterations=1)
    assert result.matches
    assert result.measured["rounds"] == 5


def test_distributed_bellman_ford_on_causal_full_is_costlier(benchmark, figure8_graph):
    """Ablation: the same program on the full-replication causal memory.

    Still correct, but the efficiency contrast the paper argues for shows up:
    broadcast updates reach processes that never access the variables.
    """
    run = benchmark.pedantic(
        run_distributed_bellman_ford, args=(figure8_graph,),
        kwargs={"source": 1, "protocol": "causal_full"}, rounds=2, iterations=1,
    )
    assert run.correct
    pram_run = run_distributed_bellman_ford(figure8_graph, source=1)
    assert run.report.efficiency.irrelevant_messages > 0
    assert pram_run.report.efficiency.irrelevant_messages == 0
    assert run.report.efficiency.control_bytes > pram_run.report.efficiency.control_bytes
