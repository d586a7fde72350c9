#!/usr/bin/env python
"""The paper's case study: distributed Bellman-Ford routing over PRAM DSM (§6).

Reproduces Figures 7-9: every network node runs the Figure 7 program against a
partially replicated PRAM memory; the computed least-cost routes are compared
with the centralised Bellman-Ford and Dijkstra baselines, and the run's
control-information profile shows that no process ever received a message
about a variable it does not replicate.

Run with ``python examples/bellman_ford_routing.py``.
"""

from repro import Session
from repro.analysis.report import render_table
from repro.apps.bellman_ford import bellman_ford_distribution, bellman_ford_instance
from repro.apps.reference import dijkstra
from repro.core.consistency import get_checker
from repro.workloads.topology import figure8_network, random_network


def run_on(graph, source, label):
    print(f"=== {label} (source node {source}) ===")
    report = Session("pram_partial", app=bellman_ford_instance(graph, source=source),
                     check=False).run()
    dj = dijkstra(graph, source)
    rows = [
        {
            "node": node,
            "distributed (PRAM DSM)": report.app_results[node],
            "Bellman-Ford (reference)": report.app_expected[node],
            "Dijkstra (reference)": dj[node],
        }
        for node in graph.nodes
    ]
    print(render_table(rows, title="Least-cost routes"))
    pram = get_checker("pram").check(report.history, read_from=report.read_from)
    efficiency = report.efficiency
    print(f"distributed run matches reference : {report.app_correct}")
    print(f"recorded history is PRAM consistent: {pram.consistent}")
    print(f"messages exchanged                 : {efficiency.messages_sent}")
    print(f"control bytes                      : {efficiency.control_bytes}")
    print(f"messages about unreplicated vars   : {efficiency.irrelevant_messages}")
    print()


def show_distribution(graph):
    distribution = bellman_ford_distribution(graph)
    print("Variable distribution of the Figure 8 network (paper, Section 6):")
    print(distribution.describe())
    print()


def run_spec_driven_under_faults() -> None:
    """The same case study as one spec-driven Session over a faulty network."""
    report = Session(
        protocol="pram_partial",
        app=("bellman_ford", {"topology": "figure8", "source": 1}),
        network=("faulty", {"latency": 0.1, "duplicate_rate": 0.3}),
        exact=False,
    ).run()
    print("=== Spec-driven run over a duplicating faulty network ===")
    print(report.summary())
    print()


def main() -> None:
    figure8 = figure8_network()
    show_distribution(figure8)
    run_on(figure8, source=1, label="Figure 8 network")
    run_on(random_network(nodes=8, extra_edges=6, seed=3), source=1,
           label="Random 8-node network")
    run_spec_driven_under_faults()


if __name__ == "__main__":
    main()
