"""Tests of the x-relevance study (paper, Section 3.3)."""

from repro.analysis.relevance_study import (
    measure_distribution,
    relevance_sweep,
    relevance_table,
    structured_comparison,
)
from repro.core.share_graph import ShareGraph
from repro.workloads.distributions import chain_distribution, disjoint_blocks, random_distribution


class TestRelevanceStudy:
    def test_measure_distribution_on_known_cases(self):
        chain = measure_distribution(ShareGraph(chain_distribution(3)))
        assert chain["avg_hoop_process_fraction"] > 0
        blocks = measure_distribution(ShareGraph(disjoint_blocks(2, 3)))
        assert blocks["avg_hoop_process_fraction"] == 0
        assert blocks["variables_with_hoops_fraction"] == 0
        dense = measure_distribution(ShareGraph(random_distribution(
            processes=16, variables=32, replicas_per_variable=4, seed=3)))
        assert 0 < dense["avg_relevance_fraction"] <= 1

    def test_relevance_sweep_shape(self):
        points = relevance_sweep(process_counts=(4, 6), samples=2)
        assert [p.processes for p in points] == [4, 6]
        for point in points:
            assert 0 <= point.avg_relevance_fraction <= 1
        table = relevance_table(points)
        assert "relevant_frac" in table

    def test_structured_comparison(self):
        rows = structured_comparison(processes=6)
        by_name = {r["distribution"]: r for r in rows}
        assert by_name["disjoint blocks (hoop-free)"]["hoop_proc_frac"] == 0
        assert by_name["chain / hoop"]["hoop_proc_frac"] > 0
        at_eight = {r["distribution"]: r for r in structured_comparison(processes=8)}
        assert at_eight["chain / hoop"]["hoop_proc_frac"] > 0.5
