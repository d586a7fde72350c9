"""Scalability study of x-relevance (paper, Section 3.3).

The paper argues that, without a priori knowledge of the variable
distribution, "any process is likely to belong to any hoop", so causal
consistency forces every process to handle control information about all the
shared data.  This study quantifies how quickly that happens: for families of
random distributions of increasing connectivity, it measures the fraction of
processes that are x-relevant (Theorem 1 characterisation) averaged over the
variables, and the fraction of distributions in which some variable has a
relevant process outside its replica set at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..core.share_graph import ShareGraph
from ..workloads.distributions import (
    chain_distribution,
    disjoint_blocks,
    random_distribution,
)
from .report import render_table


@dataclass
class RelevancePoint:
    """One measurement of the relevance study."""

    processes: int
    variables: int
    replicas_per_variable: int
    avg_relevance_fraction: float
    avg_hoop_process_fraction: float
    variables_with_hoops_fraction: float
    samples: int

    def as_row(self) -> Dict[str, object]:
        return {
            "n": self.processes,
            "m": self.variables,
            "replicas": self.replicas_per_variable,
            "relevant_frac": round(self.avg_relevance_fraction, 3),
            "hoop_proc_frac": round(self.avg_hoop_process_fraction, 3),
            "vars_with_hoops": round(self.variables_with_hoops_fraction, 3),
        }


def measure_distribution(share: ShareGraph) -> Dict[str, float]:
    """Relevance metrics of one share graph."""
    n = len(share.processes)
    fractions: List[float] = []
    hoop_fractions: List[float] = []
    with_hoops = 0
    for var in share.variables:
        relevant = share.relevant_processes(var)
        hoop_procs = share.hoop_processes(var)
        fractions.append(len(relevant) / n)
        hoop_fractions.append(len(hoop_procs) / n)
        if hoop_procs:
            with_hoops += 1
    m = max(len(share.variables), 1)
    return {
        "avg_relevance_fraction": sum(fractions) / m,
        "avg_hoop_process_fraction": sum(hoop_fractions) / m,
        "variables_with_hoops_fraction": with_hoops / m,
    }


def relevance_sweep(
    process_counts: Sequence[int] = (4, 6, 8, 10),
    variables_per_process: int = 2,
    replicas_per_variable: int = 2,
    samples: int = 5,
    seed: int = 0,
) -> List[RelevancePoint]:
    """Average relevance metrics over random distributions of growing size."""
    points: List[RelevancePoint] = []
    for n in process_counts:
        metrics = {"avg_relevance_fraction": 0.0,
                   "avg_hoop_process_fraction": 0.0,
                   "variables_with_hoops_fraction": 0.0}
        m = n * variables_per_process
        for sample in range(samples):
            dist = random_distribution(
                processes=n, variables=m,
                replicas_per_variable=min(replicas_per_variable, n),
                seed=seed + 1000 * n + sample,
            )
            sample_metrics = measure_distribution(ShareGraph.of(dist))
            for key in metrics:
                metrics[key] += sample_metrics[key]
        for key in metrics:
            metrics[key] /= samples
        points.append(RelevancePoint(
            processes=n,
            variables=m,
            replicas_per_variable=min(replicas_per_variable, n),
            avg_relevance_fraction=metrics["avg_relevance_fraction"],
            avg_hoop_process_fraction=metrics["avg_hoop_process_fraction"],
            variables_with_hoops_fraction=metrics["variables_with_hoops_fraction"],
            samples=samples,
        ))
    return points


def structured_comparison(processes: int = 8) -> List[Dict[str, object]]:
    """Relevance metrics of the structured distributions (hoop-free vs chain vs random)."""
    group_size = max(processes // 2, 1)
    rows: List[Dict[str, object]] = []
    cases = {
        "disjoint blocks (hoop-free)": disjoint_blocks(groups=2, group_size=group_size,
                                                        variables_per_group=2),
        "chain / hoop": chain_distribution(max(processes - 2, 1)),
        "random (2 replicas)": random_distribution(processes=processes,
                                                   variables=2 * processes,
                                                   replicas_per_variable=2, seed=1),
    }
    for name, dist in cases.items():
        metrics = measure_distribution(ShareGraph.of(dist))
        rows.append({
            "distribution": name,
            "processes": len(dist.processes),
            "variables": len(dist.variables),
            "relevant_frac": round(metrics["avg_relevance_fraction"], 3),
            "hoop_proc_frac": round(metrics["avg_hoop_process_fraction"], 3),
            "vars_with_hoops": round(metrics["variables_with_hoops_fraction"], 3),
        })
    return rows


def relevance_table(points: Sequence[RelevancePoint]) -> str:
    """Plain-text table of a relevance sweep."""
    return render_table([p.as_row() for p in points], title="x-relevance scalability study")
