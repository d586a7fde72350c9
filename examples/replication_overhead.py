#!/usr/bin/env python
"""Quantifying the efficiency argument of Section 3.3.

The registered ``section33-overhead`` scenario replays one scripted workload
over the four MCS protocols and tabulates each run's control-information
profile; two ad-hoc experiment grids then grow the number of processes and
the replication degree, to show how the causal protocols' control cost scales
while the partial-replication PRAM protocol stays constant per message.

Run with ``python examples/replication_overhead.py``.
"""

from repro.analysis.relevance_study import relevance_sweep, relevance_table, structured_comparison
from repro.analysis.report import render_records, render_table
from repro.experiments import (
    REGISTRY,
    DistributionSpec,
    ExperimentSpec,
    WorkloadSpec,
    run_suite,
)

COLUMNS = ["protocol", "procs", "msgs", "ctrl_B/msg", "irrelevant", "beyond_thm1"]
PROTOCOLS = ("pram_partial", "causal_partial", "causal_full")
WORKLOAD = WorkloadSpec("uniform", {"operations_per_process": 6, "write_fraction": 0.6})


def sweep(name: str, axis: str, values) -> list:
    """Records of one grid over a random 6-process / 8-variable distribution."""
    spec = ExperimentSpec(
        name=name,
        protocols=PROTOCOLS,
        distribution=DistributionSpec("random", {"processes": 6, "variables": 8,
                                                 "replicas_per_variable": 2}),
        workload=WORKLOAD,
        grid={f"distribution.{axis}": values},
        check_consistency=False,
    )
    return run_suite([spec]).records


def main() -> None:
    print("Protocol comparison on one workload "
          "(6 processes, 8 variables, 3 replicas per variable)")
    comparison = run_suite([REGISTRY.get("section33-overhead")]).records
    print(render_records(comparison, columns=COLUMNS + ["criterion", "ok"]))
    print()

    print("Scaling sweep: control bytes per message vs number of processes")
    print(render_records(sweep("scaling-sweep", "processes", (4, 8, 12)),
                         columns=COLUMNS))
    print()

    print("Replication-degree sweep (6 processes, 8 variables)")
    rows = [dict(record.as_row(), replicas=record.params["replicas_per_variable"])
            for record in sweep("degree-sweep", "replicas_per_variable", (1, 2, 4, 6))]
    print(render_table(rows, columns=["replicas"] + COLUMNS))
    print()

    print("How quickly does a variable become everyone's business? "
          "(x-relevance, Theorem 1)")
    print(relevance_table(relevance_sweep(process_counts=(4, 6, 8, 10), samples=3)))
    print()
    print(render_table(structured_comparison(processes=8),
                       title="Structured distributions"))


if __name__ == "__main__":
    main()
