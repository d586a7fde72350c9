#!/usr/bin/env python3
"""``cProfile`` of one benchmark workload's timed section, and nothing else.

``timed_profile.py --workload W`` (``make profile W=...``) imports the workload the
way ``benchmarks/e2e/run.py`` does, warms up at smoke size unprofiled (imports,
registries, lazy caches - and, on the arena workloads, the object path only the
smoke size takes), builds three full-size inputs unprofiled, and enables the
profiler only around ``run(inputs)``.  It prints the top 30 rows by own time,
then the top 30 by cumulative time.  Profiling a whole ``run.py`` process
instead mixes those rows with ``builtins.compile`` and the warm-up's.

Then it runs one more full-size timed section under ``tracemalloc`` (not under
``cProfile``), tracing from after the set-up, and prints the section's peak
and the memory it still holds at its end, both in MiB above the inputs, and
the top 10 source lines of what it holds.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import pstats
import sys
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ITERATIONS = 3
ROWS = 30
MEMORY_ROWS = 10
MIB = 1024 * 1024


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "benchmarks", "e2e"))
    import run  # the harness: its loader puts this checkout's src/ on the path

    workloads = run.load_workloads()
    if args.workload not in workloads:
        sys.exit(f"timed_profile.py: no workload {args.workload!r}; have {sorted(workloads)}")
    workload = workloads[args.workload]
    workload.run(workload.setup("smoke"))
    profiler = cProfile.Profile()
    for _ in range(ITERATIONS):
        gc.collect()
        inputs = workload.setup("full")
        profiler.enable()
        workload.run(inputs)
        profiler.disable()
    stats = pstats.Stats(profiler)
    print(f"{args.workload}: {ITERATIONS} full-size timed sections, "
          f"{stats.total_tt:.2f} s profiled")  # type: ignore[attr-defined]
    stats.sort_stats("tottime").print_stats(ROWS)
    stats.sort_stats("cumulative").print_stats(ROWS)
    traced_memory(args.workload, workload)
    return 0


def traced_memory(name: str, workload) -> None:
    """One full-size timed section under ``tracemalloc``: peak and retained
    MiB above the inputs, and the lines that allocated what is retained."""
    gc.collect()
    inputs = workload.setup("full")
    gc.collect()
    tracemalloc.start()
    workload.run(inputs)
    retained, peak = tracemalloc.get_traced_memory()
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)])
    tracemalloc.stop()
    print(f"{name}: one full-size timed section under tracemalloc: "
          f"peak {peak / MIB:.1f} MiB, retained {retained / MIB:.1f} MiB above the inputs")
    print(f"top {MEMORY_ROWS} lines by retained size:")
    for stat in snapshot.statistics("lineno")[:MEMORY_ROWS]:
        frame = stat.traceback[0]
        where = frame.filename
        if where.startswith(ROOT):
            where = os.path.relpath(where, ROOT)
        print(f"  {stat.size / MIB:8.2f} MiB {stat.count:8d} blocks  {where}:{frame.lineno}")


if __name__ == "__main__":
    sys.exit(main())
