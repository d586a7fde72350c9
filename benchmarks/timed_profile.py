#!/usr/bin/env python3
"""``cProfile`` of one benchmark workload's timed section, and nothing else.

``timed_profile.py --workload W`` (``make profile W=...``) imports the workload the
way ``benchmarks/e2e/run.py`` does, warms up at smoke size unprofiled (imports,
registries, lazy caches - and, on the arena workloads, the object path only the
smoke size takes), builds three full-size inputs unprofiled, and enables the
profiler only around ``run(inputs)``.  It prints the top 30 rows by own time,
then the top 30 by cumulative time, then the columnar checker's phase split:
the calls and cumulative seconds of each of ``PHASES``, read off the same
stats - the phases of ``repro/arena/check.py`` and, for a served window, the
one step it spends on its rows outside the checker: the compaction of its
arena on eviction (``WindowedChecker._reorder``).  Then the simulation's
phases, ``SIMULATION``, the same way: the network's one transmit body, the
delivery call each queued copy makes, the protocols' ``on_message`` (all of
``repro/mcs/``) and the arena recorder's ``record_write``/``record_read``.
Profiling a whole ``run.py`` process instead mixes those rows with
``builtins.compile`` and the warm-up's.

Then it runs one more full-size timed section under ``tracemalloc`` (not under
``cProfile``), tracing from after the set-up, and prints the section's peak
and the memory it still holds at its end, both in MiB above the inputs, and
the top 10 source lines of what it holds.

Last, three more full-size timed sections run under a stack sampler (no
``cProfile``): ``signal.setitimer(ITIMER_PROF)`` interrupts this process (and
no other) every ``SAMPLE_S`` seconds of its CPU time, or at the next scheduler
tick, and the handler records the interrupted Python stack.  It prints the
top 30 functions by self share (the share of samples that stopped in them)
and by cumulative share (the share with them anywhere on the stack), then the
cumulative and self shares of ``PHASES`` and ``SIMULATION``.  ``cProfile``
charges every call, so it under-weights a phase that loops in the
interpreter or in one C call; a sample weighs time only.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import os
import pstats
import signal
import sys
import time
import tracemalloc
from collections import Counter
from typing import Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ITERATIONS = 3
ROWS = 30
MEMORY_ROWS = 10
MIB = 1024 * 1024
#: CPU seconds between two stack samples asked for; the kernel delivers at
#: most one per scheduler tick (4 ms at 250 Hz), so the count is reported
#: against the CPU time measured.
SAMPLE_S = 0.001
#: ``(module, function)`` of each phase of a columnar check: a served
#: window's compaction, then ``ArenaBatchChecker``'s own phases (``_verify``
#: runs inside ``_witness``), then the stream monitors (``RowMonitor``).
_CHECK = os.path.join("repro", "arena", "check.py")
PHASES = (
    (os.path.join("repro", "core", "consistency", "incremental.py"), "_reorder"),
    (_CHECK, "_causal_vcs"),
    (_CHECK, "_bounds"),
    (_CHECK, "_bad_patterns"),
    (_CHECK, "_witness"),
    (_CHECK, "_verify"),
    (_CHECK, "observe"),
)
#: ``(module or package, function)`` of each phase of a simulated run.
_NETWORK = os.path.join("repro", "netsim", "network.py")
_RECORDER = os.path.join("repro", "arena", "recorder.py")
SIMULATION = (
    (_NETWORK, "_transmit"),
    (_NETWORK, "_deliver"),
    (os.path.join("repro", "mcs", ""), "on_message"),
    (_RECORDER, "record_write"),
    (_RECORDER, "record_read"),
)


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
    print_phases(f"{args.workload}: checker phases, cumulative over {ITERATIONS} timed "
                 f"sections (_verify runs inside _witness):", PHASES, stats)
    print_phases(f"{args.workload}: simulation phases, cumulative over {ITERATIONS} timed "
                 f"sections (on_message runs inside _deliver):", SIMULATION, stats)
    traced_memory(args.workload, workload)
    sampled(args.workload, workload)
    return 0


def print_phases(title: str, phases, stats: pstats.Stats) -> None:
    """Calls and cumulative seconds of each ``(module, function)`` of
    ``phases`` in ``stats``; a module ending in a separator is a package."""
    totals = {phase: [0, 0.0] for phase in phases}
    rows = stats.stats  # type: ignore[attr-defined]
    for (filename, _, function), (_, calls, _, cumulative, _) in rows.items():
        for module, phase in phases:
            if matches(filename, function, module, phase):
                totals[module, phase][0] += calls
                totals[module, phase][1] += cumulative
    print(title)
    for (_, phase), (calls, seconds) in totals.items():
        print(f"  {phase:<18} {seconds:8.3f} s {calls:8d} calls")


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


#: A sampled function: ``(file name, first line, name)``, as ``pstats`` keys it.
Function = Tuple[str, int, str]


class StackSampler:
    """``SIGPROF`` stack sampling of this process' own CPU time: how many
    samples caught each stack, innermost function first."""

    def __init__(self) -> None:
        self.stacks: Counter = Counter()

    def _sample(self, signum, frame) -> None:
        stack = []
        while frame is not None:
            code = frame.f_code
            stack.append((code.co_filename, code.co_firstlineno, code.co_name))
            frame = frame.f_back
        self.stacks[tuple(stack)] += 1

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def shares(self, match) -> Tuple[int, int]:
        """Samples with a function ``match`` accepts anywhere on the stack,
        and those that stopped in one."""
        anywhere = own = 0
        for stack, count in self.stacks.items():
            if any(match(function) for function in stack):
                anywhere += count
                own += count if stack and match(stack[0]) else 0
        return anywhere, own


def sampled(name: str, workload) -> None:
    """``ITERATIONS`` full-size timed sections under a :class:`StackSampler`:
    the top functions by self and by cumulative share, then the phases'."""
    sampler = StackSampler()
    cpu = 0.0
    for _ in range(ITERATIONS):
        gc.collect()
        inputs = workload.setup("full")
        started = time.process_time()
        with sampler:
            workload.run(inputs)
        cpu += time.process_time() - started
    samples = sum(sampler.stacks.values())
    total = max(samples, 1)
    own: Counter = Counter()
    anywhere: Counter = Counter()
    for stack, count in sampler.stacks.items():
        own[stack[0]] += count
        for function in set(stack):
            anywhere[function] += count
    print(f"{name}: {ITERATIONS} full-size timed sections under a SIGPROF stack sampler: "
          f"{samples} samples over {cpu:.2f} s of CPU time")
    for title, counts in (("self", own), ("cumulative", anywhere)):
        print(f"top {ROWS} functions by sampled {title} share:")
        print(f"  {'self':>6} {'cum':>6}  function")
        for function, _ in counts.most_common(ROWS):
            print(f"  {100 * own[function] / total:5.1f}% "
                  f"{100 * anywhere[function] / total:5.1f}%  {where(function)}")
    for title, phases in (("checker", PHASES), ("simulation", SIMULATION)):
        print(f"{name}: sampled {title} phases, share of the samples (cumulative, self):")
        for module, phase in phases:
            cumulative, self_ = sampler.shares(
                lambda function: matches(function[0], function[2], module, phase))
            print(f"  {phase:<18} {100 * cumulative / total:5.1f}% {100 * self_ / total:5.1f}%")


def matches(filename: str, function: str, module: str, phase: str) -> bool:
    """Whether ``function`` of ``filename`` is ``phase`` of ``module``; a
    module ending in a separator is a package."""
    return function == phase and (module in filename if module.endswith(os.sep)
                                  else filename.endswith(module))


def where(function: Function) -> str:
    filename, line, name = function
    if filename.startswith(ROOT):
        filename = os.path.relpath(filename, ROOT)
    return f"{filename}:{line}({name})"


if __name__ == "__main__":
    sys.exit(main())
