#!/usr/bin/env python3
"""Layered end-to-end benchmark of the reproduction (see README.md here).

Three ways to call it, all from the root of a checkout:

``run.py --workload NAME --seed N --seconds S --trace 0|1``
    One workload in this process: untimed warm-up, then timed iterations
    until ``S`` seconds have been measured.  ``--trace 0`` takes the
    end-to-end metrics with nothing attached; ``--trace 1`` alternates that
    untraced iteration with the decomposed, span-wrapped pipeline and reports
    the per-layer metrics.  The last line of standard output is one JSON
    object ``{"correct", "attempted", "failed", "metrics"}``.

``run.py [--seed 3] [--out FILE]``
    All six workloads, untraced then traced, each in a fresh subprocess, one
    at a time.  Prints every metric with its unit, writes one JSON result,
    exits non-zero on any correctness failure.

``run.py --compare A.json B.json``
    Apply the regression bounds of ``BENCHMARK.json`` to two such results.

``run.py --smoke`` runs every workload once at a fraction of the size, in this
process, through the same code paths.

Metric names, units, directions and bounds live in ``BENCHMARK.json`` only;
this file reads them from there.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT_DIR = os.path.join(HERE, "out")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: End-to-end metrics the harness reports and gates in ``--compare`` beyond
#: those of BENCHMARK.json, whose contract wants every metric non-zero on
#: every workload: ``failed_share`` is 0 on a healthy tree (the driver gets it
#: as ``failed``/``attempted``) and only ``monitor_stream`` has a per-call latency.
HARNESS_ONLY = {
    "failed_share": {"unit": "ratio", "better": "lower", "bound": 0.0},
    "ingest_p99_ms": {"unit": "ms", "better": "lower", "bound": 0.15},
}
MIN_ITERATIONS = 3


def load_workloads() -> Dict[str, Any]:
    """Import the program under test from this checkout's ``src/``."""
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        sys.exit(f"run.py: no program to measure: {source}/repro is missing")
    for path in (source, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    found = {w.name: w for w in workloads.WORKLOADS}
    if sorted(found) != sorted(WORKLOAD_NAMES):
        sys.exit(f"run.py: BENCHMARK.json names {WORKLOAD_NAMES}, workloads.py has {sorted(found)}")
    return found


def load_expected() -> Dict[str, Any]:
    """Verdict flags and exact counters every run must reproduce, whatever its seed."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as handle:
        return json.load(handle)


def calibration_s() -> float:
    """Median time of a fixed pure-python loop: how fast this machine is today."""
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


# -- one workload, in this process ---------------------------------------------

class Tally:
    """Counts what was attempted and what failed, and remembers why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: List[str] = []

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if reason not in self.reasons:
            self.reasons.append(reason)
            print(f"FAILED: {reason}", file=sys.stderr)


def judge(outcome: Any, verdict: Dict[str, bool], tally: Tally, label: str) -> None:
    """Score one iteration's outcome against the workload's fixed expectations."""
    tally.attempted += outcome.units
    if outcome.executed != outcome.units:
        tally.fail(abs(outcome.units - outcome.executed),
                   f"{label}: executed {outcome.executed} of {outcome.units} units")
    for flag in ("consistent", "exact"):
        if getattr(outcome, flag) != verdict[flag]:
            tally.fail(1, f"{label}: {flag}={getattr(outcome, flag)}, expected {verdict[flag]}")
    if outcome.mismatches:
        tally.fail(outcome.mismatches, f"{label}: {outcome.mismatches} suite expectation mismatches")


def exact_values(outcome: Any) -> Dict[str, float]:
    return dict(outcome.counters, ctrl_B_per_msg=outcome.ctrl_B_per_msg)


def agree(reference: Dict[str, float], other: Dict[str, float], tally: Tally, label: str) -> None:
    """Exact counters present on both sides must be identical."""
    for name in sorted(set(reference) & set(other)):
        if reference[name] != other[name]:
            tally.fail(1, f"{label}: {name} = {other[name]!r}, expected {reference[name]!r}")


def measure(workload: Any, seed: int, seconds: float, trace: bool, size: str = "full",
            min_iterations: int = MIN_ITERATIONS) -> Dict[str, Any]:
    """Warm up, then iterate until ``seconds`` have been measured."""
    from tracing import Tracer
    from workloads import percentile

    expected = load_expected()
    verdict = expected["verdicts"][workload.name]
    pinned = expected[size][workload.name]
    tally = Tally()
    tracer = Tracer(workload.name) if trace else None

    if size != "smoke":  # untimed warm-up: imports, registries, lazy caches
        workload.run(workload.setup("smoke"))
        if trace:
            workload.traced(Tracer(workload.name), "smoke")

    samples: Dict[str, List[float]] = {"wall_s": [], "setup_s": []}
    fastest_root = float("inf")
    fastest_layers: Dict[str, float] = {}
    latencies: List[int] = []
    exact: Optional[Dict[str, float]] = None
    verdicts: Dict[str, Dict[str, Any]] = {}
    units = 0
    label = workload.name  # one line per kind of failure, however many iterations hit it
    started = time.perf_counter()
    iteration = 0
    while iteration < min_iterations or time.perf_counter() - started < seconds:
        iteration += 1
        try:
            gc.collect()
            t0 = time.perf_counter()
            inputs = workload.setup(size)
            t1 = time.perf_counter()
            outcome = workload.run(inputs)
            t2 = time.perf_counter()
            del inputs
            samples["setup_s"].append(t1 - t0)
            samples["wall_s"].append(t2 - t1)
            units = outcome.units
            latencies.extend(outcome.latencies_ns)
            judge(outcome, verdict, tally, label)
            verdicts["untraced"] = {"consistent": outcome.consistent, "exact": outcome.exact}
            if exact is None:
                exact = exact_values(outcome)
            agree(exact, exact_values(outcome), tally, label)
            if tracer is not None:
                gc.collect()
                tracer.run_id = iteration
                traced = workload.traced(tracer, size)
                judge(traced, verdict, tally, label + " (traced)")
                verdicts["traced"] = {"consistent": traced.consistent, "exact": traced.exact}
                agree(exact, exact_values(traced), tally, label + " (traced)")
                for name, value in traced.counters.items():
                    exact.setdefault(name, value)
                layers = dict(outcome.layers, **traced.layers)
                root = tracer.seconds("timed")
                layers["trace.coverage"] = tracer.children_seconds("timed") / root
                if root < fastest_root:
                    fastest_root, fastest_layers = root, layers
        except Exception:  # an iteration that raised is a failed iteration, not a crash
            traceback.print_exc()
            tally.attempted += max(units, 1)
            tally.fail(max(units, 1), f"{label} raised")
    if exact is None:
        sys.exit(f"run.py: no iteration of {workload.name} completed")
    agree(pinned, exact, tally, f"{workload.name} vs expected.json")
    # the untraced run alone does not see every counter the traced pipeline does
    missing = sorted(set(pinned) - set(exact)) if trace else []
    if missing:
        tally.fail(len(missing), f"{workload.name}: expected.json pins {missing}, not reported")

    # Every timing is the fastest iteration's, not the median: other tenants of
    # the sandbox only ever add time, in phases of tens of seconds, and over ten
    # runs the median iteration spread twice as wide as the fastest (README).
    wall = min(samples["wall_s"])
    end_to_end = {
        "wall_s": wall,
        "ops_per_s": units / wall,
        "setup_s": min(samples["setup_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ctrl_B_per_msg": exact["ctrl_B_per_msg"],
        "failed_share": tally.failed / max(tally.attempted, 1),
    }
    if latencies:
        latencies.sort()
        end_to_end["ingest_p99_ms"] = percentile(latencies, 0.99) / 1e6
    result: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "size": size,
        "trace": trace,
        "iterations": iteration,
        "unit": workload.unit,
        "units_per_iteration": units,
        "samples": samples,
        "latency_samples": len(latencies),
        "end_to_end": end_to_end,
        "exact": exact,
        "expected_verdict": verdict,
        "verdicts": verdicts,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "failures": tally.reasons,
    }
    if tracer is not None:
        # one self-consistent breakdown: the layers of the fastest traced iteration
        per_layer = dict(fastest_layers)
        per_layer["trace.root_s"] = fastest_root
        per_layer["trace.overhead_x"] = fastest_root / wall
        per_layer.update({n: v for n, v in exact.items() if n in PER_LAYER})
        unknown = sorted(set(per_layer) - set(PER_LAYER))
        if unknown:
            sys.exit(f"run.py: per-layer metrics {unknown} are not declared in BENCHMARK.json")
        result["per_layer"] = per_layer
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{workload.name}.jsonl"))
    return result


def contract_line(result: Dict[str, Any]) -> str:
    """The one JSON object the benchmark driver reads."""
    if result["trace"]:
        # the contract wants every per-layer metric from every workload: a
        # layer this workload never enters reads 0
        metrics = {n: {"value": result["per_layer"].get(n, 0.0), "unit": m["unit"]}
                   for n, m in PER_LAYER.items()}
    else:
        metrics = {n: {"value": result["end_to_end"][n], "unit": m["unit"]}
                   for n, m in END_TO_END.items()}
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def run_one(args: argparse.Namespace) -> int:
    workloads = load_workloads()
    if args.workload not in workloads:
        sys.exit(f"run.py: unknown workload {args.workload!r}; known: {WORKLOAD_NAMES}")
    result = measure(workloads[args.workload], args.seed, args.seconds, bool(args.trace))
    if args.out:
        write_json(args.out, result)
    print_metrics([result])
    print(contract_line(result))
    return 0


# -- every workload, one subprocess each ----------------------------------------

def write_json(path: str, data: Any) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
        handle.write("\n")


def print_metrics(results: Sequence[Dict[str, Any]]) -> None:
    for result in results:
        mode = "traced" if result["trace"] else "untraced"
        print(f"== {result['workload']} ({mode}, seed {result['seed']}, "
              f"{result['iterations']} iterations of {result['units_per_iteration']} "
              f"{result['unit']}) ==")
        section = "per_layer" if result["trace"] else "end_to_end"
        for name, value in result[section].items():
            unit = {**PER_LAYER, **END_TO_END, **HARNESS_ONLY}[name]["unit"]
            print(f"  {name:<36} {value:>16.6g} {unit}")
        for reason in result["failures"]:
            print(f"  FAILED: {reason}")


def commit_id() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_all(args: argparse.Namespace) -> int:
    """Each workload untraced then traced, strictly one fresh process at a time."""
    load_workloads()  # fail early, and identically, when there is no program
    os.makedirs(OUT_DIR, exist_ok=True)
    document: Dict[str, Any] = {
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit_id(),
        "calibration_s": calibration_s(),
        "workloads": {},
    }
    results: List[Dict[str, Any]] = []
    names = [args.workload] if args.workload else WORKLOAD_NAMES
    for name in names:
        entry: Dict[str, Any] = {}
        for trace in (0, 1):
            part = os.path.join(OUT_DIR, f"{name}-{trace}.json")
            command = [sys.executable, os.path.abspath(__file__), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(trace), "--out", part]
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL, check=False)
            if done.returncode != 0:
                print(f"FAILED: {name} --trace {trace} exited with {done.returncode}")
                return 1
            with open(part, encoding="utf-8") as handle:
                entry["traced" if trace else "untraced"] = json.load(handle)
            os.remove(part)
            results.append(entry["traced" if trace else "untraced"])
        document["workloads"][name] = entry
    print_metrics(results)
    out = args.out or os.path.join(OUT_DIR, "result.json")
    write_json(out, document)
    failed = sum(r["failed"] for r in results)
    print(f"result written to {out}; "
          + (f"{failed} FAILED" if failed else "every output as expected"))
    return 1 if failed else 0


def run_smoke(args: argparse.Namespace) -> int:
    """Every workload once, small, untraced and traced, in this process."""
    workloads = load_workloads()
    document: Dict[str, Any] = {"seed": args.seed, "smoke": True, "workloads": {}}
    results = []
    for name in WORKLOAD_NAMES:
        traced = measure(workloads[name], args.seed, 0.0, True, size="smoke", min_iterations=1)
        untraced = dict(traced, trace=False)
        del untraced["per_layer"]
        document["workloads"][name] = {"untraced": untraced, "traced": traced}
        results += [untraced, traced]
    print_metrics(results)
    if args.out:
        write_json(args.out, document)
    return 1 if any(r["failed"] for r in results) else 0


# -- comparing two results ---------------------------------------------------------

def spread(samples: Sequence[float]) -> float:
    """Iteration spread: (max - min) / median."""
    if len(samples) < 2:
        return 0.0
    return (max(samples) - min(samples)) / statistics.median(samples)


def compare(path_a: str, path_b: str) -> int:
    """Gate NEW against OLD: bounds on the end-to-end metrics, identity on exact counters."""
    with open(path_a, encoding="utf-8") as handle:
        old = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        new = json.load(handle)
    gated = dict(END_TO_END, **HARNESS_ONLY)
    regressions = unresolved = 0
    print("change = how much worse NEW is, as a share of OLD (negative: better)")
    print(f"{'workload':<16}{'metric':<16}{'old':>14}{'new':>14} {'unit':<6}{'change':>8}  verdict")
    for name in WORKLOAD_NAMES:
        if name not in old["workloads"] or name not in new["workloads"]:
            continue
        a, b = old["workloads"][name]["untraced"], new["workloads"][name]["untraced"]
        for metric, spec in gated.items():
            if metric not in a["end_to_end"] or metric not in b["end_to_end"]:
                continue
            before, after = a["end_to_end"][metric], b["end_to_end"][metric]
            worse = (after - before) if spec["better"] == "lower" else (before - after)
            change = worse / before if before else float(worse > 0)
            # every timing derives from the wall_s or the setup_s samples
            timed = {"wall_s": "wall_s", "ops_per_s": "wall_s", "setup_s": "setup_s"}.get(metric)
            if change <= spec["bound"]:
                verdict = "ok"
            elif timed and max(spread(side["samples"][timed]) for side in (a, b)) > spec["bound"]:
                verdict = f"unresolved (iteration spread exceeds the {spec['bound']:.0%} bound)"
                unresolved += 1
            else:
                verdict = f"REGRESSION (bound {spec['bound']:.0%})"
                regressions += 1
            print(f"{name:<16}{metric:<16}{before:>14.6g}{after:>14.6g} {spec['unit']:<6}"
                  f"{change:>+8.1%}  {verdict}")
        for mode in ("untraced", "traced"):
            before = old["workloads"][name][mode]["exact"]
            after = new["workloads"][name][mode]["exact"]
            for counter in sorted(set(before) | set(after)):
                if before.get(counter) != after.get(counter):
                    print(f"{name:<16}{counter:<16}{before.get(counter)!r:>14}"
                          f"{after.get(counter)!r:>14}  REGRESSION ({mode} exact counter changed)")
                    regressions += 1
    print(f"{regressions} regressions, {unresolved} unresolved")
    return 1 if regressions else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run only this workload")
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="how long each run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="with --workload: measure in this process, traced or not")
    parser.add_argument("--out", help="write the JSON result here")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once at a fraction of the size")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"),
                        help="gate NEW against OLD with the bounds of BENCHMARK.json")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.smoke:
        return run_smoke(args)
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
