#!/usr/bin/env python3
"""Alternating parent/change pairs of one benchmark workload, and the verdict.

``pairs.py --workload W --base REV [--pairs 10]`` (``make bench-pairs``)
extracts the committed files of ``REV`` into one temporary directory
(``git archive | tar``) and the working tree's tracked and untracked,
unignored files (uncommitted changes included) into another, so neither side
runs from the repository itself and no build output or cache of it reaches
either.  It then runs ``benchmarks/e2e/run.py --workload W --trace 0 --seed
i`` once in each tree for each pair ``i``, alternating which side goes
first.  Each side builds what it measures from its own copy; the run length
is the one ``BENCHMARK.json`` fixes.

It prints every run, each side's median and quartiles per end-to-end metric,
and the rule a claimed gain has to pass: the change wins at least nine tenths
of the pairs (ties count for neither side) and the medians differ by more
than the distance between the parent's own quartiles.  Exit status 1 means a
run was incorrect, not that the rule failed: the rule is a report.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WIN_SHARE = 0.9


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """Lower quartile, median, upper quartile (inclusive method)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def judge(parent: Sequence[float], change: Sequence[float], better: str) -> Dict[str, Any]:
    """The paired-runs rule for one metric; ``parent[i]`` and ``change[i]`` are one pair."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p_q1, p_median, p_q3 = quartiles(parent)
    c_q1, c_median, c_q3 = quartiles(change)
    spread = p_q3 - p_q1
    gain = sign * (c_median - p_median)
    return {
        "pairs": len(parent), "wins": wins, "losses": losses,
        "parent": (p_q1, p_median, p_q3), "change": (c_q1, c_median, c_q3),
        "parent_iqr": spread,
        "gain_holds": wins >= WIN_SHARE * len(parent) and gain > spread,
    }


def extract(revision: str, target: str) -> None:
    """The committed files of ``revision`` under ``target``."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", revision],
                               stdout=subprocess.PIPE)
    unpacked = subprocess.run(["tar", "-x", "-C", target], stdin=archive.stdout)
    if archive.wait() or unpacked.returncode:
        sys.exit(f"pairs.py: cannot extract revision {revision!r}")


def snapshot(root: str, target: str) -> None:
    """The working tree of the repository at ``root`` under ``target``: its
    tracked and untracked, unignored files as they are on disk (a deleted
    tracked file is left out)."""
    listed = subprocess.run(
        ["git", "-C", root, "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
        capture_output=True, check=True).stdout.decode()
    for name in sorted(set(filter(None, listed.split("\0")))):
        source = os.path.join(root, name)
        if os.path.isfile(source):
            os.makedirs(os.path.dirname(os.path.join(target, name)), exist_ok=True)
            shutil.copy2(source, os.path.join(target, name))


def run_once(tree: str, workload: str, seed: int, seconds: float) -> Dict[str, Any]:
    """One untraced run of ``workload`` in ``tree``: the benchmark's contract line."""
    done = subprocess.run(
        [sys.executable, os.path.join("benchmarks", "e2e", "run.py"), "--workload", workload,
         "--seconds", str(seconds), "--trace", "0", "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"pairs.py: run.py failed in {tree}:\n{done.stdout}{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--base", required=True, help="the parent revision")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    runs: Dict[str, List[Dict[str, Any]]] = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as base_tree, \
            tempfile.TemporaryDirectory(prefix="bench-pairs-") as change_tree:
        extract(args.base, base_tree)
        snapshot(ROOT, change_tree)
        trees = {"parent": base_tree, "change": change_tree}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], args.workload, pair,
                                           spec["run_seconds"]))
            print(f"pair {pair:2d} ({order[0]} first)  " + "  ".join(
                f"{name} {runs['parent'][-1]['metrics'][name]['value']:.4g}"
                f" -> {runs['change'][-1]['metrics'][name]['value']:.4g}"
                for name in metrics), flush=True)

    incorrect = sum(1 for side in runs.values() for run in side
                    if not run["correct"] or run["failed"])
    print(f"\n{args.workload}: {args.pairs} pairs against {args.base}, "
          f"{incorrect} incorrect runs")
    for name, metric in metrics.items():
        verdict = judge([r["metrics"][name]["value"] for r in runs["parent"]],
                        [r["metrics"][name]["value"] for r in runs["change"]],
                        metric["better"])
        parent, change = verdict["parent"], verdict["change"]
        ratio = (parent[1], change[1]) if metric["better"] == "lower" else (change[1], parent[1])
        print(f"  {name} [{metric['unit']}, {metric['better']} is better]\n"
              f"    parent median {parent[1]:.5g} (quartiles {parent[0]:.5g} .. {parent[2]:.5g},"
              f" distance {verdict['parent_iqr']:.3g})\n"
              f"    change median {change[1]:.5g} (quartiles {change[0]:.5g} .. {change[2]:.5g})"
              f" = {ratio[0] / ratio[1] if ratio[1] else float('nan'):.3g}x better\n"
              f"    change wins {verdict['wins']}, loses {verdict['losses']} of"
              f" {verdict['pairs']}; gain {'HOLDS' if verdict['gain_holds'] else 'not shown'}")
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
