"""Tier-1 checks of the end-to-end benchmark harness (``run.py --smoke``).

The harness is driven the way users and the benchmark driver drive it — as a
command — so these tests cover the CLI, the JSON it writes and the contract
with ``BENCHMARK.json``, at a fraction of the benchmark's size.
"""

import copy
import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_py(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """Two smoke runs of the same tree: (directory, [result a, result b], stdout of b)."""
    out = tmp_path_factory.mktemp("e2e")
    results = []
    for name in ("a.json", "b.json"):
        done = run_py("--smoke", "--out", str(out / name))
        assert done.returncode == 0, done.stdout + done.stderr
        results.append(json.loads((out / name).read_text()))
    return out, results, done.stdout


def test_every_declared_metric_is_reported_with_its_unit(smoke):
    _, (result, _), stdout = smoke
    reported_layers = set()
    for name in WORKLOADS:
        entry = result["workloads"][name]
        end_to_end = entry["untraced"]["end_to_end"]
        assert set(END_TO_END) | {"failed_share"} <= set(end_to_end), name
        assert all(end_to_end[metric] > 0 for metric in END_TO_END), (name, end_to_end)
        assert end_to_end["failed_share"] == 0, entry["untraced"]["failures"]
        per_layer = entry["traced"]["per_layer"]
        assert set(per_layer) <= set(PER_LAYER), sorted(set(per_layer) - set(PER_LAYER))
        reported_layers |= set(per_layer)
    assert "ingest_p99_ms" in result["workloads"]["monitor_stream"]["untraced"]["end_to_end"]
    # every per-layer metric BENCHMARK.json declares comes from some workload
    # (the smoke size of suite_small leaves three of the five suites out)
    missing = sorted(set(PER_LAYER) - reported_layers)
    assert all(name.startswith("experiments.suite.") for name in missing), missing
    assert len(missing) == 3, missing
    for metric in list(END_TO_END.values()) + list(PER_LAYER.values()):
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
        if metric["name"] in missing:
            continue
        line = re.search(rf"^\s+{re.escape(metric['name'])}\s+\S+ (\S+)$", stdout, re.M)
        assert line and line.group(1) == metric["unit"], metric


def test_smoke_runs_repeat_every_exact_counter(smoke):
    _, (a, b), _ = smoke
    for name in WORKLOADS:
        for mode in ("untraced", "traced"):
            assert a["workloads"][name][mode]["exact"] == b["workloads"][name][mode]["exact"]
            assert a["workloads"][name][mode]["exact"], name


def test_traced_pipeline_reaches_the_verdict_of_the_entry_point(smoke):
    _, (result, _), _ = smoke
    for name in WORKLOADS:
        verdicts = result["workloads"][name]["traced"]["verdicts"]
        assert verdicts["traced"] == verdicts["untraced"], name
        assert verdicts["untraced"] == result["workloads"][name]["traced"]["expected_verdict"], name


def test_compare_accepts_itself_and_flags_doctored_results(smoke):
    out, (a, _), _ = smoke
    assert run_py("--compare", str(out / "a.json"), str(out / "a.json")).returncode == 0

    slower = copy.deepcopy(a)
    untraced = slower["workloads"]["scale_pram"]["untraced"]
    factor = 1.1 + END_TO_END["wall_s"]["bound"]
    untraced["end_to_end"]["wall_s"] *= factor
    untraced["samples"]["wall_s"] = [s * factor for s in untraced["samples"]["wall_s"]]
    (out / "slower.json").write_text(json.dumps(slower))
    done = run_py("--compare", str(out / "a.json"), str(out / "slower.json"))
    assert done.returncode == 1
    assert re.search(r"scale_pram\s+wall_s.*REGRESSION", done.stdout), done.stdout

    heavier = copy.deepcopy(a)
    for mode in ("untraced", "traced"):
        exact = heavier["workloads"]["partial_causal"][mode]["exact"]
        exact["netsim.control_bytes"] += 1
        exact["ctrl_B_per_msg"] = exact["netsim.control_bytes"] / exact["netsim.messages_sent"]
    (out / "heavier.json").write_text(json.dumps(heavier))
    done = run_py("--compare", str(out / "a.json"), str(out / "heavier.json"))
    assert done.returncode == 1
    assert re.search(r"partial_causal\s+ctrl_B_per_msg.*REGRESSION", done.stdout), done.stdout


def test_contract_line_carries_exactly_the_declared_metrics(smoke):
    _, (result, _), _ = smoke
    spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    for name in WORKLOADS:
        for mode, declared in (("untraced", END_TO_END), ("traced", PER_LAYER)):
            line = json.loads(run.contract_line(result["workloads"][name][mode]))
            assert set(line) == {"correct", "attempted", "failed", "metrics"}
            assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
            assert set(line["metrics"]) == set(declared)
            for metric, value in line["metrics"].items():
                assert value["unit"] == declared[metric]["unit"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_py("--workload", "scale_pram", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path, script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert done.returncode != 0
    assert done.stdout == ""
