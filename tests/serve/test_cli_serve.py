"""CLI surface of the trace/serve subsystem: ``repro run --trace-out``,
``repro trace info/replay`` and ``repro serve run/smoke``."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[2]


def run_cli(*argv, timeout=60):
    """``python -m repro *argv`` in a child process that must end in time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, "-m", "repro", *argv], cwd=ROOT,
                          env=env, capture_output=True, text=True,
                          timeout=timeout)


@pytest.fixture()
def clean_trace(tmp_path):
    """A consistent run exported through the real CLI path."""
    path = str(tmp_path / "clean.jsonl")
    code = main(["run", "--protocol", "causal_partial",
                 "--distribution", "chain", "--dist-param", "intermediates=1",
                 "--workload", "uniform", "--workload-param",
                 "operations_per_process=4", "--seed", "3",
                 "--trace-out", path])
    assert code == 0
    return path


@pytest.fixture()
def violating_trace(tmp_path):
    """The faults-partition-hoop reproducer exported via --scenario."""
    from repro.experiments.suites import REGISTRY

    point = REGISTRY.get("faults-partition-hoop").expand()[0]
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(point.spec.to_dict()))
    path = str(tmp_path / "violating.jsonl")
    code = main(["run", "--scenario", str(scenario), "--trace-out", path])
    assert code == 1  # the run itself is a proven violation
    return path


class TestParser:
    def test_trace_and_serve_commands_parse(self):
        parser = build_parser()
        args = parser.parse_args(["trace", "replay", "f.jsonl",
                                  "--window", "32"])
        assert args.trace_command == "replay" and args.window == 32
        args = parser.parse_args(["serve", "run", "--tenant", "a=f.jsonl",
                                  "--oneshot"])
        assert args.serve_command == "run" and args.oneshot
        args = parser.parse_args(["serve", "smoke"])
        assert args.serve_command == "smoke"

    def test_run_accepts_trace_out(self):
        args = build_parser().parse_args(["run", "--trace-out", "t.jsonl"])
        assert args.trace_out == "t.jsonl"


class TestTraceCommands:
    def test_run_announces_the_trace(self, tmp_path, capsys):
        path = str(tmp_path / "t.jsonl")
        assert main(["run", "--protocol", "pram_partial", "--seed", "1",
                     "--until", "12", "--trace-out", path]) == 0
        assert f"trace written to {path}" in capsys.readouterr().out

    def test_trace_info(self, clean_trace, capsys):
        assert main(["trace", "info", clean_trace]) == 0
        out = capsys.readouterr().out
        assert "causal_partial" in out
        assert "operations" in out and "distribution" in out

    def test_trace_replay_clean(self, clean_trace, capsys):
        assert main(["trace", "replay", clean_trace]) == 0
        assert "CONSISTENT" in capsys.readouterr().out

    def test_trace_replay_windowed_comparison(self, clean_trace, capsys):
        assert main(["trace", "replay", clean_trace, "--window", "8"]) == 0
        out = capsys.readouterr().out
        assert "windowed (" in out and "retained" in out

    def test_trace_replay_flags_violations(self, violating_trace, capsys):
        assert main(["trace", "replay", violating_trace]) == 1
        assert "NOT consistent" in capsys.readouterr().out

    def test_trace_replay_windowed_agrees_on_violation(self, violating_trace):
        assert main(["trace", "replay", violating_trace,
                     "--window", "16"]) == 1

    def test_hunted_finding_exports_and_replays(self, tmp_path, capsys):
        """A committed hunt reproducer is a trace source: --scenario unwraps
        the finding's embedded spec and the exported stream replays to the
        same violating verdict (the EXPERIMENTS.md loop)."""
        import glob
        import os

        from repro.experiments.hunted import HUNTED_DIR

        finding = sorted(glob.glob(
            os.path.join(HUNTED_DIR, "violation-*.json")))[0]
        path = str(tmp_path / "hunted.jsonl")
        assert main(["run", "--scenario", finding, "--trace-out", path]) == 1
        capsys.readouterr()
        assert main(["trace", "replay", path, "--window", "64"]) == 1
        assert "NOT consistent" in capsys.readouterr().out

    def test_trace_replay_missing_file_is_a_usage_error(self, capsys):
        assert main(["trace", "info", "/nonexistent/trace.jsonl"]) == 2
        assert "error" in capsys.readouterr().err


class TestServeCommands:
    def test_serve_run_oneshot_clean(self, clean_trace, capsys):
        assert main(["serve", "run", "--tenant", f"t={clean_trace}",
                     "--status-interval", "0", "--oneshot"]) == 0
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines() if line]
        assert lines[0]["type"] == "listening"
        assert lines[-1]["type"] == "shutdown"
        assert lines[-1]["verdicts"][0]["consistent"] is True

    def test_serve_run_oneshot_violating(self, violating_trace, capsys):
        assert main(["serve", "run", "--tenant", f"t={violating_trace}",
                     "--status-interval", "0", "--oneshot"]) == 1
        lines = [json.loads(line)
                 for line in capsys.readouterr().out.splitlines() if line]
        verdict = lines[-1]["verdicts"][0]
        assert verdict["consistent"] is False
        assert verdict["exact"] is True

    def test_serve_run_config_file(self, clean_trace, tmp_path, capsys):
        config = tmp_path / "serve.json"
        config.write_text(json.dumps({
            "status_interval": 0,
            "tenants": [{"name": "cfg", "trace": clean_trace}],
        }))
        assert main(["serve", "run", "--config", str(config),
                     "--oneshot"]) == 0
        out = capsys.readouterr().out
        assert '"cfg"' in out

    def test_serve_run_rejects_malformed_tenant_flag(self, capsys):
        assert main(["serve", "run", "--tenant", "nopath",
                     "--oneshot"]) == 2
        assert "NAME=TRACEFILE" in capsys.readouterr().err

    def test_serve_run_oneshot_needs_file_tenants(self, capsys):
        assert main(["serve", "run", "--oneshot"]) == 2
        assert "file-backed" in capsys.readouterr().err

    @pytest.mark.parametrize("name,message", [
        ("absent.jsonl", "error: tenant 'a': trace file '{path}' not found"),
        (".", "error: tenant 'a': cannot read trace file '{path}'"),
    ], ids=["missing", "directory"])
    def test_serve_run_oneshot_unreadable_trace_file_exits(self, tmp_path, name,
                                                           message):
        path = tmp_path / name
        done = run_cli("serve", "run", "--tenant", f"a={path}",
                       "--status-interval", "0", "--oneshot")
        assert done.returncode == 2
        assert message.format(path=path) in done.stderr
        assert "Traceback" not in done.stderr

    def test_serve_run_oneshot_empty_trace_file_closes_its_tenant(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        done = run_cli("serve", "run", "--tenant", f"a={empty}",
                       "--status-interval", "0", "--oneshot")
        assert done.returncode == 0, done.stderr
        shutdown = json.loads(done.stdout.splitlines()[-1])
        assert shutdown["type"] == "shutdown"
        assert [(v["tenant"], v["ops"], v["consistent"])
                for v in shutdown["verdicts"]] == [("a", 0, True)]
