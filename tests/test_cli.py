"""Tests of the command-line interface (``python -m repro``)."""

import argparse

import pytest

from repro.cli import build_parser, main


def leaf_parsers(parser, path=()):
    """Every ``(verb path, parser)`` that takes no further sub-command."""
    groups = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not groups:
        yield path, parser
    for group in groups:
        for name, sub in group.choices.items():
            yield from leaf_parsers(sub, path + (name,))


class TestParser:
    def test_requires_a_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_every_leaf_registers_its_handler(self):
        leaves = dict(leaf_parsers(build_parser()))
        assert ("reproduce",) in leaves and ("hunt", "smoke") in leaves
        for path, leaf in leaves.items():
            assert callable(leaf.get_default("func")), path

    @pytest.mark.parametrize("verb", ["overhead", "bellman-ford", "relevance"])
    def test_single_claim_verbs_are_gone(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([verb])
        assert exit_info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_run_has_no_engine_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(["run", "--engine", "arena"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --engine" in capsys.readouterr().err

    def test_run_has_no_no_history_flag(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--no-history"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --no-history" in capsys.readouterr().err

    def test_reproduce_takes_no_flag(self):
        (reproduce,) = [leaf for path, leaf in leaf_parsers(build_parser())
                        if path == ("reproduce",)]
        assert [a.dest for a in reproduce._actions] == ["help"]


class TestCommands:
    def test_reproduce_exits_one_and_skips_the_later_stages(self, capsys, monkeypatch):
        from dataclasses import replace

        from repro.analysis import figures

        ledger = [replace(c, measure=lambda: "wrong") if c.id == "theorem1-at-scale" else c
                  for c in figures.claims()]
        monkeypatch.setattr(figures, "claims", lambda: ledger)
        assert main(["reproduce"]) == 1
        captured = capsys.readouterr()
        assert "FAILED: theorem1-at-scale" in captured.err
        rows = [line.split() for line in captured.out.splitlines()]
        status = {row[1]: row[-1] for row in rows if row and row[0] in figures.STAGES}
        assert status.pop("theorem1-at-scale") == "FAIL"
        by_stage = {stage: {status[c.id] for c in ledger if c.stage == stage and c.id in status}
                    for stage in figures.STAGES}
        assert by_stage == {"definitions": {"pass"}, "theorems": {"pass"},
                            "section3.3": {"skipped"}, "section6": {"skipped"}}

    def test_protocols_list(self, capsys):
        assert main(["protocols", "list", "--verbose"]) == 0
        out = capsys.readouterr().out
        for name in ("pram_partial", "causal_partial", "causal_full",
                     "sequencer_sc", "best_effort"):
            assert name in out
        assert "criterion" in out
        assert "network models" in out  # the other registries, via --verbose

    def test_run_with_fault_injection_flags(self, capsys):
        code = main(["run", "--protocol", "pram_partial",
                     "--distribution", "chain", "--dist-param", "intermediates=1",
                     "--workload", "uniform",
                     "--workload-param", "operations_per_process=4",
                     "--network", "faulty", "--net-param", "drop_rate=0.2",
                     "--net-param", "latency=0.1"])
        captured = capsys.readouterr()
        assert code == 0  # loss stalls PRAM, never breaks it
        assert "network model       : faulty" in captured.out
        assert "messages dropped" in captured.out
        # fault injection downgrades to the polynomial pre-check by default
        # (the exact search blows up on stall-heavy histories)
        assert "polynomial" in captured.err
        assert "(heuristic)" in captured.out

    def test_run_scenario_file(self, tmp_path, capsys):
        import json

        scenario = {
            "name": "cli-partitioned-hoop",
            "protocol": "best_effort",
            "distribution": {"family": "chain", "params": {"intermediates": 1}},
            "workload": {"pattern": "hoop_relay", "params": {"rounds": 6}},
            "network": {"model": "faulty",
                        "params": {"latency": 0.1,
                                   "partitions": [{"start": 0.0, "end": 4.0,
                                                   "links": [[0, 2]]}]}},
            "check": {"criteria": ["causal"], "policy": "fail_fast",
                      "exact": False},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        assert main(["run", "--scenario", str(path)]) == 1  # proven violation
        out = capsys.readouterr().out
        assert "NOT consistent" in out
        assert "partition windows   : [0, 4)" in out

    def test_run_scenario_file_errors(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["run", "--scenario", str(missing)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text('{"name": "x", "bogus": 1}', encoding="utf-8")
        assert main(["run", "--scenario", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "error" in err

    def test_a_scenario_file_naming_an_engine_is_rejected(self, tmp_path, capsys):
        import json

        from repro.cli import _load_scenario
        from repro.exceptions import ScenarioSpecError

        scenario = {
            "name": "cli-engine",
            "protocol": "pram_partial",
            "distribution": {"family": "chain", "params": {"intermediates": 1}},
            "workload": {"pattern": "hoop_relay", "params": {"rounds": 2}},
            "engine": "arena",
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        with pytest.raises(ScenarioSpecError, match="unknown keys \\['engine'\\]"):
            _load_scenario(str(path))
        assert main(["run", "--scenario", str(path)]) == 2
        assert "unknown keys ['engine']" in capsys.readouterr().err

    def test_experiments_run_faults_suite_gate(self, capsys):
        assert main(["experiments", "run", "--suite", "faults",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "NO (expected)" in out

    def test_apps_list(self, capsys):
        assert main(["apps", "list", "--verbose"]) == 0
        out = capsys.readouterr().out
        for name in ("bellman_ford", "jacobi", "matrix_product",
                     "producer_consumer"):
            assert name in out
        assert "wait-free only" in out  # the capability metadata column

    def test_run_app(self, capsys):
        assert main(["run", "--app", "producer_consumer",
                     "--app-param", "stages=3", "--app-param", "items=3",
                     "--heuristic"]) == 0
        out = capsys.readouterr().out
        assert "application         : producer_consumer" in out
        assert "validated (matches the reference result)" in out

    def test_apps_run_with_fault_injection(self, capsys):
        code = main(["apps", "run", "--app", "bellman_ford",
                     "--network", "faulty",
                     "--net-param", "duplicate_rate=0.4",
                     "--net-param", "latency=0.1"])
        captured = capsys.readouterr()
        assert code == 0  # the hardened protocol discards every duplicate
        assert "validated (matches the reference result)" in captured.out
        assert "messages duplicated" in captured.out

    def test_run_app_rejects_workload_flags(self, capsys):
        # mirror the Session contract: app and workload are exclusive
        assert main(["run", "--app", "producer_consumer",
                     "--workload", "single_writer"]) == 2
        assert main(["run", "--app", "producer_consumer",
                     "--dist-param", "processes=4"]) == 2
        err = capsys.readouterr().err
        assert "not both" in err

    def test_run_scenario_rejects_app_flags(self, tmp_path, capsys):
        scenario = tmp_path / "s.json"
        scenario.write_text("{}", encoding="utf-8")
        assert main(["run", "--scenario", str(scenario),
                     "--app", "jacobi"]) == 2
        err = capsys.readouterr().err
        assert "complete run specification" in err

    def test_run_app_scenario_file(self, tmp_path, capsys):
        import json

        scenario = {
            "name": "cli-partitioned-bellman-ford",
            "protocol": "pram_partial",
            "app": {"name": "bellman_ford", "max_steps": 1500},
            "network": {"model": "faulty",
                        "params": {"latency": 0.1,
                                   "partitions": [{"start": 0.0, "end": 1e9,
                                                   "links": [[1, 2]]}]}},
            "check": {"exact": False},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(scenario), encoding="utf-8")
        assert main(["run", "--scenario", str(path)]) == 1  # diagnosed
        out = capsys.readouterr().out
        assert "livelock" in out

    def test_experiments_run_apps_suite_gate(self, capsys):
        assert main(["experiments", "run", "--suite", "apps",
                     "--scenario", "apps-producer-consumer",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "validated" in out


#: Every option (and positional) each command declares.  A change to the
#: CLI's flags must change this list in the same commit.
DECLARED_FLAGS = {
    "run": ["--app", "--app-param", "--check-policy", "--criterion", "--dist-param",
            "--distribution", "--exact", "--heuristic", "--max-steps", "--net-param",
            "--network", "--no-check", "--protocol", "--scenario", "--seed",
            "--trace-out", "--until", "--verbose", "--workload", "--workload-param"],
    "apps list": ["--verbose"],
    "apps run": ["--app", "--app-param", "--check-policy", "--criterion", "--exact",
                 "--heuristic", "--max-steps", "--net-param", "--network", "--no-check",
                 "--protocol", "--seed", "--trace-out", "--verbose"],
    "reproduce": [],
    "protocols list": ["--verbose"],
    "experiments list": ["--suite", "--verbose"],
    "experiments run": ["--cache-dir", "--json", "--no-cache", "--per-run", "--scenario",
                        "--suite", "--verbose", "--workers"],
    "experiments report": ["--json", "--per-run"],
    "hunt run": ["--budget", "--jobs", "--json", "--no-shrink", "--out", "--seed",
                 "--shrink-budget", "--skip-replay", "--verbose"],
    "hunt shrink": ["--budget", "--out", "file"],
    "hunt promote": ["file"],
    "hunt smoke": ["--budget", "--jobs", "--seed"],
    "trace info": ["file"],
    "trace replay": ["--criterion", "--heuristic", "--policy", "--window", "file"],
    "serve run": ["--config", "--criterion", "--follow", "--host", "--oneshot", "--port",
                  "--status-interval", "--tenant", "--window"],
    "serve smoke": [],
    "place optimize": ["--accessors", "--budget", "--measure", "--mode", "--objective",
                       "--out", "--processes", "--profile", "--profile-seed", "--seed",
                       "--trace", "--variables"],
    "place report": ["--measure", "file"],
    "arena info": ["--dist-param", "--distribution", "--protocol", "--scenario", "--seed",
                   "--workload", "--workload-param"],
    "lint": ["--list-rules", "--select", "--third-party", "paths"],
}


class TestDeclaredFlags:
    def test_no_flag_is_added_or_lost(self):
        declared = {
            " ".join(path): sorted(
                option
                for action in leaf._actions if not isinstance(action, argparse._HelpAction)
                for option in action.option_strings or [action.dest]
            )
            for path, leaf in leaf_parsers(build_parser())
        }
        assert declared == DECLARED_FLAGS


def _masked(out):
    return [line for line in out.splitlines() if not line.startswith("elapsed ")]


class TestFlagsAndSpecFiles:
    """The flags and a ScenarioSpec file differ only in where the spec comes from."""

    @pytest.mark.parametrize("argv", [
        ["run"],
        ["run", "--app", "bellman_ford"],
        ["run", "--network", "faulty", "--net-param", "drop_rate=0.1"],
        ["run", "--criterion", "causal", "--criterion", "pram",
         "--check-policy", "fail_fast"],
        ["run", "--no-check"],
        ["run", "--heuristic"],
        ["arena", "info"],
        ["arena", "info", "--dist-param", "processes=4", "--dist-param", "variables=5",
         "--workload-param", "operations_per_process=7"],
    ], ids=lambda argv: " ".join(argv))
    def test_a_spec_file_runs_what_its_flags_run(self, argv, tmp_path, capsys):
        import json

        from repro.cli import _spec_from_flags

        command = argv[:1] if argv[0] == "run" else argv[:2]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_spec_from_flags(build_parser().parse_args(argv)).to_dict()),
                        encoding="utf-8")
        capsys.readouterr()
        by_flags = main(argv), _masked(capsys.readouterr().out)
        by_file = main([*command, "--scenario", str(path)]), _masked(capsys.readouterr().out)
        assert by_flags == by_file
        assert by_flags[1]  # a summary was printed


class TestJsonOutputs:
    @pytest.mark.parametrize("argv", [
        ["experiments", "run", "--scenario", "figure2-hoop", "--no-cache", "--json"],
        ["hunt", "run", "--budget", "2", "--no-shrink", "--skip-replay", "--json"],
        ["place", "optimize", "--processes", "6", "--variables", "4", "--out"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_an_unwritable_output_is_a_clean_error(self, argv, tmp_path, capsys):
        assert main([*argv, str(tmp_path / "absent-dir" / "out.json")]) == 2
        err = capsys.readouterr().err
        assert "error: cannot write" in err
        assert "Traceback" not in err
