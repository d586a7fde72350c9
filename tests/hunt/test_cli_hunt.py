"""The ``repro hunt`` command group end to end (small fixed budgets)."""

import json
import os

import pytest

from hunt_helpers import build_spec
from repro.cli import build_parser, main
from repro.experiments import hunted
from repro.hunt import Finding, load_findings_dir, write_finding


class TestParser:
    def test_hunt_run_defaults(self):
        args = build_parser().parse_args(["hunt", "run"])
        assert args.command == "hunt"
        assert args.hunt_command == "run"
        assert args.budget == 200
        assert args.seed == 0
        assert args.jobs == 0
        assert not args.no_shrink

    def test_hunt_smoke_defaults(self):
        args = build_parser().parse_args(["hunt", "smoke"])
        assert args.budget == 25
        assert args.seed == 0

    def test_hunt_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["hunt"])


class TestHuntRun:
    def test_run_writes_findings_and_report(self, tmp_path, capsys):
        out = tmp_path / "findings"
        report_file = tmp_path / "report.json"
        rc = main(["hunt", "run", "--budget", "12", "--seed", "0",
                   "--skip-replay", "--no-shrink",
                   "--out", str(out), "--json", str(report_file)])
        assert rc == 0
        captured = capsys.readouterr()
        assert "hunt seed=0 budget=12" in captured.out
        written = sorted(os.listdir(out))
        assert written, "hunter seed 0 finds a violation within 12 trials"
        payload = json.loads(report_file.read_text())
        assert payload["executed"] == 12
        assert [f["kind"] for f in payload["findings"]]
        assert payload["regressions"] == []

    def test_run_is_deterministic_across_invocations(self, tmp_path):
        reports = []
        for attempt in ("a", "b"):
            path = tmp_path / f"{attempt}.json"
            rc = main(["hunt", "run", "--budget", "12", "--skip-replay",
                       "--no-shrink", "--json", str(path)])
            assert rc == 0
            reports.append(json.loads(path.read_text()))
        assert reports[0] == reports[1]

    def test_jobs_reuses_one_experiments_worker_pool(self, monkeypatch, capsys):
        # --jobs must enter the experiments layer's worker_pool() once and
        # thread that single pool through every trial (regression guard
        # against one-pool-per-scenario)
        from repro.experiments import runner

        created = []

        class CountingPool:
            def __init__(self, processes=None):
                created.append(processes)
                self.map_sizes = []

            def map(self, func, iterable, chunksize=None):
                items = list(iterable)
                self.map_sizes.append(len(items))
                return [func(item) for item in items]

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(runner.multiprocessing, "Pool", CountingPool)
        rc = main(["hunt", "run", "--budget", "6", "--jobs", "3",
                   "--skip-replay", "--no-shrink"])
        assert rc == 0
        assert created == [3], "exactly one pool, sized by --jobs"
        capsys.readouterr()


class TestHuntShrink:
    def test_shrink_rewrites_the_finding_in_place(self, tmp_path, capsys):
        out = tmp_path / "findings"
        assert main(["hunt", "run", "--budget", "12", "--skip-replay",
                     "--no-shrink", "--out", str(out)]) == 0
        capsys.readouterr()
        path = os.path.join(out, sorted(os.listdir(out))[0])
        before = json.loads(open(path).read())
        rc = main(["hunt", "shrink", path, "--budget", "60"])
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        after = json.loads(open(path).read())
        assert after["kind"] == before["kind"]
        assert after["operations"] <= before["operations"]
        assert after["provenance"]["shrink_runs"] > 0

    def test_shrink_refuses_a_finding_that_does_not_reproduce(
            self, tmp_path, capsys):
        bogus = Finding(kind="violation", spec=build_spec("pram_partial"))
        path = write_finding(bogus, str(tmp_path / "bogus.json"))
        rc = main(["hunt", "shrink", path])
        assert rc == 1
        assert "does not reproduce" in capsys.readouterr().err


class TestHuntPromote:
    def test_promote_refuses_crash_findings(self, tmp_path, capsys):
        crash = Finding(kind="crash", spec=build_spec(),
                        crash_type="KeyError")
        path = write_finding(crash, str(tmp_path / "crash.json"))
        rc = main(["hunt", "promote", path])
        assert rc == 1
        assert "refused" in capsys.readouterr().err

    def test_promote_refuses_non_reproducing_findings(self, tmp_path, capsys):
        bogus = Finding(kind="violation", spec=build_spec("pram_partial"))
        path = write_finding(bogus, str(tmp_path / "bogus.json"))
        rc = main(["hunt", "promote", path])
        assert rc == 1
        assert "refused" in capsys.readouterr().err

    def test_promote_names_the_file_after_the_slug(self, tmp_path, monkeypatch,
                                                   capsys):
        (_, finding), *_ = load_findings_dir(hunted.HUNTED_DIR)
        path = write_finding(finding, str(tmp_path / "misnamed.json"))
        corpus = tmp_path / "corpus"
        monkeypatch.setattr(hunted, "HUNTED_DIR", str(corpus))
        rc = main(["hunt", "promote", path])
        assert rc == 0
        slug = finding.slug()
        assert os.listdir(corpus) == [f"{slug}.json"]
        assert f"as hunted-{slug}" in capsys.readouterr().out
        assert [spec.name for spec in hunted.hunted_scenarios(str(corpus))] == \
            [f"hunted-{slug}"]
