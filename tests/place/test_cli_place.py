"""Tests of the ``repro place`` CLI (optimize / report)."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_optimize_flags(self):
        args = build_parser().parse_args(
            ["place", "optimize", "--processes", "8", "--variables", "6",
             "--objective", "hoops", "--mode", "exact", "--seed", "2",
             "--budget", "50"])
        assert args.place_command == "optimize"
        assert args.objective == "hoops" and args.mode == "exact"
        assert args.processes == 8 and args.budget == 50

    def test_report_needs_a_file(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["place", "report"])


class TestOptimize:
    def test_synthetic_profile_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "placement.json"
        assert main(["place", "optimize", "--processes", "8",
                     "--variables", "6", "--accessors", "2",
                     "--profile-seed", "2", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "objective" in printed and "cost" in printed
        data = json.loads(out.read_text())
        assert data["holders"]
        assert "measured" not in data  # a default the codec omits

    def test_measure_records_overhead(self, tmp_path, capsys):
        out = tmp_path / "placement.json"
        assert main(["place", "optimize", "--processes", "6",
                     "--variables", "5", "--accessors", "2",
                     "--measure", "causal_tree", "--out", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["measured"]["consistent"] == 1.0
        assert data["measured"]["messages"] > 0

    def test_profile_file_input(self, tmp_path, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(json.dumps({
            "reads": [[1, "x", 2], [2, "y", 1]],
            "writes": [[0, "x", 3], [1, "y", 2]],
        }))
        assert main(["place", "optimize", "--profile", str(profile)]) == 0
        printed = capsys.readouterr().out
        assert "2 variables" in printed

    def test_missing_input_is_a_typed_error(self, capsys):
        assert main(["place", "optimize"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_deterministic_for_fixed_seed(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            assert main(["place", "optimize", "--processes", "10",
                         "--variables", "8", "--profile-seed", "4",
                         "--seed", "9", "--out", str(out)]) == 0
            outs.append(json.loads(out.read_text()))
        assert outs[0]["holders"] == outs[1]["holders"]
        assert outs[0]["cost"] == outs[1]["cost"]


class TestReport:
    def test_rerender_and_measure(self, tmp_path, capsys):
        out = tmp_path / "placement.json"
        assert main(["place", "optimize", "--processes", "6",
                     "--variables", "5", "--accessors", "2",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["place", "report", str(out),
                     "--measure", "sequencer_shard"]) == 0
        printed = capsys.readouterr().out
        assert "measured" in printed


class TestUnreadableInputFiles:
    """A missing or non-JSON input file is a typed error: exit 2 with
    ``error: cannot read ...``, never a traceback."""

    COMMANDS = {
        "profile": ["place", "optimize", "--profile"],
        "trace": ["place", "optimize", "--trace"],
        "placement report": ["place", "report"],
    }

    @pytest.mark.parametrize("what", sorted(COMMANDS))
    def test_missing_file(self, what, tmp_path, capsys):
        path = str(tmp_path / "absent.json")
        assert main(self.COMMANDS[what] + [path]) == 2
        assert f"error: cannot read {what} file {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("what", sorted(COMMANDS))
    def test_malformed_file(self, what, tmp_path, capsys):
        path = tmp_path / "garbage.json"
        path.write_text("not json {\n")
        assert main(self.COMMANDS[what] + [str(path)]) == 2
        assert f"error: cannot read {what} file {path}" in capsys.readouterr().err

    def test_a_report_that_is_not_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]\n")
        assert main(["place", "report", str(path)]) == 2
        assert "placement report spec must be a mapping, got list" in capsys.readouterr().err

    def test_a_report_with_a_fractional_seed(self, tmp_path, capsys):
        out = tmp_path / "placement.json"
        assert main(["place", "optimize", "--processes", "6", "--variables", "4",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        out.write_text(json.dumps({**data, "seed": 3.7}))
        assert main(["place", "report", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: placement report seed must be an integer, got 3.7\n"
