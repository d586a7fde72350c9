"""Finding serialization, identity and the committed-file round trip."""

import json
from pathlib import Path

import pytest

from hunt_helpers import build_spec
from repro.exceptions import ScenarioSpecError
from repro.hunt import (
    FINDING_FORMAT,
    FINDING_KINDS,
    PROMOTABLE_KINDS,
    Finding,
    load_finding,
    load_findings_dir,
    write_finding,
)
from repro.spec.scenario import NetworkSpec

HUNTED = Path(__file__).resolve().parents[2] / "src" / "repro" / "experiments" / "hunted"


def make_finding(kind="violation", **overrides):
    spec = overrides.pop("spec", None) or build_spec(
        network=NetworkSpec("faulty", {"drop_rate": 0.2, "seed": 3},
                            fifo=False))
    return Finding(kind=kind, spec=spec, detail="p1 read stale x",
                   operations=12,
                   provenance={"hunter_seed": 0, "trial": 5}, **overrides)


class TestFinding:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ScenarioSpecError):
            make_finding(kind="mystery")

    def test_expectations_by_kind(self):
        assert make_finding("violation").expectation() == (False, None)
        assert make_finding("unexpected_violation").expectation() == (False, None)
        assert make_finding("livelock").expectation() == (True, False)
        assert make_finding("wrong_result").expectation() == (True, False)
        assert make_finding("crash").expectation() == (None, None)
        assert make_finding("unexpected_pass").expectation() == (None, None)

    def test_crash_and_unexpected_pass_are_not_promotable(self):
        assert set(PROMOTABLE_KINDS) == set(FINDING_KINDS) - \
            {"crash", "unexpected_pass"}

    def test_signature_separates_distinct_failure_modes(self):
        drops = make_finding()
        duplicates = make_finding(spec=build_spec(network=NetworkSpec(
            "faulty", {"duplicate_rate": 0.2, "duplicate_lag": 2.0, "seed": 3},
            fifo=False)))
        assert drops.signature() != duplicates.signature()
        # ...but the same failure mode at a different size collapses
        bigger = make_finding()
        bigger.operations = 99
        assert bigger.signature() == drops.signature()

    def test_slug_is_filesystem_and_scenario_safe(self):
        slug = make_finding().slug()
        assert slug == "violation-best_effort-nofifo-faulty-t5"


class TestSerialization:
    def test_json_round_trip_is_lossless(self):
        for kind in FINDING_KINDS:
            finding = make_finding(kind,
                                   crash_type="KeyError" if kind == "crash" else "")
            data = json.loads(json.dumps(finding.to_dict()))
            rebuilt = Finding.from_dict(data)
            assert rebuilt.to_dict() == finding.to_dict()
            assert rebuilt.spec == finding.spec

    def test_expected_block_carries_the_suite_verdicts(self):
        data = make_finding("violation").to_dict()
        assert data["format"] == FINDING_FORMAT
        assert data["expected"] == {"outcome": "violation", "consistent": False}

    def test_newer_format_is_refused(self):
        data = make_finding().to_dict()
        data["format"] = FINDING_FORMAT + 1
        with pytest.raises(ScenarioSpecError):
            Finding.from_dict(data)

    @pytest.mark.parametrize("key,value,message", [
        ("guaranteed", "false", "finding guaranteed must be a boolean, got 'false'"),
        ("operations", "12", "finding operations must be an integer, got '12'"),
        ("detail", 3, "finding detail must be a string, got 3"),
        ("crash_type", None, "finding crash_type must be a string, got None"),
    ])
    def test_a_field_is_decoded_by_its_declared_type(self, key, value, message):
        data = {**make_finding().to_dict(), key: value}
        with pytest.raises(ScenarioSpecError, match=message):
            Finding.from_dict(data)

    @pytest.mark.parametrize("path", sorted(HUNTED.glob("*.json")), ids=lambda p: p.stem)
    def test_every_committed_reproducer_loads(self, path):
        finding = load_finding(str(path))
        assert finding.to_dict() == json.loads(path.read_text(encoding="utf-8"))

    def test_missing_keys_are_refused(self):
        with pytest.raises(ScenarioSpecError):
            Finding.from_dict({"kind": "violation"})
        with pytest.raises(ScenarioSpecError):
            Finding.from_dict("not a mapping")


class TestFileIO:
    def test_write_then_load(self, tmp_path):
        finding = make_finding()
        path = write_finding(finding, str(tmp_path / "sub" / "f.json"))
        loaded = load_finding(path)
        assert loaded.to_dict() == finding.to_dict()

    def test_load_findings_dir_sorts_and_skips_non_json(self, tmp_path):
        write_finding(make_finding(), str(tmp_path / "b.json"))
        write_finding(make_finding("livelock"), str(tmp_path / "a.json"))
        (tmp_path / "notes.txt").write_text("not a finding")
        pairs = load_findings_dir(str(tmp_path))
        assert [p.rsplit("/", 1)[-1] for p, _ in pairs] == ["a.json", "b.json"]
        assert [f.kind for _, f in pairs] == ["livelock", "violation"]

    def test_missing_directory_is_an_empty_corpus(self, tmp_path):
        assert load_findings_dir(str(tmp_path / "nowhere")) == []

    def test_malformed_file_raises_a_typed_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ScenarioSpecError):
            load_finding(str(bad))
