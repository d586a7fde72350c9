"""The committed 'hunted' suite: registration, expansion, replay gating."""

import json
import os
import shutil

import pytest

from hunt_helpers import build_spec
from repro.exceptions import ScenarioSpecError
from repro.experiments import REGISTRY
from repro.experiments.hunted import (
    HUNTED_DIR,
    experiment_from_finding,
    hunted_scenarios,
    register_hunted_scenarios,
)
from repro.experiments.runner import run_point
from repro.hunt import Finding, load_findings_dir, write_finding


class TestRegistration:
    def test_every_committed_reproducer_is_a_registered_scenario(self):
        pairs = load_findings_dir(HUNTED_DIR)
        assert pairs, "the committed corpus must not be empty"
        for path, _finding in pairs:
            stem = path.rsplit("/", 1)[-1][:-len(".json")]
            spec = REGISTRY.get(f"hunted-{stem}")
            assert spec.suite == "hunted"

    def test_registration_is_idempotent(self):
        assert register_hunted_scenarios() == []  # import already ran it

    def test_each_scenario_expands_to_exactly_one_point(self):
        for spec in hunted_scenarios():
            points = spec.expand()
            assert len(points) == 1
            point = points[0]
            assert point.expect_consistent is False  # current corpus: violations
            assert point.spec.seed == spec.seeds[0]

    def test_expansion_reproduces_the_finding_spec(self):
        pairs = load_findings_dir(HUNTED_DIR)
        for (path, finding), spec in zip(pairs, hunted_scenarios()):
            point = spec.expand()[0]
            assert point.spec.protocol == finding.spec.protocol
            assert point.spec.network == finding.spec.network
            assert point.spec.workload == finding.spec.workload
            assert point.spec.seed == finding.spec.seed
            assert tuple(point.spec.check.criteria) == \
                tuple(finding.spec.check.criteria)


class TestReplay:
    def test_every_committed_reproducer_still_reproduces(self):
        # the in-process version of `make hunt-smoke`'s suite leg: each
        # minimal reproducer must keep producing its recorded verdict
        for spec in hunted_scenarios():
            record = run_point(spec.expand()[0])
            assert record.consistent is False, \
                f"{spec.name} stopped reproducing its violation"
            assert record.as_expected


class TestPromotionGuard:
    def test_crash_findings_cannot_join_the_suite(self):
        crash = Finding(kind="crash", spec=build_spec(),
                        crash_type="KeyError")
        with pytest.raises(ScenarioSpecError):
            experiment_from_finding("hunted-crash", crash)

    def test_unexpected_pass_cannot_join_the_suite(self):
        regression = Finding(kind="unexpected_pass", spec=build_spec())
        with pytest.raises(ScenarioSpecError):
            experiment_from_finding("hunted-regression", regression)

    def test_livelock_findings_gate_on_liveness(self):
        livelock = Finding(kind="livelock", spec=build_spec())
        spec = experiment_from_finding("hunted-livelock", livelock)
        assert spec.expect_consistent is True
        assert spec.expect_correct is False


class TestCorpusLoader:
    """What ``hunted_scenarios`` refuses: each a typed error at import."""

    @pytest.fixture
    def corpus(self, tmp_path):
        shutil.copytree(HUNTED_DIR, tmp_path / "hunted")
        return tmp_path / "hunted"

    def test_the_committed_corpus_loads(self, corpus):
        names = [spec.name for spec in hunted_scenarios(str(corpus))]
        assert names == [spec.name for spec in hunted_scenarios()]
        assert names == sorted(f"hunted-{name[:-len('.json')]}"
                               for name in os.listdir(HUNTED_DIR))

    def test_a_misnamed_file_is_rejected(self, corpus):
        first = sorted(corpus.iterdir())[0]
        first.rename(corpus / "misnamed.json")
        with pytest.raises(ScenarioSpecError,
                           match=f"must be named {first.name}"):
            hunted_scenarios(str(corpus))

    def test_a_non_json_file_is_rejected(self, corpus):
        (corpus / "broken.json").write_text("{not json\n")
        with pytest.raises(ScenarioSpecError, match="cannot read finding file"):
            hunted_scenarios(str(corpus))

    def test_a_finding_without_spec_is_rejected(self, corpus):
        first = sorted(corpus.iterdir())[0]
        data = json.loads(first.read_text())
        del data["spec"]
        first.write_text(json.dumps(data))
        with pytest.raises(ScenarioSpecError, match="spec"):
            hunted_scenarios(str(corpus))

    def test_a_non_promotable_kind_is_rejected(self, corpus):
        crash = Finding(kind="crash", spec=build_spec(), crash_type="KeyError")
        write_finding(crash, str(corpus / f"{crash.slug()}.json"))
        with pytest.raises(ScenarioSpecError, match="cannot join the hunted suite"):
            hunted_scenarios(str(corpus))
