"""The built-in ``apps`` suite and the experiment layer's application axis."""

import pytest

from repro.exceptions import ScenarioSpecError
from repro.experiments import REGISTRY, ScenarioRecord, run_point, run_suite
from repro.experiments.spec import ExperimentSpec
from repro.experiments.suites import builtin_scenarios
from repro.spec import AppSpec


def apps_specs():
    return [spec for spec in builtin_scenarios() if spec.suite == "apps"]


class TestAppsSuiteRegistration:
    def test_suite_is_registered(self):
        assert "apps" in REGISTRY.suites()
        assert {s.name for s in REGISTRY.specs("apps")} == \
            {s.name for s in apps_specs()}

    def test_every_scenario_covers_a_registered_app(self):
        names = {spec.app.name for spec in apps_specs()}
        assert names == {"bellman_ford", "jacobi", "matrix_product",
                         "producer_consumer"}

    def test_expansion_produces_app_points(self):
        for spec in apps_specs():
            for point in spec.expand():
                assert point.spec.app is not None
                assert point.spec.distribution is None and point.spec.workload is None
                assert f"app={point.spec.app.name}" in point.label()
                # the app axis is part of the cache identity
                assert point.key()["app"]["name"] == point.spec.app.name

    def test_faulty_scenarios_gate_both_expectations(self):
        by_name = {spec.name: spec for spec in apps_specs()}
        duplication = by_name["apps-bellman-ford-duplication"]
        assert duplication.expect_consistent is True
        assert duplication.expect_correct is True
        partition = by_name["apps-bellman-ford-partition"]
        assert partition.expect_correct is False
        assert partition.app.max_steps  # diagnosed, not spun out


class TestExperimentSpecAppAxis:
    def test_app_excludes_distribution_and_workload(self):
        from repro.spec import DistributionSpec, WorkloadSpec

        with pytest.raises(ScenarioSpecError):
            ExperimentSpec(
                name="clash",
                app=AppSpec("jacobi"),
                distribution=DistributionSpec("random"),
                workload=WorkloadSpec("uniform"),
            ).validate()
        with pytest.raises(ScenarioSpecError):
            ExperimentSpec(name="nothing").validate()

    def test_app_grid_axis_expands(self):
        spec = ExperimentSpec(
            name="pipeline-sweep",
            app=AppSpec("producer_consumer", {"stages": 3}),
            grid={"app.items": (2, 3, 4)},
            seeds=(0,),
        )
        points = spec.expand()
        assert [p.spec.app.params["items"] for p in points] == [2, 3, 4]
        assert all(p.spec.app.params["stages"] == 3 for p in points)
        # distinct cache identities per grid cell
        assert len({p.content_hash() for p in points}) == 3

    def test_unknown_app_grid_axis_rejected(self):
        spec = ExperimentSpec(
            name="bad-axis",
            app=AppSpec("producer_consumer"),
            grid={"app.bogus": (1,)},
        )
        with pytest.raises(ScenarioSpecError):
            spec.validate()

    def test_workload_axes_rejected_for_app_scenarios(self):
        spec = ExperimentSpec(
            name="bad-scope",
            app=AppSpec("producer_consumer"),
            grid={"workload.operations_per_process": (1,)},
        )
        with pytest.raises(ScenarioSpecError):
            spec.validate()

    def test_blocking_protocol_rejected_at_validation(self):
        from repro.exceptions import AppCompatibilityError

        spec = ExperimentSpec(
            name="blocked",
            app=AppSpec("producer_consumer"),
            protocols=("sequencer_sc",),
        )
        with pytest.raises(AppCompatibilityError):
            spec.validate()


class TestAppRecords:
    def test_run_point_fills_the_app_fields(self):
        spec = ExperimentSpec(
            name="pipeline-record",
            suite="apps",
            app=AppSpec("producer_consumer", {"stages": 3, "items": 3}),
            exact=False,
            expect_correct=True,
        )
        record = run_point(spec.expand()[0])
        assert record.app == "producer_consumer"
        assert record.app_correct is True
        assert record.expected_correct is True
        assert record.as_expected
        assert record.distribution == "-" and record.workload == "-"
        assert record.params == {"stages": 3, "items": 3}
        row = record.as_row()
        assert row["app"] == "producer_consumer" and row["app_ok"] == "yes"

    def test_record_round_trips_with_app_fields(self):
        record = ScenarioRecord(
            scenario="s", suite="apps", paper_ref="", protocol="pram_partial",
            seed=0, distribution="-", workload="-", params={},
            criterion="pram", consistent=True, exact=False, processes=3,
            variables=6, operations=10, messages=5, payload_bytes=1,
            control_bytes=2, control_bytes_per_message=0.4,
            irrelevant_messages=0, irrelevant_fraction=0.0,
            relevance_violations=0, elapsed_s=0.1,
            app="jacobi", app_correct=False, app_diagnosis="livelock: x",
            expected_correct=False,
        )
        rebuilt = ScenarioRecord.from_dict(record.to_dict())
        assert rebuilt == record
        assert rebuilt.as_expected  # False == expected False

    def test_unexpected_app_verdict_fails_the_suite(self):
        record = ScenarioRecord(
            scenario="s", suite="apps", paper_ref="", protocol="pram_partial",
            seed=0, distribution="-", workload="-", params={},
            criterion="pram", consistent=True, exact=False, processes=3,
            variables=6, operations=10, messages=5, payload_bytes=1,
            control_bytes=2, control_bytes_per_message=0.4,
            irrelevant_messages=0, irrelevant_fraction=0.0,
            relevance_violations=0, elapsed_s=0.1,
            app="jacobi", app_correct=False, expected_correct=True,
        )
        assert not record.as_expected

    def test_unexpected_app_verdict_marks_the_app_column(self):
        from repro.experiments import aggregate_records

        record = ScenarioRecord(
            scenario="s", suite="apps", paper_ref="", protocol="pram_partial",
            seed=0, distribution="-", workload="-", params={},
            criterion="pram", consistent=True, exact=False, processes=3,
            variables=6, operations=10, messages=5, payload_bytes=1,
            control_bytes=2, control_bytes_per_message=0.4,
            irrelevant_messages=0, irrelevant_fraction=0.0,
            relevance_violations=0, elapsed_s=0.1,
            app="bellman_ford", app_correct=True, expected_correct=False,
        )
        row = aggregate_records([record])[0]
        # the surprise is the app gate's, not the checker's: the marker must
        # land on the app_ok column only
        assert "(UNEXPECTED)" in row["app_ok"]
        assert "(UNEXPECTED)" not in row["ok"]

    def test_suite_runner_executes_an_app_scenario(self):
        spec = ExperimentSpec(
            name="pipeline-suite-run",
            suite="apps",
            app=AppSpec("producer_consumer", {"stages": 3, "items": 2}),
            protocols=("pram_partial", "best_effort"),
            exact=False,
            expect_correct=True,
        )
        result = run_suite([spec], cache=None)
        assert len(result.records) == 2
        assert not result.failures
        assert all(r.app_correct for r in result.records)
