"""The application layer as first-class plugins of the Session/ScenarioSpec API.

Covers the PR's acceptance criteria:

* the four built-in apps are registered with capability metadata and are
  addressable from JSON-round-trippable :class:`repro.spec.ScenarioSpec`
  objects (``app`` axis);
* app histories stream into the incremental checkers (equivalence with the
  batch verdict; fail-fast aborts a violating app run mid-flight);
* faulty-network app scenarios yield a checker verdict plus a
  validated-or-diagnosed result.
"""

import pytest

from repro.api import Session
from repro.dsm.app import AppInstance, AppVerdict
from repro.exceptions import (
    AppCompatibilityError,
    ScenarioSpecError,
    SessionError,
    UnknownAppError,
)
from repro.spec import APP_REGISTRY, AppSpec, ScenarioSpec

#: (app name, params) pairs — small instances of each registered app.
APP_POINTS = [
    ("bellman_ford", {"topology": "figure8", "source": 1}),
    ("jacobi", {"unknowns": 5, "workers": 2, "iterations": 25}),
    ("matrix_product", {"rows": 4, "inner": 3, "cols": 3, "workers": 2}),
    ("producer_consumer", {"stages": 3, "items": 3}),
]


def app_scenario(name, params, *, check=False, seed=0, **extra):
    data = {
        "name": f"test-{name.replace('_', '-')}",
        "protocol": "pram_partial",
        "app": {"name": name, "params": params},
        "seed": seed,
        "check": check,
        **extra,
    }
    return ScenarioSpec.from_dict(data)


class TestRegistry:
    def test_four_apps_registered_with_capability_metadata(self):
        assert APP_REGISTRY.names() == [
            "bellman_ford", "jacobi", "matrix_product", "producer_consumer",
        ]
        for component in APP_REGISTRY.components():
            assert component.metadata["blocking_ok"] is False
            assert component.metadata["variables_per_process"]
            assert component.metadata["description"]

    def test_unknown_app_is_a_typed_error(self):
        with pytest.raises(UnknownAppError):
            APP_REGISTRY.get("nope")
        with pytest.raises(UnknownAppError):
            AppSpec("nope").validate()
        with pytest.raises(UnknownAppError):
            Session(protocol="pram_partial", app="nope")

    def test_unknown_app_param_is_a_typed_error(self):
        with pytest.raises(ScenarioSpecError):
            AppSpec("jacobi", {"bogus": 1}).validate()

    def test_factories_build_app_instances(self):
        for name, params in APP_POINTS:
            instance = AppSpec(name, params).build(seed=0)
            assert isinstance(instance, AppInstance)
            assert instance.programs
            assert set(instance.programs) <= set(instance.distribution.processes)


class TestScenarioSpecAppAxis:
    @pytest.mark.parametrize("name,params", APP_POINTS, ids=lambda v: str(v)[:20])
    def test_json_round_trip(self, name, params):
        spec = app_scenario(name, params)
        data = spec.to_dict()
        assert data["app"]["name"] == name
        assert ScenarioSpec.from_dict(data) == spec
        spec.validate()

    def test_max_steps_round_trips(self):
        spec = ScenarioSpec.from_dict({
            "name": "budgeted", "protocol": "pram_partial",
            "app": {"name": "bellman_ford", "max_steps": 500},
        })
        assert spec.app.max_steps == 500
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec.from_dict({
                "name": "bad", "protocol": "pram_partial",
                "app": {"name": "bellman_ford", "max_steps": 0},
            }).validate()

    def test_pinned_seed_param_overrides_the_scenario_seed(self):
        # params["seed"] pins the input generation (NetworkSpec semantics)
        # instead of colliding with the positional seed in a TypeError
        pinned = AppSpec("bellman_ford",
                         {"topology": "random", "nodes": 5, "extra_edges": 3,
                          "seed": 7}).build(seed=0)
        direct = AppSpec("bellman_ford",
                         {"topology": "random", "nodes": 5,
                          "extra_edges": 3}).build(seed=7)
        assert pinned.distribution.describe() == direct.distribution.describe()

    def test_app_excludes_distribution_and_workload(self):
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec.from_dict({
                "name": "clash", "protocol": "pram_partial",
                "app": {"name": "jacobi"},
                "workload": {"pattern": "uniform"},
            })
        with pytest.raises(ScenarioSpecError):
            ScenarioSpec.from_dict({"name": "nothing", "protocol": "pram_partial"})

    def test_blocking_protocol_rejected_for_direct_style_apps(self):
        spec = ScenarioSpec.from_dict({
            "name": "blocked", "protocol": "sequencer_sc",
            "app": {"name": "bellman_ford"},
        })
        with pytest.raises(AppCompatibilityError):
            spec.validate()
        with pytest.raises(AppCompatibilityError):
            Session(protocol="sequencer_sc", app="producer_consumer")

    def test_session_rejects_app_plus_workload(self):
        with pytest.raises(SessionError):
            Session(protocol="pram_partial", app="jacobi",
                    workload=("uniform", {}))
        with pytest.raises(SessionError):
            Session(protocol="pram_partial", app="jacobi",
                    distribution=("random", {}))

    def test_until_is_rejected_for_app_runs(self):
        session = Session(protocol="pram_partial", app="producer_consumer")
        with pytest.raises(SessionError):
            session.run(until=5)


class TestAppChecking:
    def test_app_history_streams_into_incremental_checkers(self):
        report = Session.from_spec(
            app_scenario("bellman_ford", {"topology": "figure8"}, check=True)
        ).run()
        assert report.consistent is True
        assert report.app_correct is True
        # every recorded operation was observed by the checker
        assert report.ops_checked == report.operations() > 0

    def test_incremental_verdict_equals_batch_on_app_history(self):
        from repro.core.consistency import get_checker
        from repro.core.consistency.incremental import incremental_checker

        session = Session(protocol="pram_partial",
                          app=("bellman_ford", {"topology": "figure8"}),
                          check=False)
        report = session.run()
        batch = get_checker("pram").check(report.history,
                                          report.read_from, exact=False)
        checker = incremental_checker("pram", exact=False)
        checker.start(universe=report.history.processes)
        for op, source in session.recorder.log():
            checker.feed(op, source)
        streamed = checker.finalize()
        assert streamed.consistent == batch.consistent is True

    def test_fail_fast_aborts_a_violating_app_run(self):
        # best_effort re-applies duplicated stale updates: a proven
        # writer-monotonicity violation the fail-fast policy acts on mid-run.
        report = Session(
            protocol="best_effort",
            app=("bellman_ford", {"topology": "figure8"}),
            network=("faulty", {"latency": 0.1, "duplicate_rate": 0.6,
                                "duplicate_lag": 4.0}),
            check_policy="fail_fast",
            exact=False,
        ).run()
        assert report.consistent is False
        assert report.stopped_early
        assert report.first_violation
        assert report.app_correct is None  # aborted, hence unvalidatable
        assert "aborted" in report.app_diagnosis
        assert not report  # __bool__ reflects the violation

    def test_bounded_app_run_reports_operations_from_the_delivery_log(self):
        # Satellite: operations() must come from the recorder's log, not from
        # len(history) — with keep_history=False there is no history at all.
        report = Session(
            protocol="pram_partial",
            app=("producer_consumer", {"stages": 3, "items": 4}),
            keep_history=False,
        ).run()
        assert report.history is None
        assert report.operations() > 0
        assert report.app_correct is True


class TestFaultyAppScenarios:
    """Acceptance: faulty-network Bellman-Ford in the apps suite yields a
    checker verdict and a validated-or-diagnosed result."""

    @staticmethod
    def _suite_point(scenario_name):
        from repro.experiments.suites import builtin_scenarios

        for spec in builtin_scenarios():
            if spec.name == scenario_name:
                points = spec.expand()
                assert points
                return points[0]
        raise AssertionError(f"no built-in scenario named {scenario_name}")

    def test_duplication_scenario_is_validated(self):
        from repro.experiments.runner import run_point

        record = run_point(self._suite_point("apps-bellman-ford-duplication"))
        assert record.network_model == "faulty"
        assert record.messages_duplicated > 0
        assert record.consistent is True      # checker verdict present
        assert record.app_correct is True     # validated result
        assert record.as_expected

    def test_partition_scenario_is_diagnosed(self):
        from repro.experiments.runner import run_point

        record = run_point(self._suite_point("apps-bellman-ford-partition"))
        assert record.consistent is True      # stale, never inconsistent
        assert record.app_correct is False    # diagnosed, not validated
        assert "livelock" in record.app_diagnosis
        assert record.as_expected             # the diagnosis is the expectation

    def test_ad_hoc_instances_without_validator_report_dont_know(self):
        def writer(ctx):
            ctx.write("x", 1)
            yield

        def reader(ctx):
            while ctx.read("x") != 1:
                yield
            return ctx.read("x")

        from repro.core.distribution import VariableDistribution

        instance = AppInstance(
            name="adhoc",
            distribution=VariableDistribution({0: {"x"}, 1: {"x"}}),
            programs={0: writer, 1: reader},
        )
        report = Session(protocol="pram_partial", app=instance).run()
        assert report.app_correct is None
        assert report.app_results[1] == 1
        assert isinstance(instance.verdict(report.app_results), AppVerdict)
