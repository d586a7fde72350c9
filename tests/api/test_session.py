"""Tests for the streaming Session facade (repro.api)."""

import pytest

from repro.api import CheckPolicy, Session
from repro.core.distribution import VariableDistribution
from repro.exceptions import (
    ProtocolError,
    ReproError,
    SessionError,
    UnknownCriterionError,
)
from repro.experiments.spec import DistributionSpec, ScenarioSpecError, WorkloadSpec
from repro.hunt import SpecSampler
from repro.workloads.access_patterns import Access

RANDOM_DIST = ("random", {"processes": 5, "variables": 6, "replicas_per_variable": 3})
SMALL_WORKLOAD = ("uniform", {"operations_per_process": 6, "write_fraction": 0.5})


def make_session(**overrides):
    kwargs = dict(
        protocol="pram_partial",
        distribution=RANDOM_DIST,
        workload=SMALL_WORKLOAD,
        seed=1,
    )
    kwargs.update(overrides)
    return Session(**kwargs)


class TestSessionConstruction:
    def test_accepts_concrete_objects(self):
        dist = VariableDistribution({0: {"x"}, 1: {"x"}})
        script = [Access(0, "write", "x", "v1"), Access(1, "read", "x")]
        report = Session(protocol="pram_partial", distribution=dist,
                         workload=script).run()
        assert report.consistent is True
        assert report.operations_total == 2

    def test_accepts_specs(self):
        session = Session(
            protocol="causal_full",
            distribution=DistributionSpec("full_replication",
                                          {"processes": 3, "variables": 2}),
            workload=WorkloadSpec("uniform", {"operations_per_process": 4}),
        )
        assert session.criteria == ("causal",)
        assert session.run().consistent is True

    def test_default_criterion_follows_protocol(self):
        assert make_session().criteria == ("pram",)
        assert make_session(protocol="sequencer_sc").criteria == ("sequential",)

    def test_run_is_single_shot(self):
        session = make_session()
        session.run()
        with pytest.raises(SessionError):
            session.run()

    def test_until_caps_operations(self):
        report = make_session().run(until=5)
        assert report.operations_executed == 5
        assert report.operations_total > 5

    def test_keep_history_chooses_the_recorder(self):
        from repro.arena.recorder import ArenaRecorder
        from repro.mcs.recorder import HistoryRecorder

        assert isinstance(make_session().recorder, ArenaRecorder)
        assert isinstance(make_session(keep_history=False).recorder, HistoryRecorder)
        assert make_session(engine="arena").engine == "arena"
        assert make_session(keep_history=False, engine="object").engine == "object"
        for engine, keep_history in (("object", True), ("arena", False), ("columnar", True)):
            with pytest.raises(SessionError, match="engine"):
                make_session(engine=engine, keep_history=keep_history)

    def test_until_rejects_negatives(self):
        with pytest.raises(SessionError):
            make_session().run(until=-1)


class TestTypedErrorsSurfaceThroughFacade:
    """Satellite: the typed exception hierarchy is what callers observe."""

    def test_unknown_protocol(self):
        with pytest.raises(ProtocolError):
            make_session(protocol="nope")

    def test_missing_inputs(self):
        with pytest.raises(SessionError):
            Session(protocol="pram_partial", workload=SMALL_WORKLOAD)
        with pytest.raises(SessionError):
            Session(protocol="pram_partial", distribution=RANDOM_DIST)

    def test_unknown_distribution_family(self):
        with pytest.raises(ScenarioSpecError):
            make_session(distribution=("alien", {}))

    def test_unknown_workload_pattern(self):
        with pytest.raises(ScenarioSpecError):
            make_session(workload=("alien", {}))

    def test_unknown_criterion(self):
        with pytest.raises(UnknownCriterionError):
            make_session(criteria="alien")

    def test_bad_workload_type(self):
        with pytest.raises(SessionError):
            make_session(workload=[1, 2, 3])

    def test_every_facade_error_is_a_repro_error(self):
        for builder in (
            lambda: make_session(protocol="nope"),
            lambda: make_session(distribution=("alien", {})),
            lambda: make_session(criteria="alien"),
        ):
            with pytest.raises(ReproError):
                builder()


class TestChecking:
    def test_consistent_run_with_exact_witnesses(self):
        report = make_session().run()
        assert report.consistent is True and report.exact
        result = report.result("pram")
        assert result.serializations  # exact verdicts carry witnesses

    def test_check_disabled(self):
        report = make_session(check=False).run()
        assert report.consistent is None
        assert report.results == {}
        assert report.efficiency is not None

    def test_heuristic_mode(self):
        report = make_session(exact=False).run()
        assert report.consistent is True and not report.exact

    def test_multiple_criteria(self):
        report = make_session(criteria=("pram", "slow")).run()
        assert set(report.results) == {"pram", "slow"}
        assert report.consistent is True

    def test_result_lookup_errors(self):
        report = make_session(criteria=("pram", "slow")).run()
        with pytest.raises(SessionError):
            report.result()  # ambiguous
        with pytest.raises(SessionError):
            report.result("causal")  # not checked

    def test_fail_fast_stops_violating_run_early(self):
        # Checking atomicity of a weakly consistent protocol run is the
        # canonical violating stream: replicas return stale values long
        # before the history completes.
        report = make_session(
            workload=("uniform", {"operations_per_process": 40}),
            criteria="atomic",
            check_policy="fail_fast",
        ).run()
        assert report.consistent is False
        assert report.stopped_early
        assert report.operations_executed < report.operations_total
        assert report.first_violation
        # at stress-suite scale (520 operations) the abort saves most of the run
        stress = make_session(
            distribution=("random", {"processes": 8, "variables": 10,
                                     "replicas_per_variable": 4}),
            workload=("uniform", {"operations_per_process": 65}),
            seed=7,
            criteria="atomic",
            check_policy="fail_fast",
        ).run()
        assert stress.consistent is False and stress.stopped_early
        assert stress.operations_executed * 3 <= stress.operations_total == 520

    def test_collect_all_runs_to_completion(self):
        report = make_session(
            workload=("uniform", {"operations_per_process": 40}),
            criteria="atomic",
            check_policy="every_op",
        ).run()
        assert report.consistent is False
        assert not report.stopped_early
        assert report.operations_executed == report.operations_total

    @pytest.mark.parametrize("index", [35, 44])
    def test_a_violation_proved_only_at_finalize_is_named(self, index):
        # Two best_effort draws checked for pram: no stream monitor fires,
        # the proof is a bad pattern found at finalize.
        spec = SpecSampler(0).sample(index)
        report = Session.from_spec(spec).run()
        assert report.consistent is False
        assert report.first_violation == report.results["pram"].violations[0]
        assert "is forced between" in report.first_violation

    def test_policy_objects_accepted(self):
        report = make_session(
            check_policy=CheckPolicy(every=4, fail_fast=True)
        ).run()
        assert report.consistent is True
        assert not report.stopped_early


class TestBoundedSessions:
    def test_keep_history_false_keeps_no_history(self):
        report = make_session(keep_history=False).run()
        assert report.history is None
        assert report.read_from is None
        # monitors found nothing, but that is only a heuristic certificate
        assert report.consistent is True and not report.exact

    def test_bounded_session_still_proves_violations(self):
        report = make_session(
            workload=("uniform", {"operations_per_process": 40}),
            criteria="atomic",
            check_policy="fail_fast",
            keep_history=False,
        ).run()
        assert report.consistent is False
        assert report.stopped_early
        assert report.result("atomic").exact  # early verdicts are proofs


class TestReportContents:
    def test_efficiency_and_counters(self):
        report = make_session().run()
        assert report.efficiency.messages_sent > 0
        assert report.events_processed > 0
        assert report.ops_checked == report.operations_executed * 1  # one criterion
        assert len(report.history) == report.operations_executed

    def test_summary_renders(self):
        report = make_session().run()
        text = report.summary()
        assert "pram" in text and "CONSISTENT" in text

    def test_bool_reflects_verdict(self):
        assert bool(make_session().run())
        violating = make_session(
            workload=("uniform", {"operations_per_process": 40}),
            criteria="atomic", check_policy="fail_fast",
        ).run()
        assert not bool(violating)


class TestAllProtocolsThroughFacade:
    @pytest.mark.parametrize(
        "protocol", ["pram_partial", "causal_partial", "causal_full", "sequencer_sc"]
    )
    def test_protocols_run_and_check(self, protocol):
        report = make_session(protocol=protocol).run()
        assert report.consistent is True
