"""Tests for the streaming Session facade (repro.api)."""

import dataclasses
import gc
import weakref

import pytest

from repro.api import CheckPolicy, Session
from repro.core.distribution import VariableDistribution
from repro.exceptions import (
    ProtocolError,
    ReproError,
    SessionError,
    UnknownCriterionError,
)
from repro.experiments.registry import REGISTRY
from repro.experiments.spec import DistributionSpec, ScenarioSpecError, WorkloadSpec
from repro.hunt import SpecSampler
from repro.spec import CheckSpec
from repro.spec.registry import PROTOCOL_REGISTRY
from repro.workloads.access_patterns import Access, drive_script

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

    def test_every_session_records_into_the_arena(self):
        from repro.arena.check import ArenaBatchChecker
        from repro.arena.recorder import ArenaRecorder

        for keep_history in (True, False):
            session = make_session(keep_history=keep_history, engine="arena")
            assert isinstance(session.recorder, ArenaRecorder)
            assert session.engine == "arena"
            assert all(type(c) is ArenaBatchChecker for c in session.checkers.values())
        for engine in ("object", "columnar"):
            with pytest.raises(SessionError, match="engine"):
                make_session(engine=engine)

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
    def test_keep_history_false_keeps_no_history_but_decides_the_same(self):
        report = make_session(keep_history=False).run()
        assert report.history is None
        assert report.read_from is None
        # the same arena check as a history-keeping run: an exact verdict
        kept = make_session().run()
        assert report.consistent is kept.consistent is True
        assert report.exact and kept.exact
        labels = [{pid: [op.label() for op in witness]
                   for pid, witness in r.result().serializations.items()}
                  for r in (report, kept)]
        assert labels[0] == labels[1] and labels[0]

    @pytest.mark.parametrize("keep_history", [True, False])
    def test_a_checking_listener_materialises_no_row(self, keep_history):
        session = make_session(
            workload=("uniform", {"operations_per_process": 40}),
            check_policy="fail_fast",
            keep_history=keep_history,
        )
        report = session.run()
        assert report.operations_executed == 200 and not report.stopped_early
        assert report.consistent is True
        assert len(session.recorder.arena) == 200
        assert not session.recorder.cache  # rows in, no Operation built

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


def count_materialised(monkeypatch):
    """Every ``Operation`` the arena adapter builds from now on."""
    from repro.arena import adapter

    built = []
    real = adapter.Operation

    def counting(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(adapter, "Operation", counting)
    return built


class TestHistoryOnDemand:
    """A history-keeping run builds no ``Operation`` until its report's
    history, read-from map or witnesses are read."""

    def test_finalize_only_run_builds_no_operation(self):
        session = make_session(protocol="causal_partial")
        report = session.run()
        assert report.consistent is True and report.exact
        assert len(session.recorder.cache) == 0

    def test_app_run_builds_no_operation(self):
        session = Session(protocol="pram_partial", app="producer_consumer")
        report = session.run()
        assert report.app_correct is True and report.consistent is True
        assert len(session.recorder.cache) == 0
        assert len(report.history) == report.operations_executed

    def test_first_access_materialises_every_row_once(self, monkeypatch):
        session = make_session(protocol="causal_partial")
        report = session.run()
        built = count_materialised(monkeypatch)
        history = report.history
        rows = len(session.recorder.arena)
        assert len(built) == rows == len(history) > 0
        assert history is report.history
        assert report.read_from is report.read_from
        result = report.result()
        for pid in result.serializations:
            result.witness(pid)
        assert len(built) == rows

    def test_witnesses_share_the_history_operations(self):
        report = make_session(protocol="causal_partial").run()
        history, read_from = report.history, report.read_from
        ops = {id(op): op for op in history.operations}
        reads = {id(op) for op in read_from}
        assert reads == {id(op) for op in history.operations if op.is_read}
        assert all(src is None or ops.get(id(src)) is src for src in read_from.values())
        result = report.result()
        assert sorted(result.serializations) == sorted(history.processes)
        for pid in history.processes:
            for op in result.witness(pid):
                assert ops[id(op)] is op
                assert op.is_write or id(op) in reads

    @pytest.mark.parametrize("protocol", ["pram_partial", "causal_partial"])
    def test_arena_result_equals_the_object_checker(self, protocol):
        from repro.core.consistency.registry import get_checker

        report = make_session(protocol=protocol).run()
        criterion = report.criteria[0]
        expected = get_checker(criterion).check(report.history, read_from=report.read_from)
        assert report.result() == expected
        assert expected == report.result()

    def test_report_repr_omits_the_history(self):
        report = make_session().run()
        assert "history" not in repr(report)
        assert "_recorder" not in repr(report)


class TestAllProtocolsThroughFacade:
    @pytest.mark.parametrize(
        "protocol", ["pram_partial", "causal_partial", "causal_full", "sequencer_sc"]
    )
    def test_protocols_run_and_check(self, protocol):
        report = make_session(protocol=protocol).run()
        assert report.consistent is True


class TestLifetime:
    """A finished session is freed by reference counting: no cycle keeps
    its processes, recorder and arena columns alive until a collection."""

    @staticmethod
    def arena_dies_at_del(build):
        # built here: a session passed as an argument stays referenced by the
        # caller until the call returns
        gc.disable()
        try:
            session = build()
            report = session.run()
            arena = weakref.ref(session.recorder.arena)
            del session, report
            return arena() is None
        finally:
            gc.enable()

    @pytest.mark.parametrize("protocol", PROTOCOL_REGISTRY.names())
    def test_a_scripted_run_is_freed_at_del(self, protocol):
        assert self.arena_dies_at_del(lambda: make_session(protocol=protocol))

    def test_an_app_run_is_freed_at_del(self):
        assert self.arena_dies_at_del(
            lambda: Session(protocol="pram_partial", app="producer_consumer"))

    @pytest.mark.parametrize("build", [
        lambda: Session(protocol="best_effort", app=("bellman_ford", {"topology": "figure8"}),
                        network=("faulty", {"latency": 0.1, "duplicate_rate": 0.6,
                                            "duplicate_lag": 4.0}),
                        check_policy="fail_fast", exact=False),
        lambda: Session.from_spec(dataclasses.replace(
            REGISTRY.get("faults-duplication").expand()[0].spec,
            check=CheckSpec(policy="fail_fast", exact=False))),
    ], ids=["app", "script"])
    def test_a_run_that_stops_with_events_queued_is_freed_at_del(self, build):
        """A fail-fast stop leaves deliveries (and program steps) queued:
        neither they nor the network and simulator they name form a cycle."""
        gc.disable()
        try:
            session = build()
            assert session.run().stopped_early
            simulator = session.system.simulator
            assert simulator.pending_events > 0
            freed = [weakref.ref(session.system.network), weakref.ref(simulator)]
            del session, simulator
            assert [ref() for ref in freed] == [None, None]
        finally:
            gc.enable()

    def test_a_run_driven_in_parts_delivers_every_message(self):
        system = make_session().system
        script = make_session().script
        for part in (script[:len(script) // 2], script[len(script) // 2:]):
            for _ in drive_script(system, part, settle_every=0):
                pass
            assert system.simulator.pending_events > 0
        system.settle()
        assert system.simulator.pending_events == 0
        assert system.stats.messages_delivered == system.stats.messages_sent > 0


class TestScript:
    def test_a_session_holds_the_callers_script(self):
        script = make_session().script
        session = make_session(workload=script)
        assert session.script is script

    @pytest.mark.parametrize("until", [0, 1, 7, 10_000])
    def test_until_drives_exactly_that_many_operations(self, until):
        script = make_session().script
        report = make_session(workload=script).run(until=until)
        assert report.operations_executed == min(until, len(script))
        assert report.operations_total == len(script)

    def test_a_generator_workload_is_materialised_once(self):
        script = make_session().script
        session = make_session(workload=(access for access in script))
        assert session.script == script
        assert session.run().operations_executed == len(script)


class TestTraceExport:
    def test_a_fail_fast_abort_exports_the_operation_that_proved_it(self, tmp_path):
        """The aborting operation is in the trace, so the replay convicts."""
        from repro.serve.replay import replay_trace
        from repro.serve.trace import read_trace

        path = str(tmp_path / "aborted.jsonl")
        session = Session(
            protocol="best_effort",
            app=("bellman_ford", {"topology": "figure8"}),
            network=("faulty", {"latency": 0.1, "duplicate_rate": 0.6,
                                "duplicate_lag": 4.0}),
            check_policy="fail_fast",
            exact=False,
            trace_out=path,
        )
        report = session.run()
        assert report.stopped_early and report.consistent is False
        _meta, records = read_trace(path)
        assert len(records) == session.recorder.operation_count()
        replayed = replay_trace(path, criteria=("pram",), exact=False)
        assert replayed.consistent is False
