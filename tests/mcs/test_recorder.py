"""Unit tests for the protocol history recorder."""

import inspect

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.operations import BOTTOM
from repro.arena.recorder import ArenaRecorder
from repro.mcs.recorder import HistoryRecorder, Recorder
from repro.mcs.system import PROTOCOLS, MCSystem
from repro.workloads.access_patterns import run_script, uniform_access_script
from repro.workloads.distributions import random_distribution


@pytest.mark.parametrize("implementation", [HistoryRecorder, ArenaRecorder])
@pytest.mark.parametrize("method", ["record_write", "record_read", "declare_process",
                                    "history", "read_from"])
def test_both_recorders_take_what_the_recorder_protocol_names(implementation, method):
    def parameters(cls):
        return [(p.name, p.kind, p.default)
                for p in inspect.signature(getattr(cls, method)).parameters.values()]

    assert parameters(implementation) == parameters(Recorder)


class TestHistoryRecorder:
    def test_records_program_order_indices(self):
        rec = HistoryRecorder()
        rec.record_write(0, "x", 1, (0, 1))
        rec.record_read(0, "x", 1, (0, 1))
        rec.record_write(0, "y", 2, (0, 2))
        history = rec.history()
        assert [op.index for op in history.local(0)] == [0, 1, 2]

    def test_exact_read_from_even_with_duplicate_values(self):
        rec = HistoryRecorder()
        rec.record_write(0, "x", "same", (0, 1))
        rec.record_write(1, "x", "same", (1, 1))
        read = rec.record_read(2, "x", "same", (1, 1))
        rf = rec.read_from()
        history = rec.history()
        assert not history.is_differentiated()
        read_op = history.local(2)[0]
        assert rf[read_op].process == 1

    def test_bottom_reads_map_to_none(self):
        rec = HistoryRecorder()
        read = rec.record_read(0, "x", BOTTOM, None)
        assert rec.read_from()[rec.history().local(0)[0]] is None
        assert read.reads_initial_value

    def test_declare_process(self):
        rec = HistoryRecorder()
        rec.declare_process(5)
        assert 5 in rec.history().processes

    def test_timestamps_recorded(self):
        rec = HistoryRecorder()
        rec.record_write(0, "x", 1, (0, 1), invoked_at=2.0, completed_at=2.0)
        op = rec.history().local(0)[0]
        assert op.invoked_at == 2.0

    def test_operation_count(self):
        rec = HistoryRecorder()
        rec.record_write(0, "x", 1, (0, 1))
        rec.record_read(1, "x", 1, (0, 1))
        assert rec.operation_count() == 2


class TestSubscription:
    def test_listeners_observe_ops_in_recording_order_with_sources(self):
        rec = HistoryRecorder()
        seen = []
        rec.subscribe(lambda op, src: seen.append((op, src)))
        w = rec.record_write(0, "x", 1, (0, 1))
        r = rec.record_read(1, "x", 1, (0, 1))
        assert seen == [(w, None), (r, w)]

    def test_log_matches_listener_stream(self):
        rec = HistoryRecorder()
        seen = []
        rec.subscribe(lambda op, src: seen.append((op, src)))
        rec.record_write(0, "x", 1, (0, 1))
        rec.record_read(1, "x", 1, (0, 1))
        assert tuple(seen) == rec.log()

    def test_mid_run_subscription_sees_only_subsequent_ops(self):
        rec = HistoryRecorder()
        rec.record_write(0, "x", 1, (0, 1))
        late = []
        rec.subscribe(lambda op, src: late.append(op))
        r = rec.record_read(1, "x", 1, (0, 1))
        assert late == [r]

    def test_mid_run_subscription_with_replay_sees_full_stream(self):
        rec = HistoryRecorder()
        w = rec.record_write(0, "x", 1, (0, 1))
        late = []
        rec.subscribe(lambda op, src: late.append((op, src)), replay=True)
        r = rec.record_read(1, "x", 1, (0, 1))
        assert late == [(w, None), (r, w)]

    def test_subscribing_from_a_listener_does_not_disturb_notification(self):
        rec = HistoryRecorder()
        second = []

        def first(op, src):
            rec.subscribe(lambda o, s: second.append(o))

        rec.subscribe(first)
        rec.record_write(0, "x", 1, (0, 1))  # registers `second` mid-notify
        w2 = rec.record_write(0, "x", 2, (0, 2))
        assert second[0] is w2  # only subsequent ops, no RuntimeError

    def test_unsubscribe(self):
        rec = HistoryRecorder()
        seen = []
        listener = lambda op, src: seen.append(op)  # noqa: E731
        rec.subscribe(listener)
        rec.record_write(0, "x", 1, (0, 1))
        rec.unsubscribe(listener)
        rec.record_write(0, "x", 2, (0, 2))
        assert len(seen) == 1


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=10_000))
@pytest.mark.parametrize("protocol", sorted(PROTOCOLS))
def test_recorded_read_from_equals_inferred_on_random_workloads(protocol, seed):
    """Round-trip property: the protocol-ground-truth read-from mapping equals
    the mapping the checkers infer from the (differentiated) recorded values,
    on every protocol."""
    distribution = random_distribution(
        processes=4, variables=5, replicas_per_variable=2, seed=seed
    )
    system = MCSystem(distribution, protocol=protocol)
    script = uniform_access_script(
        distribution, operations_per_process=6, write_fraction=0.5, seed=seed
    )
    run_script(system, script)
    history = system.history()
    assert history.is_differentiated()
    assert system.read_from() == history.read_from()
