"""Unit tests for the discrete-event simulator: one heap of call groups."""

import pytest

from repro.exceptions import SimulationError
from repro.netsim.simulator import Simulator


def at(sim, time, ran, name):
    """Schedule one call that appends ``name`` to ``ran``."""
    sim.call_at(time, ran.append, [name])


class TestSimulator:
    def test_calls_run_in_time_order(self):
        sim = Simulator()
        ran = []
        at(sim, 2.0, ran, "late")
        at(sim, 1.0, ran, "early")
        sim.run()
        assert ran == ["early", "late"]

    def test_fifo_tie_break_at_equal_times(self):
        sim = Simulator()
        ran = []
        for i in range(5):
            at(sim, 1.0, ran, i)
        sim.run()
        assert ran == [0, 1, 2, 3, 4]

    def test_time_advances_with_events(self):
        sim = Simulator()
        times = []
        sim.call_at(1.0, lambda _: times.append(sim.now), [None])
        sim.call_at(2.5, lambda _: times.append(sim.now), [None])
        assert sim.run() == 2
        assert times == [1.0, 2.5]
        assert sim.now == 2.5

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def first(_):
            seen.append(sim.now)
            sim.call_at(sim.now + 1.0, lambda _: seen.append(sim.now), [None])

        sim.call_at(1.0, first, [None])
        sim.run()
        assert seen == [1.0, 2.0]

    def test_processed_events_counter(self):
        sim = Simulator()
        for _ in range(3):
            sim.call_at(1.0, lambda _: None, [None])
        sim.run()
        assert sim.processed_events == 3

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        with pytest.raises(SimulationError, match="past"):
            sim.call_at(-5.0, print, [1])
        with pytest.raises(SimulationError, match="past"):
            sim.schedule_at(-5.0, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_times_are_rejected(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError, match="finite"):
            sim.call_at(bad, print, [1])
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule_at(bad, lambda: None)
        assert sim.pending_events == 0

    def test_a_nan_cannot_scramble_the_event_order(self):
        """A NaN key compares false both ways: accepted, ``[3, nan, 1, 2]``
        used to run as ``1, 2, nan, 3``."""
        sim = Simulator()
        ran = []
        for time in (3.0, float("nan"), 1.0, 2.0):
            try:
                at(sim, time, ran, time)
            except SimulationError:
                pass
        sim.run()
        assert ran == [1.0, 2.0, 3.0]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        ran = []
        at(sim, 1.0, ran, 1)
        at(sim, 10.0, ran, 10)
        sim.run(until=5.0)
        assert ran == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_run_until_advances_clock_when_queue_drains(self):
        # Regression: the clock used to stay at the last call's time when the
        # heap drained before the horizon, so sim.now depended on whether a
        # later call happened to be scheduled.
        sim = Simulator()
        sim.call_at(1.0, lambda _: None, [None])
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_on_empty_queue_advances_clock(self):
        sim = Simulator()
        assert sim.run(until=3.0) == 0
        assert sim.now == 3.0
        # A horizon in the past must not move the clock backwards.
        assert sim.run(until=1.0) == 0
        assert sim.now == 3.0

    def test_a_past_horizon_never_moves_the_clock_back(self):
        """It used to, when a call later than the horizon was pending."""
        sim = Simulator()
        sim.call_at(3.0, lambda _: None, [None])
        sim.run(until=3.0)
        sim.call_at(5.0, lambda _: None, [None])
        assert sim.run(until=1.0) == 0
        assert sim.now == 3.0 and sim.pending_events == 1

    def test_event_budget_guard(self):
        sim = Simulator()

        def reschedule(_):
            sim.call_at(sim.now + 1.0, reschedule, [None])

        sim.call_at(1.0, reschedule, [None])
        with pytest.raises(SimulationError, match="budget"):
            sim.run(max_events=100)
        assert sim.processed_events == 100

    def test_the_budget_raises_before_a_group_without_advancing_the_clock(self):
        sim = Simulator()
        ran = []
        sim.call_at(1.0, ran.append, ["a"])
        sim.call_at(2.0, ran.append, ["b", "c"])
        with pytest.raises(SimulationError, match="budget"):
            sim.run(max_events=1)
        assert ran == ["a"] and sim.now == 1.0
        assert sim.pending_events == 2


class TestCallGroups:
    """``call_at`` queues a group of calls as one record; every call still
    runs and counts as one event, in the order of one record per call."""

    def test_a_group_runs_its_calls_in_order_one_event_each(self):
        sim = Simulator()
        ran = []
        sim.call_at(2.0, ran.append, ["c", "d"])
        sim.call_at(1.0, ran.append, ["a", "b"])
        assert sim.pending_events == 4
        assert sim.run() == 4
        assert ran == ["a", "b", "c", "d"]
        assert sim.processed_events == 4 and sim.pending_events == 0
        assert sim.now == 2.0

    def test_a_group_keeps_its_place_among_records_at_its_instant(self):
        sim = Simulator()
        ran = []
        at(sim, 1.0, ran, "before")
        sim.call_at(1.0, ran.append, ["a", "b"])
        at(sim, 1.0, ran, "after")
        sim.run()
        assert ran == ["before", "a", "b", "after"]

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_a_budget_stops_inside_a_group(self, budget):
        sim = Simulator()
        ran = []
        sim.call_at(1.0, ran.append, [0, 1, 2])
        sim.call_at(1.0, ran.append, [3])
        with pytest.raises(SimulationError, match="budget"):
            sim.run(max_events=budget)
        assert ran == list(range(budget))
        assert sim.processed_events == budget
        # the calls a budget cut short stay queued, and count as pending
        assert sim.pending_events == 4 - budget
        sim.run()
        assert ran == [0, 1, 2, 3]

    def test_a_call_at_now_from_inside_a_group_runs_after_the_group(self):
        """The order one record per call gives: ``a``'s new call sorts after
        ``b`` and ``c``, which were queued before it, and after ``d``."""
        def drive(grouped):
            sim = Simulator()
            ran = []

            def call(name):
                ran.append(name)
                if name == "a":
                    at(sim, sim.now, ran, "new")

            if grouped:
                sim.call_at(1.0, call, ["a", "b", "c"])
            else:
                for name in ("a", "b", "c"):
                    sim.call_at(1.0, call, [name])
            at(sim, 1.0, ran, "d")
            sim.run()
            return ran

        assert drive(grouped=True) == drive(grouped=False) == ["a", "b", "c", "d", "new"]

    def test_a_group_cut_short_keeps_its_key(self):
        """A group a budget cut short still runs before what was queued after
        it at its instant, also what its own calls queued."""
        sim = Simulator()
        ran = []

        def call(name):
            ran.append(name)
            at(sim, sim.now, ran, name.upper())

        sim.call_at(1.0, call, ["a", "b", "c"])
        with pytest.raises(SimulationError, match="budget"):
            sim.run(max_events=1)
        sim.run()
        assert ran == ["a", "b", "c", "A", "B", "C"]

    def test_schedule_at_interleaves_with_call_at_by_sequence(self):
        sim = Simulator()
        ran = []
        sim.call_at(1.0, ran.append, ["a"])
        assert sim.schedule_at(1.0, lambda: ran.append("b")) is None
        sim.call_at(1.0, ran.append, ["c", "d"])
        sim.schedule_at(0.5, lambda: ran.append("first"))
        sim.schedule_at(1.0, lambda: ran.append("e"))
        assert sim.pending_events == 6
        assert sim.run() == 6
        assert ran == ["first", "a", "b", "c", "d", "e"]


class TestRecordingCallbacksUnderReordering:
    """Regression: recording callbacks registered mid-run must observe
    operations in delivery order, even when the network delivers messages
    out of send order (non-FIFO channels, inverted latencies)."""

    def test_mid_run_recorder_subscription_sees_delivery_order(self):
        from repro.core.distribution import VariableDistribution
        from repro.mcs.system import MCSystem
        from repro.netsim.latency import LatencyModel

        class InvertedLatency(LatencyModel):
            """Later sends arrive earlier: maximal reordering pressure."""

            def __init__(self):
                self.calls = 0

            def sample(self, src, dst):
                self.calls += 1
                return max(0.5, 10.0 - self.calls * 2.0)

        dist = VariableDistribution({0: {"x", "y"}, 1: {"x", "y"}, 2: {"x", "y"}})
        system = MCSystem(dist, protocol="pram_partial",
                          latency=InvertedLatency(), fifo=False)
        from_start, late = [], []
        system.recorder.subscribe(lambda op, src: from_start.append(op))

        p0 = system.process(0)
        p0.write("x", "a")
        p0.write("y", "b")
        p0.write("x", "c")
        # Subscribe mid-run, while deliveries are still in flight and will
        # arrive out of send order.
        system.recorder.subscribe(lambda op, src: late.append(op))
        system.settle()
        system.process(1).read("x")
        system.process(2).read("y")
        system.settle()

        # The late listener saw exactly the suffix of the recording stream,
        # in the same (delivery) order the from-start listener saw it.
        assert late == from_start[len(from_start) - len(late):]
        # And a replaying subscriber reconstructs the full stream.
        replayed = []
        system.recorder.subscribe(lambda op, src: replayed.append(op), replay=True)
        assert replayed == from_start
