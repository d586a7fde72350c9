"""Unit tests for the event queue and the discrete-event simulator."""

import pytest

from repro.exceptions import SimulationError
from repro.netsim.events import EventQueue
from repro.netsim.simulator import Simulator


class TestEventQueue:
    def test_events_pop_in_time_order(self):
        q = EventQueue()
        order = []
        q.push(2.0, lambda: order.append("late"))
        q.push(1.0, lambda: order.append("early"))
        while True:
            event = q.pop()
            if event is None:
                break
            event.callback()
        assert order == ["early", "late"]

    def test_fifo_tie_break_at_equal_times(self):
        q = EventQueue()
        order = []
        for i in range(5):
            q.push(1.0, lambda i=i: order.append(i))
        while q:
            q.pop().callback()
        assert order == [0, 1, 2, 3, 4]

    def test_priority_breaks_ties_before_sequence(self):
        q = EventQueue()
        order = []
        q.push(1.0, lambda: order.append("low"), priority=1)
        q.push(1.0, lambda: order.append("high"), priority=0)
        while q:
            q.pop().callback()
        assert order == ["high", "low"]

    def test_cancelled_events_are_skipped(self):
        q = EventQueue()
        event = q.push(1.0, lambda: pytest.fail("should not run"))
        event.cancel()
        assert len(q) == 0
        assert q.pop() is None

    def test_peek_time(self):
        q = EventQueue()
        assert q.peek_time() is None
        q.push(3.0, lambda: None)
        q.push(1.0, lambda: None)
        assert q.peek_time() == 1.0

    def test_len_tracks_cancellations_without_scanning(self):
        q = EventQueue()
        events = [q.push(float(i), lambda: None) for i in range(10)]
        assert len(q) == 10
        for event in events[::2]:
            event.cancel()
        assert len(q) == 5
        assert bool(q)

    def test_double_cancel_counts_once(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(q) == 1

    def test_cancel_after_pop_does_not_corrupt_accounting(self):
        q = EventQueue()
        event = q.push(1.0, lambda: None)
        q.push(2.0, lambda: None)
        popped = q.pop()
        assert popped is event
        event.cancel()  # already out of the queue: must not decrement
        assert len(q) == 1
        assert q.pop() is not None
        assert q.pop() is None

    def test_mass_cancellation_compacts_the_heap(self):
        q = EventQueue()
        events = [q.push(float(i), lambda: None) for i in range(1000)]
        keep = events[::10]
        for event in events:
            if event not in keep:
                event.cancel()
        # The heap must have been compacted well below the 900 cancelled
        # entries a lazy-only queue would still hold.
        assert len(q._heap) < 300
        assert len(q) == len(keep)
        popped = []
        while q:
            popped.append(q.pop())
        assert popped == keep


class TestSimulator:
    def test_time_advances_with_events(self):
        sim = Simulator()
        times = []
        sim.schedule(1.0, lambda: times.append(sim.now))
        sim.schedule(2.5, lambda: times.append(sim.now))
        processed = sim.run()
        assert processed == 2
        assert times == [1.0, 2.5]
        assert sim.now == 2.5

    def test_nested_scheduling(self):
        sim = Simulator()
        seen = []

        def first():
            seen.append(sim.now)
            sim.schedule(1.0, lambda: seen.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert seen == [1.0, 2.0]

    def test_cannot_schedule_in_the_past(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.schedule_at(-5.0, lambda: None)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_times_are_rejected(self, bad):
        sim = Simulator()
        with pytest.raises(SimulationError, match="finite"):
            sim.schedule(bad, lambda: None)
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
                sim.schedule_at(time, lambda time=time: ran.append(time))
            except SimulationError:
                pass
        sim.run()
        assert ran == [1.0, 2.0, 3.0]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0
        assert sim.pending_events == 1

    def test_run_until_advances_clock_when_queue_drains(self):
        # Regression: the clock used to stay at the last event time when the
        # queue drained before the horizon, so sim.now depended on whether a
        # later event happened to be scheduled.
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
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
        """It used to, when an event later than the horizon was pending."""
        sim = Simulator()
        sim.schedule(3.0, lambda: None)
        sim.run(until=3.0)
        sim.schedule(5.0, lambda: None)
        assert sim.run(until=1.0) == 0
        assert sim.now == 3.0 and sim.pending_events == 1

    def test_event_budget_guard(self):
        sim = Simulator()

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(1.0, reschedule)
        with pytest.raises(SimulationError):
            sim.run(max_events=100)

    def test_step_returns_false_when_empty(self):
        assert Simulator().step() is False

    def test_processed_events_counter(self):
        sim = Simulator()
        for _ in range(3):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.processed_events == 3


class TestSimulatorListeners:
    def test_listeners_observe_events_in_execution_order(self):
        sim = Simulator()
        executed, observed = [], []
        sim.subscribe(lambda event: observed.append(event.time))
        sim.schedule(2.0, lambda: executed.append(2.0))
        sim.schedule(1.0, lambda: executed.append(1.0))
        sim.run()
        assert executed == [1.0, 2.0]
        assert observed == [1.0, 2.0]

    def test_listener_registered_mid_run_sees_only_subsequent_events(self):
        sim = Simulator()
        late = []

        def register():
            sim.subscribe(lambda event: late.append(event.time))

        sim.schedule(1.0, register)
        sim.schedule(2.0, lambda: None)
        sim.schedule(3.0, lambda: None)
        sim.run()
        # The event that performed the registration is not delivered to the
        # new listener; the subsequent ones are, in delivery order.
        assert late == [2.0, 3.0]

    def test_unsubscribe_mid_run(self):
        sim = Simulator()
        seen = []
        listener = lambda event: seen.append(event.time)  # noqa: E731
        sim.subscribe(listener)
        sim.schedule(1.0, lambda: sim.unsubscribe(listener))
        sim.schedule(2.0, lambda: None)
        sim.run()
        # The unsubscribing event itself is still observed (snapshot taken
        # before its callback ran), later events are not.
        assert seen == [1.0]


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


class TestHandleFreeCalls:
    """``call_at`` queues a group of calls as one record with no handle; every
    call still runs, counts and is observed as one event, in the order of one
    record per call."""

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
        sim.schedule_at(1.0, lambda: ran.append("before"))
        sim.call_at(1.0, ran.append, ["a", "b"])
        sim.schedule_at(1.0, lambda: ran.append("after"))
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
        assert sim.pending_events == 4 - budget
        sim.run()
        assert ran == [0, 1, 2, 3]

    def test_a_call_scheduling_a_lower_priority_number_at_its_instant_runs_it_next(self):
        sim = Simulator()
        ran = []

        def call(name):
            ran.append(name)
            if name == "a":
                sim.schedule(0.0, lambda: ran.append("urgent"), priority=-1)
                sim.schedule(0.0, lambda: ran.append("later"))

        sim.call_at(1.0, call, ["a", "b"])
        sim.run()
        assert ran == ["a", "urgent", "b", "later"]

    def test_step_pops_one_call_of_a_group(self):
        sim = Simulator()
        ran = []
        sim.call_at(1.0, ran.append, ["a", "b"])
        assert sim.step() and ran == ["a"] and sim.pending_events == 1
        assert sim.step() and ran == ["a", "b"] and sim.pending_events == 0
        assert not sim.step()

    def test_a_listener_sees_one_event_per_call(self):
        sim = Simulator()
        ran, seen = [], []
        sim.call_at(1.0, ran.append, ["a", "b"])
        sim.subscribe(seen.append)
        sim.run()
        assert [event.time for event in seen] == [1.0, 1.0]
        seen[1].callback()  # an observed call re-runs as its event's callback
        assert ran == ["a", "b", "b"]

    def test_a_listener_subscribed_by_a_call_sees_only_the_later_calls(self):
        sim = Simulator()
        seen = []

        def call(name):
            if name == "a":
                sim.subscribe(lambda event: seen.append(event.time))

        sim.call_at(1.0, call, ["a", "b", "c"])
        sim.run()
        assert seen == [1.0, 1.0]

    @pytest.mark.parametrize("time", [-1.0, float("nan"), float("inf")])
    def test_call_times_are_checked(self, time):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.call_at(time, print, [1])
        assert sim.pending_events == 0
