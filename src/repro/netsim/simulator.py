"""Discrete-event simulator driving the message-passing substrate.

The simulator owns the virtual clock and the event queue.  Callers that need
a handle schedule a cancellable :class:`~repro.netsim.events.Event`
(:meth:`Simulator.schedule`, :meth:`Simulator.schedule_at`); the network's
message deliveries and the DSM runtime's program steps are handle-free calls
(:meth:`Simulator.call_at`), which the queue groups without building an event
per call.  :meth:`Simulator.run` processes both kinds, one call at a time, in
``(time, priority, sequence)`` order until the queue drains, a time horizon
is reached or an event budget is exhausted; every call — each delivered
message, each program step, each handle — is one processed event.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Optional, Tuple

from ..exceptions import SimulationError
from .events import Event, EventQueue

_INF = float("inf")

#: An event listener: called with ``(event,)`` after the event's callback ran.
EventListener = Callable[[Event], None]


class Simulator:
    """Deterministic discrete-event simulator."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._processed = 0
        self._listeners: Tuple[EventListener, ...] = ()

    # -- observation -----------------------------------------------------------
    def subscribe(self, listener: EventListener) -> None:
        """Observe every event *after* its callback executed.

        A handle-free call is observed as a new :class:`Event` under its
        group's key whose ``callback`` re-runs it, one per call.  The
        listener tuple is replaced, never mutated, so a listener may be
        registered mid-run — even from inside an executing callback or
        another listener — without perturbing the notification in progress:
        it only starts receiving *subsequent* events, in execution (delivery)
        order.
        """
        self._listeners = self._listeners + (listener,)

    def unsubscribe(self, listener: EventListener) -> None:
        """Remove ``listener``; unknown listeners are ignored."""
        self._listeners = tuple(l for l in self._listeners if l is not listener)

    # -- clock ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events (handles and calls) executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events (handles and calls) still scheduled."""
        return len(self._queue)

    # -- scheduling --------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now.

        ``delay`` must be finite and non-negative: a NaN would compare false
        against every heap key and silently break the event order.
        """
        if not 0 <= delay < _INF:
            if delay < 0:
                raise SimulationError(f"cannot schedule in the past (delay={delay})")
            raise SimulationError(f"event delay must be finite (delay={delay})")
        return self._queue.push(self._now + delay, callback, priority)

    def schedule_at(self, time: float, callback: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``callback`` at absolute virtual time ``time`` (finite, not
        before :attr:`now`)."""
        if not self._now <= time < _INF:
            self._reject_time(time)
        return self._queue.push(time, callback, priority)

    def call_at(self, time: float, callback: Callable[[Any], None], args: List[Any]) -> None:
        """Schedule ``callback(arg)`` for each ``arg`` of the non-empty list
        ``args``, in order, at absolute virtual time ``time`` (priority 0):
        one queue record with no handle to cancel it, each call one processed
        event.  ``time`` is checked as by :meth:`schedule_at`."""
        if not self._now <= time < _INF:
            self._reject_time(time)
        self._queue.push_call(time, callback, args)

    def _reject_time(self, time: float) -> None:
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past (time={time}, now={self._now})")
        raise SimulationError(f"event time must be finite (time={time})")

    # -- execution ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next event; return ``False`` when the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now:  # pragma: no cover - defensive
            raise SimulationError("event queue yielded an event from the past")
        self._now = event.time
        self._processed += 1
        # Snapshot before the callback: a listener registered *during* this
        # event (by the callback or by another listener) only observes
        # subsequent events, never a half-executed current one.
        listeners = self._listeners
        event.callback()
        for listener in listeners:
            listener(event)
        return True

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run events in order; return the number of events processed by this call.

        Parameters
        ----------
        until:
            Stop (without executing) at the first event strictly later than
            this virtual time.  The clock is advanced to ``until`` whether
            the run stops on a later event or because the queue drained, so
            ``sim.now`` reflects the requested horizon either way; a horizon
            in the past never moves it back.
        max_events:
            Budget of events for this call; a :class:`SimulationError` is
            raised when it is exhausted while events remain (a guard against
            livelocked protocols or programs).
        """
        queue = self._queue
        heap = queue._heap
        horizon = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        processed = 0
        while True:
            record = queue.pop_record(horizon)
            if record is None:  # drained, or the earliest record is later
                if until is not None and until > self._now:
                    self._now = until
                return processed
            if processed >= budget:
                queue.push_back(record)
                raise SimulationError(
                    f"event budget exhausted ({max_events} events) at t={self._now}"
                )
            time, priority, sequence, callback, arg = record
            self._now = time
            if callback is None:
                # The event has left the queue; a later cancel() must not
                # touch the queue's accounting.
                arg._on_cancel = None
                self._processed += 1
                processed += 1
                listeners = self._listeners
                arg.callback()
                for listener in listeners:
                    listener(arg)
                continue
            # A group runs its calls in order, one event each.  It stops early
            # (the rest keeping the group's key) when the budget runs out, or
            # when a callback scheduled something that sorts before the rest
            # (same instant, lower priority number), so the order is the one
            # of one record per call.
            for index, item in enumerate(arg):
                if index and (processed >= budget or (heap and heap[0] < record)):
                    queue.push_back((time, priority, sequence, callback, arg[index:]))
                    break
                self._processed += 1
                processed += 1
                # Snapshot before the callback: a listener registered during
                # this call only observes subsequent ones.
                listeners = self._listeners
                callback(item)
                if listeners:
                    event = Event(time, priority, sequence, partial(callback, item))
                    for listener in listeners:
                        listener(event)
