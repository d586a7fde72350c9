"""Discrete-event simulator driving the message-passing substrate.

The simulator owns the virtual clock and the event queue.  Network channels
and the DSM runtime schedule callbacks on it (message deliveries, application
steps); :meth:`Simulator.run` processes events in timestamp order until the
queue drains, a time horizon is reached or an event budget is exhausted.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

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

        The listener tuple is replaced, never mutated, so a listener may be
        registered mid-run — even from inside an executing event callback or
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
        """Number of events executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of events still scheduled."""
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
            if time < self._now:
                raise SimulationError(
                    f"cannot schedule in the past (time={time}, now={self._now})"
                )
            raise SimulationError(f"event time must be finite (time={time})")
        return self._queue.push(time, callback, priority)

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
            ``sim.now`` reflects the requested horizon either way.
        max_events:
            Budget of events for this call; a :class:`SimulationError` is
            raised when it is exhausted while events remain (a guard against
            livelocked protocols or programs).
        """
        processed = 0
        while True:
            next_time = self._queue.peek_time()
            if next_time is None:
                if until is not None and until > self._now:
                    self._now = until
                return processed
            if until is not None and next_time > until:
                self._now = until
                return processed
            if max_events is not None and processed >= max_events:
                raise SimulationError(
                    f"event budget exhausted ({max_events} events) at t={self._now}"
                )
            # Drain the whole timestamp cohort in one queue operation.  The
            # batch is capped by the remaining budget so the exhaustion check
            # above still fires at exactly the same event count, and events
            # cancelled by an earlier callback of the same cohort are skipped
            # exactly as a sequential pop would have skipped them.
            cap = None if max_events is None else max_events - processed
            batch = self._queue.pop_batch(cap)
            if not batch:
                continue
            self._now = batch[0].time
            for event in batch:
                if event.cancelled:
                    continue
                self._processed += 1
                processed += 1
                listeners = self._listeners
                event.callback()
                for listener in listeners:
                    listener(event)
