"""Discrete-event simulator driving the message-passing substrate.

The simulator owns the virtual clock and one binary heap of call groups:
``(time, sequence, callback, args)`` records, each standing for the calls
``callback(arg)``, one per ``arg`` of the list ``args``, in order
(:meth:`Simulator.call_at`).  The network's deliveries (the copies of a
fan-out due at one instant share a group) and the DSM runtime's program
steps are all such groups.

``sequence`` is unique, so the heap compares floats and ints in C, never two
callbacks, and records at one instant run in scheduling order: traces are
bit-for-bit repeatable for a given seed.  A call scheduled while a group
runs gets a larger sequence number than the group, so it runs after the
group's remaining calls, as it would with one record per call.  Every call
(each delivered message, each program step) is one processed event.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from ..exceptions import SimulationError

_INF = float("inf")

#: One heap record: the sort key ``(time, sequence)``, a callback, its arguments.
Record = Tuple[float, int, Callable[[Any], None], List[Any]]


def _call(callback: Callable[[], None]) -> None:
    callback()


class Simulator:
    """Deterministic discrete-event simulator."""

    def __init__(self) -> None:
        self._heap: List[Record] = []
        self._sequence = itertools.count()
        self._now = 0.0
        self._processed = 0

    # -- clock ----------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of calls executed so far."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of calls still scheduled."""
        return sum(len(record[3]) for record in self._heap)

    # -- scheduling --------------------------------------------------------------
    def call_at(self, time: float, callback: Callable[[Any], None], args: List[Any]) -> None:
        """Schedule ``callback(arg)`` for each ``arg`` of the non-empty list
        ``args`` (the simulator's from here on), in order, at ``time``.

        ``time`` must be finite and not before :attr:`now`: a NaN would
        compare false against every heap key and silently break the order.
        """
        if not self._now <= time < _INF:
            if time < self._now:
                raise SimulationError(f"cannot schedule in the past (time={time}, now={self._now})")
            raise SimulationError(f"event time must be finite (time={time})")
        heapq.heappush(self._heap, (time, next(self._sequence), callback, args))

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule the zero-argument ``callback`` at ``time``, as a one-call
        group.  Kept for the benchmark harness, whose traced queue replay
        schedules one no-op per delivered message; everything else calls
        :meth:`call_at`."""
        self.call_at(time, _call, [callback])

    # -- execution ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Run calls in order; return the number of calls this run processed.

        Parameters
        ----------
        until:
            Stop (without executing) at the first record strictly later than
            this virtual time, and advance the clock to ``until`` — also when
            the heap drained first; a horizon in the past never moves it back.
        max_events:
            Budget of calls for this run, a guard against livelocked
            protocols or programs: a :class:`SimulationError` is raised
            before the first call past it, without advancing the clock, and
            a group it cuts short keeps its remaining calls under its key.
        """
        heap = self._heap
        horizon = _INF if until is None else until
        budget = _INF if max_events is None else max_events
        processed = 0
        while heap and heap[0][0] <= horizon:
            if processed >= budget:
                raise SimulationError(
                    f"event budget exhausted ({max_events} events) at t={self._now}"
                )
            time, sequence, callback, args = heapq.heappop(heap)
            self._now = time
            if len(args) > budget - processed:
                room = int(budget - processed)
                heapq.heappush(heap, (time, sequence, callback, args[room:]))
                args = args[:room]
            processed += len(args)
            for arg in args:
                self._processed += 1
                callback(arg)
        if until is not None and until > self._now:
            self._now = until
        return processed
