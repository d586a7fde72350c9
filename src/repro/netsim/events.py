"""Event queue of the discrete-event simulator.

Events are kept in a binary heap of ``(time, priority, sequence, event)``
tuples: the first three fields are the sort key, and the last is the
:class:`Event` itself.  ``sequence`` is unique per queue, so two records
always differ before the fourth field and the heap compares floats and ints
in C, never two :class:`Event` objects.  The counter also gives a
deterministic FIFO tie-break for events scheduled at the same instant, which
is essential for reproducible protocol traces (the whole reproduction
pipeline — protocol run, recorded history, consistency check, report — must
be bit-for-bit repeatable for a given seed).

The queue trusts its callers with the key: a NaN time would compare false
both ways and silently break the heap order, so
:class:`~repro.netsim.simulator.Simulator` rejects non-finite times before
they get here.
"""

from __future__ import annotations

import heapq
import itertools
import weakref
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, List, Optional, Tuple


@dataclass
class Event:
    """A scheduled callback."""

    time: float
    priority: int
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    _on_cancel: Optional[Callable[[], None]] = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        if self.cancelled:
            return
        self.cancelled = True
        if self._on_cancel is not None:
            self._on_cancel()


#: One heap record: the sort key ``(time, priority, sequence)`` and the event.
_Entry = Tuple[float, int, int, Event]


class EventQueue:
    """A time-ordered queue of :class:`Event` objects.

    Cancelled events are tracked with a live counter (``len`` is O(1), it
    used to scan the whole heap) and the heap is compacted as soon as the
    cancelled entries outnumber the live ones, so long runs with many
    cancellations (timeouts, retransmission timers) no longer leak memory.
    """

    #: Compaction only kicks in beyond this many cancelled entries — below it
    #: the lazy skip in :meth:`pop` is cheaper than rebuilding the heap.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._counter = itertools.count()
        self._cancelled = 0  # cancelled events still sitting in the heap
        # a queued event holds the queue weakly: the two are no cycle
        self._note = partial(EventQueue._note_cancel, weakref.proxy(self))

    def push(self, time: float, callback: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``callback`` at ``time``; lower ``priority`` runs first on ties."""
        sequence = next(self._counter)
        event = Event(time, priority, sequence, callback, False, self._note)
        heapq.heappush(self._heap, (time, priority, sequence, event))
        return event

    def _note_cancel(self) -> None:
        self._cancelled += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        if self._cancelled > self._COMPACT_MIN and self._cancelled * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify the remainder."""
        self._heap = [entry for entry in self._heap if not entry[3].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0

    def pop(self) -> Optional[Event]:
        """Pop the earliest non-cancelled event, or ``None`` when empty."""
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event.cancelled:
                self._cancelled -= 1
                continue
            # The event has left the queue; a later cancel() must not touch
            # the queue's accounting.
            event._on_cancel = None
            return event
        return None

    def pop_batch(self, limit: Optional[int] = None) -> List[Event]:
        """Pop the earliest *timestamp cohort*: every live event scheduled at
        the same instant as the earliest one, in (priority, sequence) order.

        ``limit`` caps how many events leave the queue (the rest of the
        cohort stays for the next call) so callers can honour an event
        budget without losing determinism — popping a cohort in one call
        yields exactly the order repeated :meth:`pop` calls would.
        """
        heap = self._heap
        batch: List[Event] = []
        time = None
        while heap:
            head = heap[0]
            event = head[3]
            if event.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            if time is None:
                time = head[0]
            elif head[0] != time:
                break
            if limit is not None and len(batch) >= limit:
                break
            heapq.heappop(heap)
            event._on_cancel = None
            batch.append(event)
        # Skipping a long run of cancelled entries decrements the counter
        # without ever compacting; re-check here so a buried backlog cannot
        # outlive the drain that exposed it.
        self._maybe_compact()
        return batch

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None``."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def __bool__(self) -> bool:
        return len(self._heap) > self._cancelled
