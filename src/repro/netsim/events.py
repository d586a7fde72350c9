"""Event queue of the discrete-event simulator.

The queue is a binary heap of ``(time, priority, sequence, callback, arg)``
records.  The first three fields are the sort key; ``sequence`` is unique per
queue, so two records always differ before the fourth field and the heap
compares floats and ints in C, never two callbacks.  The counter also gives a
deterministic FIFO tie-break for records at the same instant, which is
essential for reproducible protocol traces (the whole reproduction pipeline —
protocol run, recorded history, consistency check, report — must be
bit-for-bit repeatable for a given seed).

A record is one of two kinds:

* a **handle**, ``(time, priority, sequence, None, event)``: what
  :meth:`EventQueue.push` returns, a cancellable :class:`Event`;
* a **call group**, ``(time, 0, sequence, callback, args)``: what
  :meth:`EventQueue.push_call` queues for internal scheduling (the network's
  deliveries, the DSM runtime's program steps).  It builds no :class:`Event`
  and stands for the calls ``callback(arg)``, one per ``arg`` of the list
  ``args``, in order.  The network puts the consecutive copies of a fan-out
  that are due at the same instant in one group: as records of their own
  they would have had consecutive sequence numbers under one
  ``(time, priority)`` key, so nothing could have sorted between them.

Every count the queue reports (``len``, and the events a simulator
processes) is in calls: a handle is one, a group one per ``arg``.

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
from typing import Any, Callable, List, Optional, Tuple

_INF = float("inf")

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


#: One heap record: the sort key ``(time, priority, sequence)``, then either
#: ``None`` and an :class:`Event` (a handle) or a callback and its argument
#: list (a call group).
Record = Tuple[float, int, int, Optional[Callable[[Any], None]], Any]


class EventQueue:
    """A time-ordered queue of handles and call groups.

    Cancelled handles are tracked with a live counter (``len`` is O(1)) and
    the heap is compacted as soon as the cancelled entries outnumber the live
    ones, so long runs with many cancellations (timeouts, retransmission
    timers) do not leak memory.
    """

    #: Compaction only kicks in beyond this many cancelled entries — below it
    #: the lazy skip in :meth:`pop` is cheaper than rebuilding the heap.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self._heap: List[Record] = []
        self._counter = itertools.count()
        self._cancelled = 0  # cancelled handles still sitting in the heap
        self._merged = 0  # calls queued beyond the first of their group
        # a queued event holds the queue weakly: the two are no cycle
        self._note = partial(EventQueue._note_cancel, weakref.proxy(self))

    def push(self, time: float, callback: Callable[[], None], priority: int = 0) -> Event:
        """Schedule ``callback`` at ``time``; lower ``priority`` runs first on ties."""
        sequence = next(self._counter)
        event = Event(time, priority, sequence, callback, False, self._note)
        heapq.heappush(self._heap, (time, priority, sequence, None, event))
        return event

    def push_call(self, time: float, callback: Callable[[Any], None], args: list) -> None:
        """Schedule ``callback(arg)`` for each ``arg`` of ``args``, in order, at
        ``time`` (priority 0), as one record with no handle.  The list is the
        queue's from here on."""
        heapq.heappush(self._heap, (time, 0, next(self._counter), callback, args))
        self._merged += len(args) - 1

    def pop_record(self, until: float = _INF) -> Optional[Record]:
        """Pop the earliest record if it is due at or before ``until``
        (skipping cancelled handles); ``None`` when the queue is empty or its
        earliest record is later.

        A popped group's calls no longer count in ``len``.  The caller runs
        the record, or hands it — or the calls of a group it did not run,
        under the group's key — back to :meth:`push_back`.
        """
        heap = self._heap
        while heap:
            record = heap[0]
            if record[3] is None and record[4].cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                continue
            if record[0] > until:
                return None
            heapq.heappop(heap)
            if record[3] is not None:
                self._merged -= len(record[4]) - 1
            return record
        return None

    def push_back(self, record: Record) -> None:
        """Queue again a record :meth:`pop_record` returned, or a group of the
        calls it left of one: under its own key it still runs before
        everything queued after it."""
        heapq.heappush(self._heap, record)
        if record[3] is not None:
            self._merged += len(record[4]) - 1

    def _note_cancel(self) -> None:
        self._cancelled += 1
        self._maybe_compact()

    def _maybe_compact(self) -> None:
        if self._cancelled > self._COMPACT_MIN and self._cancelled * 2 > len(self._heap):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled handle and re-heapify the remainder, in place
        (a running simulator holds the heap list)."""
        heap = self._heap
        heap[:] = [rec for rec in heap if rec[3] is not None or not rec[4].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0

    def pop(self) -> Optional[Event]:
        """Pop the earliest call as an :class:`Event`, or ``None`` when empty.

        A handle is returned as is; one call of a group comes back as a new
        event under the group's key, the rest of the group staying queued.
        """
        record = self.pop_record()
        if record is None:
            return None
        time, priority, sequence, callback, arg = record
        if callback is None:
            # The event has left the queue; a later cancel() must not touch
            # the queue's accounting.
            arg._on_cancel = None
            return arg
        if len(arg) > 1:
            self.push_back((time, priority, sequence, callback, arg[1:]))
        return Event(time, priority, sequence, partial(callback, arg[0]))

    def pop_batch(self, limit: Optional[int] = None) -> List[Event]:
        """Pop the earliest *timestamp cohort*: every live call scheduled at
        the same instant as the earliest one, in (priority, sequence) order.

        ``limit`` caps how many calls leave the queue (the rest of the cohort
        stays for the next call) — popping a cohort in one call yields exactly
        the order repeated :meth:`pop` calls would.
        """
        batch: List[Event] = []
        time = self.peek_time()
        while time is not None and (limit is None or len(batch) < limit):
            batch.append(self.pop())  # type: ignore[arg-type]
            if self.peek_time() != time:
                break
        # Skipping a long run of cancelled entries decrements the counter
        # without ever compacting; re-check here so a buried backlog cannot
        # outlive the drain that exposed it.
        self._maybe_compact()
        return batch

    def peek_time(self) -> Optional[float]:
        """Time of the earliest pending call, or ``None``."""
        heap = self._heap
        while heap and heap[0][3] is None and heap[0][4].cancelled:
            heapq.heappop(heap)
            self._cancelled -= 1
        return heap[0][0] if heap else None

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled + self._merged

    def __bool__(self) -> bool:
        return len(self._heap) > self._cancelled
