"""Vector clocks, the control structure of full-replication causal memories.

A vector clock over ``n`` processes maps each process identifier to the number
of its writes known to the clock's owner.  The full-replication causal
protocol ([3], [10]) piggybacks one vector clock per update message — the
``O(n)`` control bytes per message that the paper's Section 3.3 contrasts
with what partial replication could hope to achieve.  Under the library's
byte model (:func:`~repro.netsim.message.estimate_size`) an entry is a
process number and a counter, 8 bytes each, so a clock costs ``16 * n``
bytes; :meth:`VectorClock.size_bytes` asks that model rather than restating
it.  The stamp :meth:`VectorClock.as_dict` ships carries that size, so
sizing an update message does not walk its clock.
"""

from __future__ import annotations

from itertools import repeat
from operator import gt
from typing import Dict, Iterable, Iterator, Mapping, Tuple

from ..netsim.message import SizedDict, estimate_size


class VectorClock:
    """A mapping ``process -> counter`` with the usual merge/compare operations."""

    __slots__ = ("_clock",)

    def __init__(self, processes: Iterable[int] = (), values: Mapping[int, int] = ()):
        self._clock: Dict[int, int] = {int(p): 0 for p in processes}
        for pid, val in dict(values).items():
            self._clock[int(pid)] = int(val)

    # -- accessors ----------------------------------------------------------------
    def __getitem__(self, process: int) -> int:
        return self._clock.get(process, 0)

    def __setitem__(self, process: int, value: int) -> None:
        self._clock[process] = int(value)

    def __iter__(self) -> Iterator[int]:
        return iter(sorted(self._clock))

    def __len__(self) -> int:
        return len(self._clock)

    def items(self) -> Iterator[Tuple[int, int]]:
        """Sorted ``(process, counter)`` pairs."""
        return iter(sorted(self._clock.items()))

    def as_dict(self) -> SizedDict:
        """Dict copy that carries its byte size (used to embed the clock in
        message control fields): 16 bytes per entry, as :meth:`size_bytes`."""
        stamp = SizedDict(self._clock)
        stamp.size = 16 * len(stamp)
        return stamp

    # -- operations ------------------------------------------------------------------
    def increment(self, process: int) -> "VectorClock":
        """Increment the entry of ``process`` in place; returns ``self``."""
        self._clock[process] = self._clock.get(process, 0) + 1
        return self

    def merge(self, other: "VectorClock") -> "VectorClock":
        """Pointwise maximum with ``other``, in place; returns ``self``."""
        for pid, val in other.items():
            if val > self._clock.get(pid, 0):
                self._clock[pid] = val
        return self

    def copy(self) -> "VectorClock":
        """An independent copy."""
        return VectorClock(values=self._clock)

    # -- comparisons -----------------------------------------------------------------
    def admits(self, sender: int, stamp: Mapping[int, int]) -> bool:
        """Causal-delivery condition of an update from ``sender`` stamped
        ``stamp``: it is ``sender``'s next write, and every other write it
        depends on is already counted here.

        After the sender-entry check, exactly one entry of ``stamp`` (the
        sender's) may exceed this clock, so the rest is one pass in C.
        """
        clock = self._clock
        if stamp[sender] != clock.get(sender, 0) + 1:
            return False
        return sum(map(gt, stamp.values(), map(clock.get, stamp, repeat(0)))) == 1

    def accept(self, sender: int, stamp: Mapping[int, int]) -> bool:
        """:meth:`admits`, and on ``True`` count the update: the sender's entry
        becomes its stamp's (the clock step of the update's delivery)."""
        if not self.admits(sender, stamp):
            return False
        self._clock[sender] = stamp[sender]
        return True

    def dominates(self, other: "VectorClock") -> bool:
        """``True`` iff every entry of ``self`` is ``>=`` the matching entry of ``other``."""
        keys = set(self._clock) | set(other._clock)
        return all(self[k] >= other[k] for k in keys)

    def strictly_dominates(self, other: "VectorClock") -> bool:
        """``True`` iff ``self`` dominates ``other`` and differs from it."""
        return self.dominates(other) and self != other

    def concurrent_with(self, other: "VectorClock") -> bool:
        """``True`` iff neither clock dominates the other."""
        return not self.dominates(other) and not other.dominates(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, VectorClock):
            return NotImplemented
        keys = set(self._clock) | set(other._clock)
        return all(self[k] == other[k] for k in keys)

    def __hash__(self) -> int:
        return hash(tuple(sorted((k, v) for k, v in self._clock.items() if v)))

    # -- sizing ------------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Control-byte footprint under the library's size model: what
        :func:`~repro.netsim.message.estimate_size` charges for the clock as a
        message field (16 bytes per entry, 8 for the process and 8 for the
        counter)."""
        return estimate_size(self._clock)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{p}:{v}" for p, v in self.items())
        return f"VC({inner})"
