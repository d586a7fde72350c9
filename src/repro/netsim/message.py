"""Messages exchanged by MCS processes, with explicit size accounting.

The paper's notion of "efficiency" is about the *control information*
processes must propagate (Section 3.3).  To make that measurable every
:class:`Message` distinguishes

* ``payload`` — the application data carried (the written value), and
* ``control`` — the protocol metadata (sequence numbers, vector clocks,
  variable identifiers, dependency summaries).

Both are sized by :func:`estimate_size`, a simple deterministic byte model
(8 bytes per number, UTF-8 length per string, recursive for containers), so
that protocols can be compared on equal footing regardless of how Python
happens to represent their in-memory state.  A message is sized once, when it
is built; the siblings of one fan-out (:meth:`Message.to`) share the result.
A :class:`SizedTuple` (the causal protocols' tuple of ``(writer, seq,
variable)`` dependency tuples) carries its size, kept by its builder as a
running sum, and a :class:`SizedDict` (a vector-clock stamp) carries its
own, so sizing either does not walk it.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, Dict, Optional


class SizedTuple(tuple):
    """A tuple whose :func:`estimate_size` is its ``size``, set by its builder."""

    size: int


class SizedDict(dict):
    """A dict whose :func:`estimate_size` is its ``size``, set by its builder."""

    __slots__ = ("size",)
    size: int


def estimate_size(obj: Any) -> int:
    """Deterministic byte-size model of a message field.

    Numbers count 8 bytes, booleans and ``None`` 1 byte, strings their UTF-8
    length, and containers the sum of their items (plus nothing for the
    container structure itself — the model deliberately measures information
    content, not wire framing).
    """
    # Exact-type dispatch for what protocol metadata is made of; the
    # isinstance ladder below takes everything else and defines the model.
    # A dict is the flat run of its keys and values.  The loop sizes numbers
    # and strings inline (vector clocks and dependency lists are made of
    # them) and recurses only for the rest.
    kind = type(obj)
    if kind is int or kind is float:
        return 8
    if kind is str:
        return len(obj.encode("utf-8"))
    if kind is list or kind is tuple or kind is dict:
        total = 0
        for item in chain.from_iterable(obj.items()) if kind is dict else obj:
            kind = type(item)
            if kind is int or kind is float:
                total += 8
            elif kind is str:
                total += len(item.encode("utf-8"))
            else:
                total += estimate_size(item)
        return total
    if kind is SizedTuple or kind is SizedDict:
        return obj.size
    if obj is None or isinstance(obj, bool):
        return 1
    if isinstance(obj, (int, float)):
        return 8
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, bytes):
        return len(obj)
    if isinstance(obj, Mapping):
        return sum(estimate_size(k) + estimate_size(v) for k, v in obj.items())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(estimate_size(item) for item in obj)
    # Fall back to the repr length for exotic values (kept deterministic).
    return len(repr(obj).encode("utf-8"))


_message_counter = itertools.count()


@dataclass
class Message:
    """A point-to-point protocol message.

    A message is **immutable once built**: its sizes are measured in the
    constructor and shared by the siblings :meth:`to` makes, so nothing may
    write ``payload``, ``control`` or ``variable`` (or anything reachable from
    them) afterwards — receivers only read them, and forwarding builds a new
    message.  Only the network stamps ``sent_at`` / ``delivered_at``.

    Attributes
    ----------
    src, dst:
        Sending and receiving process identifiers.
    kind:
        Protocol-defined message type (``"update"``, ``"notify"``,
        ``"order"``, ...).
    variable:
        The shared variable the message is about (``None`` for variable-less
        control messages such as acknowledgements).
    payload:
        Application data (typically ``{"value": ...}``).
    control:
        Protocol metadata (sequence numbers, vector clocks, ...).
    payload_bytes:
        Size of the application data carried.
    control_bytes:
        Size of the protocol metadata carried, plus the variable name.
        Control entries whose key starts with ``"_"`` are *simulation
        bookkeeping* (e.g. the write identifier used to reconstruct the exact
        read-from mapping) and are excluded from the accounting: a real
        deployment would not carry them.
    """

    src: int
    dst: int
    kind: str
    variable: Optional[str] = None
    payload: Dict[str, Any] = field(default_factory=dict)
    control: Dict[str, Any] = field(default_factory=dict)
    sent_at: Optional[float] = None
    delivered_at: Optional[float] = None
    uid: int = field(default_factory=lambda: next(_message_counter))
    payload_bytes: int = field(init=False)
    control_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.payload_bytes = estimate_size(self.payload)
        size = 0 if self.variable is None else estimate_size(self.variable)
        for key, value in self.control.items():
            if not key.startswith("_"):
                size += estimate_size(key) + estimate_size(value)
        self.control_bytes = size

    def to(self, dst: int) -> "Message":
        """An unsent sibling for another destination: fresh ``uid``, the same
        ``payload`` and ``control`` objects, sizes inherited (not re-measured)."""
        fields = self.__dict__.copy()
        fields["dst"] = dst
        fields["uid"] = next(_message_counter)
        fields["sent_at"] = fields["delivered_at"] = None
        sibling = object.__new__(Message)
        sibling.__dict__ = fields
        return sibling

    @property
    def total_bytes(self) -> int:
        """Total size of the message."""
        return self.payload_bytes + self.control_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        var = f" {self.variable}" if self.variable else ""
        return f"<Message {self.kind}{var} {self.src}->{self.dst} #{self.uid}>"
