"""Network-level statistics: message and byte accounting.

:class:`NetworkStats` is filled in by :class:`~repro.netsim.network.Network`
once per fan-out sent and once per message delivered; the MCS metric layer
(:mod:`repro.mcs.metrics`) post-processes it against a variable distribution
to derive the paper-specific efficiency measures (control bytes received
about variables a process does not replicate, observed x-relevance sets,
...).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .message import Message


@dataclass
class NetworkStats:
    """Counters accumulated by the network."""

    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    drops_by_reason: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    payload_bytes: int = 0
    control_bytes: int = 0
    by_kind: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    by_pair: Dict[Tuple[int, int], int] = field(default_factory=lambda: defaultdict(int))
    control_bytes_by_kind: Dict[str, int] = field(default_factory=lambda: defaultdict(int))
    received_by_process: Dict[int, int] = field(default_factory=lambda: defaultdict(int))
    received_variable_messages: Dict[Tuple[int, str], int] = field(
        default_factory=lambda: defaultdict(int)
    )
    received_variable_control_bytes: Dict[Tuple[int, str], int] = field(
        default_factory=lambda: defaultdict(int)
    )

    def record_send(self, message: Message, destinations: Optional[Sequence[int]] = None) -> None:
        """Account for ``message`` handed to the network once per destination
        (a fan-out: ``message`` and its siblings; default its own ``dst``)."""
        src = message.src
        if destinations is None:
            destinations = (message.dst,)
        count = len(destinations)
        self.messages_sent += count
        self.payload_bytes += count * message.payload_bytes
        self.control_bytes += count * message.control_bytes
        self.by_kind[message.kind] += count
        by_pair = self.by_pair
        for dst in destinations:
            by_pair[src, dst] += 1
        self.control_bytes_by_kind[message.kind] += count * message.control_bytes

    def record_drop(self, message: Message, reason: str) -> None:
        """Account for a message the network model decided to lose."""
        self.messages_dropped += 1
        self.drops_by_reason[reason] += 1

    def record_duplicate(self, message: Message) -> None:
        """Account for one extra copy of a message the model duplicated."""
        self.messages_duplicated += 1

    def record_delivery(self, message: Message) -> None:
        """Account for a message delivered to its destination."""
        dst, variable = message.dst, message.variable
        self.messages_delivered += 1
        self.received_by_process[dst] += 1
        if variable is not None:
            key = (dst, variable)
            self.received_variable_messages[key] += 1
            self.received_variable_control_bytes[key] += message.control_bytes

    # -- derived metrics -----------------------------------------------------
    def total_bytes(self) -> int:
        """Payload plus control bytes sent."""
        return self.payload_bytes + self.control_bytes

    def control_overhead_ratio(self) -> float:
        """Control bytes divided by payload bytes (``inf`` when no payload)."""
        if self.payload_bytes == 0:
            return float("inf") if self.control_bytes else 0.0
        return self.control_bytes / self.payload_bytes

    def variables_seen_by(self, process: int) -> Tuple[str, ...]:
        """Variables about which ``process`` received at least one message."""
        return tuple(
            sorted({var for (dst, var) in self.received_variable_messages if dst == process})
        )

    def summary(self) -> Dict[str, float]:
        """Flat dictionary used by reports and benchmarks."""
        return {
            "messages_sent": float(self.messages_sent),
            "messages_delivered": float(self.messages_delivered),
            "messages_dropped": float(self.messages_dropped),
            "messages_duplicated": float(self.messages_duplicated),
            "payload_bytes": float(self.payload_bytes),
            "control_bytes": float(self.control_bytes),
            "control_overhead_ratio": self.control_overhead_ratio(),
        }
