"""The message-passing network connecting MCS processes.

The network provides point-to-point channels whose quality of service is
decided by a pluggable :class:`~repro.netsim.models.NetworkModel`: the default
``reliable`` model reproduces the historical behaviour (reliable channels with
configurable latency — the service the paper's reference protocols assume
([5])), while the ``faulty`` model injects message loss, duplication, link
partitions and process crashes (see :mod:`repro.netsim.models`).  Channels
are FIFO by default (per ordered pair of processes); a non-FIFO mode is
available for the ablation benchmarks (the PRAM protocol then has to buffer
and reorder on per-sender sequence numbers).  Duplicate copies injected by a
faulty model are deliberately *exempt* from the FIFO floor — a retransmitted
packet arrives whenever it arrives.
"""

from __future__ import annotations

import weakref
from functools import partial
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Protocol, Sequence, Tuple

from ..exceptions import SimulationError
from .latency import ConstantLatency, LatencyModel
from .message import Message
from .simulator import Simulator
from .stats import NetworkStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .models import NetworkModel


class Receiver(Protocol):
    """Anything that can be registered as a network endpoint."""

    def on_message(self, message: Message) -> None:  # pragma: no cover - protocol
        ...


class Network:
    """Reliable (optionally FIFO) message-passing network."""

    def __init__(
        self,
        simulator: Simulator,
        latency: Optional[LatencyModel] = None,
        fifo: bool = True,
        record_trace: bool = False,
        model: Optional["NetworkModel"] = None,
    ):
        self.simulator = simulator
        self.latency = latency or ConstantLatency(1.0)
        self.model = model
        self.fifo = fifo
        self.stats = NetworkStats()
        self.record_trace = record_trace
        self.trace: List[Message] = []
        self._nodes: Dict[int, Receiver] = {}
        self._last_delivery: Dict[Tuple[int, int], float] = {}
        # A queued delivery holds only a weak proxy of the network: the
        # simulator owns the queue, so a strong reference would be a cycle.
        self._weak = weakref.proxy(self)

    # -- membership -------------------------------------------------------------
    def register(self, node_id: int, node: Receiver) -> None:
        """Register ``node`` as the endpoint for ``node_id``."""
        if node_id in self._nodes:
            raise SimulationError(f"node {node_id} registered twice")
        self._nodes[node_id] = node

    # -- transmission --------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Send ``message``; delivery is scheduled on the simulator."""
        self._transmit(message, None)

    def multicast(self, message: Message, destinations: Iterable[int]) -> int:
        """Send one logical message to every destination; returns the count.

        Served in sorted order, ``message.src`` excluded: ``message`` itself
        goes to its own ``dst``, every other destination gets the sibling
        ``message.to(dst)``, so the fan-out is sized once.  Without a network
        model the latencies are drawn in one :meth:`LatencyModel.sample_many`
        call — the RNG draw order of per-message sends, so traces are unchanged.
        """
        src = message.src
        targets = [dst for dst in sorted(set(destinations)) if dst != src]
        delays: Sequence[Optional[float]] = (
            self.latency.sample_many(src, targets) if self.model is None
            else [None] * len(targets)
        )
        for dst, delay in zip(targets, delays):
            self._transmit(message if dst == message.dst else message.to(dst), delay)
        return len(targets)

    def _transmit(self, message: Message, delay: Optional[float]) -> None:
        """The one transmit body; ``delay`` is a latency already drawn, if any."""
        src, dst = message.src, message.dst
        if dst not in self._nodes:
            raise SimulationError(f"unknown destination {dst}")
        if src == dst:
            raise SimulationError("a process does not send messages to itself")
        if message.sent_at is not None:
            # Sizes are measured once per message, so an object that went out
            # (and may have been mutated since) must not go out again.
            raise SimulationError(f"{message!r} was already sent; build a new message")
        now = self.simulator.now
        message.sent_at = now
        self.stats.record_send(message)
        if self.model is None:
            delays: Tuple[float, ...] = (
                self.latency.sample(src, dst) if delay is None else delay,
            )
        else:
            plan = self.model.plan(src, dst, now)
            if plan.dropped:
                self.stats.record_drop(message, plan.drop_reason or "dropped")
                return
            delays = plan.delays

        deliver = partial(Network._deliver, self._weak, message)
        for copy, copy_delay in enumerate(delays):
            delivery_time = now + copy_delay
            if copy == 0:
                # The FIFO floor orders the primary copies of a channel; a
                # duplicate is a retransmission and lands whenever it lands.
                if self.fifo:
                    channel = (src, dst)
                    floor = self._last_delivery.get(channel, 0.0)
                    delivery_time = max(delivery_time, floor + 1e-9)
                    self._last_delivery[channel] = delivery_time
            else:
                self.stats.record_duplicate(message)
            self.simulator.schedule_at(delivery_time, deliver)

    def _deliver(self, message: Message) -> None:
        message.delivered_at = self.simulator.now
        self.stats.record_delivery(message)
        if self.record_trace:
            self.trace.append(message)
        self._nodes[message.dst].on_message(message)
