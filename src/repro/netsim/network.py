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

:meth:`Network.send` and :meth:`Network.multicast` share one transmit body,
which accounts a fan-out's sends once and schedules its copies as
handle-free simulator calls: the consecutive copies due at one instant — a
whole broadcast under constant latency — are one queue record, and each copy
is delivered by one call that stamps, accounts and hands it to its
destination's ``on_message``.
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
        self._record_trace = record_trace
        self.trace: List[Message] = []
        self._nodes: Dict[int, Receiver] = {}
        self._last_delivery: Dict[Tuple[int, int], float] = {}
        # One callback for every delivery lets a fan-out share a record.  It
        # holds what a delivery touches but not the network, and the
        # simulator only weakly: the simulator owns the queue, so a strong
        # reference would be a cycle.
        self._deliver_call = partial(
            _deliver, weakref.proxy(simulator), self.stats, self._nodes,
            self.trace if record_trace else None,
        )

    @property
    def record_trace(self) -> bool:
        """Whether delivered messages are appended to :attr:`trace` (fixed
        at construction)."""
        return self._record_trace

    # -- membership -------------------------------------------------------------
    def register(self, node_id: int, node: Receiver) -> None:
        """Register ``node`` as the endpoint for ``node_id``."""
        if node_id in self._nodes:
            raise SimulationError(f"node {node_id} registered twice")
        self._nodes[node_id] = node

    # -- transmission --------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Send ``message``; delivery is scheduled on the simulator."""
        self._transmit(message, (message.dst,), None)

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
        latencies = self.latency.sample_many(src, targets) if self.model is None else None
        self._transmit(message, targets, latencies)
        return len(targets)

    def _transmit(
        self, message: Message, targets: Sequence[int], latencies: Optional[Sequence[float]]
    ) -> None:
        """The one transmit body: ``message`` to each of ``targets``, in order.

        ``message`` goes to its own ``dst`` and a sibling to every other
        target; ``latencies`` are theirs when already drawn.  Every target is
        checked before anything is sent, and the send is accounted once for
        the fan-out.  Each copy's delivery is a handle-free call on the
        simulator: copies due at the same instant, one after the other, share
        one queue record.
        """
        src = message.src
        for dst in targets:
            if dst not in self._nodes:
                raise SimulationError(f"unknown destination {dst}")
            if src == dst:
                raise SimulationError("a process does not send messages to itself")
        if message.sent_at is not None and message.dst in targets:
            # Sizes are measured once per message, so an object that went out
            # (and may have been mutated since) must not go out again.
            raise SimulationError(f"{message!r} was already sent; build a new message")
        simulator, stats, model = self.simulator, self.stats, self.model
        primary, fifo, floors = message.dst, self.fifo, self._last_delivery
        now = simulator.now
        stats.record_send(message, targets)
        # Consecutive copies due at one instant form one group: as records of
        # their own they would have had consecutive sequence numbers under one
        # key, so nothing could have run between them.
        group: List[Message] = []
        group_time = now
        for index, dst in enumerate(targets):
            out = message if dst == primary else message.to(dst)
            out.sent_at = now
            if model is None:
                delays: Sequence[float] = (
                    self.latency.sample(src, dst) if latencies is None else latencies[index],
                )
            else:
                plan = model.plan(src, dst, now)
                if plan.dropped:
                    stats.record_drop(out, plan.drop_reason or "dropped")
                    continue
                delays = plan.delays
            for copy, delay in enumerate(delays):
                delivery_time = now + delay
                if copy:
                    stats.record_duplicate(out)
                elif fifo:
                    # The FIFO floor orders the primary copies of a channel; a
                    # duplicate is a retransmission and lands whenever it lands.
                    channel = (src, dst)
                    floor = floors.get(channel, 0.0) + 1e-9
                    if floor > delivery_time:
                        delivery_time = floor
                    floors[channel] = delivery_time
                if delivery_time != group_time or not group:
                    if group:
                        simulator.call_at(group_time, self._deliver_call, group)
                    group, group_time = [], delivery_time
                group.append(out)
        if group:
            simulator.call_at(group_time, self._deliver_call, group)


def _deliver(
    simulator: Simulator,
    stats: NetworkStats,
    nodes: Dict[int, Receiver],
    trace: Optional[List[Message]],
    message: Message,
) -> None:
    """Deliver ``message`` to its destination: the one call a queued copy makes."""
    message.delivered_at = simulator.now
    stats.record_delivery(message)
    if trace is not None:
        trace.append(message)
    nodes[message.dst].on_message(message)
