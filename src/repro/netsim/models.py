"""Pluggable network models: latency distributions plus fault injection.

The :class:`~repro.netsim.network.Network` historically modelled one quality
of service — reliable channels with a configurable latency.  The paper's
reference protocols assume exactly that ([5]), but the interesting scenario
space is larger: what happens to each protocol when messages are *lost*,
*duplicated*, when links *partition* (and later heal), or when a process
crashes and recovers?  A :class:`NetworkModel` answers, for every message the
moment it is sent, the one question the network needs: *when does each copy
of this message arrive — if at all?*

Two models ship built in (both registered on
:data:`repro.spec.registry.NETWORK_MODEL_REGISTRY` and therefore reachable
from declarative :class:`~repro.spec.NetworkSpec` objects):

``reliable``
    Every message is delivered exactly once, after a (possibly random but
    seeded) latency — the historical behaviour.

``faulty``
    A reliable core plus independent message loss (``drop_rate``),
    duplication with a delayed second copy (``duplicate_rate``) — the copy is
    exempt from the FIFO floor, as a retransmitted packet would be — link
    partitions with heal schedules (:class:`Partition`) and process
    crash/recover windows (:class:`CrashWindow`, modelling the crashed
    process' network interface: everything it sends or should receive during
    the window is lost).

All randomness comes from one ``random.Random`` seeded at construction, so a
given scenario seed reproduces the exact same fault schedule, message by
message.
"""

from __future__ import annotations

import abc
import math
import random
from dataclasses import dataclass
from typing import Any, Dict, Optional, Sequence, Tuple

from ..exceptions import NetworkModelError
from ..spec.registry import register_network_model
from ..spec.scenario import Spec
from .latency import LatencyModel, build_latency

#: Drop reasons used in :class:`~repro.netsim.stats.NetworkStats.drops_by_reason`.
DROP_LOSS = "loss"
DROP_PARTITION = "partition"
DROP_CRASH = "crash"


@dataclass(frozen=True)
class DeliveryPlan:
    """What the network should do with one sent message.

    ``delays`` holds one entry per copy to deliver (empty = dropped); entries
    after the first are duplicates.  ``drop_reason`` names why the message
    was dropped when ``delays`` is empty.
    """

    delays: Tuple[float, ...] = ()
    drop_reason: Optional[str] = None

    @property
    def dropped(self) -> bool:
        return not self.delays


@dataclass(frozen=True)
class Partition(Spec):
    """One link-cut window ``[start, end)`` with an implied heal at ``end``.

    Either ``groups`` (processes split into isolated groups; messages
    crossing a group boundary are dropped) or ``links`` (explicit ``(src,
    dst)`` pairs to cut, both directions when ``symmetric``).  ``end`` may be
    ``inf`` for a partition that never heals.  The cut is evaluated at *send*
    time: a message that left the link before ``start`` is already past the
    cut and is delivered normally.
    """

    _error = NetworkModelError

    start: float
    end: float
    groups: Tuple[Tuple[int, ...], ...] = ()
    links: Tuple[Tuple[int, int], ...] = ()
    symmetric: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.start <= self.end:  # a nan bound fails too
            raise NetworkModelError(
                f"partition window must satisfy 0 <= start <= end, "
                f"got [{self.start}, {self.end})"
            )
        if not self.groups and not self.links:
            raise NetworkModelError(
                "a partition needs 'groups' or 'links' to sever"
            )
        for link in self.links:
            if len(link) != 2:
                raise NetworkModelError(
                    f"a partition link is a (src, dst) pair, got {link!r}"
                )
        # Precompute the pid -> group index once; severs() sits on the
        # network's per-send hot path (frozen dataclass, hence __setattr__).
        group_of: Dict[int, int] = {}
        for index, group in enumerate(self.groups):
            for pid in group:
                group_of[pid] = index
        object.__setattr__(self, "_group_of", group_of)

    def severs(self, src: int, dst: int, now: float) -> bool:
        """``True`` when a ``src -> dst`` message sent at ``now`` is cut."""
        if not self.start <= now < self.end:
            return False
        for a, b in self.links:
            if (a, b) == (src, dst) or (self.symmetric and (b, a) == (src, dst)):
                return True
        group_of = self._group_of
        if src in group_of and dst in group_of:
            return group_of[src] != group_of[dst]
        return False


@dataclass(frozen=True)
class CrashWindow(Spec):
    """Process ``process`` is crashed during ``[start, end)`` (recovers at ``end``).

    While crashed, every message the process sends or should receive is
    dropped — the model of a dead network interface: sends are checked at
    send time, receptions at arrival time (a message already in flight when
    the crash starts is lost if it would arrive during the window).  The
    application-level accesses the workload scripts drive are unaffected
    (they hit the local replica); what the crash severs is the process'
    participation in update propagation.
    """

    _error = NetworkModelError

    process: int
    start: float
    end: float

    def __post_init__(self) -> None:
        if not 0 <= self.start <= self.end:  # a nan bound fails too
            raise NetworkModelError(
                f"crash window must satisfy 0 <= start <= end, "
                f"got [{self.start}, {self.end})"
            )

    def covers(self, process: int, now: float) -> bool:
        return process == self.process and self.start <= now < self.end


class NetworkModel(abc.ABC):
    """Decides the fate of every message: latency, loss, duplication."""

    #: Registry name (set by subclasses).
    model_name: str = "abstract"

    @abc.abstractmethod
    def plan(self, src: int, dst: int, now: float) -> DeliveryPlan:
        """Delivery plan for a message sent ``src -> dst`` at time ``now``."""

    def partition_windows(self) -> Tuple[Tuple[float, float], ...]:
        """The configured ``(start, end)`` partition windows (empty by default)."""
        return ()

    def describe(self) -> Dict[str, Any]:
        """Human/JSON-facing summary of the model's configuration."""
        return {"model": self.model_name}


@register_network_model(
    "reliable",
    params=("latency", "seed"),
    description="every message delivered exactly once after the configured latency",
)
class ReliableNetworkModel(NetworkModel):
    """The historical quality of service: reliable channels, one latency model."""

    model_name = "reliable"

    def __init__(self, latency: Any = None, seed: int = 0):
        self.latency: LatencyModel = build_latency(latency, seed=seed)

    def plan(self, src: int, dst: int, now: float) -> DeliveryPlan:
        return DeliveryPlan(delays=(self.latency.sample(src, dst),))

    def describe(self) -> Dict[str, Any]:
        return {"model": self.model_name, "latency": repr(self.latency)}


@register_network_model(
    "faulty",
    params=("latency", "drop_rate", "duplicate_rate", "duplicate_lag",
            "partitions", "crashes", "seed"),
    description="seedable loss, duplication, link partitions and process crashes",
)
class FaultyNetworkModel(NetworkModel):
    """Reliable core plus seedable loss, duplication, partitions and crashes."""

    model_name = "faulty"

    def __init__(
        self,
        latency: Any = None,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        duplicate_lag: float = 2.0,
        partitions: Sequence[Any] = (),
        crashes: Sequence[Any] = (),
        seed: int = 0,
    ):
        if not 0.0 <= float(drop_rate) <= 1.0:
            raise NetworkModelError(f"drop_rate must be in [0, 1], got {drop_rate!r}")
        if not 0.0 <= float(duplicate_rate) <= 1.0:
            raise NetworkModelError(
                f"duplicate_rate must be in [0, 1], got {duplicate_rate!r}"
            )
        if not 0.0 <= float(duplicate_lag) < math.inf:
            raise NetworkModelError(
                f"duplicate_lag must be finite and >= 0, got {duplicate_lag!r}"
            )
        self.drop_rate = float(drop_rate)
        self.duplicate_rate = float(duplicate_rate)
        self.duplicate_lag = float(duplicate_lag)
        # ready-built windows pass through; JSON forms are decoded
        self.partitions = tuple(
            p if isinstance(p, Partition) else Partition.from_dict(p) for p in partitions
        )
        self.crashes = tuple(
            c if isinstance(c, CrashWindow) else CrashWindow.from_dict(c) for c in crashes
        )
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self.latency: LatencyModel = build_latency(latency, seed=self.seed)

    def plan(self, src: int, dst: int, now: float) -> DeliveryPlan:
        for crash in self.crashes:
            if crash.covers(src, now) or crash.covers(dst, now):
                return DeliveryPlan(drop_reason=DROP_CRASH)
        for partition in self.partitions:
            if partition.severs(src, dst, now):
                return DeliveryPlan(drop_reason=DROP_PARTITION)
        # One rng draw per fault knob per message, in a fixed order, so the
        # schedule is a pure function of (seed, send sequence).
        if self.drop_rate and self._rng.random() < self.drop_rate:
            return DeliveryPlan(drop_reason=DROP_LOSS)
        delay = self.latency.sample(src, dst)
        if self.duplicate_rate and self._rng.random() < self.duplicate_rate:
            lag = self._rng.uniform(0.0, self.duplicate_lag) if self.duplicate_lag else 0.0
            delays: Tuple[float, ...] = (delay, delay + lag)
        else:
            delays = (delay,)
        # A copy arriving while the destination is crashed is lost too (its
        # interface is down at receive time).  Filtered after the rng draws
        # so the randomness schedule stays a function of the send sequence.
        surviving = tuple(
            d for d in delays
            if not any(crash.covers(dst, now + d) for crash in self.crashes)
        )
        if not surviving:
            return DeliveryPlan(drop_reason=DROP_CRASH)
        return DeliveryPlan(delays=surviving)

    def partition_windows(self) -> Tuple[Tuple[float, float], ...]:
        return tuple((p.start, p.end) for p in self.partitions)

    def describe(self) -> Dict[str, Any]:
        return {
            "model": self.model_name,
            "latency": repr(self.latency),
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "partitions": [p.to_dict() for p in self.partitions],
            "crashes": [c.to_dict() for c in self.crashes],
            "seed": self.seed,
        }
