"""Discrete-event message-passing substrate used by the MCS protocols.

A :class:`Simulator` is one heap of call groups; a :class:`Network` on it
delivers each message as one call of such a group.
"""

from .latency import (
    ConstantLatency,
    LatencyModel,
    LogNormalLatency,
    PairwiseLatency,
    UniformLatency,
    build_latency,
)
from .message import Message, estimate_size
from .models import (
    CrashWindow,
    DeliveryPlan,
    FaultyNetworkModel,
    NetworkModel,
    Partition,
    ReliableNetworkModel,
)
from .network import Network
from .simulator import Simulator
from .stats import NetworkStats

__all__ = [
    "ConstantLatency",
    "CrashWindow",
    "DeliveryPlan",
    "FaultyNetworkModel",
    "LatencyModel",
    "LogNormalLatency",
    "Message",
    "Network",
    "NetworkModel",
    "NetworkStats",
    "Partition",
    "PairwiseLatency",
    "ReliableNetworkModel",
    "Simulator",
    "UniformLatency",
    "build_latency",
    "estimate_size",
]
