"""Memory Consistency System protocols and their instrumentation."""

from .base import MCSProcess
from .best_effort import BestEffortReplication
from .causal_full import CausalFullReplication
from .causal_partial import RELAY_SCOPES, CausalPartialReplication
from .metrics import (
    EfficiencyReport,
    efficiency_report,
    irrelevant_message_count,
    observed_relevance,
    relevance_violations,
)
from .pram_partial import PRAMPartialReplication
from .recorder import HistoryRecorder, Recorder, WriteId
from .sequencer_sc import SequencerSC
from .system import PROTOCOL_CRITERION, PROTOCOLS, MCSystem
from .vector_clock import VectorClock

__all__ = [
    "BestEffortReplication",
    "CausalFullReplication",
    "CausalPartialReplication",
    "EfficiencyReport",
    "HistoryRecorder",
    "MCSProcess",
    "MCSystem",
    "PRAMPartialReplication",
    "PROTOCOLS",
    "PROTOCOL_CRITERION",
    "RELAY_SCOPES",
    "Recorder",
    "SequencerSC",
    "VectorClock",
    "WriteId",
    "efficiency_report",
    "irrelevant_message_count",
    "observed_relevance",
    "relevance_violations",
]
