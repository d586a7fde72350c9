"""Efficiency metrics of a protocol run (paper, Section 3.3).

The paper measures the "efficiency" of a partial-replication implementation by
the control information processes have to manage about variables they do not
replicate.  This module turns the raw network statistics of a run into the
paper-specific quantities:

* per-process count of messages received about variables the process does not
  replicate ("irrelevant messages"),
* observed x-relevance (which processes actually handled information about
  ``x``), comparable to the Theorem 1 characterisation,
* control bytes per applied update, and the control/payload overhead ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..core.distribution import VariableDistribution
from ..core.share_graph import ShareGraph
from ..netsim.stats import NetworkStats


@dataclass
class EfficiencyReport:
    """Summary of a run's control-information efficiency."""

    protocol: str
    processes: int
    variables: int
    messages_sent: int
    payload_bytes: int
    control_bytes: int
    control_overhead_ratio: float
    irrelevant_messages: int
    irrelevant_message_fraction: float
    control_bytes_per_message: float
    observed_relevance: Dict[str, Tuple[int, ...]] = field(default_factory=dict)

    def as_row(self) -> Dict[str, object]:
        """Flat dict used by the plain-text table renderer."""
        return {
            "protocol": self.protocol,
            "processes": self.processes,
            "variables": self.variables,
            "messages": self.messages_sent,
            "payload_B": self.payload_bytes,
            "control_B": self.control_bytes,
            "ctrl/payload": round(self.control_overhead_ratio, 3),
            "ctrl_B/msg": round(self.control_bytes_per_message, 1),
            "irrelevant_msgs": self.irrelevant_messages,
            "irrelevant_frac": round(self.irrelevant_message_fraction, 3),
        }


def irrelevant_message_count(stats: NetworkStats, distribution: VariableDistribution) -> int:
    """Messages delivered to a process about a variable it does not replicate."""
    count = 0
    for (dst, var), n in stats.received_variable_messages.items():
        if not distribution.holds(dst, var):
            count += n
    return count


def observed_relevance(stats: NetworkStats, distribution: VariableDistribution) -> Dict[str, Tuple[int, ...]]:
    """Per variable, the processes that received at least one message about it.

    Together with the replica holders this is the *observed* relevant set of
    the run; Theorem 1 lower-bounds it for causally consistent protocols and
    Theorem 2 predicts it collapses to ``C(x)`` for the PRAM protocol.
    """
    seen: Dict[str, Set[int]] = {var: set(distribution.holders(var)) for var in distribution.variables}
    for (dst, var), n in stats.received_variable_messages.items():
        if n > 0:
            seen.setdefault(var, set()).add(dst)
    return {var: tuple(sorted(procs)) for var, procs in seen.items()}


def efficiency_report(
    protocol: str,
    stats: NetworkStats,
    distribution: VariableDistribution,
) -> EfficiencyReport:
    """Build the :class:`EfficiencyReport` of one run."""
    irrelevant = irrelevant_message_count(stats, distribution)
    delivered = max(stats.messages_delivered, 1)
    return EfficiencyReport(
        protocol=protocol,
        processes=len(distribution.processes),
        variables=len(distribution.variables),
        messages_sent=stats.messages_sent,
        payload_bytes=stats.payload_bytes,
        control_bytes=stats.control_bytes,
        control_overhead_ratio=stats.control_overhead_ratio(),
        irrelevant_messages=irrelevant,
        irrelevant_message_fraction=irrelevant / delivered,
        control_bytes_per_message=stats.control_bytes / max(stats.messages_sent, 1),
        observed_relevance=observed_relevance(stats, distribution),
    )


def relevance_violations(
    report: EfficiencyReport,
    distribution: VariableDistribution,
) -> Dict[str, Tuple[int, ...]]:
    """Processes that handled information about ``x`` despite being x-irrelevant.

    An "efficient partial replication implementation" in the paper's sense has
    no such process for any variable; the PRAM protocol achieves it, the
    causal protocols generally do not.
    """
    share = ShareGraph.of(distribution)
    violations: Dict[str, Tuple[int, ...]] = {}
    for var, procs in report.observed_relevance.items():
        allowed = share.relevant_processes(var)
        extra = tuple(sorted(set(procs) - set(allowed)))
        if extra:
            violations[var] = extra
    return violations
