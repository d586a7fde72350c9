"""Cost models scoring a placement against an access profile.

All objectives are built from the paper's Section 3.3 quantities: for each
variable ``x``, control information about ``x`` must reach the x-relevant
processes (Theorem 1), so the *predicted control cost* of a placement is the
write-weighted total relevant-set size.  Three named objectives expose the
axes the issue calls for:

``"control"``
    write-weighted relevant-set sizes plus a small replica penalty — the
    default, the quantity the efficiency gate measures;
``"relevant"``
    total x-relevant process count (unweighted Theorem 1 footprint);
``"hoops"``
    hoop-process count (drives the search toward hoop-free placements, the
    Theorem 2 regime where control collapses to the cliques);
``"replicas"``
    replica count only (storage floor, for calibration).

Scoring uses :meth:`~repro.core.share_graph.ShareGraph.hoop_candidates` — the
component pre-filter, an upper bound on the true hoop-process set — because
the greedy search trajectory is pinned on it.  Set ``exact=True`` (the
reports do) for the exact relevant sets: one biconnected-component pass per
variable, linear in the share graph like the pre-filter, so either stays
usable at 1000 processes.  Both are read from the distribution's one memoised
:meth:`~repro.core.share_graph.ShareGraph.of`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..core.distribution import VariableDistribution
from ..core.share_graph import ShareGraph
from ..exceptions import ScenarioSpecError
from .profile import AccessProfile

#: Named objectives accepted by the optimizer and the CLI.
OBJECTIVES: Tuple[str, ...] = ("control", "relevant", "hoops", "replicas")

#: Tie-breaking weight of one replica in the "control" objective: small
#: enough that shrinking any relevant set dominates, large enough that
#: useless replicas are never kept.
REPLICA_WEIGHT = 1.0 / 8.0


def _relevant_size(share: ShareGraph, variable: str, exact: bool) -> int:
    clique = share.clique(variable)
    if exact:
        hoops = share.hoop_processes(variable)
    else:
        hoops = share.hoop_candidates(variable)
    return len(clique | hoops)


def placement_cost(
    distribution: VariableDistribution,
    profile: AccessProfile,
    objective: str = "control",
    exact: bool = False,
) -> float:
    """Score ``distribution`` under ``objective`` (lower is better)."""
    if objective not in OBJECTIVES:
        raise ScenarioSpecError(
            f"unknown objective {objective!r}; known: {list(OBJECTIVES)}"
        )
    if objective == "replicas":
        return float(distribution.total_replicas())
    share = ShareGraph.of(distribution)
    if objective == "hoops":
        if exact:
            return float(sum(
                len(share.hoop_processes(var)) for var in distribution.variables
            ))
        return float(sum(
            len(share.hoop_candidates(var)) for var in distribution.variables
        ))
    total = 0.0
    for var in distribution.variables:
        size = _relevant_size(share, var, exact)
        if objective == "relevant":
            total += size
        else:  # "control": write-weighted propagation cost + replica penalty
            weight = max(profile.write_count(var), 1)
            total += weight * max(size - 1, 0)
    if objective == "control":
        total += REPLICA_WEIGHT * distribution.total_replicas()
    return total


def predicted_overhead(
    distribution: VariableDistribution,
    profile: AccessProfile,
) -> Dict[str, float]:
    """The paper-model prediction the reports compare against measurements.

    ``messages`` assumes one propagation per write along a spanning tree of
    the relevant set (``|relevant(x)| - 1`` messages per write — what
    ``causal_tree`` sends on a reliable network); ``relevant_total`` and
    ``hoop_processes`` are the Theorem 1 footprint; ``replicas`` the storage
    cost.  Exact hoop sets are used (this is a report-time quantity).
    """
    share = ShareGraph.of(distribution)
    messages = 0
    relevant_total = 0
    hoop_total = 0
    for var in distribution.variables:
        relevant = share.relevant_processes(var)
        relevant_total += len(relevant)
        hoop_total += len(share.hoop_processes(var))
        messages += profile.write_count(var) * max(len(relevant) - 1, 0)
    return {
        "messages": float(messages),
        "relevant_total": float(relevant_total),
        "hoop_processes": float(hoop_total),
        "replicas": float(distribution.total_replicas()),
        "average_relevance_fraction": share.average_relevance_fraction(),
    }
