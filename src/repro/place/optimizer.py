"""The placement search: exact for small systems, seeded local search at scale.

The search space is anchored by the access profile: every admissible
distribution gives each variable at least its accessors (a process can only
use variables it replicates), so a placement is "the accessor-minimal
distribution plus a set of extra replicas".  Extra replicas are what kills
hoops — adding ``x`` at a hoop process turns it into a clique member, often
collapsing the x-relevant set to ``C(x)`` — at the price of wider cliques, a
trade-off the objectives of :mod:`repro.place.objectives` arbitrate.

``mode="exact"`` enumerates every subset of the hoop-breaking candidate
replicas ``{(x, p) : p on an x-hoop of the minimal placement}`` and scores
them with the exact relevant sets (one biconnected-component pass per
variable) — the subset count, not the scoring, confines it to the paper-sized
systems (a dozen processes).  ``mode="greedy"`` runs seeded first-improvement
local search over add/drop moves scored by the component pre-filter, bounded
by an evaluation budget — this is the 100–1000 process path.  ``mode="auto"``
picks for you.  Everything is driven by one ``random.Random(seed)``: same
profile, same seed, same placement.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..core.distribution import VariableDistribution
from ..core.share_graph import ShareGraph
from ..exceptions import ScenarioSpecError
from .objectives import OBJECTIVES, placement_cost
from .profile import AccessProfile

#: Candidate-pair ceiling under which "auto" runs the exhaustive search.
EXACT_CANDIDATE_LIMIT = 10
#: Process-count ceiling under which "auto" considers the exhaustive search.
EXACT_PROCESS_LIMIT = 12

MODES = ("auto", "exact", "greedy")


@dataclass
class PlacementResult:
    """What the optimizer found, plus enough context to judge it."""

    distribution: VariableDistribution
    objective: str
    mode: str                       #: search mode actually used
    seed: int
    cost: float                     #: objective value of the final placement
    minimal_cost: float             #: objective value of the accessor-minimal start
    full_cost: float                #: objective value of full replication
    evaluations: int                #: candidate placements scored
    added: Tuple[Tuple[str, int], ...] = field(default_factory=tuple)
    #: replicas added beyond the accessor minimum, as (variable, process)

    def improvement(self) -> float:
        """Relative cost reduction against the accessor-minimal start."""
        if self.minimal_cost <= 0:
            return 0.0
        return (self.minimal_cost - self.cost) / self.minimal_cost


def _per_process(distribution: VariableDistribution) -> Dict[int, Set[str]]:
    return {
        pid: set(distribution.variables_of(pid))
        for pid in distribution.processes
    }


def _with_replica(base: Dict[int, Set[str]], additions) -> VariableDistribution:
    per_process = {pid: set(vars_) for pid, vars_ in base.items()}
    for var, pid in additions:
        per_process.setdefault(pid, set()).add(var)
    return VariableDistribution(per_process)


def _full_replication_of(profile: AccessProfile) -> VariableDistribution:
    return VariableDistribution.full_replication(
        profile.processes, profile.variables
    )


def optimize_placement(
    profile: AccessProfile,
    objective: str = "control",
    *,
    mode: str = "auto",
    seed: int = 0,
    budget: int = 400,
) -> PlacementResult:
    """Search a distribution minimising ``objective`` for ``profile``."""
    if objective not in OBJECTIVES:
        raise ScenarioSpecError(
            f"unknown objective {objective!r}; known: {list(OBJECTIVES)}"
        )
    if mode not in MODES:
        raise ScenarioSpecError(f"unknown mode {mode!r}; known: {list(MODES)}")
    if budget < 1:
        raise ScenarioSpecError(f"budget must be >= 1, got {budget}")
    minimal = profile.minimal_distribution()
    full = _full_replication_of(profile)
    full_cost = placement_cost(full, profile, objective)

    # The process limit is tested first: a larger profile never computes the
    # exact candidates it could not enumerate anyway.
    candidates: Optional[List[Tuple[str, int]]] = None
    if mode == "exact" or (
        mode == "auto" and len(minimal.processes) <= EXACT_PROCESS_LIMIT
    ):
        candidates = _exact_candidates(minimal)
    if candidates is not None and (
        mode == "exact" or len(candidates) <= EXACT_CANDIDATE_LIMIT
    ):
        return _optimize_exact(profile, objective, seed, minimal, candidates,
                               full_cost)
    return _optimize_greedy(profile, objective, seed, budget, minimal, full_cost)


def _exact_candidates(minimal: VariableDistribution) -> List[Tuple[str, int]]:
    """The hoop-breaking additions of the minimal placement, exactly."""
    share = ShareGraph.of(minimal)
    return [
        (var, pid)
        for var in minimal.variables
        for pid in sorted(share.hoop_processes(var))
    ]


def _optimize_exact(
    profile: AccessProfile,
    objective: str,
    seed: int,
    minimal: VariableDistribution,
    candidates: List[Tuple[str, int]],
    full_cost: float,
) -> PlacementResult:
    """Exhaustive search over subsets of hoop-breaking additions (small n)."""
    base = _per_process(minimal)
    minimal_cost = placement_cost(minimal, profile, objective, exact=True)
    best_cost = minimal_cost
    best_added: Tuple[Tuple[str, int], ...] = ()
    best_dist = minimal
    evaluations = 1
    for size in range(1, len(candidates) + 1):
        for additions in itertools.combinations(candidates, size):
            dist = _with_replica(base, additions)
            cost = placement_cost(dist, profile, objective, exact=True)
            evaluations += 1
            # strict improvement only: ties keep the smaller placement,
            # earlier (lexicographically first) subset — deterministic
            if cost < best_cost - 1e-9:
                best_cost, best_added, best_dist = cost, additions, dist
    return PlacementResult(
        distribution=best_dist,
        objective=objective,
        mode="exact",
        seed=seed,
        cost=best_cost,
        minimal_cost=minimal_cost,
        full_cost=full_cost,
        evaluations=evaluations,
        added=best_added,
    )


def _optimize_greedy(
    profile: AccessProfile,
    objective: str,
    seed: int,
    budget: int,
    minimal: VariableDistribution,
    full_cost: float,
) -> PlacementResult:
    """Seeded first-improvement local search over add/drop moves."""
    rng = random.Random(seed)
    base = _per_process(minimal)
    current = {pid: set(vars_) for pid, vars_ in base.items()}
    dist = minimal
    cost = placement_cost(dist, profile, objective)
    minimal_cost = cost
    added: Set[Tuple[str, int]] = set()
    evaluations = 1
    improved = True
    while improved and evaluations < budget:
        improved = False
        moves: List[Tuple[str, str, int]] = []
        share = ShareGraph.of(dist)
        for var in dist.variables:
            for pid in sorted(share.hoop_candidates(var)):
                moves.append(("add", var, pid))
        for var, pid in sorted(added):
            moves.append(("drop", var, pid))
        rng.shuffle(moves)
        for kind, var, pid in moves:
            if evaluations >= budget:
                break
            candidate = {p: set(vs) for p, vs in current.items()}
            if kind == "add":
                candidate.setdefault(pid, set()).add(var)
            else:
                candidate[pid].discard(var)
            cand_dist = VariableDistribution(candidate)
            cand_cost = placement_cost(cand_dist, profile, objective)
            evaluations += 1
            if cand_cost < cost - 1e-9:
                current, dist, cost = candidate, cand_dist, cand_cost
                if kind == "add":
                    added.add((var, pid))
                else:
                    added.discard((var, pid))
                improved = True
                break
    return PlacementResult(
        distribution=dist,
        objective=objective,
        mode="greedy",
        seed=seed,
        cost=cost,
        minimal_cost=minimal_cost,
        full_cost=full_cost,
        evaluations=evaluations,
        added=tuple(sorted(added)),
    )
