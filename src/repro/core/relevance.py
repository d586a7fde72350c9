"""x-relevant processes and mechanised checks of Theorems 1 and 2.

Theorem 1 (paper, Section 3.2): *a process is x-relevant if and only if it
belongs to ``C(x)`` or to an x-hoop*.  The graph-theoretic characterisation is
implemented by :class:`~repro.core.share_graph.ShareGraph`; this module adds

* :func:`witness_history` — the constructive half of the proof: given an
  x-hoop it builds the history of Figure 3
  (``w_a(x)v; w_a(x_1)v_1; r_1(x_1)v_1; w_1(x_2)v_2; ...; r_b(x_k)v_k; o_b(x)``)
  which contains an x-dependency chain traversing every hoop process;
* :func:`verify_theorem1` — for every process the characterisation declares
  relevant because of a hoop, build a witness history and check that a
  dependency chain through that process is indeed found (and, conversely,
  that processes declared irrelevant never appear in any external chain);
* :func:`verify_theorem2` — for a history (typically recorded from a PRAM
  protocol run), check that the PRAM relation produces no dependency chain
  leaving a clique (Theorem 2).

The functions return small report dataclasses so the benchmark harness, the
scenario suites of :mod:`repro.experiments` and the claim-to-scenario map in
``EXPERIMENTS.md`` (repository root) can record paper-claim vs.
measured-outcome pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..exceptions import ModelError
from .dependency import find_dependency_chains, has_external_chain
from .distribution import VariableDistribution
from .history import History, HistoryBuilder
from .operations import BOTTOM, OpKind, Operation
from .share_graph import Hoop, ShareGraph


def witness_history(hoop: Hoop, final_is_write: bool = False) -> History:
    """Build the witness history of Figure 3 for a given x-hoop.

    The initial process ``p_a`` writes ``x`` then writes a variable shared
    with the first intermediate process; each intermediate process reads the
    value written by its predecessor and writes a variable shared with its
    successor; the final process ``p_b`` reads the last relay value and then
    performs ``o_b(x)`` (a read by default, a write when ``final_is_write``).

    The produced history includes an x-dependency chain along the hoop for the
    causal order (and for the lazy orders, since every relay is a
    read-then-write on related variables).
    """
    x = hoop.variable
    path = hoop.path
    if len(path) < 2:
        raise ModelError("a hoop needs at least two processes")
    relay_vars: List[str] = []
    for idx, labels in enumerate(hoop.edge_labels):
        usable = sorted(labels - {x})
        if not usable:
            raise ModelError(
                f"hoop edge {path[idx]}-{path[idx + 1]} shares no variable other than {x!r}"
            )
        relay_vars.append(usable[0])

    builder = HistoryBuilder()
    p_a, p_b = path[0], path[-1]
    builder.write(p_a, x, f"{x}@{p_a}")
    builder.write(p_a, relay_vars[0], f"{relay_vars[0]}#0")
    for idx, proc in enumerate(path[1:-1], start=1):
        builder.read(proc, relay_vars[idx - 1], f"{relay_vars[idx - 1]}#{idx - 1}")
        builder.write(proc, relay_vars[idx], f"{relay_vars[idx]}#{idx}")
    builder.read(p_b, relay_vars[-1], f"{relay_vars[-1]}#{len(relay_vars) - 1}")
    if final_is_write:
        builder.write(p_b, x, f"{x}@{p_b}")
    else:
        builder.read(p_b, x, BOTTOM)
    return builder.build()


@dataclass
class Theorem1Report:
    """Outcome of the mechanised Theorem 1 verification for one variable."""

    variable: str
    clique: Tuple[int, ...]
    characterised_relevant: Tuple[int, ...]
    witnessed_relevant: Tuple[int, ...]
    irrelevant: Tuple[int, ...]
    holds: bool
    details: List[str] = field(default_factory=list)


def verify_theorem1(
    distribution: VariableDistribution,
    variable: str,
    max_hoop_length: Optional[int] = None,
    criterion: str = "causal",
) -> Theorem1Report:
    """Mechanically verify Theorem 1 for one variable of a distribution.

    * **Sufficiency/necessity, constructive direction**: for every process the
      characterisation marks as a hoop process, find a hoop through it, build
      the witness history and confirm a dependency chain traverses it.
    * **Converse direction**: enumerate hoops (bounded) and confirm every
      external process of every witnessed chain is characterised as relevant.
    """
    share = ShareGraph.of(distribution)
    clique = share.clique(variable)
    characterised = share.relevant_processes(variable)
    hoop_procs = share.hoop_processes(variable)
    witnessed: Set[int] = set(clique)
    details: List[str] = []
    holds = True

    for proc in sorted(hoop_procs):
        hoop = share.hoop_through(proc, variable, max_length=max_hoop_length)
        if hoop is None:
            holds = False
            details.append(
                f"p{proc} characterised as hoop process but no hoop through it was found"
            )
            continue
        history = witness_history(hoop)
        chains = find_dependency_chains(
            history, distribution, criterion=criterion, variable=variable, external_only=True
        )
        through = [c for c in chains if proc in c.external_processes]
        if through:
            witnessed.add(proc)
            details.append(
                f"p{proc}: witness history along {hoop!r} yields an external chain"
            )
        else:
            holds = False
            details.append(
                f"p{proc}: witness history along {hoop!r} yields no chain through it"
            )

    # Converse: no external chain may involve a process outside the
    # characterised relevant set (checked on every witness history built).
    for hoop in share.hoops(variable, max_length=max_hoop_length, max_hoops=32):
        history = witness_history(hoop)
        for chain in find_dependency_chains(
            history, distribution, criterion=criterion, variable=variable, external_only=True
        ):
            stray = set(chain.external_processes) - set(characterised)
            if stray:
                holds = False
                details.append(
                    f"chain {chain!r} involves non-characterised processes {sorted(stray)}"
                )

    if witnessed != set(characterised):
        missing = set(characterised) - witnessed
        if missing:
            holds = False
            details.append(f"no witness found for characterised processes {sorted(missing)}")

    return Theorem1Report(
        variable=variable,
        clique=tuple(sorted(clique)),
        characterised_relevant=tuple(sorted(characterised)),
        witnessed_relevant=tuple(sorted(witnessed)),
        irrelevant=tuple(sorted(share.irrelevant_processes(variable))),
        holds=holds,
        details=details,
    )


@dataclass
class Theorem2Report:
    """Outcome of the Theorem 2 check on one history."""

    external_chains: int
    internal_chains: int
    holds: bool
    criterion: str = "pram"


def verify_theorem2(
    history: History,
    distribution: VariableDistribution,
    read_from: Optional[Dict[Operation, Optional[Operation]]] = None,
) -> Theorem2Report:
    """Check that the PRAM relation creates no dependency chain along hoops.

    Theorem 2: in a PRAM-consistent history, ``w_a(x)v ->_pram o_b(x)`` with
    ``a ≠ b`` can only come from a direct read-from edge, hence no chain can
    traverse processes outside ``C(x)``.
    """
    chains = find_dependency_chains(
        history, distribution, criterion="pram", read_from=read_from
    )
    external = [c for c in chains if c.is_external]
    internal = [c for c in chains if not c.is_external]
    return Theorem2Report(
        external_chains=len(external),
        internal_chains=len(internal),
        holds=not external,
    )


def relevance_summary(distribution: VariableDistribution) -> Dict[str, Dict[str, object]]:
    """Convenience wrapper: the share graph's per-variable relevance report."""
    return ShareGraph.of(distribution).relevance_report()
