"""Reproduction of every figure and theorem of the paper.

Each ``figure*`` / ``theorem*`` function rebuilds the paper's object (share
graph, hoop, history, protocol run), evaluates it with the library's
machinery, and returns a :class:`FigureReproduction` recording the paper's
claim, the measured outcome and whether they match.  The benchmark harness and
EXPERIMENTS.md are generated from these results.

Figures 1-3 are structural (share graph, hoop, dependency chain); Figures 4-6
are the example histories of Sections 4.1-4.2; Theorems 1 and 2 are the
paper's two formal results; Figures 7-9 are the Bellman-Ford case study of
Section 6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..core.consistency import all_checkers, get_checker
from ..core.dependency import find_dependency_chains
from ..core.distribution import VariableDistribution
from ..core.history import History, HistoryBuilder
from ..core.operations import BOTTOM
from ..core.relevance import verify_theorem1, verify_theorem2, witness_history
from ..core.share_graph import Hoop, ShareGraph
from ..mcs.metrics import relevance_violations
from ..workloads.distributions import chain_distribution
from ..workloads.topology import figure8_network
from .report import render_table


@dataclass
class FigureReproduction:
    """Outcome of reproducing one paper figure/theorem."""

    figure_id: str
    title: str
    paper_claim: str
    measured: Dict[str, Any] = field(default_factory=dict)
    matches: bool = True
    notes: List[str] = field(default_factory=list)

    def as_row(self) -> Dict[str, Any]:
        """Flat row for tables."""
        return {
            "id": self.figure_id,
            "title": self.title,
            "paper": self.paper_claim,
            "measured": "; ".join(f"{k}={v}" for k, v in self.measured.items()),
            "match": "yes" if self.matches else "NO",
        }


# ---------------------------------------------------------------------------
# Figures 1-3: share graph, hoop, dependency chain
# ---------------------------------------------------------------------------

def figure1_distribution() -> VariableDistribution:
    """The 3-process / 2-variable distribution of Figure 1.

    ``X_i = {x1, x2}``, ``X_j = {x1}``, ``X_k = {x2}`` with process ids
    ``i = 1``, ``j = 2``, ``k = 3``.
    """
    return VariableDistribution({1: {"x1", "x2"}, 2: {"x1"}, 3: {"x2"}})


def figure1_share_graph() -> FigureReproduction:
    """Figure 1: the share graph is the union of the cliques C(x1) and C(x2)."""
    dist = figure1_distribution()
    share = ShareGraph.of(dist)
    measured = {
        "C(x1)": tuple(sorted(share.clique("x1"))),
        "C(x2)": tuple(sorted(share.clique("x2"))),
        "edges": tuple(sorted((a, b) for a, b, _ in share.graph.edges())),
        "edge_label_1_2": tuple(sorted(share.edge_label(1, 2))),
        "edge_label_1_3": tuple(sorted(share.edge_label(1, 3))),
    }
    expected_edges = ((1, 2), (1, 3))
    matches = (
        measured["C(x1)"] == (1, 2)
        and measured["C(x2)"] == (1, 3)
        and measured["edges"] == expected_edges
        and measured["edge_label_1_2"] == ("x1",)
        and measured["edge_label_1_3"] == ("x2",)
    )
    return FigureReproduction(
        figure_id="figure1",
        title="Share graph of three processes and two variables",
        paper_claim="SG = C(x1) ∪ C(x2) with C(x1)={p_i,p_j}, C(x2)={p_i,p_k}",
        measured=measured,
        matches=matches,
    )


def figure2_distribution(intermediates: int = 3) -> VariableDistribution:
    """A hoop-shaped distribution generalising Figure 2 (chain of relays)."""
    return chain_distribution(intermediates, studied_variable="x")


def figure2_hoop(intermediates: int = 3) -> FigureReproduction:
    """Figure 2: an x-hoop between two members of C(x) through outside processes."""
    dist = figure2_distribution(intermediates)
    share = ShareGraph.of(dist)
    hoops = list(share.hoops("x"))
    endpoints = sorted(share.clique("x"))
    longest = max(hoops, key=lambda h: h.length) if hoops else None
    measured = {
        "clique": tuple(endpoints),
        "hoops_found": len(hoops),
        "longest_hoop": longest.path if longest else (),
        "intermediates_outside_clique": bool(
            longest and all(p not in share.clique("x") for p in longest.intermediates)
        ),
    }
    matches = bool(
        hoops
        and longest is not None
        and len(longest.intermediates) == intermediates
        and measured["intermediates_outside_clique"]
    )
    return FigureReproduction(
        figure_id="figure2",
        title="An x-hoop",
        paper_claim="a path between two C(x) processes whose intermediates are outside C(x), every edge sharing a variable ≠ x",
        measured=measured,
        matches=matches,
    )


def figure3_dependency_chain(intermediates: int = 3) -> FigureReproduction:
    """Figure 3: the witness history creating an x-dependency chain along the hoop."""
    dist = figure2_distribution(intermediates)
    share = ShareGraph.of(dist)
    hoop = max(share.hoops("x"), key=lambda h: h.length)
    history = witness_history(hoop)
    chains = find_dependency_chains(history, dist, criterion="causal", variable="x",
                                    external_only=True)
    chain = chains[0] if chains else None
    measured = {
        "chain_found": chain is not None,
        "initial": chain.initial.label() if chain else None,
        "final": chain.final.label() if chain else None,
        "processes_on_chain": chain.processes if chain else (),
        "external_processes": chain.external_processes if chain else (),
    }
    matches = bool(
        chain is not None
        and set(chain.external_processes) == set(hoop.intermediates)
        and chain.initial.is_write
        and chain.initial.variable == "x"
        and chain.final.variable == "x"
    )
    return FigureReproduction(
        figure_id="figure3",
        title="An x-dependency chain from w_a(x)v to o_b(x)",
        paper_claim="the history w_a(x)v … o_b(x) relates the two operations through every process of the hoop",
        measured=measured,
        matches=matches,
    )


# ---------------------------------------------------------------------------
# Figures 4-6: the example histories of Sections 4.1-4.2
# ---------------------------------------------------------------------------

def figure4_history() -> History:
    """The history of Figure 4 (lazy causal but not causal)."""
    b = HistoryBuilder()
    b.write(1, "x", "a").read(1, "x", "a").write(1, "y", "b")
    b.read(2, "y", "b").write(2, "y", "c")
    b.read(3, "y", "c").read(3, "x", BOTTOM)
    return b.build()


def figure4_distribution() -> VariableDistribution:
    """Variable distribution sketched next to Figure 4: C(x) = {p1, p3}, y shared along the hoop."""
    return VariableDistribution({1: {"x", "y"}, 2: {"y"}, 3: {"x", "y"}})


def figure4_verdicts() -> FigureReproduction:
    """Figure 4: the history is lazy causal consistent but not causal consistent."""
    history = figure4_history()
    causal = get_checker("causal").check(history)
    lazy = get_checker("lazy_causal").check(history)
    measured = {
        "causal": causal.consistent,
        "lazy_causal": lazy.consistent,
        "causal_violations": len(causal.violations),
    }
    matches = (not causal.consistent) and lazy.consistent
    return FigureReproduction(
        figure_id="figure4",
        title="A lazy causal but not causal history",
        paper_claim="lazy causal consistent, not causal consistent (r3(x)⊥ is allowed only under the lazy order)",
        measured=measured,
        matches=matches,
    )


def figure5_history() -> History:
    """The history of Figure 5 (not lazy causal: a chain closes through p3's write)."""
    b = HistoryBuilder()
    b.write(1, "x", "a").read(1, "x", "a").write(1, "y", "b")
    b.read(2, "y", "b").write(2, "y", "c")
    b.read(3, "y", "c").write(3, "x", "d")
    b.read(4, "x", "d").read(4, "x", "a")
    return b.build()


def figure5_distribution() -> VariableDistribution:
    """Distribution sketched next to Figure 5: x at p1, p3, p4; y along the hoop."""
    return VariableDistribution({1: {"x", "y"}, 2: {"y"}, 3: {"x", "y"}, 4: {"x"}})


def figure5_verdicts() -> FigureReproduction:
    """Figure 5: not lazy causal; p2 is x-relevant although p2 ∉ C(x)."""
    history = figure5_history()
    dist = figure5_distribution()
    lazy = get_checker("lazy_causal").check(history)
    causal = get_checker("causal").check(history)
    chains = find_dependency_chains(history, dist, criterion="lazy_causal", variable="x",
                                    external_only=True)
    external = sorted({p for c in chains for p in c.external_processes})
    measured = {
        "lazy_causal": lazy.consistent,
        "causal": causal.consistent,
        "external_chain_through": tuple(external),
    }
    matches = (not lazy.consistent) and (not causal.consistent) and 2 in external
    return FigureReproduction(
        figure_id="figure5",
        title="A history that is not lazy causal",
        paper_claim="not lazy causal; the x-dependency chain along the hoop [p1,p2,p3] makes p2 x-relevant",
        measured=measured,
        matches=matches,
    )


def figure6_history(strict: bool = False) -> History:
    """The history of Figure 6 (lazy writes-before chain).

    With ``strict=False`` the history is exactly the one printed in the paper
    (p2 performs ``r2(y)b, w2(y)e, w2(z)c``).  Under the *printed* Definition 5
    the two writes of p2 on different variables are not related by the lazy
    program order, so the chain the paper describes needs the extra lazy
    program-order edge drawn in the figure; ``strict=True`` inserts the read
    ``r2(y)e`` between them, which makes that edge derivable from the printed
    definitions and yields the verdict the paper states.  Both variants are
    recorded in EXPERIMENTS.md.
    """
    b = HistoryBuilder()
    b.write(1, "x", "a").read(1, "x", "a").write(1, "y", "b")
    b.read(2, "y", "b").write(2, "y", "e")
    if strict:
        b.read(2, "y", "e")
    b.write(2, "z", "c")
    b.read(3, "z", "c").write(3, "x", "d")
    b.read(4, "x", "d").read(4, "x", "a")
    return b.build()


def figure6_distribution() -> VariableDistribution:
    """Distribution sketched next to Figure 6: x at p1, p3, p4; y and z along the hoop."""
    return VariableDistribution({1: {"x", "y"}, 2: {"y", "z"}, 3: {"x", "z"}, 4: {"x"}})


def figure6_verdicts() -> FigureReproduction:
    """Figure 6: not lazy semi-causal (the lwb relation closes the chain)."""
    strict_history = figure6_history(strict=True)
    verbatim_history = figure6_history(strict=False)
    checker = get_checker("lazy_semi_causal")
    strict_verdict = checker.check(strict_history)
    verbatim_verdict = checker.check(verbatim_history)
    dist = figure6_distribution()
    chains = find_dependency_chains(
        strict_history, dist, criterion="lazy_semi_causal", variable="x", external_only=True
    )
    external = sorted({p for c in chains for p in c.external_processes})
    measured = {
        "lazy_semi_causal(strict variant)": strict_verdict.consistent,
        "lazy_semi_causal(verbatim)": verbatim_verdict.consistent,
        "external_chain_through": tuple(external),
    }
    matches = (not strict_verdict.consistent) and 2 in external
    notes = [
        "The verbatim history needs the lazy program-order edge w2(y)e -> w2(z)c drawn in the "
        "paper's figure; under the printed Definition 5 that edge only exists with an "
        "intervening operation on y, which the strict variant adds (r2(y)e)."
    ]
    return FigureReproduction(
        figure_id="figure6",
        title="A history that is not lazy semi-causally consistent",
        paper_claim="not lazy semi-causal; the lwb chain along the hoop [p1,p2,p3] makes p2 x-relevant",
        measured=measured,
        matches=matches,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# Theorems 1 and 2
# ---------------------------------------------------------------------------

def theorem1_reproduction(intermediates: int = 3) -> FigureReproduction:
    """Theorem 1 on the canonical hoop distribution (plus the Figure 1 distribution)."""
    reports = []
    for dist, var in ((figure2_distribution(intermediates), "x"), (figure1_distribution(), "x1")):
        reports.append(verify_theorem1(dist, var))
    measured = {
        f"{r.variable}: relevant": r.characterised_relevant for r in reports
    }
    measured.update({f"{r.variable}: holds": r.holds for r in reports})
    matches = all(r.holds for r in reports)
    return FigureReproduction(
        figure_id="theorem1",
        title="Characterisation of x-relevant processes",
        paper_claim="a process is x-relevant iff it belongs to C(x) or to an x-hoop",
        measured=measured,
        matches=matches,
    )


def theorem2_reproduction(seed: int = 0) -> FigureReproduction:
    """Theorem 2: PRAM protocol runs create no dependency chain along hoops."""
    from ..mcs.system import MCSystem
    from ..workloads.access_patterns import single_writer_script, run_script
    from ..workloads.distributions import chain_distribution

    dist = chain_distribution(3, studied_variable="x")
    system = MCSystem(dist, protocol="pram_partial")
    script = single_writer_script(dist, writes_per_variable=4, reads_per_replica=4, seed=seed)
    run_script(system, script)
    history = system.history()
    report = verify_theorem2(history, dist, read_from=system.read_from())
    violations = relevance_violations(system.efficiency(), dist)
    measured = {
        "external_chains": report.external_chains,
        "internal_chains": report.internal_chains,
        "holds": report.holds,
        "irrelevant_processes_contacted": sum(len(v) for v in violations.values()),
    }
    matches = report.holds and not violations
    return FigureReproduction(
        figure_id="theorem2",
        title="PRAM histories create no dependency chain along hoops",
        paper_claim="for each variable x, no x-relevant process exists outside C(x) under PRAM",
        measured=measured,
        matches=matches,
    )


# ---------------------------------------------------------------------------
# Figures 7-9: the Bellman-Ford case study
# ---------------------------------------------------------------------------

def figure7_8_9_bellman_ford(protocol: str = "pram_partial") -> FigureReproduction:
    """Figures 7-9: the distributed Bellman-Ford run on the Figure 8 network."""
    from ..apps.bellman_ford import run_distributed_bellman_ford
    from ..core.consistency import get_checker as _get_checker

    graph = figure8_network()
    run = run_distributed_bellman_ford(graph, source=1, protocol=protocol)
    pram = _get_checker("pram").check(run.report.history, read_from=run.report.read_from)
    measured = {
        "distances": tuple(sorted(run.distances.items())),
        "matches_reference": run.correct,
        "history_is_pram": pram.consistent,
        "irrelevant_messages": run.report.efficiency.irrelevant_messages,
        "rounds": run.rounds,
    }
    matches = run.correct and pram.consistent and run.report.efficiency.irrelevant_messages == 0
    return FigureReproduction(
        figure_id="figure7-9",
        title="Distributed Bellman-Ford over partially replicated PRAM memory",
        paper_claim="the Figure 7 protocol computes the shortest paths on the Figure 8 network using only PRAM consistency and partial replication",
        measured=measured,
        matches=matches,
    )


def figure9_step_trace(protocol: str = "pram_partial") -> FigureReproduction:
    """Figure 9: the per-step values computed by each process of the case study.

    The paper's Figure 9 shows, for the network of Figure 8, the pattern of
    operations generated by each process at the k-th iteration.  The
    reproduction records every per-round estimate written by the distributed
    run and checks the invariants the figure illustrates: each node's estimate
    is always the cost of an actual path (never below the true shortest
    distance), estimates never increase from one round to the next, and after
    at most N rounds they coincide with the centralised fixed point.
    """
    from ..apps.bellman_ford import run_distributed_bellman_ford
    from ..apps.reference import bellman_ford as reference_bf

    graph = figure8_network()
    run = run_distributed_bellman_ford(graph, source=1, protocol=protocol)
    true_distances = reference_bf(graph, source=1)
    monotone = True
    valid_upper_bounds = True
    for node, entries in sorted(run.trace.items()):
        previous = float("inf")
        for _, estimate in entries:
            if estimate > previous + 1e-9:
                monotone = False
            previous = estimate
            if estimate < true_distances[node] - 1e-9:
                valid_upper_bounds = False
    final_match = run.correct
    measured = {
        "rounds": run.rounds,
        "estimates_monotonically_improve": monotone,
        "estimates_are_valid_path_costs": valid_upper_bounds,
        "final_distances_match": final_match,
    }
    return FigureReproduction(
        figure_id="figure9",
        title="Per-step protocol trace of the Bellman-Ford run",
        paper_claim="at each step every process reads its predecessors' round-(k-1) values and updates x_i accordingly, converging in at most N steps",
        measured=measured,
        matches=monotone and valid_upper_bounds and final_match,
        notes=["Per-round rows available via analysis.figures.figure9_rows()"],
    )


def figure9_rows(protocol: str = "pram_partial") -> List[Dict[str, Any]]:
    """The full per-node, per-round table behind :func:`figure9_step_trace`."""
    from ..apps.bellman_ford import run_distributed_bellman_ford
    from ..apps.reference import bellman_ford_steps

    graph = figure8_network()
    run = run_distributed_bellman_ford(graph, source=1, protocol=protocol)
    reference_steps = bellman_ford_steps(graph, source=1)
    rows: List[Dict[str, Any]] = []
    for node, entries in sorted(run.trace.items()):
        for round_id, estimate in entries:
            rows.append({
                "node": node,
                "round": round_id,
                "distributed_estimate": estimate,
                "centralised_estimate": reference_steps[min(round_id, len(reference_steps) - 1)][node],
            })
    return rows


def all_reproductions() -> List[FigureReproduction]:
    """Run every figure/theorem reproduction and return the results."""
    return [
        figure1_share_graph(),
        figure2_hoop(),
        figure3_dependency_chain(),
        figure4_verdicts(),
        figure5_verdicts(),
        figure6_verdicts(),
        theorem1_reproduction(),
        theorem2_reproduction(),
        figure7_8_9_bellman_ford(),
        figure9_step_trace(),
    ]


def reproduction_table() -> str:
    """Plain-text summary table of every reproduction."""
    return render_table([r.as_row() for r in all_reproductions()],
                        columns=["id", "title", "paper", "measured", "match"],
                        title="Paper reproduction summary")
