"""The ledger of paper claims: every result of the paper as one judged entry.

A :class:`Claim` states one thing the paper says — a figure's structure, a
theorem, a measured contrast of Section 3.3, a property of the Section 6 case
study — together with the function that *measures* it on this library and the
:class:`Expected` value or bound the measurement is judged against.
:func:`claims` is the one list of them; :func:`all_reproductions` evaluates
it stage by stage (``definitions`` → ``theorems`` → ``section3.3`` →
``section6``) and, once a stage has a failing claim, reports every claim of
the later stages as ``skipped``: a broken share graph makes the byte counts
built on it meaningless, not wrong.  ``python -m repro reproduce`` prints the
result; the claims table of EXPERIMENTS.md is :func:`claims_markdown` of it.

Structural claims measure the library's objects directly.  Claims about a
protocol run read the :class:`~repro.experiments.ScenarioRecord` fields of
registered scenarios (named in the claim's statement) through
:func:`~repro.experiments.run_suite`, or run one :class:`repro.api.Session`
where the claim needs the recorded history or one script on two placements.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Sequence, Tuple

from ..core.consistency import get_checker
from ..core.dependency import find_dependency_chains
from ..core.distribution import VariableDistribution
from ..core.history import History, HistoryBuilder
from ..core.operations import BOTTOM
from ..core.relevance import verify_theorem1, verify_theorem2, witness_history
from ..core.share_graph import ShareGraph
from ..workloads.distributions import chain_distribution, disjoint_blocks, random_distribution
from ..workloads.topology import figure8_network, random_network
from .relevance_study import relevance_sweep
from .report import _fmt, markdown_table, render_records

if TYPE_CHECKING:
    from ..experiments import ScenarioRecord

#: Evaluation order; a failed stage skips every later one.
STAGES = ("definitions", "theorems", "section3.3", "section6")


@dataclass(frozen=True)
class Expected:
    """What a measurement is judged against; ``text`` is printed beside it."""

    text: str
    holds: Callable[[Any], bool]


def exactly(value: Any) -> Expected:
    """The measurement must equal ``value``."""
    return Expected(f"= {_show(value)}", lambda measured: measured == value)


@dataclass(frozen=True)
class Claim:
    """One ledger entry: what the paper says and how it is measured here."""

    id: str
    section: str
    stage: str
    statement: str
    measure: Callable[[], Any]
    expected: Expected


@dataclass(frozen=True)
class Reproduction:
    """One evaluated claim; ``status`` is ``pass``, ``FAIL`` or ``skipped``."""

    claim: Claim
    status: str
    measured: Any = None

    def as_row(self) -> Dict[str, str]:
        """Flat row for the table renderers."""
        return {
            "stage": self.claim.stage,
            "id": self.claim.id,
            "section": self.claim.section,
            "claim": self.claim.statement,
            "measured": "-" if self.status == "skipped" else _show(self.measured),
            "expected": self.claim.expected.text,
            "status": self.status,
        }


def _show(value: Any) -> str:
    """Like the table renderers' cell format, but keeps the order of a series."""
    if isinstance(value, dict):
        return "; ".join(f"{key}={_show(item)}" for key, item in value.items())
    if isinstance(value, (tuple, list)):
        return "[" + ", ".join(_show(item) for item in value) + "]"
    return _fmt(value)


@functools.lru_cache(maxsize=None)
def _records(scenario: str) -> Tuple[ScenarioRecord, ...]:
    """The records of one registered scenario, executed once per process."""
    # imported here: `repro.analysis.report` serves every CLI table, and must
    # not load the scenario registry (and the hunted corpus) to do so
    from ..experiments import REGISTRY, run_suite

    return tuple(run_suite([REGISTRY.get(scenario)]).records)


def _of(scenario: str, protocol: str) -> List[ScenarioRecord]:
    return [r for r in _records(scenario) if r.protocol == protocol]


def _per_message(records: Sequence[ScenarioRecord]) -> List[float]:
    return [round(r.control_bytes_per_message, 1) for r in records]


def _growing(series: Sequence[float]) -> bool:
    return all(a < b for a, b in zip(series, series[1:]))


def _flat(series: Sequence[float]) -> bool:
    """Within 8 B: one more integer field per message would break it."""
    return max(series) - min(series) < 8


# ---------------------------------------------------------------------------
# Stage "definitions": share graph, hoop, dependency chain, Figures 4-6
# ---------------------------------------------------------------------------

def figure1_distribution() -> VariableDistribution:
    """The 3-process / 2-variable distribution of Figure 1.

    ``X_i = {x1, x2}``, ``X_j = {x1}``, ``X_k = {x2}`` with process ids
    ``i = 1``, ``j = 2``, ``k = 3``.
    """
    return VariableDistribution({1: {"x1", "x2"}, 2: {"x1"}, 3: {"x2"}})


def _figure1_share_graph() -> Dict[str, Any]:
    share = ShareGraph.of(figure1_distribution())
    return {
        "C(x1)": tuple(sorted(share.clique("x1"))),
        "C(x2)": tuple(sorted(share.clique("x2"))),
        "edges": tuple(sorted((a, b) for a, b, _ in share.graph.edges())),
        "label(1,2)": tuple(sorted(share.edge_label(1, 2))),
        "label(1,3)": tuple(sorted(share.edge_label(1, 3))),
    }


def figure2_distribution(intermediates: int = 3) -> VariableDistribution:
    """A hoop-shaped distribution generalising Figure 2 (chain of relays)."""
    return chain_distribution(intermediates, studied_variable="x")


def _longest_hoop(distribution: VariableDistribution):
    share = ShareGraph.of(distribution)
    return share, max(share.hoops("x"), key=lambda hoop: hoop.length)


def _figure2_hoop() -> Dict[str, Any]:
    share, hoop = _longest_hoop(figure2_distribution())
    return {
        "C(x)": tuple(sorted(share.clique("x"))),
        "hoop": tuple(hoop.path),
        "intermediates outside C(x)": all(
            p not in share.clique("x") for p in hoop.intermediates),
    }


def _figure3_dependency_chain() -> Dict[str, Any]:
    distribution = figure2_distribution()
    _, hoop = _longest_hoop(distribution)
    chains = find_dependency_chains(witness_history(hoop), distribution,
                                    criterion="causal", variable="x",
                                    external_only=True)
    chain = chains[0]
    return {
        "initial": chain.initial.label(),
        "final": chain.final.label(),
        "external processes": tuple(chain.external_processes),
        "all hoop intermediates": set(chain.external_processes) == set(hoop.intermediates),
    }


def figure4_history() -> History:
    """The history of Figure 4 (lazy causal but not causal)."""
    b = HistoryBuilder()
    b.write(1, "x", "a").read(1, "x", "a").write(1, "y", "b")
    b.read(2, "y", "b").write(2, "y", "c")
    b.read(3, "y", "c").read(3, "x", BOTTOM)
    return b.build()


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


def figure6_history(strict: bool = False) -> History:
    """The history of Figure 6 (lazy writes-before chain).

    With ``strict=False`` the history is exactly the one printed in the paper
    (p2 performs ``r2(y)b, w2(y)e, w2(z)c``).  Under the *printed* Definition 5
    the two writes of p2 on different variables are not related by the lazy
    program order, so the chain the paper describes needs the extra lazy
    program-order edge drawn in the figure; ``strict=True`` inserts the read
    ``r2(y)e`` between them, which makes that edge derivable from the printed
    definitions and yields the verdict the paper states.  The ledger measures
    both variants.
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


def _verdict(criterion: str, history: History) -> bool:
    return get_checker(criterion).check(history).consistent


def _chain_through(history: History, distribution: VariableDistribution,
                   criterion: str) -> Tuple[int, ...]:
    chains = find_dependency_chains(history, distribution, criterion=criterion,
                                    variable="x", external_only=True)
    return tuple(sorted({p for chain in chains for p in chain.external_processes}))


def _figure4_verdicts() -> Dict[str, Any]:
    history = figure4_history()
    return {"causal": _verdict("causal", history),
            "lazy_causal": _verdict("lazy_causal", history)}


def _figure5_verdicts() -> Dict[str, Any]:
    history = figure5_history()
    return {
        "causal": _verdict("causal", history),
        "lazy_causal": _verdict("lazy_causal", history),
        "x-chain through": _chain_through(history, figure5_distribution(), "lazy_causal"),
    }


def _figure6_verdicts() -> Dict[str, Any]:
    strict = figure6_history(strict=True)
    return {
        "lazy_semi_causal (strict)": _verdict("lazy_semi_causal", strict),
        "lazy_semi_causal (verbatim)": _verdict("lazy_semi_causal", figure6_history()),
        "x-chain through": _chain_through(strict, figure6_distribution(), "lazy_semi_causal"),
    }


def _hoop_extremes() -> Dict[str, int]:
    chain = ShareGraph.of(chain_distribution(30, studied_variable="x"))
    blocks = ShareGraph.of(disjoint_blocks(groups=2, group_size=4, variables_per_group=2))
    return {
        "30-relay chain": len(chain.hoop_processes("x")),
        "disjoint blocks": sum(len(blocks.hoop_processes(v)) for v in blocks.variables),
    }


# ---------------------------------------------------------------------------
# Stage "theorems": Theorem 1 (x-relevant = C(x) + x-hoops), Theorem 2 (PRAM)
# ---------------------------------------------------------------------------

def _theorem1_paper() -> Dict[str, Any]:
    reports = [verify_theorem1(figure2_distribution(), "x"),
               verify_theorem1(figure1_distribution(), "x1")]
    measured: Dict[str, Any] = {
        f"relevant({r.variable})": r.characterised_relevant for r in reports}
    measured["witnessed"] = all(r.holds for r in reports)
    return measured


def _theorem1_random() -> Tuple[bool, ...]:
    holds = []
    for seed in range(3):
        distribution = random_distribution(processes=6, variables=6,
                                           replicas_per_variable=2, seed=seed)
        holds.append(verify_theorem1(distribution, distribution.variables[0]).holds)
    return tuple(holds)


def _theorem1_scale() -> Dict[str, int]:
    distribution = random_distribution(processes=20, variables=40,
                                       replicas_per_variable=3, seed=7)
    share = ShareGraph.of(distribution)
    relevant = {var: share.relevant_processes(var) for var in share.variables}
    return {
        "variables": len(relevant),
        "relevant sets containing C(x)": sum(
            distribution.holders(var) <= procs for var, procs in relevant.items()),
    }


def _relevance_sweep() -> Dict[str, float]:
    point = relevance_sweep(process_counts=(4, 6, 8), samples=3)[-1]
    return {"n": point.processes,
            "relevant fraction": point.avg_relevance_fraction,
            "variables with hoops": point.variables_with_hoops_fraction}


def _hoop_control_growth() -> Dict[str, Any]:
    causal = _of("theorem1-hoop-traffic", "causal_partial")
    pram = _of("theorem1-hoop-traffic", "pram_partial")
    return {
        "hoop length": [r.params["intermediates"] for r in causal],
        "causal_partial B/msg": _per_message(causal),
        "pram_partial B/msg": _per_message(pram),
        "pram_partial irrelevant": sum(r.irrelevant_messages for r in pram),
    }


def _hoopfree_runs() -> Dict[str, int]:
    measured = {}
    for protocol in ("pram_partial", "causal_partial", "causal_full"):
        runs = _of("hoopfree-blocks", protocol)
        measured[f"{protocol} irrelevant"] = sum(r.irrelevant_messages for r in runs)
        measured[f"{protocol} beyond Thm 1"] = sum(r.relevance_violations for r in runs)
    return measured


def _theorem2_chains() -> Dict[str, int]:
    from ..api import Session

    distribution = figure2_distribution()
    report = Session("pram_partial", distribution,
                     ("single_writer", {"writes_per_variable": 4,
                                        "reads_per_replica": 4}),
                     check=False).run()
    chains = verify_theorem2(report.history, distribution, read_from=report.read_from)
    return {"external chains": chains.external_chains,
            "internal chains": chains.internal_chains,
            "processes contacted outside C(x)": report.relevance_violations}


def _theorem2_confinement() -> Dict[str, int]:
    runs = _records("theorem2-pram-confinement")
    return {"runs": len(runs),
            "pram-consistent": sum(r.consistent is True and r.exact for r in runs),
            "irrelevant": sum(r.irrelevant_messages for r in runs),
            "beyond Thm 1": sum(r.relevance_violations for r in runs)}


# ---------------------------------------------------------------------------
# Stage "section3.3": the control-information comparison
# ---------------------------------------------------------------------------

def _section33(field: str) -> Dict[str, Any]:
    return {r.protocol: getattr(r, field) for r in _records("section33-overhead")}


def _pram_contacts_no_nonreplica() -> Dict[str, int]:
    irrelevant, beyond = _section33("irrelevant_messages"), _section33("relevance_violations")
    return {"pram_partial irrelevant": irrelevant["pram_partial"],
            "pram_partial beyond Thm 1": beyond["pram_partial"],
            "causal_full irrelevant": irrelevant["causal_full"]}


def _control_per_protocol() -> Dict[str, Tuple[float, int]]:
    return {r.protocol: (round(r.control_bytes_per_message, 1), r.control_bytes)
            for r in _records("section33-overhead")}


def _causal_costs_more(measured: Dict[str, Tuple[float, int]]) -> bool:
    per_message, total = measured["pram_partial"]
    return (measured["causal_partial"][0] > per_message
            and measured["causal_full"][0] > per_message
            and all(control >= total for _, control in measured.values()))


def _control_growth() -> Dict[str, List[float]]:
    return {
        "causal_full B/msg at 10/20/40": _per_message(
            _of("efficiency-full-baseline", "causal_full")),
        "pram_partial B/msg at 20/50/100": _per_message(
            _of("efficiency-placed-scale", "pram_partial")),
    }


def _messages_partial_vs_full() -> Dict[str, Tuple[int, int]]:
    scenario = "efficiency-replication-degree"
    return {
        f"degree {partial.params['replicas_per_variable']} of {partial.processes}":
            (partial.messages, full.messages)
        for partial, full in zip(_of(scenario, "pram_partial"), _of(scenario, "causal_full"))
    }


def _headline_100p() -> Dict[str, Any]:
    """One Zipf script on the optimised partial placement and on full replication.

    The script is generated against the accessor-minimal distribution, so it
    is valid on every placement.
    """
    from ..place import measure_overhead, optimize_placement, synthetic_profile
    from ..workloads.access_patterns import zipfian_access_script

    processes, variables = 100, 60
    profile = synthetic_profile(processes, variables, accessors_per_variable=3, seed=7)
    placement = optimize_placement(profile, "control", seed=3, budget=25)
    script = zipfian_access_script(profile.minimal_distribution(),
                                   operations_per_process=2,
                                   write_fraction=0.5, skew=1.0, seed=5)
    full = VariableDistribution.full_replication(
        range(processes), [f"x{i}" for i in range(variables)])
    placed_run = measure_overhead(placement.distribution, "causal_tree", script, seed=5)
    full_run = measure_overhead(full, "causal_full", script, seed=5)
    return {
        "evaluations": placement.evaluations,
        "messages": (int(placed_run["messages"]), int(full_run["messages"])),
        "control B/msg": (round(placed_run["control_bytes_per_message"], 2),
                          round(full_run["control_bytes_per_message"], 2)),
        "both runs pass": placed_run["consistent"] == full_run["consistent"] == 1.0,
    }


# ---------------------------------------------------------------------------
# Stage "section6": the Bellman-Ford case study (Figures 7-9)
# ---------------------------------------------------------------------------

def _bellman_ford(graph=None, protocol: str = "pram_partial"
                  ) -> Tuple[Any, Dict[int, List[Tuple[int, float]]]]:
    """One unchecked Figure 7 run from node 1: its report and its per-round trace."""
    from ..api import Session
    from ..apps.bellman_ford import bellman_ford_instance

    instance = bellman_ford_instance(graph or figure8_network(), source=1)
    report = Session(protocol, app=instance, check=False).run()
    return report, instance.details["trace"]


def _figure8_routes() -> Dict[str, Any]:
    report, _ = _bellman_ford()
    pram = get_checker("pram").check(report.history, read_from=report.read_from)
    return {
        "distances": tuple(sorted(report.app_results.items())),
        "matches centralised Bellman-Ford": report.app_correct,
        "history is PRAM": pram.consistent,
        "irrelevant": report.efficiency.irrelevant_messages,
        "beyond Thm 1": report.relevance_violations,
    }


def _figure9_trace() -> Dict[str, Any]:
    """The per-round estimates behind Figure 9 and the invariants it shows.

    Each node's estimate is always the cost of an actual path (never below the
    true distance), never increases from one round to the next, and after at
    most N rounds coincides with the centralised fixed point.
    """
    report, trace = _bellman_ford()
    monotone = valid = True
    for node, entries in trace.items():
        previous = float("inf")
        for _, estimate in entries:
            monotone = monotone and estimate <= previous + 1e-9
            valid = valid and estimate >= report.app_expected[node] - 1e-9
            previous = estimate
    return {"rounds": max(len(entries) for entries in trace.values()),
            "estimates": sum(len(entries) for entries in trace.values()),
            "never increase": monotone,
            "never below the true distance": valid,
            "final = reference": report.app_correct}


def _random_network_routes() -> Dict[str, Any]:
    report, _ = _bellman_ford(random_network(nodes=10, extra_edges=8, seed=5))
    return {"matches centralised Bellman-Ford": report.app_correct,
            "irrelevant": report.efficiency.irrelevant_messages}


def _causal_full_costlier() -> Dict[str, Any]:
    (full, _), (pram, _) = _bellman_ford(protocol="causal_full"), _bellman_ford()
    return {
        "causal_full correct": full.app_correct,
        "irrelevant (causal_full, pram_partial)": (
            full.efficiency.irrelevant_messages,
            pram.efficiency.irrelevant_messages),
        "control B (causal_full, pram_partial)": (
            full.efficiency.control_bytes,
            pram.efficiency.control_bytes),
    }


def _costlier(measured: Dict[str, Any]) -> bool:
    irrelevant = measured["irrelevant (causal_full, pram_partial)"]
    control = measured["control B (causal_full, pram_partial)"]
    return (measured["causal_full correct"] and irrelevant[0] > 0 == irrelevant[1]
            and control[0] > control[1])


def _access_pattern() -> Dict[str, Any]:
    runs = _records("section6-bellman-ford")
    measured: Dict[str, Any] = {f"{r.protocol} consistent": r.consistent for r in runs}
    measured["pram_partial irrelevant"] = sum(
        r.irrelevant_messages for r in _of("section6-bellman-ford", "pram_partial"))
    return measured


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------

def claims() -> List[Claim]:
    """Every claim of the paper this repository reproduces, in stage order."""
    return [
        Claim("figure1-share-graph", "Section 3.1 / Figure 1", "definitions",
              "the share graph of three processes and two variables is the union "
              "of the cliques C(x1) = {p1, p2} and C(x2) = {p1, p3}",
              _figure1_share_graph,
              exactly({"C(x1)": (1, 2), "C(x2)": (1, 3), "edges": ((1, 2), (1, 3)),
                       "label(1,2)": ("x1",), "label(1,3)": ("x2",)})),
        Claim("figure2-hoop", "Section 3.1 / Figure 2", "definitions",
              "an x-hoop joins two processes of C(x) through processes outside "
              "C(x), every edge sharing a variable other than x",
              _figure2_hoop,
              exactly({"C(x)": (0, 4), "hoop": (0, 1, 2, 3, 4),
                       "intermediates outside C(x)": True})),
        Claim("figure3-dependency-chain", "Section 3.2 / Figure 3", "definitions",
              "the witness history w_a(x)v ... o_b(x) along a hoop relates its two "
              "operations on x through every intermediate of the hoop",
              _figure3_dependency_chain,
              exactly({"initial": "w0(x)'x@0'", "final": "r4(x)⊥",
                       "external processes": (1, 2, 3),
                       "all hoop intermediates": True})),
        Claim("figure4-history", "Section 4.1 / Figure 4", "definitions",
              "the Figure 4 history is lazy causal but not causal (r3(x)⊥ is "
              "allowed only under the lazy order)",
              _figure4_verdicts,
              exactly({"causal": False, "lazy_causal": True})),
        Claim("figure5-history", "Section 4.1 / Figure 5", "definitions",
              "the Figure 5 history is not lazy causal: the x-dependency chain "
              "along the hoop [p1, p2, p3] makes p2 x-relevant",
              _figure5_verdicts,
              exactly({"causal": False, "lazy_causal": False,
                       "x-chain through": (2,)})),
        Claim("figure6-history", "Section 4.2 / Figure 6", "definitions",
              "the Figure 6 history is not lazy semi-causal: the lwb chain along "
              "[p1, p2, p3] makes p2 x-relevant (the verbatim history needs the "
              "lazy program-order edge drawn in the figure; the strict variant "
              "derives it from the printed Definition 5)",
              _figure6_verdicts,
              Expected("lazy_semi_causal (strict)=False; x-chain through=[2]",
                       lambda m: m["lazy_semi_causal (strict)"] is False
                       and m["x-chain through"] == (2,))),
        Claim("hoop-extremes", "Section 3.1", "definitions",
              "a chain of 30 relays puts exactly its 30 relays on x-hoops; "
              "disjoint blocks put no process on any hoop",
              _hoop_extremes,
              exactly({"30-relay chain": 30, "disjoint blocks": 0})),

        Claim("theorem1-paper-distributions", "Theorem 1", "theorems",
              "a process is x-relevant iff it belongs to C(x) or to an x-hoop, "
              "witnessed constructively on the Figure 2 and Figure 1 distributions",
              _theorem1_paper,
              exactly({"relevant(x)": (0, 1, 2, 3, 4), "relevant(x1)": (1, 2),
                       "witnessed": True})),
        Claim("theorem1-random-distributions", "Theorem 1", "theorems",
              "the characterisation is witnessed on three random 6-process "
              "distributions (2 replicas per variable, seeds 0-2)",
              _theorem1_random, exactly((True, True, True))),
        Claim("theorem1-at-scale", "Theorem 1", "theorems",
              "on a random 20-process / 40-variable distribution every x-relevant "
              "set contains C(x)",
              _theorem1_scale,
              exactly({"variables": 40, "relevant sets containing C(x)": 40})),
        Claim("theorem1-relevance-sweep", "Theorem 1 / Section 3.3", "theorems",
              "without knowledge of the distribution any process is likely to "
              "lie on a hoop: with two replicas per variable on 8 processes, far "
              "more than C(x) is x-relevant and most variables have a hoop",
              _relevance_sweep,
              Expected("relevant fraction > 2.5/n; variables with hoops > 0.5",
                       lambda m: m["relevant fraction"] > 2.5 / m["n"]
                       and m["variables with hoops"] > 0.5)),
        Claim("theorem1-hoop-control", "Theorem 1", "theorems",
              "on `theorem1-hoop-traffic` the causal partial-replication "
              "protocol's control bytes per message grow with the hoop it must "
              "route x-information along; the PRAM protocol's stay flat",
              _hoop_control_growth,
              Expected("causal_partial B/msg growing; pram_partial spread < 8 B, "
                       "irrelevant = 0",
                       lambda m: _growing(m["causal_partial B/msg"])
                       and _flat(m["pram_partial B/msg"])
                       and m["pram_partial irrelevant"] == 0)),
        Claim("hoopfree-partial-is-efficient", "Section 3.1 / Theorem 1", "theorems",
              "on `hoopfree-blocks` (no hoop) both partial-replication protocols "
              "reach no process outside C(x); full replication does",
              _hoopfree_runs,
              Expected("partial protocols: 0 irrelevant, 0 beyond Thm 1; "
                       "causal_full: both > 0",
                       lambda m: all((count > 0) == key.startswith("causal_full")
                                     for key, count in m.items()))),
        Claim("theorem2-no-hoop-chains", "Theorem 2", "theorems",
              "a PRAM run over the Figure 2 hoop creates dependency chains "
              "inside C(x) only, and no process outside C(x) is contacted",
              _theorem2_chains,
              Expected("external chains = 0; internal chains > 0; "
                       "processes contacted outside C(x) = 0",
                       lambda m: m["external chains"] == 0 < m["internal chains"]
                       and m["processes contacted outside C(x)"] == 0)),
        Claim("theorem2-pram-confinement", "Theorem 2", "theorems",
              "on `theorem2-pram-confinement` (random distribution, three seeds) "
              "PRAM partial replication confines information about x to C(x)",
              _theorem2_confinement,
              exactly({"runs": 3, "pram-consistent": 3, "irrelevant": 0,
                       "beyond Thm 1": 0})),

        Claim("section33-pram-contacts-no-nonreplica", "Section 3.3", "section3.3",
              "on `section33-overhead` PRAM partial replication never sends a "
              "process a message about a variable it does not replicate; full "
              "replication does",
              _pram_contacts_no_nonreplica,
              Expected("pram_partial: 0 and 0; causal_full irrelevant > 0",
                       lambda m: m["pram_partial irrelevant"] == 0
                       == m["pram_partial beyond Thm 1"]
                       and m["causal_full irrelevant"] > 0)),
        Claim("section33-every-protocol-consistent", "Section 3.3", "section3.3",
              "on `section33-overhead` every protocol satisfies the criterion it "
              "claims, so the costs compared are costs of correct runs "
              "(consistent, exact check)",
              lambda: {r.protocol: (r.consistent, r.exact)
                       for r in _records("section33-overhead")},
              exactly(dict.fromkeys(("pram_partial", "causal_partial", "causal_full",
                                     "sequencer_sc"), (True, True)))),
        Claim("section33-causal-costs-more", "Section 3.3", "section3.3",
              "on the same script causal consistency needs more control "
              "information per message than PRAM whatever the replication "
              "scheme, and no protocol moves fewer control bytes than PRAM "
              "(control B/msg, control B)",
              _control_per_protocol,
              Expected("causal_partial, causal_full B/msg > pram_partial B/msg; "
                       "control B >= pram_partial's", _causal_costs_more)),
        Claim("section33-control-grows-with-n", "Section 3.3", "section3.3",
              "`efficiency-full-baseline`: vector-clock control per message grows "
              "with the process count; `efficiency-placed-scale`: the PRAM "
              "protocol's stays flat",
              _control_growth,
              Expected("causal_full growing; pram_partial spread < 8 B",
                       lambda m: _growing(m["causal_full B/msg at 10/20/40"])
                       and _flat(m["pram_partial B/msg at 20/50/100"]))),
        Claim("section33-partial-sends-fewer-messages", "Section 3.3", "section3.3",
              "`efficiency-replication-degree`: below full replication degree "
              "the partial PRAM protocol sends fewer messages than full "
              "broadcast on the same script (messages: pram_partial, causal_full)",
              _messages_partial_vs_full,
              Expected("degrees 2 and 4 of 6; pram_partial < causal_full at each",
                       lambda m: list(m) == ["degree 2 of 6", "degree 4 of 6"]
                       and all(partial < full for partial, full in m.values()))),
        Claim("section33-headline-100p", "Section 3.3", "section3.3",
              "at 100 processes / 60 variables the optimiser-placed `causal_tree` "
              "run moves far fewer control bytes per message than `causal_full` "
              "under full replication on the same script (placed, full)",
              _headline_100p,
              exactly({"evaluations": 25, "messages": (5647, 9702),
                       "control B/msg": (68.63, 1618.83), "both runs pass": True})),

        Claim("section6-figure8-routes", "Section 6 / Figures 7-8", "section6",
              "the Figure 7 programs compute the least-cost routes of the "
              "Figure 8 network over partially replicated PRAM memory",
              _figure8_routes,
              exactly({"distances": ((1, 0.0), (2, 3.0), (3, 1.0), (4, 3.0), (5, 4.0)),
                       "matches centralised Bellman-Ford": True, "history is PRAM": True,
                       "irrelevant": 0, "beyond Thm 1": 0})),
        Claim("section6-figure9-trace", "Section 6 / Figure 9", "section6",
              "at each step every process reads its predecessors' previous "
              "estimates and improves its own, converging in at most N steps",
              _figure9_trace,
              exactly({"rounds": 5, "estimates": 25, "never increase": True,
                       "never below the true distance": True,
                       "final = reference": True})),
        Claim("section6-random-network", "Section 6", "section6",
              "the same programs are correct on a random 10-node network and "
              "still contact replicas only",
              _random_network_routes,
              exactly({"matches centralised Bellman-Ford": True, "irrelevant": 0})),
        Claim("section6-causal-full-costlier", "Section 6", "section6",
              "the same programs on full-replication causal memory are correct "
              "but strictly costlier: broadcast updates reach processes that "
              "never access the variable",
              _causal_full_costlier,
              Expected("correct; irrelevant > 0 = pram_partial's; control B > "
                       "pram_partial's", _costlier)),
        Claim("section6-access-pattern", "Section 6", "section6",
              "on `section6-bellman-ford` (one writer per variable, neighbourhood "
              "replication) PRAM consistency suffices and costs no irrelevant message",
              _access_pattern,
              exactly({"pram_partial consistent": True,
                       "causal_partial consistent": True,
                       "pram_partial irrelevant": 0})),
    ]


def all_reproductions() -> List[Reproduction]:
    """Evaluate the ledger stage by stage; stages after a failed one are skipped.

    A ``measure`` that raises is that claim's ``FAIL`` (its measured value is
    the exception), not the end of the evaluation: a broken definition must
    still print the table with every later stage ``skipped``.
    """
    ledger = claims()
    results: List[Reproduction] = []
    failed = False
    for stage in STAGES:
        stage_failed = False
        for claim in (c for c in ledger if c.stage == stage):
            if failed:
                results.append(Reproduction(claim, "skipped"))
                continue
            try:
                measured = claim.measure()
                passed = claim.expected.holds(measured)
            except Exception as exc:
                measured, passed = repr(exc), False
            stage_failed = stage_failed or not passed
            results.append(Reproduction(claim, "pass" if passed else "FAIL", measured))
        failed = failed or stage_failed
    return results


def reproduction_table(results: Sequence[Reproduction]) -> str:
    """Plain-text table of an evaluated ledger (what ``repro reproduce`` prints)."""
    return render_records(results, title="Paper claims ledger")


def claims_markdown(results: Sequence[Reproduction]) -> str:
    """The generated claims block of EXPERIMENTS.md."""
    return markdown_table(
        [r.as_row() for r in results],
        columns=["stage", "id", "section", "claim", "expected", "measured", "status"])
