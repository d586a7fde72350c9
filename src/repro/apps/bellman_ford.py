"""Distributed Bellman-Ford on a partially replicated PRAM memory (paper, §6).

The paper's case study: every network node runs an application process that
cooperates with the others through the shared variables

* ``x_i`` — current least-cost estimate from the source to node ``i``,
* ``k_i`` — the node's iteration counter (the synchronisation variable),

with ``ap_i`` accessing only ``x_h, k_h`` for ``h = i`` or ``h`` a predecessor
of ``i`` — a genuinely partial distribution.  Because every variable has a
single writer, PRAM consistency (all processes see each writer's writes in
program order) is sufficient for both safety and liveness of the barrier at
line 6 of Figure 7, which is exactly the paper's argument for the usefulness
of the PRAM + partial replication combination.

The module provides the variable distribution builder, the per-process program
implementing Figure 7, and the registered ``bellman_ford`` application factory
(``@register_app``, runnable from any :class:`~repro.spec.ScenarioSpec` over
any network model).  Run an instance with ``Session(app=instance)``: the
report carries the computed distances (``app_results``) and the reference
ones (``app_expected``), and ``instance.details["trace"]`` the per-step
estimates used to reproduce Figure 9.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.distribution import VariableDistribution
from ..core.operations import BOTTOM
from ..dsm.app import AppInstance, AppVerdict
from ..dsm.program import ProcessContext, ProgramFn
from ..spec.registry import TOPOLOGY_REGISTRY, register_app
from ..workloads.topology import INFINITY, WeightedDigraph
from .reference import bellman_ford as reference_bellman_ford


def distance_variable(node: int) -> str:
    """Name of the shared distance variable ``x_node``."""
    return f"x{node}"


def round_variable(node: int) -> str:
    """Name of the shared iteration counter ``k_node``."""
    return f"k{node}"


def bellman_ford_distribution(graph: WeightedDigraph) -> VariableDistribution:
    """The paper's variable distribution: ``X_i = {x_h, k_h | h = i or h ∈ Γ^{-1}(i)}``."""
    per_process: Dict[int, set] = {}
    for node in graph.nodes:
        variables = {distance_variable(node), round_variable(node)}
        for pred in graph.predecessors(node):
            variables.add(distance_variable(pred))
            variables.add(round_variable(pred))
        per_process[node] = variables
    return VariableDistribution(per_process)


def _as_round(value: Any) -> int:
    """Interpret a possibly uninitialised round counter (``⊥`` counts as -1)."""
    return -1 if value is BOTTOM else int(value)


def _as_distance(value: Any) -> float:
    """Interpret a possibly uninitialised distance (``⊥`` counts as ``∞``)."""
    return INFINITY if value is BOTTOM else float(value)


def minimum_path_program(
    node: int,
    graph: WeightedDigraph,
    source: int,
    rounds: Optional[int] = None,
    trace: Optional[Dict[int, List[Tuple[int, float]]]] = None,
) -> ProgramFn:
    """The program of Figure 7 for one node, as a DSM application program.

    Parameters
    ----------
    rounds:
        Number of iterations ``N`` (defaults to the number of nodes, the
        paper's convergence bound).
    trace:
        Optional dict filled with ``node -> [(k, x_value), ...]`` — the
        per-step values used to reproduce Figure 9.
    """
    n_rounds = graph.node_count if rounds is None else rounds
    predecessors = sorted(graph.predecessors(node))

    def program(ctx: ProcessContext):
        # Figure 7, lines 1-4.
        ctx.write(round_variable(node), 0)
        ctx.write(distance_variable(node), 0.0 if node == source else INFINITY)
        k_i = 0
        while k_i < n_rounds:  # line 5
            # Line 6: barrier — wait until every predecessor reached round k_i.
            while any(
                _as_round(ctx.read(round_variable(h))) < k_i for h in predecessors
            ):
                yield
            # Line 7: relaxation over the predecessors (w(i, i) = 0 keeps the
            # current estimate, matching the paper's least-cost recurrence).
            candidates = [_as_distance(ctx.read(distance_variable(node)))]
            if node == source:
                candidates = [0.0]
            else:
                for pred in predecessors:
                    x_pred = _as_distance(ctx.read(distance_variable(pred)))
                    candidates.append(x_pred + graph.weight(pred, node))
            new_estimate = min(candidates)
            ctx.write(distance_variable(node), new_estimate)
            # Line 8: advance the iteration counter.
            k_i += 1
            ctx.write(round_variable(node), k_i)
            if trace is not None:
                trace.setdefault(node, []).append((k_i, new_estimate))
            yield
        return ctx.read(distance_variable(node))

    return program


def _distances_match(got: float, want: float) -> bool:
    return abs(got - want) < 1e-9 or (got == INFINITY and want == INFINITY)


def bellman_ford_instance(
    graph: WeightedDigraph,
    source: int = 1,
    rounds: Optional[int] = None,
) -> AppInstance:
    """The distributed Bellman-Ford app over a concrete graph.

    Builds the paper's partial variable distribution, one Figure 7 program
    per node, and a validator comparing the computed distances with the
    centralised :func:`repro.apps.reference.bellman_ford` ground truth.
    """
    if source not in graph.nodes:
        raise ValueError(f"source {source} is not a node of the graph")
    distribution = bellman_ford_distribution(graph)
    trace: Dict[int, List[Tuple[int, float]]] = {}
    programs = {
        node: minimum_path_program(node, graph, source, rounds=rounds, trace=trace)
        for node in graph.nodes
    }
    expected = reference_bellman_ford(graph, source)

    def validate(results: Dict[int, Any]) -> AppVerdict:
        missing = sorted(set(graph.nodes) - set(results))
        if missing:
            return AppVerdict(
                correct=False, expected=expected, actual=dict(results),
                diagnosis=f"nodes {missing} returned no distance",
            )
        distances = {node: float(value) for node, value in results.items()}
        wrong = sorted(
            node for node in graph.nodes
            if not _distances_match(distances[node], expected[node])
        )
        if wrong:
            return AppVerdict(
                correct=False, expected=expected, actual=distances,
                diagnosis="distances diverge from the reference at nodes "
                          + ", ".join(f"{n} (got {distances[n]}, want "
                                      f"{expected[n]})" for n in wrong),
            )
        return AppVerdict(correct=True, expected=expected, actual=distances)

    return AppInstance(
        name="bellman_ford",
        distribution=distribution,
        programs=programs,
        validate=validate,
        details={"graph": graph, "source": source, "trace": trace},
    )


@register_app(
    "bellman_ford",
    params=("topology", "source", "rounds"),
    dynamic_params=True,  # the chosen topology validates its own parameters
    blocking_ok=False,
    variables_per_process="2·(1 + indegree): x_h, k_h for h = i or h ∈ Γ⁻¹(i)",
    description="the paper's Section 6 case study: Figure 7 least-cost "
                "routing over a partially replicated PRAM memory",
)
def bellman_ford_app(
    topology: str = "figure8",
    source: int = 1,
    rounds: Optional[int] = None,
    seed: int = 0,
    **topology_params: Any,
) -> AppInstance:
    """Registered app factory: Bellman-Ford over a named topology.

    Remaining keyword parameters reach the topology builder (the flat
    convention the ``neighbourhood`` distribution family also uses); seeded
    topologies (``random``) default their seed to the scenario seed, so one
    integer reproduces graph, run and fault schedule.
    """
    component = TOPOLOGY_REGISTRY.get(topology)
    params = dict(topology_params)
    if "seed" in component.params:
        params.setdefault("seed", seed)
    graph = component.create(**params)
    return bellman_ford_instance(graph, source=source, rounds=rounds)
