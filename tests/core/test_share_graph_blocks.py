"""Differential tests of the linear-time Theorem 1 pass.

:meth:`ShareGraph.hoop_processes` answers "which processes outside ``C(x)``
lie on an x-hoop" with one biconnected-component pass per variable.  It is
held against two independent references:

* ``max_disjoint_paths_to_clique`` below — a verbatim copy of the unit-capacity
  node-split max-flow the pass replaced (one flow network per candidate
  process), kept here only as the oracle;
* brute-force :meth:`ShareGraph.hoops` enumeration, where the graph is small
  enough to enumerate.

The scale case is pinned by count, not by time: the sums are the values the
max-flow produced (40 s at 200 processes).
"""

from typing import Dict, FrozenSet, Set, Tuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.distribution import VariableDistribution
from repro.core.share_graph import ShareGraph
from repro.place import synthetic_profile

SETTINGS = dict(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
#: hoop enumeration is exponential: only run it where it stays cheap
ENUMERATION_MAX_PROCESSES = 12
ENUMERATION_MAX_EDGES = 18


def max_disjoint_paths_to_clique(share: ShareGraph, process: int, variable: str,
                                 needed: int = 2) -> int:
    """Maximum number of vertex-disjoint paths (meeting only at ``process``)
    from ``process`` to *distinct* members of ``C(variable)``, with every
    intermediate vertex outside ``C(variable)`` and every edge sharing a
    variable other than ``variable`` (the deleted implementation).
    """
    clique = share.clique(variable)
    outside = set(share.processes) - clique

    def usable(a: int, b: int, labels: FrozenSet[str]) -> bool:
        return bool(labels - {variable})

    # Node-split flow network over: "in"/"out" copies of outside vertices,
    # source = (process, "out"), sink = "T"; each clique member contributes
    # a single capacity-1 arc to the sink so endpoints stay distinct.
    capacity: Dict[Tuple[object, object], int] = {}
    adjacency: Dict[object, Set[object]] = {}

    def add_arc(u: object, v: object, cap: int) -> None:
        capacity[(u, v)] = capacity.get((u, v), 0) + cap
        capacity.setdefault((v, u), 0)
        adjacency.setdefault(u, set()).add(v)
        adjacency.setdefault(v, set()).add(u)

    source = (process, "out")
    sink = "T"
    for v in outside:
        if v != process:
            add_arc((v, "in"), (v, "out"), 1)
    for member in clique:
        add_arc((member, "in"), sink, 1)
    for a, b, labels in share.graph.edges():
        if not usable(a, b, labels):
            continue
        for u, v in ((a, b), (b, a)):
            if u in clique:
                continue  # clique members cannot be traversed
            if v in clique:
                add_arc((u, "out"), (v, "in"), 1)
            elif v in outside:
                add_arc((u, "out"), (v, "in"), 1)

    flow = 0
    while flow < needed:
        # BFS for an augmenting path in the residual graph.
        parent: Dict[object, object] = {source: source}
        frontier = [source]
        while frontier and sink not in parent:
            nxt_frontier = []
            for u in frontier:
                for v in adjacency.get(u, ()):  # residual neighbours
                    if v in parent or capacity.get((u, v), 0) <= 0:
                        continue
                    parent[v] = u
                    if v == sink:
                        break
                    nxt_frontier.append(v)
                if sink in parent:
                    break
            frontier = nxt_frontier
        if sink not in parent:
            break
        node = sink
        while node != source:
            prev = parent[node]
            capacity[(prev, node)] -= 1
            capacity[(node, prev)] += 1
            node = prev
        flow += 1
    return flow


def max_flow_hoop_processes(share: ShareGraph, variable: str) -> FrozenSet[int]:
    return frozenset(
        p for p in share.processes
        if p not in share.clique(variable)
        and max_disjoint_paths_to_clique(share, p, variable) >= 2
    )


def enumerated_hoop_processes(share: ShareGraph, variable: str) -> FrozenSet[int]:
    on_hoop: Set[int] = set()
    for hoop in share.hoops(variable):
        on_hoop.update(hoop.intermediates)
    return frozenset(on_hoop)


def assert_pass_matches_references(distribution: VariableDistribution) -> None:
    share = ShareGraph(distribution)
    enumerable = (len(share.processes) <= ENUMERATION_MAX_PROCESSES
                  and share.graph.edge_count() <= ENUMERATION_MAX_EDGES)
    for variable in distribution.variables:
        hoop_processes = share.hoop_processes(variable)
        context = (distribution.describe(), variable)
        assert hoop_processes == max_flow_hoop_processes(share, variable), context
        if enumerable:
            assert hoop_processes == enumerated_hoop_processes(share, variable), context
        assert hoop_processes <= share.hoop_candidates(variable), context
        assert not hoop_processes & share.clique(variable), context
        for process in share.processes:
            assert share.is_on_hoop(process, variable) == (process in hoop_processes)


def chain(*links: Tuple[int, int], x: Tuple[int, ...], processes: int) -> VariableDistribution:
    """``x`` at the processes of ``x``; one private variable per link."""
    held: Dict[int, Set[str]] = {pid: set() for pid in range(processes)}
    for pid in x:
        held[pid].add("x")
    for index, (a, b) in enumerate(links):
        held[a].add(f"e{index}")
        held[b].add(f"e{index}")
    return VariableDistribution(held)


@st.composite
def arbitrary_holdings(draw) -> VariableDistribution:
    """Each process holds an arbitrary subset of a few variables: processes
    holding nothing, single-holder variables and dense overlaps all occur."""
    processes = draw(st.integers(1, 14))
    variables = [f"v{i}" for i in range(draw(st.integers(1, 6)))]
    return VariableDistribution({
        pid: draw(st.sets(st.sampled_from(variables), max_size=3))
        for pid in range(processes)
    })


@st.composite
def sparse_around_one_clique(draw) -> VariableDistribution:
    """``C(x)`` plus a sparse graph of private variables, one per link: chains
    through cut vertices, dead-end branches, members traversed by a detour,
    clique edges labelled only ``{x}``, a lone outside process."""
    members = draw(st.integers(1, 4))
    processes = members + draw(st.integers(0, 14 - members))
    pairs = st.tuples(st.integers(0, processes - 1), st.integers(0, processes - 1))
    links = draw(st.lists(pairs, max_size=processes + 3))  # a == b: a single-holder variable
    return chain(*links, x=tuple(range(members)), processes=processes)


@given(distribution=arbitrary_holdings())
@settings(**SETTINGS)
def test_block_pass_matches_max_flow_on_arbitrary_holdings(distribution):
    assert_pass_matches_references(distribution)


@given(distribution=sparse_around_one_clique())
@settings(**SETTINGS)
def test_block_pass_matches_max_flow_and_enumeration_on_sparse_graphs(distribution):
    assert_pass_matches_references(distribution)


@pytest.mark.parametrize("distribution, expected", [
    # exactly one outside process, attached to both members / to one member
    (chain((0, 2), (1, 2), x=(0, 1), processes=3), {2}),
    (chain((0, 2), x=(0, 1), processes=3), set()),
    # a chain 0 - 2 - 3 - 4 - 1 through cut vertices: all of it is one hoop
    (chain((0, 2), (2, 3), (3, 4), (4, 1), x=(0, 1), processes=5), {2, 3, 4}),
    # ... and a dead-end branch 3 - 5 - 6 hanging off it is not
    (chain((0, 2), (2, 3), (3, 4), (4, 1), (3, 5), (5, 6), x=(0, 1), processes=7),
     {2, 3, 4}),
    # a cycle 3 - 4 - 5 behind the cut vertex 2 reaches one member only
    (chain((0, 2), (2, 3), (3, 4), (4, 5), (5, 3), x=(0, 1), processes=6), set()),
    # two ways to the same member are not a hoop; a detour through it is none either
    (chain((0, 2), (0, 3), (2, 3), x=(0, 1), processes=4), set()),
    (chain((2, 0), (0, 3), (3, 1), x=(0, 1), processes=4), {3}),
    # members sharing only x (their edge is labelled {x}), nobody else connected
    (chain(x=(0, 1, 2), processes=5), set()),
    # a single holder has no hoop; neither has a variable everyone holds
    (chain((1, 2), (2, 3), (3, 1), x=(0,), processes=4), set()),
    (chain((0, 1), x=(0, 1, 2), processes=3), set()),
])
def test_named_shapes(distribution, expected):
    share = ShareGraph(distribution)
    assert share.hoop_processes("x") == frozenset(expected)
    assert_pass_matches_references(distribution)


@pytest.mark.parametrize("processes, variables, total", [
    (40, 24, 592),
    (100, 60, 4_305),
    (200, 120, 17_454),
])
def test_relevant_set_sizes_at_scale(processes, variables, total):
    distribution = synthetic_profile(
        processes, variables, accessors_per_variable=3, seed=3).minimal_distribution()
    share = ShareGraph(distribution)
    assert sum(len(share.relevant_processes(v)) for v in distribution.variables) == total
