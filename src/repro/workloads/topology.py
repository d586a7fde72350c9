"""Network topologies for the Bellman-Ford case study (paper, Section 6).

The paper models a packet-switching network as a directed graph ``G(V, Γ)``
whose vertices are switching nodes and whose edge pairs are the two directions
of each communication link; routing is the problem of finding least-cost
paths.  :class:`WeightedDigraph` is the small graph structure used by the
distributed and reference shortest-path algorithms, plus generators for the
paper's example network (Figure 8) and for random connected networks used by
the scaled-up benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..spec.registry import register_topology

INFINITY = float("inf")


class WeightedDigraph:
    """A directed graph with non-negative edge weights.

    ``w(i, i) = 0`` and ``w(i, j) = ∞`` for absent edges, following the
    paper's conventions.
    """

    def __init__(self) -> None:
        self._nodes: Set[int] = set()
        self._weights: Dict[Tuple[int, int], float] = {}
        self._succ: Dict[int, Set[int]] = {}
        self._pred: Dict[int, Set[int]] = {}

    # -- construction -----------------------------------------------------------
    def add_node(self, node: int) -> None:
        """Add an isolated node."""
        self._nodes.add(node)
        self._succ.setdefault(node, set())
        self._pred.setdefault(node, set())

    def add_edge(self, src: int, dst: int, weight: float, symmetric: bool = False) -> None:
        """Add the directed edge ``src -> dst`` (and the reverse when ``symmetric``)."""
        if weight < 0:
            raise ValueError("edge weights must be non-negative")
        if src == dst:
            raise ValueError("self loops are implicit (w(i, i) = 0)")
        self.add_node(src)
        self.add_node(dst)
        self._weights[(src, dst)] = float(weight)
        self._succ[src].add(dst)
        self._pred[dst].add(src)
        if symmetric:
            self.add_edge(dst, src, weight, symmetric=False)

    def add_link(self, a: int, b: int, weight: float) -> None:
        """Add a bidirectional communication link (two parallel directed edges)."""
        self.add_edge(a, b, weight, symmetric=True)

    # -- queries ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[int, ...]:
        """Sorted node identifiers."""
        return tuple(sorted(self._nodes))

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def edges(self) -> Iterator[Tuple[int, int, float]]:
        """Iterate directed edges as ``(src, dst, weight)``."""
        for (src, dst), weight in sorted(self._weights.items()):
            yield src, dst, weight

    @property
    def edge_count(self) -> int:
        return len(self._weights)

    def weight(self, src: int, dst: int) -> float:
        """``w(src, dst)``: 0 on the diagonal, ``∞`` for absent edges."""
        if src == dst:
            return 0.0
        return self._weights.get((src, dst), INFINITY)

    def predecessors(self, node: int) -> FrozenSet[int]:
        """``Γ^{-1}(node)``: processes with an edge into ``node``."""
        return frozenset(self._pred.get(node, set()))

    def successors(self, node: int) -> FrozenSet[int]:
        """Processes ``node`` has an edge to."""
        return frozenset(self._succ.get(node, set()))

    def is_connected_from(self, source: int) -> bool:
        """``True`` iff every node is reachable from ``source``."""
        seen = {source}
        frontier = [source]
        while frontier:
            cur = frontier.pop()
            for nxt in self._succ.get(cur, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return seen == self._nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<WeightedDigraph |V|={self.node_count} |E|={self.edge_count}>"


@register_topology("figure8", description="the paper's Figure 8 example network")
def figure8_network() -> WeightedDigraph:
    """The 5-node example network of the paper's Figure 8 (reconstructed).

    The edge set is fully determined by the variable distribution given in
    Section 6: ``X_i`` contains ``x_h, k_h`` exactly for ``h = i`` or
    ``h ∈ Γ^{-1}(i)``, so ``Γ^{-1}(1) = ∅``, ``Γ^{-1}(2) = {1, 3}``,
    ``Γ^{-1}(3) = {1, 2}``, ``Γ^{-1}(4) = {2, 3}`` and ``Γ^{-1}(5) = {3, 4}``
    — eight directed edges, matching the eight weight labels of the scanned
    figure.  The labels themselves are hard to attribute to individual edges
    on the scan, so a representative assignment with the same multiset
    (4, 1, 1, 2, 8, 2, 3, 3) is used; the reproduction validates the
    distributed run against the reference algorithms on the same graph, so the
    exact weight placement does not affect the outcome of the experiment.
    """
    graph = WeightedDigraph()
    edges = [
        (1, 2, 4.0),
        (1, 3, 1.0),
        (2, 3, 1.0),
        (3, 2, 2.0),
        (2, 4, 8.0),
        (3, 4, 2.0),
        (3, 5, 3.0),
        (4, 5, 3.0),
    ]
    for src, dst, weight in edges:
        graph.add_edge(src, dst, weight)
    return graph


@register_topology("random",
                   params=("nodes", "extra_edges", "seed", "max_weight", "symmetric"),
                   description="random connected network with extra links")
def random_network(
    nodes: int,
    extra_edges: int = 0,
    seed: int = 0,
    max_weight: float = 10.0,
    symmetric: bool = True,
) -> WeightedDigraph:
    """A random connected weighted network.

    A random spanning tree guarantees connectivity; ``extra_edges`` additional
    random links are then added.  Deterministic for a given ``seed``.
    """
    if nodes < 1:
        raise ValueError("need at least one node")
    rng = random.Random(seed)
    graph = WeightedDigraph()
    ids = list(range(1, nodes + 1))
    graph.add_node(ids[0])
    for idx in range(1, nodes):
        attach = rng.choice(ids[:idx])
        weight = round(rng.uniform(1.0, max_weight), 1)
        if symmetric:
            graph.add_link(ids[idx], attach, weight)
        else:
            graph.add_edge(attach, ids[idx], weight)
    added = 0
    attempts = 0
    while added < extra_edges and attempts < 20 * (extra_edges + 1):
        attempts += 1
        a, b = rng.sample(ids, 2)
        if graph.weight(a, b) != INFINITY:
            continue
        weight = round(rng.uniform(1.0, max_weight), 1)
        if symmetric:
            graph.add_link(a, b, weight)
        else:
            graph.add_edge(a, b, weight)
        added += 1
    return graph


@register_topology("line", params=("nodes", "weight"),
                   description="a path network (the worst-case hoop chain)")
def line_network(nodes: int, weight: float = 1.0) -> WeightedDigraph:
    """A simple line (path) network, useful for worst-case hoop scenarios."""
    graph = WeightedDigraph()
    for idx in range(1, nodes):
        graph.add_link(idx, idx + 1, weight)
    if nodes == 1:
        graph.add_node(1)
    return graph


@register_topology("ring", params=("nodes", "weight"),
                   description="a directed ring (a line below three nodes)")
def ring_network(nodes: int, weight: float = 1.0) -> WeightedDigraph:
    """A ring network (degenerates to a line for fewer than three nodes)."""
    if nodes < 3:
        return line_network(nodes, weight)
    graph = WeightedDigraph()
    for idx in range(1, nodes + 1):
        graph.add_link(idx, idx % nodes + 1, weight)
    return graph


@register_topology("star", params=("nodes", "weight"),
                   description="a hub-and-leaves star (maximally skewed "
                               "replication degree under neighbourhood)")
def star_network(nodes: int, weight: float = 1.0) -> WeightedDigraph:
    """A star network: node 1 is the hub, every other node a leaf.

    Under neighbourhood replication the hub's variable is replicated at every
    leaf (one large clique) while each leaf's variable stays pairwise with
    the hub — a maximally skewed replication degree.
    """
    if nodes < 1:
        raise ValueError("need at least one node")
    graph = WeightedDigraph()
    graph.add_node(1)
    for leaf in range(2, nodes + 1):
        graph.add_link(1, leaf, weight)
    return graph
