"""Minimal undirected labelled graph used by the share-graph machinery.

The share graph (paper, Section 3.1) is an undirected graph whose vertices are
processes and whose edges are labelled with the set of variables the two
endpoint processes both replicate.  Hoop analysis requires label-aware
traversals ("follow only edges whose label contains a variable other than
``x``"), which is why this small dedicated structure is used instead of a
generic graph library: every operation needed by Theorem 1 is explicit and
auditable here.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

Vertex = Hashable


class LabelledGraph:
    """Undirected graph whose edges carry a set of labels."""

    def __init__(self) -> None:
        self._adj: Dict[Vertex, Dict[Vertex, Set[str]]] = {}

    # -- construction --------------------------------------------------------
    def add_vertex(self, vertex: Vertex) -> None:
        """Add ``vertex`` (no effect if already present)."""
        self._adj.setdefault(vertex, {})

    def add_edge(self, a: Vertex, b: Vertex, label: str) -> None:
        """Add ``label`` to the edge ``{a, b}`` (creating vertices/edge as needed)."""
        if a == b:
            return
        self.add_vertex(a)
        self.add_vertex(b)
        self._adj[a].setdefault(b, set()).add(label)
        self._adj[b].setdefault(a, set()).add(label)

    # -- queries --------------------------------------------------------------
    @property
    def vertices(self) -> Tuple[Vertex, ...]:
        """Every vertex of the graph (sorted by repr for determinism)."""
        return tuple(sorted(self._adj, key=repr))

    @property
    def adjacency(self) -> Mapping[Vertex, Mapping[Vertex, Set[str]]]:
        """Read-only view ``vertex -> {neighbour: labels}`` in insertion order:
        what the linear-time traversals walk (no sorting, no copies)."""
        return self._adj

    def has_vertex(self, vertex: Vertex) -> bool:
        return vertex in self._adj

    def has_edge(self, a: Vertex, b: Vertex) -> bool:
        return b in self._adj.get(a, {})

    def labels(self, a: Vertex, b: Vertex) -> FrozenSet[str]:
        """Labels of edge ``{a, b}`` (empty frozenset when absent)."""
        return frozenset(self._adj.get(a, {}).get(b, frozenset()))

    def neighbours(self, vertex: Vertex) -> Tuple[Vertex, ...]:
        """Neighbours of ``vertex``, sorted for determinism."""
        return tuple(sorted(self._adj.get(vertex, {}), key=repr))

    def edges(self) -> Iterator[Tuple[Vertex, Vertex, FrozenSet[str]]]:
        """Iterate over each undirected edge once with its labels."""
        seen: Set[FrozenSet[Vertex]] = set()
        for a in self.vertices:
            for b, labels in self._adj[a].items():
                key = frozenset((a, b))
                if key in seen:
                    continue
                seen.add(key)
                yield a, b, frozenset(labels)

    def edge_count(self) -> int:
        return sum(1 for _ in self.edges())

    def degree(self, vertex: Vertex) -> int:
        return len(self._adj.get(vertex, {}))

    # -- traversals ------------------------------------------------------------
    def connected_components(
        self,
        vertices: Optional[Iterable[Vertex]] = None,
        edge_filter=None,
    ) -> List[Set[Vertex]]:
        """Connected components of the sub-graph induced by ``vertices``.

        ``edge_filter(a, b, labels) -> bool`` restricts which edges may be
        traversed; by default all edges are usable.
        """
        allowed = set(self.vertices if vertices is None else vertices)
        remaining = set(allowed)
        components: List[Set[Vertex]] = []
        while remaining:
            start = remaining.pop()
            component = {start}
            frontier = [start]
            while frontier:
                cur = frontier.pop()
                for nxt, labels in self._adj.get(cur, {}).items():
                    if nxt not in allowed or nxt in component:
                        continue
                    if edge_filter is not None and not edge_filter(cur, nxt, frozenset(labels)):
                        continue
                    component.add(nxt)
                    frontier.append(nxt)
            remaining -= component
            components.append(component)
        return components

    def simple_paths(
        self,
        source: Vertex,
        target: Vertex,
        allowed: Optional[Set[Vertex]] = None,
        edge_filter=None,
        max_length: Optional[int] = None,
        max_paths: Optional[int] = None,
    ) -> Iterator[List[Vertex]]:
        """Yield simple paths from ``source`` to ``target``.

        Intermediate vertices must belong to ``allowed`` (endpoints are always
        permitted); ``edge_filter`` restricts traversable edges; ``max_length``
        bounds the number of edges of a path; ``max_paths`` caps the number of
        yielded paths (hoop enumeration can be combinatorial).
        """
        if not self.has_vertex(source) or not self.has_vertex(target):
            return
        budget = [max_paths]

        def dfs(cur: Vertex, path: List[Vertex], visited: Set[Vertex]) -> Iterator[List[Vertex]]:
            if budget[0] is not None and budget[0] <= 0:
                return
            if max_length is not None and len(path) - 1 > max_length:
                return
            if cur == target and len(path) > 1:
                if budget[0] is not None:
                    budget[0] -= 1
                yield list(path)
                return
            for nxt, labels in sorted(self._adj.get(cur, {}).items(), key=lambda kv: repr(kv[0])):
                if nxt in visited:
                    continue
                if nxt != target and allowed is not None and nxt not in allowed:
                    continue
                if edge_filter is not None and not edge_filter(cur, nxt, frozenset(labels)):
                    continue
                if max_length is not None and len(path) > max_length:
                    continue
                visited.add(nxt)
                path.append(nxt)
                yield from dfs(nxt, path, visited)
                path.pop()
                visited.remove(nxt)

        yield from dfs(source, [source], {source})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<LabelledGraph |V|={len(self.vertices)} |E|={self.edge_count()}>"
