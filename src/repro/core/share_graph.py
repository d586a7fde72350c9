"""The share graph, cliques and hoops (paper, Section 3.1, Definitions 3).

The *share graph* ``SG`` of a variable distribution is the undirected graph
whose vertices are the processes and where an edge ``(i, j)`` labelled with
``X_i ∩ X_j`` exists whenever that intersection is non-empty.  Each variable
``x`` induces the clique ``C(x)`` spanned by the processes replicating ``x``;
``SG`` is the union of all cliques.

An *x-hoop* is a path of ``SG`` between two distinct processes of ``C(x)``
whose intermediate vertices do not belong to ``C(x)`` and whose every edge
shares a variable different from ``x`` (Definition 3).  Hoops only depend on
the distribution, not on any history.

Theorem 1 characterises the *x-relevant* processes (those that may have to
propagate control information about ``x``) as exactly ``C(x)`` plus the
processes lying on some x-hoop.  :meth:`ShareGraph.hoop_processes` finds the
latter for all processes at once, in ``O(|V| + |E|)`` per variable:

* ``p`` outside ``C(x)`` lies on an x-hoop iff it has two paths to *distinct*
  members of ``C(x)`` that meet only at ``p`` and otherwise stay outside
  ``C(x)`` (split the hoop at ``p``).  A process that does not hold ``x`` has
  no incident edge labelled ``x``, so "every edge shares a variable other
  than ``x``" only ever rules out clique–clique edges;
* let ``H_x`` be ``SG`` without its clique–clique edges, plus a virtual
  vertex ``r`` adjacent to every member of ``C(x)``.  The two paths, closed
  through ``r``, are a simple cycle through ``p`` and ``r``; conversely, by
  Menger's theorem two vertices of one biconnected component (block) are
  joined by two internally disjoint paths, and cutting each at the first
  member it meets (distinct: members are ``r``'s only neighbours) gives the
  two paths.  So ``p`` is a hoop process iff it shares a block with ``r``;
* one lowpoint depth-first search rooted at ``r`` (Hopcroft & Tarjan,
  *Efficient algorithms for graph manipulation*, CACM 1973) finds the blocks.

:meth:`ShareGraph.hoops` enumerates actual hoops (bounded) for witness
construction and for the figure reproductions.  :meth:`ShareGraph.of` shares
one memoised graph among everything that asks about a distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from ..exceptions import DistributionError, RelationDomainError
from .distribution import VariableDistribution
from .graphlib import LabelledGraph


@dataclass(frozen=True)
class Hoop:
    """An x-hoop: a path ``[p_a, p_1, ..., p_{k-1}, p_b]`` of the share graph.

    ``variable`` is the variable ``x`` the hoop is relative to; ``path`` is the
    full vertex sequence (endpoints in ``C(x)``, intermediates outside);
    ``edge_labels`` gives, for each consecutive pair, the variables (other than
    ``x``) the pair shares.
    """

    variable: str
    path: Tuple[int, ...]
    edge_labels: Tuple[FrozenSet[str], ...]

    @property
    def endpoints(self) -> Tuple[int, int]:
        """The two ``C(x)`` processes joined by the hoop."""
        return self.path[0], self.path[-1]

    @property
    def intermediates(self) -> Tuple[int, ...]:
        """The processes strictly inside the hoop (all outside ``C(x)``)."""
        return self.path[1:-1]

    @property
    def length(self) -> int:
        """Number of edges of the hoop."""
        return len(self.path) - 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        arrow = " - ".join(f"p{p}" for p in self.path)
        return f"<Hoop {self.variable}: {arrow}>"


class ShareGraph:
    """The share graph of a variable distribution."""

    def __init__(self, distribution: VariableDistribution):
        # The graph keeps the distribution's tables, never the distribution:
        # :meth:`of` memoises the graph on the distribution, and a reference
        # back would make the pair a cycle only the cyclic collector frees.
        self._per_process = distribution._per_process
        self._holders = distribution._holders
        self._processes = distribution.processes
        # Everything derived is lazy and memoised (the distribution is
        # immutable); the adjacency too (``graph``), so a fully replicated
        # distribution never pays for its O(n²) clique edges.
        self._hoop_cache: Dict[str, FrozenSet[int]] = {}
        self._candidate_cache: Dict[str, FrozenSet[int]] = {}
        self._component_cache: Optional[Tuple[FrozenSet[int], ...]] = None
        self._tree_cache: Dict[str, Dict[int, Tuple[int, ...]]] = {}

    @classmethod
    def of(cls, distribution: VariableDistribution) -> "ShareGraph":
        """The share graph of ``distribution``, memoised on that instance
        (outside its equality, hash and pickle): the protocol processes of a
        system, its efficiency report and the placement objectives share one."""
        share = distribution._share_graph
        if share is None:
            share = distribution._share_graph = cls(distribution)
        return share

    # -- basic structure --------------------------------------------------------
    @cached_property
    def graph(self) -> LabelledGraph:
        """The underlying labelled graph (built on first use)."""
        graph = LabelledGraph()
        for pid in self._processes:
            graph.add_vertex(pid)
        for var in self.variables:
            for a, b in self.clique_edges(var):
                graph.add_edge(a, b, var)
        return graph

    @property
    def processes(self) -> Tuple[int, ...]:
        return self._processes

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(sorted(self._holders))

    def clique(self, variable: str) -> FrozenSet[int]:
        """Vertex set of ``C(variable)``."""
        try:
            return self._holders[variable]
        except KeyError:
            raise DistributionError(f"unknown variable {variable!r}") from None

    def clique_edges(self, variable: str) -> List[Tuple[int, int]]:
        """Edges of ``C(variable)`` (every pair of holders)."""
        holders = sorted(self.clique(variable))
        return [(a, b) for i, a in enumerate(holders) for b in holders[i + 1:]]

    def edge_label(self, a: int, b: int) -> FrozenSet[str]:
        """Variables shared by ``a`` and ``b`` (empty when no edge)."""
        return self.graph.labels(a, b)

    def neighbours(self, process: int) -> Tuple[int, ...]:
        """Processes sharing at least one variable with ``process``."""
        return self.graph.neighbours(process)

    # -- share-graph components (sharding) -----------------------------------------
    def components(self) -> Tuple[FrozenSet[int], ...]:
        """Connected components of ``SG`` over the processes holding variables.

        Processes replicating no variable take part in no share-graph edge and
        in no protocol exchange, so they are omitted.  Components are returned
        sorted by their smallest process id (deterministic).
        """
        if self._component_cache is None:
            active = [p for p in self.processes if self._per_process[p]]
            comps = self.graph.connected_components(active)
            self._component_cache = tuple(
                sorted((frozenset(c) for c in comps), key=min)
            )
        return self._component_cache

    def variable_groups(self) -> Tuple[Tuple[FrozenSet[str], FrozenSet[int]], ...]:
        """The shards of the distribution: one ``(variables, processes)`` pair
        per share-graph component.

        Every clique ``C(x)`` is connected, hence contained in exactly one
        component; two variables fall in the same group exactly when their
        cliques are transitively linked by shared processes.  Distinct groups
        therefore have disjoint process sets *and* disjoint variable sets —
        the independence that lets a sharded protocol order each group
        separately without any cross-group synchronisation.
        """
        return self._groups

    @cached_property
    def _groups(self) -> Tuple[Tuple[FrozenSet[str], FrozenSet[int]], ...]:
        variables = self.variables
        return tuple(
            (frozenset(v for v in variables if self.clique(v) <= component), component)
            for component in self.components()
        )

    @cached_property
    def _group_index(self) -> Dict[str, Tuple[FrozenSet[str], FrozenSet[int]]]:
        return {var: group for group in self._groups for var in group[0]}

    def group_of(self, variable: str) -> Tuple[FrozenSet[str], FrozenSet[int]]:
        """The shard (variable group) ``variable`` belongs to."""
        if variable not in self._group_index:
            raise RelationDomainError(f"variable {variable!r} not in the distribution")
        return self._group_index[variable]

    def relevance_tree(self, variable: str) -> Dict[int, Tuple[int, ...]]:
        """A deterministic spanning tree of the x-relevant processes.

        The sub-graph of ``SG`` induced by ``relevant_processes(variable)`` is
        connected (the clique is connected, and every hoop process reaches the
        clique through hoop vertices, all of them relevant), so a breadth-first
        tree rooted at the smallest clique member spans it.  The returned
        mapping gives each relevant process its tree neighbours — the routing
        table of the ``causal_tree`` protocol: an update to ``variable``
        travels only tree edges, hence only between x-relevant processes.
        """
        if variable in self._tree_cache:
            return self._tree_cache[variable]
        relevant = self.relevant_processes(variable)
        root = min(self.clique(variable))
        neighbours: Dict[int, Set[int]] = {p: set() for p in relevant}
        graph = self.graph
        visited = {root}
        frontier = [root]
        while frontier:
            nxt: List[int] = []
            for u in frontier:
                for v in graph.neighbours(u):  # repr-sorted: pins the routing table
                    if v in neighbours and v not in visited:
                        visited.add(v)
                        neighbours[u].add(v)
                        neighbours[v].add(u)
                        nxt.append(v)
            frontier = nxt
        tree = {p: tuple(sorted(nbrs)) for p, nbrs in neighbours.items()}
        self._tree_cache[variable] = tree
        return tree

    # -- hoops -------------------------------------------------------------------
    def hoops(
        self,
        variable: str,
        max_length: Optional[int] = None,
        max_hoops: Optional[int] = None,
    ) -> Iterator[Hoop]:
        """Enumerate x-hoops for ``variable`` (Definition 3).

        Enumeration can be combinatorial on dense graphs; bound it with
        ``max_length`` (edges per hoop) and ``max_hoops`` (total yielded).
        Each unordered endpoint pair is enumerated once (``p_a < p_b``).
        """
        clique = self.clique(variable)
        outside = set(self.processes) - clique
        graph = self.graph
        remaining = max_hoops
        holders = sorted(clique)
        for i, a in enumerate(holders):
            for b in holders[i + 1:]:
                for path in graph.simple_paths(
                    a,
                    b,
                    allowed=outside,
                    edge_filter=lambda u, v, labels: bool(labels - {variable}),
                    max_length=max_length,
                    max_paths=remaining,
                ):
                    labels = tuple(
                        frozenset(graph.labels(u, v) - {variable})
                        for u, v in zip(path, path[1:])
                    )
                    yield Hoop(variable, tuple(path), labels)
                    if remaining is not None:
                        remaining -= 1
                        if remaining <= 0:
                            return

    def has_hoop(self, variable: str) -> bool:
        """``True`` iff at least one x-hoop exists for ``variable``."""
        for _ in self.hoops(variable, max_hoops=1):
            return True
        return False

    def hoop_through(self, process: int, variable: str,
                     max_length: Optional[int] = None) -> Optional[Hoop]:
        """An x-hoop whose path contains ``process``, or ``None``.

        For a process of ``C(x)`` any hoop having it as endpoint qualifies;
        for a process outside ``C(x)`` the hoop must traverse it.
        """
        for hoop in self.hoops(variable, max_length=max_length):
            if process in hoop.path:
                return hoop
        return None

    # -- Theorem 1 characterisation ------------------------------------------------
    def _outside_pass(self, cache: Dict[str, FrozenSet[int]], variable: str,
                      compute) -> FrozenSet[int]:
        """``compute(clique, adjacency)`` once per variable — and not at all,
        nor building the graph for it, when no process is outside ``C(x)``."""
        result = cache.get(variable)
        if result is None:
            clique = self.clique(variable)
            outside = len(self._processes) - len(clique)
            result = compute(clique, self.graph.adjacency) if outside else frozenset()
            cache[variable] = result
        return result

    def is_on_hoop(self, process: int, variable: str) -> bool:
        """``True`` iff ``process`` (outside ``C(x)``) lies on some x-hoop."""
        return process in self.hoop_processes(variable)

    def hoop_processes(self, variable: str) -> FrozenSet[int]:
        """Processes outside ``C(x)`` lying on at least one x-hoop (exact)."""
        return self._outside_pass(self._hoop_cache, variable, self._block_pass)

    @staticmethod
    def _block_pass(clique: FrozenSet[int], adjacency) -> FrozenSet[int]:
        """The outside vertices sharing a block of ``H_x`` with ``r`` (module
        docstring): one lowpoint DFS rooted at ``r``, whose ``disc`` is 0.

        ``top[v]`` is the ``disc`` of the highest vertex of the block holding
        the tree edge into ``v``; ``r`` can only be the top of its blocks.
        """
        root = None  # r; a member's edge to it is folded into low[member] = 0
        disc: Dict[Optional[int], int] = {root: 0}
        low: Dict[Optional[int], int] = {root: 0}
        parent: Dict[int, Optional[int]] = {}
        stack: List[Tuple[Optional[int], Iterator[int]]] = [(root, iter(sorted(clique)))]
        while stack:
            v, pending = stack[-1]
            for w in pending:
                if w in disc:
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                    continue
                parent[w] = v
                disc[w] = low[w] = len(disc)
                neighbours = adjacency[w]
                if w in clique:  # adjacent to r, and H_x has no clique–clique edge
                    low[w] = 0
                    neighbours = [u for u in neighbours if u not in clique]
                stack.append((w, iter(neighbours)))
                break
            else:
                stack.pop()
                if stack and low[v] < low[stack[-1][0]]:
                    low[stack[-1][0]] = low[v]
        top: Dict[Optional[int], int] = {}
        on_hoop: List[int] = []
        for v, p in parent.items():  # discovery order: a parent precedes its children
            top[v] = disc[p] if low[v] >= disc[p] else top[p]
            if top[v] == 0 and v not in clique:
                on_hoop.append(v)
        return frozenset(on_hoop)

    def hoop_candidates(self, variable: str) -> FrozenSet[int]:
        """Cheap upper bound on :meth:`hoop_processes` (component pre-filter).

        A component of ``SG - C(x)`` whose attachment to ``C(x)`` touches fewer
        than two distinct clique members can contain no hoop process;
        everything else is a candidate.  This is the score of the placement
        optimizer's greedy search (the exact sets describe its final report).
        """
        return self._outside_pass(self._candidate_cache, variable,
                                  self._attached_components)

    @staticmethod
    def _attached_components(clique: FrozenSet[int], adjacency) -> FrozenSet[int]:
        candidates: Set[int] = set()
        seen: Set[int] = set()
        for start in adjacency:
            if start in seen or start in clique:
                continue
            seen.add(start)
            component = [start]
            attached: Set[int] = set()
            for v in component:  # grows while the component is discovered
                for w in adjacency[v]:
                    if w in clique:
                        attached.add(w)
                    elif w not in seen:
                        seen.add(w)
                        component.append(w)
            if len(attached) >= 2:
                candidates.update(component)
        return frozenset(candidates)

    def relevant_processes(self, variable: str) -> FrozenSet[int]:
        """The x-relevant processes per Theorem 1: ``C(x)`` ∪ hoop processes."""
        return self.clique(variable) | self.hoop_processes(variable)

    def irrelevant_processes(self, variable: str) -> FrozenSet[int]:
        """Processes that never need to carry information about ``variable``."""
        return frozenset(set(self.processes) - self.relevant_processes(variable))

    def is_hoop_free(self, variable: str) -> bool:
        """``True`` iff no process outside ``C(x)`` lies on an x-hoop.

        Note that hoops entirely made of ``C(x)`` endpoints (length-1 hoops)
        may still exist; they add no extra relevant process.
        """
        return not self.hoop_processes(variable)

    # -- metrics ---------------------------------------------------------------------
    def relevance_fraction(self, variable: str) -> float:
        """Fraction of all processes that are x-relevant."""
        return len(self.relevant_processes(variable)) / len(self.processes)

    def average_relevance_fraction(self) -> float:
        """Mean relevance fraction over every variable."""
        if not self.variables:
            return 0.0
        return sum(self.relevance_fraction(v) for v in self.variables) / len(self.variables)

    def relevance_report(self) -> Dict[str, Dict[str, object]]:
        """Per-variable summary used by the analysis layer."""
        report: Dict[str, Dict[str, object]] = {}
        for var in self.variables:
            clique = self.clique(var)
            hoop_procs = self.hoop_processes(var)
            report[var] = {
                "clique": tuple(sorted(clique)),
                "hoop_processes": tuple(sorted(hoop_procs)),
                "relevant": tuple(sorted(clique | hoop_procs)),
                "relevance_fraction": (len(clique) + len(hoop_procs)) / len(self.processes),
            }
        return report

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ShareGraph processes={len(self.processes)} variables={len(self.variables)} "
            f"edges={self.graph.edge_count()}>"
        )
