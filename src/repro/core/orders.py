"""Order relations over the operations of a history (paper, Sections 2, 4, 5).

The paper reasons about several binary relations on ``O_H``:

* program order ``->_i`` (total order inside each local history),
* read-from order ``->_ro``,
* causality order ``->_co`` = transitive closure of program ∪ read-from
  (Ahamad et al. [3]),
* lazy program order ``->_li`` (Definition 5),
* lazy causality order ``->_lco`` (Definition 6),
* lazy writes-before ``->_lwb`` (Definition 8),
* lazy semi-causality ``->_lsc`` (Definition 9),
* the PRAM relation ``->_pram`` (Definition 11) — program ∪ read-from
  *without* transitive closure,
* the slow-memory relation (per-process, per-variable program order ∪
  read-from), used as an even weaker comparison point (Sinha [16]).

All relations are represented by the explicit :class:`Relation` class: a set
of directed edges over operation objects, with helpers for transitive closure,
acyclicity, restriction and path queries.  Internally each operation is
indexed once into the universe and every adjacency (and the lazily computed
reachability) is a single Python integer used as a bitmask, so the set
algebra the checkers lean on — closure, restriction, union, reachability —
runs as machine-word bit operations instead of per-edge dict/set traffic.
The public API still speaks :class:`~repro.core.operations.Operation`
objects, keeping the checkers easy to audit against the paper's definitions.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from ..exceptions import RelationDomainError
from .history import History
from .operations import Operation


def _iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask`` (ascending)."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _popcount(mask: int) -> int:
    """Number of set bits of ``mask`` (the ``int`` method for it needs Python 3.10)."""
    return bin(mask).count("1")


class Relation:
    """A binary relation over a fixed universe of operations.

    The relation is *not* implicitly transitive nor reflexive; use
    :meth:`transitive_closure` when a partial order is needed.  Reachability
    over the direct edges is computed lazily (once, via strongly connected
    components) and cached on the instance; mutating the relation with
    :meth:`add` invalidates the cache.

    A relation remembers that it is transitive: a closure's reachability rows
    *are* its edge rows (one shared list), and the alias survives
    :meth:`restricted_to` and pickling until the next :meth:`add`.  There,
    reachability is free and :meth:`is_acyclic` a diagonal test.  Predecessor
    rows are transposed on first use (closures and restrictions are mostly
    only probed).  :meth:`index_of` and :meth:`reaches` let a caller resolve
    each operation once and then probe in integers.
    """

    def __init__(self, universe: Iterable[Operation], name: str = "relation"):
        self._universe: Tuple[Operation, ...] = tuple(universe)
        self._index: Dict[Operation, int] = {op: i for i, op in enumerate(self._universe)}
        n = len(self._universe)
        self._succ: List[int] = [0] * n
        self._pred: Optional[List[int]] = [0] * n
        self._reach: Optional[List[int]] = None
        self.name = name

    # -- construction -------------------------------------------------------
    def add(self, first: Operation, second: Operation) -> None:
        """Add the pair ``first -> second`` to the relation."""
        i = self._index.get(first)
        j = self._index.get(second)
        if i is None or j is None:
            raise RelationDomainError(
                "both operations must belong to the relation's universe"
            )
        if i != j and not (self._succ[i] >> j) & 1:
            self._reach = None  # first: a closure's reachability rows *are* its edge rows
            self._succ[i] |= 1 << j
            if self._pred is not None:
                self._pred[j] |= 1 << i

    def add_edges(self, edges: Iterable[Tuple[Operation, Operation]]) -> None:
        """Add every pair of ``edges`` to the relation."""
        for a, b in edges:
            self.add(a, b)

    # -- queries ------------------------------------------------------------
    @property
    def universe(self) -> Tuple[Operation, ...]:
        """The operations the relation is defined over."""
        return self._universe

    def successors(self, op: Operation) -> FrozenSet[Operation]:
        """Direct successors of ``op``."""
        return frozenset(self._universe[j] for j in _iter_bits(self._succ[self._index[op]]))

    def predecessors(self, op: Operation) -> FrozenSet[Operation]:
        """Direct predecessors of ``op``."""
        return frozenset(self._universe[j] for j in _iter_bits(self._pred_masks()[self._index[op]]))

    def _pred_masks(self) -> List[int]:
        """The predecessor rows, transposed on first use after a bulk construction."""
        if self._pred is None:
            pred = [0] * len(self._universe)
            for i, mask in enumerate(self._succ):
                bit = 1 << i
                for j in _iter_bits(mask):
                    pred[j] |= bit
            self._pred = pred
        return self._pred

    def precedes(self, first: Operation, second: Operation) -> bool:
        """``True`` iff the pair ``first -> second`` belongs to the relation."""
        i = self._index.get(first)
        j = self._index.get(second)
        if i is None or j is None:
            return False
        return bool((self._succ[i] >> j) & 1)

    def reachable(self, first: Operation, second: Operation) -> bool:
        """``True`` iff ``second`` is reachable from ``first`` following edges.

        The first call computes the full reachability of the relation (cached
        until the next :meth:`add`); subsequent calls are O(1) bit probes.
        """
        i = self._index.get(first)
        j = self._index.get(second)
        return i is not None and j is not None and self.reaches(i, j)

    def index_of(self, op: Operation) -> Optional[int]:
        """Position of ``op`` in the universe, ``None`` when it is outside it."""
        return self._index.get(op)

    def reaches(self, i: int, j: int) -> bool:
        """:meth:`reachable` between universe positions (see :meth:`index_of`)."""
        return bool((self._reachability()[i] >> j) & 1)

    def reach_rows(self) -> List[int]:
        """A copy of the reachability rows: bit ``j`` of row ``i`` iff ``reaches(i, j)``."""
        return list(self._reachability())

    def concurrent(self, first: Operation, second: Operation) -> bool:
        """``True`` iff neither operation reaches the other (paper: ``o1 || o2``)."""
        return not self.reachable(first, second) and not self.reachable(second, first)

    def edges(self) -> Iterator[Tuple[Operation, Operation]]:
        """Iterate over every pair of the relation."""
        for i, mask in enumerate(self._succ):
            op = self._universe[i]
            for j in _iter_bits(mask):
                yield op, self._universe[j]

    def edge_count(self) -> int:
        """Number of pairs in the relation."""
        return sum(_popcount(mask) for mask in self._succ)

    def is_acyclic(self) -> bool:
        """``True`` iff the relation (viewed as a digraph) has no cycle.

        A cycle of a transitive relation makes each of its members reach
        itself, so there the diagonal decides; otherwise Kahn's algorithm does.
        """
        if self._reach is self._succ:
            return not any(self.reaches(i, i) for i in range(len(self._universe)))
        return self.topological_order() is not None

    def topological_order(self) -> Optional[List[Operation]]:
        """A topological order of the universe, or ``None`` if the relation is cyclic."""
        n = len(self._universe)
        indegree = [_popcount(mask) for mask in self._pred_masks()]
        ready = [i for i in range(n) if indegree[i] == 0]
        order: List[int] = []
        while ready:
            i = ready.pop()
            order.append(i)
            for j in _iter_bits(self._succ[i]):
                indegree[j] -= 1
                if indegree[j] == 0:
                    ready.append(j)
        if len(order) != n:
            return None
        return [self._universe[i] for i in order]

    def find_path(self, first: Operation, second: Operation) -> Optional[List[Operation]]:
        """A path ``first -> ... -> second`` following edges, or ``None``.

        Paths are found breadth-first, so the returned path has a minimal
        number of hops; used to exhibit dependency chains (Definition 4).
        """
        start = self._index.get(first)
        goal = self._index.get(second)
        if start is None or goal is None:
            return None
        parents: Dict[int, int] = {}
        frontier: List[int] = [start]
        seen = 1 << start
        while frontier:
            nxt_frontier: List[int] = []
            for cur in frontier:
                for nxt in _iter_bits(self._succ[cur] & ~seen):
                    parents[nxt] = cur
                    if nxt == goal:
                        path = [goal]
                        while path[-1] != start:
                            path.append(parents[path[-1]])
                        path.reverse()
                        return [self._universe[i] for i in path]
                    seen |= 1 << nxt
                    nxt_frontier.append(nxt)
            frontier = nxt_frontier
        return None

    def find_paths(
        self,
        first: Operation,
        second: Operation,
        max_paths: int = 64,
        max_length: Optional[int] = None,
    ) -> List[List[Operation]]:
        """Simple paths ``first -> ... -> second`` following edges (bounded).

        At most ``max_paths`` paths are returned, each with at most
        ``max_length`` edges (unbounded when ``None``).  Used by the
        dependency-chain analysis, which needs to distinguish derivations that
        stay inside a variable's clique from derivations that leave it.
        """
        if first not in self._index or second not in self._index:
            return []
        results: List[List[Operation]] = []

        def dfs(cur: Operation, path: List[Operation], seen: Set[Operation]) -> None:
            if len(results) >= max_paths:
                return
            if max_length is not None and len(path) - 1 > max_length:
                return
            if cur == second and len(path) > 1:
                results.append(list(path))
                return
            for nxt in sorted(self.successors(cur), key=lambda o: o.uid):
                if nxt in seen:
                    continue
                if nxt == second:
                    results.append(path + [nxt])
                    if len(results) >= max_paths:
                        return
                    continue
                seen.add(nxt)
                path.append(nxt)
                dfs(nxt, path, seen)
                path.pop()
                seen.remove(nxt)

        dfs(first, [first], {first})
        return results

    # -- derivation ---------------------------------------------------------
    def _reachability(self) -> List[int]:
        """Per-operation reachability bitmasks (computed once, cached).

        Strongly connected components are found with an iterative Tarjan
        pass; Tarjan emits components in reverse topological order, so one
        sweep over the emitted components propagates reachability through the
        condensation with pure bitmask unions.  Cyclic components reach every
        one of their own members (including themselves); acyclic singletons do
        not reach themselves, matching the edge-following semantics the dict
        implementation had.
        """
        if self._reach is not None:
            return self._reach
        n = len(self._universe)
        succ = self._succ
        index_of = [-1] * n
        low = [0] * n
        on_stack = bytearray(n)
        stack: List[int] = []
        comp_of = [-1] * n
        comp_members: List[List[int]] = []
        counter = 0
        for start in range(n):
            if index_of[start] != -1:
                continue
            index_of[start] = low[start] = counter
            counter += 1
            stack.append(start)
            on_stack[start] = 1
            frames: List[List[int]] = [[start, succ[start]]]
            while frames:
                node, remaining = frames[-1]
                if remaining:
                    bit = remaining & -remaining
                    frames[-1][1] ^= bit
                    nxt = bit.bit_length() - 1
                    if index_of[nxt] == -1:
                        index_of[nxt] = low[nxt] = counter
                        counter += 1
                        stack.append(nxt)
                        on_stack[nxt] = 1
                        frames.append([nxt, succ[nxt]])
                    elif on_stack[nxt] and index_of[nxt] < low[node]:
                        low[node] = index_of[nxt]
                else:
                    frames.pop()
                    if frames and low[node] < low[frames[-1][0]]:
                        low[frames[-1][0]] = low[node]
                    if low[node] == index_of[node]:
                        members: List[int] = []
                        while True:
                            member = stack.pop()
                            on_stack[member] = 0
                            comp_of[member] = len(comp_members)
                            members.append(member)
                            if member == node:
                                break
                        comp_members.append(members)
        comp_mask: List[int] = []
        comp_reach: List[int] = []
        for members in comp_members:
            mask = 0
            for member in members:
                mask |= 1 << member
            reach = 0
            for member in members:
                for nxt in _iter_bits(succ[member] & ~mask):
                    target = comp_of[nxt]
                    reach |= comp_mask[target] | comp_reach[target]
            # add() drops self-loops, but a closure has them and keeps them
            # when it is restricted: a cycle may run through dropped operations
            if len(members) > 1 or (succ[members[0]] >> members[0]) & 1:
                reach |= mask
            comp_mask.append(mask)
            comp_reach.append(reach)
        self._reach = [comp_reach[comp_of[i]] for i in range(n)]
        return self._reach

    def transitive_closure(self, name: Optional[str] = None) -> "Relation":
        """Return a new relation equal to the transitive closure of this one."""
        closed = Relation(self._universe, name or f"{self.name}+")
        reach = self._reachability()
        closed._succ = list(reach)
        closed._pred = None
        closed._reach = closed._succ  # transitive: the edge rows are the reachability rows
        return closed

    def union(self, other: "Relation", name: Optional[str] = None) -> "Relation":
        """Union of two relations defined over the same universe."""
        merged = Relation(self._universe, name or f"{self.name}∪{other.name}")
        if other._universe == self._universe:
            merged._succ = [a | b for a, b in zip(self._succ, other._succ)]
            merged._pred = None
        else:
            merged.add_edges(self.edges())
            for a, b in other.edges():
                if a in merged._index and b in merged._index:
                    merged.add(a, b)
        return merged

    def restricted_to(self, ops: Iterable[Operation], name: Optional[str] = None) -> "Relation":
        """The relation restricted to the given subset of operations."""
        requested = set(ops)
        keep = [op for op in self._universe if op in requested]
        sub = Relation(keep, name or f"{self.name}|")
        old_indices = [self._index[op] for op in keep]
        keep_mask = 0
        for old in old_indices:
            keep_mask |= 1 << old
        new_of_old = {old: new for new, old in enumerate(old_indices)}
        for new, old in enumerate(old_indices):
            for tgt in _iter_bits(self._succ[old] & keep_mask):
                sub._succ[new] |= 1 << new_of_old[tgt]
        sub._pred = None
        if self._reach is self._succ:
            sub._reach = sub._succ
        return sub

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Relation {self.name} |U|={len(self._universe)} edges={self.edge_count()}>"


# ---------------------------------------------------------------------------
# Relation builders
# ---------------------------------------------------------------------------

ReadFrom = Mapping[Operation, Optional[Operation]]


def _resolve_read_from(history: History, read_from: Optional[ReadFrom]) -> ReadFrom:
    return history.read_from() if read_from is None else read_from


def program_order(history: History) -> Relation:
    """Program order ``->_i``: covering edges of each local history.

    The relation contains the *covering* pairs (consecutive operations); take
    :meth:`Relation.transitive_closure` for the full total order per process.
    """
    rel = Relation(history.operations, "program")
    for pid in history.processes:
        ops = history.local(pid).operations
        for prev, nxt in zip(ops, ops[1:]):
            rel.add(prev, nxt)
    return rel


def full_program_order(history: History) -> Relation:
    """Program order as a full (transitively closed) relation."""
    return program_order(history).transitive_closure("program+")


def read_from_order(history: History, read_from: Optional[ReadFrom] = None) -> Relation:
    """Read-from order ``->_ro``: writer to reader edges (paper, Section 2)."""
    read_from = _resolve_read_from(history, read_from)
    rel = Relation(history.operations, "read-from")
    for read, writer in read_from.items():
        if writer is not None:
            rel.add(writer, read)
    return rel


def causal_order(history: History, read_from: Optional[ReadFrom] = None) -> Relation:
    """Causality order ``->_co``: transitive closure of program ∪ read-from."""
    base = program_order(history).union(read_from_order(history, read_from))
    return base.transitive_closure("causal")


def lazy_program_order(history: History) -> Relation:
    """Lazy program order ``->_li`` (paper, Definition 5).

    Two operations of the same process with ``o1`` invoked before ``o2`` are
    related iff

    * ``o1`` is a read and ``o2`` is a read on the same variable or a write on
      any variable, or
    * ``o1`` is a write and ``o2`` is an operation on the same variable,

    closed under transitivity (within the local history).
    """
    rel = Relation(history.operations, "lazy-program")
    for pid in history.processes:
        ops = history.local(pid).operations
        for i, o1 in enumerate(ops):
            for o2 in ops[i + 1:]:
                if o1.is_read and (o2.is_write or (o2.is_read and o1.same_variable(o2))):
                    rel.add(o1, o2)
                elif o1.is_write and o1.same_variable(o2):
                    rel.add(o1, o2)
    return rel.transitive_closure("lazy-program")


def lazy_causal_order(history: History, read_from: Optional[ReadFrom] = None) -> Relation:
    """Lazy causality order ``->_lco`` (paper, Definition 6)."""
    base = lazy_program_order(history).union(read_from_order(history, read_from))
    return base.transitive_closure("lazy-causal")


def lazy_writes_before(history: History, read_from: Optional[ReadFrom] = None) -> Relation:
    """Lazy writes-before ``->_lwb`` (paper, Definition 8).

    ``o1 ->_lwb o2`` when ``o1 = w_i(x)v``, ``o2 = r_j(y)u`` and there exists
    ``o' = w_i(y)u`` with ``o1 ->_li o'``.
    """
    read_from = _resolve_read_from(history, read_from)
    lpo = lazy_program_order(history)
    rel = Relation(history.operations, "lazy-writes-before")
    for read, writer in read_from.items():
        if writer is None:
            continue
        # writer is o' = w_i(y)u; relate every earlier (lazily) write o1 of the
        # same process i to the read o2.
        for o1 in history.local(writer.process).writes:
            if o1 == writer:
                continue
            if lpo.precedes(o1, writer):
                rel.add(o1, read)
    return rel


def lazy_semi_causal_order(history: History, read_from: Optional[ReadFrom] = None) -> Relation:
    """Lazy semi-causality order ``->_lsc`` (paper, Definition 9)."""
    base = lazy_program_order(history).union(lazy_writes_before(history, read_from))
    return base.transitive_closure("lazy-semi-causal")


def pram_relation(history: History, read_from: Optional[ReadFrom] = None) -> Relation:
    """The PRAM relation ``->_pram`` (paper, Definition 11).

    Program order ∪ read-from, *not* transitively closed (the lack of
    transitivity through intermediary processes is exactly what makes PRAM
    amenable to efficient partial replication — Theorem 2).
    """
    return full_program_order(history).union(
        read_from_order(history, read_from), name="pram"
    )


def pram_generating_order(history: History, read_from: Optional[ReadFrom] = None) -> Relation:
    """Linear-size constraint edges equivalent to the PRAM relation for checking.

    A serialization respects a relation iff it respects its transitive
    closure, so covering edges are enough — *provided* they survive the
    restriction to the per-process view ``H_{i+w}``.  Because that view drops
    the other processes' reads, the covering chain of a remote writer can be
    broken by one of its reads; the relation therefore contains, per process,
    both the covering edges over all its operations and the covering edges
    over its writes only (consecutive writes), plus the read-from edges.  The
    result has ``O(|H|)`` edges (the faithful :func:`pram_relation` is
    quadratic per process) and constrains every view exactly like
    Definition 11 does.
    """
    rel = program_order(history).union(read_from_order(history, read_from), name="pram-gen")
    for pid in history.processes:
        writes = history.local(pid).writes
        for prev, nxt in zip(writes, writes[1:]):
            rel.add(prev, nxt)
    return rel


def slow_relation(history: History, read_from: Optional[ReadFrom] = None) -> Relation:
    """The slow-memory relation: per-process *per-variable* program order ∪ read-from.

    Slow memory (Sinha [16], cited in Section 5) only requires writes by one
    process to one variable to be observed in program order.
    """
    read_from = _resolve_read_from(history, read_from)
    rel = Relation(history.operations, "slow")
    for pid in history.processes:
        ops = history.local(pid).operations
        for i, o1 in enumerate(ops):
            for o2 in ops[i + 1:]:
                if o1.same_variable(o2):
                    rel.add(o1, o2)
    for read, writer in read_from.items():
        if writer is not None:
            rel.add(writer, read)
    return rel


#: Registry mapping the name of a consistency-defining relation to its builder.
RELATION_BUILDERS: Dict[str, Callable[..., Relation]] = {
    "program": full_program_order,
    "read_from": read_from_order,
    "causal": causal_order,
    "lazy_causal": lazy_causal_order,
    "lazy_semi_causal": lazy_semi_causal_order,
    "pram": pram_relation,
    "slow": slow_relation,
}
