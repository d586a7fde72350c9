"""Serializations and legality (paper, Definition 1).

A *serialization* ``S`` of a history ``H`` is a sequence containing exactly
the operations of ``H`` such that each read of a variable ``x`` returns the
value written by the most recent preceding write on ``x`` in ``S`` (or the
initial value ``⊥`` if there is none).  ``S`` *respects* an order relation
when every related pair appears in the relation's order.

The consistency checkers of :mod:`repro.core.consistency` reduce to the search
problem solved here: *given a set of operations, a constraint relation and a
read-from mapping, find a legal serialization respecting the relation*.  The
search is an exact backtracking procedure with memoisation on the set of
scheduled operations; it is exponential in the worst case (checking sequential
consistency is NP-hard) but paper-sized and protocol-trace-sized views are
handled comfortably.  A polynomial *bad pattern* pre-check
(:func:`quick_violations`) provides fast sound rejection and is also exposed
separately for the heuristic checking mode.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from .operations import BOTTOM, Operation
from .orders import Relation


def is_legal_serialization(sequence: Sequence[Operation]) -> bool:
    """``True`` iff every read returns the most recent preceding write's value.

    A read with no preceding write on its variable must return ``⊥``.
    """
    last_value: Dict[str, object] = {}
    for op in sequence:
        if op.is_write:
            last_value[op.variable] = op.value
        else:
            expected = last_value.get(op.variable, BOTTOM)
            if expected is not op.value and expected != op.value:
                return False
    return True


def respects(sequence: Sequence[Operation], relation: Relation) -> bool:
    """``True`` iff ``sequence`` orders every related pair consistently with ``relation``."""
    position = {op: i for i, op in enumerate(sequence)}
    for first, second in relation.edges():
        if first in position and second in position:
            if position[first] >= position[second]:
                return False
    return True


def is_serialization_of(sequence: Sequence[Operation], ops: Iterable[Operation]) -> bool:
    """``True`` iff ``sequence`` contains exactly the operations ``ops`` once each."""
    return set(sequence) == set(ops) and len(sequence) == len(set(sequence)) == len(tuple(ops))


@dataclass
class SerializationProblem:
    """A single "find a legal serialization" instance.

    Parameters
    ----------
    ops:
        The operations to serialize (e.g. ``H_{i+w}`` for a per-process view).
    relation:
        The constraint relation; only edges between operations in ``ops`` are
        considered.
    read_from:
        Mapping from each read in ``ops`` to its writer (``None`` for reads of
        the initial value).  Writers need not belong to ``ops``; a read whose
        writer is outside ``ops`` can never be legally scheduled and makes the
        problem unsatisfiable.

    Construction builds nothing.  The relation restricted to the view is made
    on first use (every stage needs it) and the predecessor sets of the search
    on the first :meth:`solve_greedy` / :meth:`solve`, so a problem that is only
    pre-checked (``exact=False``) or that the pre-check rejects never pays for
    exact-search structures.
    """

    ops: Tuple[Operation, ...]
    relation: Relation
    read_from: Mapping[Operation, Optional[Operation]]

    max_states: int = 2_000_000

    def __post_init__(self) -> None:
        self.ops = tuple(self.ops)

    @cached_property
    def _restricted(self) -> Relation:
        return self.relation.restricted_to(self.ops)

    @cached_property
    def _preds(self) -> Dict[Operation, Set[Operation]]:
        preds: Dict[Operation, Set[Operation]] = {op: set() for op in self.ops}
        for a, b in self._restricted.edges():
            preds[b].add(a)
        return preds

    # -- quick, polynomial necessary conditions ------------------------------
    def quick_violations(self) -> List[str]:
        """Polynomial necessary conditions for satisfiability ("bad patterns").

        Returns a (possibly empty) list of human-readable violation
        descriptions.  A non-empty result proves that no legal serialization
        respecting the relation exists; an empty result is inconclusive (use
        :meth:`solve`).

        Acyclicity is decided first (a diagonal test when the relation is a
        closure, linear otherwise).  Each view operation's position in the
        restricted relation is then resolved once and the forced-before
        queries are integer probes of its reachability rows — free on a
        closure, one lazily cached SCC pass otherwise; an operation outside
        the relation's universe is unconstrained.
        """
        restricted = self._restricted
        if not restricted.is_acyclic():
            return ["constraint relation is cyclic on the view"]
        violations: List[str] = []
        forced_before = restricted.reaches
        position = {op: restricted.index_of(op) for op in self.ops}
        writes_by_var: Dict[str, List[Tuple[Operation, int]]] = {}
        for op in self.ops:
            at = position[op]
            if op.is_write and at is not None:
                writes_by_var.setdefault(op.variable, []).append((op, at))

        for read in self.ops:
            if not read.is_read:
                continue
            writer = self.read_from.get(read)
            if writer is not None and writer not in position:
                violations.append(
                    f"{read.label()} reads from {writer.label()} which is not in the view"
                )
                continue
            r = position[read]
            if r is None:
                continue
            if writer is None:
                # read of the initial value: no write on the variable may be
                # forced before the read.
                for w, at in writes_by_var.get(read.variable, ()):
                    if forced_before(at, r):
                        violations.append(
                            f"{read.label()} returns ⊥ but {w.label()} precedes it"
                        )
                continue
            source = position[writer]
            if source is None:
                continue
            if forced_before(r, source):
                violations.append(
                    f"{read.label()} is constrained to precede its writer {writer.label()}"
                )
            for w, at in writes_by_var.get(read.variable, ()):
                if at != source and forced_before(source, at) and forced_before(at, r):
                    violations.append(
                        f"{w.label()} is forced between {writer.label()} and {read.label()}"
                    )
        return violations

    # -- greedy fast path ------------------------------------------------------
    def solve_greedy(self) -> Optional[List[Operation]]:
        """Attempt a linear-time "apply as late as possible" schedule.

        The fast path targets the per-process views of protocol-recorded
        histories, where every read belongs to a single process: the reader's
        operations are replayed in program order and, whenever a read needs a
        write that is not yet visible, the write's (relation) ancestors and
        the write itself are appended first.  The produced sequence is then
        *verified* (legality + relation respect); on any failure ``None`` is
        returned and the caller falls back to the exact backtracking search,
        so the fast path can never change a verdict, only speed it up.
        """
        reads = [op for op in self.ops if op.is_read]
        if not reads:
            ordering = self._restricted.topological_order()
            if ordering is None:
                return None
            return ordering if is_legal_serialization(ordering) else None
        reader_processes = {op.process for op in reads}
        if len(reader_processes) != 1:
            return None
        reader = next(iter(reader_processes))

        ops_set = set(self.ops)
        preds = self._preds
        scheduled: List[Operation] = []
        scheduled_set: Set[Operation] = set()

        def append(op: Operation) -> None:
            scheduled.append(op)
            scheduled_set.add(op)

        def require(op: Operation, stack: Optional[Set[Operation]] = None) -> bool:
            """Schedule ``op`` after (recursively) scheduling its ancestors."""
            if op in scheduled_set:
                return True
            stack = stack or set()
            if op in stack:  # cycle in the constraint relation
                return False
            stack.add(op)
            for pred in sorted(preds[op], key=lambda o: o.uid):
                if not require(pred, stack):
                    return False
            stack.discard(op)
            if op not in scheduled_set:
                append(op)
            return True

        own_ops = [op for op in self.ops if op.process == reader]
        own_ops.sort(key=lambda o: o.index)
        for op in own_ops:
            if op.is_read:
                writer = self.read_from.get(op)
                if writer is not None:
                    if writer not in ops_set:
                        return None
                    if not require(writer):
                        return None
            if not require(op):
                return None
        # Remaining writes (never needed by the reader) go at the end, in an
        # order that respects the relation.
        for op in self.ops:
            if op not in scheduled_set:
                if not require(op):
                    return None
        if len(scheduled) != len(self.ops):
            return None
        if not is_legal_serialization(scheduled):
            return None
        if not respects(scheduled, self._restricted):
            return None
        return scheduled

    # -- exact backtracking search -------------------------------------------
    def solve(self) -> Optional[List[Operation]]:
        """Find a legal serialization respecting the relation, or ``None``.

        A greedy fast path (:meth:`solve_greedy`) is attempted first; when it
        fails, an exact backtracking search with memoisation on the set of
        already scheduled operations (plus the visible write per variable)
        decides the instance.  Raises :class:`RuntimeError` if the number of
        explored states exceeds ``max_states`` (a guard against pathological
        instances; paper-scale instances explore a few hundred states).
        """
        greedy = self.solve_greedy()
        if greedy is not None:
            return greedy
        ops = self.ops
        if not ops:
            return []
        read_from = self.read_from
        preds = self._preds
        failed: Set[Tuple[FrozenSet[Operation], Tuple[Tuple[str, int], ...]]] = set()
        states = 0

        scheduled: List[Operation] = []
        scheduled_set: Set[Operation] = set()
        last_write: Dict[str, Optional[Operation]] = {}
        pending_reads_by_var: Dict[str, Set[Operation]] = {}
        for op in ops:
            if op.is_read:
                pending_reads_by_var.setdefault(op.variable, set()).add(op)

        def state_key() -> Tuple[FrozenSet[Operation], Tuple[Tuple[str, int], ...]]:
            # The feasibility of the remaining schedule depends on the set of
            # scheduled operations *and* on the currently visible write of each
            # variable (different interleavings of the same set can leave
            # different writes visible), so both are part of the memo key.
            visible = tuple(
                sorted((var, op.uid) for var, op in last_write.items() if op is not None)
            )
            return frozenset(scheduled_set), visible

        def write_priority(op: Operation) -> Tuple[int, float, int]:
            # Exploration order for candidate writes (correctness does not
            # depend on it, running time very much does):
            #   1. prefer writes that do not overwrite a value some pending
            #      read still needs ("non-clobbering" first);
            #   2. then follow the recorded wall-clock order when available —
            #      protocol traces are close to their own witness order;
            #   3. finally break ties deterministically by uid.
            pending = pending_reads_by_var.get(op.variable, ())
            clobbers = any(read_from.get(r) is not op for r in pending)
            timestamp = op.invoked_at if op.invoked_at is not None else float(op.uid)
            return (1 if clobbers else 0, timestamp, op.uid)

        def candidates() -> List[Operation]:
            out = []
            for op in ops:
                if op in scheduled_set:
                    continue
                if any(p not in scheduled_set for p in preds[op]):
                    continue
                if op.is_read:
                    writer = read_from.get(op)
                    current = last_write.get(op.variable)
                    if writer is None:
                        if current is not None:
                            continue
                    elif current is not writer:
                        continue
                out.append(op)
            return out

        def backtrack() -> bool:
            nonlocal states
            if len(scheduled) == len(ops):
                return True
            key = state_key()
            if key in failed:
                return False
            states += 1
            if states > self.max_states:
                raise RuntimeError(
                    f"serialization search exceeded {self.max_states} states"
                )
            # Scheduling an enabled read never disables any other operation
            # (reads do not change the last-write state), so enabled reads are
            # committed eagerly without exploring alternatives.
            cands = candidates()
            reads = [c for c in cands if c.is_read]
            if reads:
                chosen = reads[0]
                scheduled.append(chosen)
                scheduled_set.add(chosen)
                pending_reads_by_var[chosen.variable].discard(chosen)
                if backtrack():
                    return True
                scheduled.pop()
                scheduled_set.remove(chosen)
                pending_reads_by_var[chosen.variable].add(chosen)
                failed.add(key)
                return False
            for chosen in sorted(cands, key=write_priority):
                scheduled.append(chosen)
                scheduled_set.add(chosen)
                previous = last_write.get(chosen.variable)
                last_write[chosen.variable] = chosen
                if backtrack():
                    return True
                scheduled.pop()
                scheduled_set.remove(chosen)
                last_write[chosen.variable] = previous
            failed.add(key)
            return False

        if backtrack():
            return list(scheduled)
        return None


def find_serialization(
    ops: Iterable[Operation],
    relation: Relation,
    read_from: Mapping[Operation, Optional[Operation]],
    max_states: int = 2_000_000,
) -> Optional[List[Operation]]:
    """Convenience wrapper around :class:`SerializationProblem`."""
    problem = SerializationProblem(tuple(ops), relation, read_from, max_states=max_states)
    return problem.solve()
