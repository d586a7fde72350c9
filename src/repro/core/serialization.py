"""Serializations and legality (paper, Definition 1).

A *serialization* ``S`` of a history ``H`` is a sequence containing exactly
the operations of ``H`` such that each read of a variable ``x`` returns the
value written by the most recent preceding write on ``x`` in ``S`` (or the
initial value ``⊥`` if there is none).  ``S`` *respects* an order relation
when every related pair appears in the relation's order.

The consistency checkers of :mod:`repro.core.consistency` reduce to the problem
solved here: *given a set of operations, a constraint relation and a read-from
mapping, find a legal serialization respecting the relation*, where a read is
legal when its *mapped* writer is the last write on its variable before it
(:func:`follows_read_from`).  A polynomial *bad pattern* pre-check
(:meth:`SerializationProblem.quick_violations`) gives fast sound rejection and
is also the whole of the heuristic checking mode.  Two procedures decide:

**Saturation** (:meth:`SerializationProblem.saturate`), polynomial, for every
view whose reads are totally ordered by the relation plus read-from — the
per-process views of the causal (Definition 2) and PRAM (Definition 12)
criteria.  Let ``C`` be the closure of the relation restricted to the view,
plus every read-from edge ``w -> r``.  Saturate to a fixpoint: whenever ``r``
reads ``w`` and another write ``w'`` on the same variable has ``w' -> r``,
add ``w' -> w`` and re-close.  Each added edge holds in every legal
serialization respecting ``C`` (``w'`` precedes ``r``, and ``w`` is the last
write on the variable before ``r``), so a cycle proves that none exists, as
does a write before a read of ``⊥``.

At an acyclic fixpoint one emission rule builds the witness, on both engines
(:meth:`repro.arena.check.ArenaBatchChecker._witness` is its columnar form).
The *spine* ``s_1 -> ... -> s_k`` is a chain holding every read: the view
owner's operations (a chain in every causal and PRAM view), or the reads
when the view has no owner (``owner=-1``, the single-witness criteria) or
its owner's operations are not a chain.  An operation off the spine is in
batch ``j`` when ``s_j`` is the first spine operation it precedes, and in
batch ``k + 1`` when it precedes none.  The witness is batch 1, ``s_1``,
batch 2, ``s_2``, ..., batch ``k + 1``; each batch is in recording order
(``Operation.uid``, the arena's row); only when ``C`` orders two of its
members against that order — a saturation edge can, and so can the uids of a
hand-built history — is the batch sorted instead: smallest position first
among the members whose predecessors are placed.

The witness respects ``C``.  If ``a -> s_j`` then ``a`` is in a batch
``<= j``; if ``s_j -> b`` then ``b``'s first spine successor ``s_m`` has
``m > j`` (``m <= j`` would close the cycle ``s_j -> b -> s_m ->* s_j``); if
``a -> b`` off the spine, every spine successor of ``b`` is one of ``a``, so
``a``'s batch is no later, and inside one batch the order is topological
(a path between two members of batch ``j`` never leaves it, by the same two
arguments).  It is legal.  Take a read ``r = s_j`` of ``w``: every write
placed before ``r`` is a batch-``<= j`` member or a spine operation before
``s_j``, so it precedes ``r`` in ``C``; saturation made each such write but
``w`` a predecessor of ``w``, hence placed before ``w``, and ``w -> r``
places ``w`` before ``r`` — ``w`` is the last write on the variable before
``r``.  A read of ``⊥`` has no write on its variable among its predecessors.

**Search** (:meth:`SerializationProblem.search`): exact backtracking with
memoisation, for every other view — sequential consistency is NP-hard even
with the read-from map (Gibbons & Korach, 1997).  It is exponential in the
worst case and ends with :class:`~repro.exceptions.SearchBudgetError` past
``max_states`` explored states.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from ..exceptions import SearchBudgetError
from .operations import BOTTOM, Operation
from .orders import Relation, _iter_bits, _popcount


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


def follows_read_from(
    sequence: Sequence[Operation], read_from: Mapping[Operation, Optional[Operation]]
) -> bool:
    """``True`` iff each read's mapped writer (``None``: no write at all) is the
    last write on its variable before it — legality under the mapping."""
    last: Dict[str, Operation] = {}
    for op in sequence:
        if op.is_write:
            last[op.variable] = op
        elif last.get(op.variable) != read_from.get(op):
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


def _join(desc: List[int], sources: int, target: int) -> bool:
    """Close the descendant rows ``desc`` under new edges from every position
    of the mask ``sources`` to ``target``; ``False`` when that closes a cycle.

    Every source's ancestors gain ``target`` and its descendants — one pass
    over the rows, as the ancestors are exactly the rows that meet ``sources``.
    """
    if desc[target] & sources or (sources >> target) & 1:
        return False
    down = desc[target] | (1 << target)
    for i, row in enumerate(desc):
        if row & sources or (sources >> i) & 1:
            desc[i] = row | down
    return True


def _chain(desc: List[int], members: List[int]) -> Optional[List[int]]:
    """``members`` in order when the descendant rows ``desc`` totally order
    them (a transitive chain: more descendants come first), else ``None``."""
    chain = sorted(members, key=lambda i: -_popcount(desc[i]))
    if any(not (desc[a] >> b) & 1 for a, b in zip(chain, chain[1:])):
        return None
    return chain


def _smallest_first(batch: List[int], desc: List[int], ops: Sequence[Operation]) -> List[int]:
    """``batch`` (in uid order) as is when no member descends to an earlier
    one, else its topological order under ``desc`` that places the
    smallest-uid member whose predecessors are placed first."""
    earlier = 0
    for i in batch:
        if desc[i] & earlier:
            break
        earlier |= 1 << i
    else:
        return batch
    members = sum(1 << i for i in batch)
    waiting = dict.fromkeys(batch, 0)
    for i in batch:
        for j in _iter_bits(desc[i] & members):
            waiting[j] += 1
    ready = [(ops[i].uid, i) for i in batch if not waiting[i]]  # sorted: a heap
    out: List[int] = []
    while ready:
        i = heappop(ready)[1]
        out.append(i)
        for j in _iter_bits(desc[i] & members):
            waiting[j] -= 1
            if not waiting[j]:
                heappush(ready, (ops[j].uid, j))
    return out


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
    owner:
        The process whose view this is (``-1``: none); its operations are the
        spine of the saturation witness (see the module docstring).

    Construction builds nothing.  The relation restricted to the view is made
    on first use (every stage needs it) and the predecessor sets of the search
    on the first :meth:`search`, so a problem that is only pre-checked
    (``exact=False``), rejected by the pre-check or decided by saturation
    never pays for them.
    """

    ops: Tuple[Operation, ...]
    relation: Relation
    read_from: Mapping[Operation, Optional[Operation]]

    max_states: int = 2_000_000
    owner: int = -1

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

    # -- the two deciders -----------------------------------------------------
    def solve(self) -> Optional[List[Operation]]:
        """A legal serialization respecting the relation, or ``None``.

        Decided by :meth:`saturate` when the view's reads form a chain, by
        :meth:`search` otherwise — the input chooses, never the caller.
        """
        decided, witness = self.saturate()
        return witness if decided else self.search()

    def saturate(self) -> Tuple[bool, Optional[List[Operation]]]:
        """``(decided, witness)`` by saturation (see the module docstring).

        ``decided`` is ``False`` when the reads are not totally ordered by the
        relation plus read-from; then only :meth:`search` can decide.
        Otherwise ``witness`` is the serialization, or ``None`` when none
        exists.  Works on descendant bitmask rows over the view: the
        restricted relation's reachability rows, then one row pass per
        read-from edge the relation lacks and per saturating read.
        """
        restricted = self._restricted
        inside = restricted.universe
        ops = inside + tuple(op for op in self.ops if restricted.index_of(op) is None)
        position = {op: i for i, op in enumerate(ops)}
        base = restricted.reach_rows()
        desc = base + [0] * (len(ops) - len(base))
        if any((row >> i) & 1 for i, row in enumerate(base)):
            return True, None
        reads: List[Tuple[int, Optional[int]]] = []
        writes_of: Dict[str, List[int]] = {}
        for i, op in enumerate(ops):
            if op.is_write:
                writes_of.setdefault(op.variable, []).append(i)
                continue
            writer = self.read_from.get(op)
            if writer is None:
                reads.append((i, None))
                continue
            w = position.get(writer)
            if w is None or not writer.is_write or writer.variable != op.variable:
                return True, None
            if not (desc[w] >> i) & 1 and not _join(desc, 1 << w, i):
                return True, None
            reads.append((i, w))

        read_chain = _chain(desc, [r for r, _ in reads])
        if read_chain is None:
            return False, None

        changed = True
        while changed:
            changed = False
            for r, w in reads:
                rivals = writes_of.get(ops[r].variable, ())
                if w is None:
                    if any((desc[v] >> r) & 1 for v in rivals):
                        return True, None
                    continue
                need = 0
                for v in rivals:
                    if v != w and (desc[v] >> r) & 1 and not (desc[v] >> w) & 1:
                        need |= 1 << v
                if need:
                    if not _join(desc, need, w):
                        return True, None
                    changed = True

        # saturation only added edges, so the reads keep their chain order
        owned = [i for i, op in enumerate(ops) if op.process == self.owner]
        spine = _chain(desc, owned) or read_chain
        spine_mask = sum(1 << i for i in spine)
        batches: List[List[int]] = [[] for _ in range(len(spine) + 1)]
        for i in sorted(range(len(ops)), key=lambda i: ops[i].uid):
            if not (spine_mask >> i) & 1:
                batches[len(spine) - _popcount(desc[i] & spine_mask)].append(i)
        order: List[int] = []
        for t, batch in enumerate(batches):
            order.extend(_smallest_first(batch, desc, ops))
            order.extend(spine[t:t + 1])
        witness = [ops[i] for i in order]
        emitted = 0
        for i in order:
            if i < len(base) and base[i] & emitted:
                raise AssertionError("saturation witness violates the relation")
            emitted |= 1 << i
        if not follows_read_from(witness, self.read_from):
            raise AssertionError("saturation witness violates the read-from map")
        return True, witness

    def search(self) -> Optional[List[Operation]]:
        """Exact backtracking search for a legal serialization, or ``None``.

        Memoises on the set of already scheduled operations plus the visible
        write per variable.  Raises :class:`~repro.exceptions.SearchBudgetError`
        if the number of explored states exceeds ``max_states``.
        """
        ops = self.ops
        if not ops:
            return []
        read_from = self.read_from
        # An operation is enabled when none of its predecessors is waiting to
        # be scheduled; the count is kept up to date by schedule/unschedule.
        waiting = {op: len(before) for op, before in self._preds.items()}
        successors: Dict[Operation, List[Operation]] = {op: [] for op in ops}
        for op, before in self._preds.items():
            for p in before:
                successors[p].append(op)
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
                if waiting[op] or op in scheduled_set:
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

        def schedule(chosen: Operation) -> Optional[Operation]:
            """Schedule ``chosen``; returns the write it hides, for :func:`unschedule`."""
            scheduled.append(chosen)
            scheduled_set.add(chosen)
            for op in successors[chosen]:
                waiting[op] -= 1
            if chosen.is_read:
                pending_reads_by_var[chosen.variable].discard(chosen)
                return None
            previous = last_write.get(chosen.variable)
            last_write[chosen.variable] = chosen
            return previous

        def unschedule(chosen: Operation, previous: Optional[Operation]) -> None:
            scheduled.pop()
            scheduled_set.remove(chosen)
            for op in successors[chosen]:
                waiting[op] += 1
            if chosen.is_read:
                pending_reads_by_var[chosen.variable].add(chosen)
            else:
                last_write[chosen.variable] = previous

        # Depth-first over an explicit stack (one frame per scheduled
        # operation would overflow Python's recursion limit): a frame is a
        # state's memo key, its choices in exploration order, the index of
        # the next one and the write the current one hid.
        frames: List[list] = []
        while True:
            if len(scheduled) == len(ops):
                return list(scheduled)
            key = state_key()
            if key not in failed:
                states += 1
                if states > self.max_states:
                    raise SearchBudgetError(
                        f"serialization search exceeded {self.max_states} states"
                    )
                # Scheduling an enabled read never disables any other operation
                # (reads do not change the last-write state), so an enabled read
                # is committed eagerly without exploring alternatives.
                cands = candidates()
                reads = [c for c in cands if c.is_read]
                choices = reads[:1] if reads else sorted(cands, key=write_priority)
                frames.append([key, choices, 0, None])
            # Back up to the deepest frame with a choice left and take it.
            while True:
                if not frames:
                    return None
                frame = frames[-1]
                key, choices, index, previous = frame
                if index:
                    unschedule(choices[index - 1], previous)
                if index < len(choices):
                    frame[2] = index + 1
                    frame[3] = schedule(choices[index])
                    break
                frames.pop()
                failed.add(key)


def find_serialization(
    ops: Iterable[Operation],
    relation: Relation,
    read_from: Mapping[Operation, Optional[Operation]],
    max_states: int = 2_000_000,
) -> Optional[List[Operation]]:
    """Convenience wrapper around :class:`SerializationProblem`."""
    problem = SerializationProblem(tuple(ops), relation, read_from, max_states=max_states)
    return problem.solve()
