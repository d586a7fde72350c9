"""Consistency checking directly over arena columns.

:class:`ArenaBatchChecker` decides every check that has an arena: each
history-keeping :class:`repro.api.Session` run, each batch causal and pram
check of an object history
(:class:`~repro.core.consistency.criteria.ColumnarChecker`), and each due
check and close of a :class:`~repro.core.consistency.incremental.WindowedChecker`,
whose window is rows of its own arena.  A session's checker reads the rows
of the arena its :class:`~repro.arena.recorder.ArenaRecorder` shares, so the
operation arguments of the
:class:`~repro.core.consistency.incremental.IncrementalChecker` protocol are
ignored: ``feed``, ``check_now`` and ``finalize`` each first advance over
the rows appended since the last call.  A finalize-only session subscribes
no listener and builds no per-operation object; one whose policy checks
mid-run subscribes ``feed``, so a monitor hit is noted at the row that
proves it.  :class:`RowMonitor` is the one implementation of the O(1)
stream monitors, for sessions and served windows alike.

Causal and pram are checked over the columns at every size.  Bad patterns
and witnesses run over the int columns, with no per-view graph: for
**causal** two vector-clock sweeps (operation and write counts per process)
answer ``a -> b`` in O(1).  Every read's source row precedes it
(:meth:`~repro.arena.store.OpArena.append_read`), so row order is a
topological order of program order ∪ read-from.
Each view ``H_{p+w}`` gives every remote write a *batch index*, the first own
operation it precedes — read off the clocks for causal, off the read-from
pairs for pram (whose restricted
:func:`~repro.core.orders.pram_generating_order` graph is p's chain, the
write chains and read-from into p's reads).  Saturation
(:meth:`ArenaBatchChecker._witness`, the columnar form of
:meth:`~repro.core.serialization.SerializationProblem.saturate`) lowers it
to a fixpoint in one rewinding sweep: a cycle proves the view inconsistent,
otherwise the batches and own operations, interleaved, are the witness.  The
bad patterns are bisections over it.  An exact check saturates every view
first and runs the bad patterns only on a view saturation rejects, to name
its violations; ``check_now``, ``exact=False`` and the close after monitor
hits run the bad patterns alone.  The object path
(:func:`~repro.core.consistency.base.check_view`) keeps the gate-first order
on purpose: it is the reference the differential tests hold this one to.
Both engines emit by the one rule stated in :mod:`repro.core.serialization`,
so verdicts, violation strings and witnesses equal the object checker's over
the materialised history.

Every witness passes a self-check (:meth:`ArenaBatchChecker._verify`) before
it is returned; for causal it reads a row's whole clock only where the row's
process merged a source clock since its previous view row
(:meth:`ArenaBatchChecker._causal_vcs` marks those rows), and the docstring
proves that it fails where the check of every row fails, with the same
message.  A finalize-only exact close decides before it runs the stream
monitors, and runs them only when the decision rejects: a consistent verdict
leaves them nothing to find (:meth:`ArenaBatchChecker.finalize`).

Every other criterion runs its object checker on the rows materialised
(:func:`~repro.arena.adapter.history_from_arena`,
:func:`~repro.arena.adapter.read_from_of`) at each check and at the close.

A columnar check keeps each view's witness as an ``array('i')`` of rows: its
``CheckResult.serializations`` is an :class:`~repro.arena.adapter.Witnesses`
mapping that materialises a view's operations on its first access only.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
from itertools import chain
from operator import le
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..core.consistency.base import CheckResult
from ..core.consistency.incremental import IncrementalChecker
from ..core.consistency.registry import get_checker
from ..core.operations import decode_value, encode_value
from . import adapter
from .store import KIND_WRITE, NO_SOURCE, OpArena

#: Criteria with a columnar path; every other one is checked materialised.
COLUMNAR_CRITERIA = frozenset({"causal", "pram"})

#: The relation each columnar criterion's object checker builds
#: (:func:`~repro.core.orders.causal_order`,
#: :func:`~repro.core.orders.pram_generating_order`): the one an unsatisfiable
#: view's verdict names.
_RELATION_NAMES = {"causal": "causal", "pram": "pram-gen"}

#: The causal vector clocks ``(vc, wvc, pidx, merged)`` of
#: :meth:`ArenaBatchChecker._causal_vcs`.
Clocks = Tuple[array, array, Dict[int, int], array]


class _Chains(NamedTuple):
    """The write index every view of one check shares: each process' write
    rows, the chain positions of its writes on each variable id, and each
    variable id's writers (ascending)."""

    rows: Dict[int, Sequence[int]]
    on: Dict[Tuple[int, int], List[int]]
    writers: Dict[int, List[int]]


def _write_chains(arena: OpArena, pids: Sequence[int]) -> _Chains:
    """The :class:`_Chains` of processes ``pids`` in ``arena``."""
    chains = _Chains({q: arena.write_rows_of(q) for q in pids}, {}, {})
    for q in pids:
        for k, row in enumerate(chains.rows[q]):
            on = chains.on.setdefault((q, arena.var[row]), [])
            if not on:
                chains.writers.setdefault(arena.var[row], []).append(q)
            on.append(k)
    return chains


def _last_true(n: int, pred) -> int:
    """Length of the leading all-true run of a monotone (true…false…)
    predicate over ``range(n)`` — binary search, O(log n) evaluations."""
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


class RowMonitor:
    """The O(1)-per-operation stream monitors, over arena rows: per-reader
    per-variable writer monotonicity (a process that observed the ``i``-th
    write of a writer on ``x`` never reads an older one), freshness of ``⊥``
    reads, and with ``real_time`` (atomic) staleness in real time.  The
    first two prove inconsistency under slow memory, hence under every
    criterion.  The state, O(processes² × variables), names no row: write
    positions come from the ``index`` column the caller passes (a session's
    :attr:`OpArena.index`, a served window's stream indices), so it survives
    a window's compaction, and it round-trips through JSON."""

    def __init__(self, arena: OpArena, real_time: bool = False) -> None:
        self.arena = arena
        self.real_time = real_time
        #: (reader, variable id) -> {writer: highest write index observed}
        self._observed: Dict[Tuple[int, int], Dict[int, int]] = {}
        #: variable id -> (writer, index, value, invoked, completed) of the
        #: write with the latest completion seen so far
        self._last: Dict[int, Tuple[int, int, Any, Optional[float], float]] = {}

    def observe(self, start: int, index: Sequence[int]) -> List[Tuple[int, str]]:
        """Account for rows ``start`` on; their hits as ``(row, message)``."""
        arena = self.arena
        kind, proc, var, source = arena.kind, arena.proc, arena.var, arena.source
        observed = self._observed
        out: List[Tuple[int, str]] = []
        for row in range(start, len(kind)):
            p = proc[row]
            v = var[row]
            frontier = observed.setdefault((p, v), {})
            if kind[row] == KIND_WRITE:
                if index[row] > frontier.get(p, -1):
                    frontier[p] = index[row]
                if self.real_time:
                    self._complete(row, index)
                continue
            src = source[row]
            if src == NO_SOURCE:
                if frontier:
                    out.append((row, f"p{p}: {arena.label(row)} returns ⊥ after p{p} "
                                     f"already observed a write on {arena.var_name(v)}"))
            else:
                sp = proc[src]
                si = index[src]
                seen = frontier.get(sp, -1)
                if si < seen:
                    out.append((row, f"p{p}: {arena.label(row)} reads write #{si} of p{sp} on "
                                     f"{arena.var_name(v)} after p{p} already observed "
                                     f"write #{seen} of the same process"))
                if si > seen:
                    frontier[sp] = si
            if self.real_time:
                stale = self._stale(row, index)
                if stale is not None:
                    out.append((row, f"p{p}: {stale}"))
        return out

    def _complete(self, row: int, index: Sequence[int]) -> None:
        arena, completed = self.arena, self.arena.completed[row]
        last = self._last.get(arena.var[row])
        if completed == completed and (last is None or last[4] < completed):  # not nan
            self._last[arena.var[row]] = (arena.proc[row], index[row], arena.value_of(row),
                                          arena.timestamp(arena.invoked, row), completed)

    def _stale(self, row: int, index: Sequence[int]) -> Optional[str]:
        """The real-time violation read ``row`` proves, if any (an unknown
        time is ``nan``, which compares false: it proves nothing)."""
        arena, src = self.arena, self.arena.source[row]
        last = self._last.get(arena.var[row])
        if last is None or not last[4] < arena.invoked[row]:
            return None
        writer, at, value, invoked, _ = last
        if src != NO_SOURCE and ((arena.proc[src], index[src]) == (writer, at)
                                 or invoked is None or not arena.completed[src] < invoked):
            return None
        got = "⊥" if src == NO_SOURCE else arena.label(src)
        return (f"{arena.label(row)} returns {got} although "
                f"w{writer}({arena.var_name(arena.var[row])}){value!r} "
                f"completed before the read was invoked (real time)")

    def observed_index(self, reader: int, vid: int, writer: int) -> int:
        """Highest write index of ``writer`` on variable id ``vid`` that
        ``reader`` has observed so far (``-1`` when nothing was)."""
        return self._observed.get((reader, vid), {}).get(writer, -1)

    # -- checkpointing ---------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """JSON-able snapshot of the monitor state (see :meth:`load_state`)."""
        name = self.arena.var_name
        observed = sorted(
            [reader, name(vid), writer, index]
            for (reader, vid), frontier in self._observed.items()
            for writer, index in frontier.items()
        )
        last = sorted(  # one entry per variable: the names alone order them
            [name(vid), writer, index, encode_value(value), invoked, completed]
            for vid, (writer, index, value, invoked, completed) in self._last.items()
        )
        return {"real_time": self.real_time, "observed": observed, "last": last}

    def load_state(self, state: Dict[str, Any]) -> None:
        """Restore a snapshot produced by :meth:`export_state`."""
        intern = self.arena.intern_var
        self.real_time = bool(state.get("real_time", self.real_time))
        self._observed = {}
        for reader, variable, writer, index in state.get("observed", ()):
            frontier = self._observed.setdefault((reader, intern(variable)), {})
            frontier[writer] = max(frontier.get(writer, -1), index)
        self._last = {
            intern(variable): (process, index, decode_value(value), invoked, completed)
            for variable, process, index, value, invoked, completed in state.get("last", ())
        }


class ArenaBatchChecker(IncrementalChecker):
    """Incremental checker reading its stream from an :class:`OpArena`."""

    def __init__(
        self,
        criterion: str,
        arena: OpArena,
        *,
        exact: bool = True,
        cache: Optional[adapter.OpCache] = None,
    ) -> None:
        self._checker = get_checker(criterion)  # an unknown name fails here
        self.criterion = criterion
        self.arena = arena
        self._exact = exact
        self._cache: adapter.OpCache = {} if cache is None else cache
        self.start()

    # -- incremental protocol -------------------------------------------------
    def start(self, universe: Optional[Tuple[int, ...]] = None) -> None:
        self._universe = tuple(universe or ())
        self._reset_findings()
        #: Rows the monitors have advanced over.
        self._fed = 0
        self._monitor = RowMonitor(self.arena, real_time=self.criterion == "atomic")

    def feed(self, op: Any = None, read_from: Any = None) -> Optional[CheckResult]:
        """Advance over the rows appended since the last call (the arguments
        are ignored: the shared arena already holds them); the result so far
        when they prove a violation."""
        hits = self._monitor.observe(self._fed, self.arena.index)
        self._fed = len(self.arena)
        self._note_monitor_hits(hits)
        return self._result_so_far() if hits else None

    def check_now(self) -> Optional[CheckResult]:
        """Bad-pattern sweep over the current arena prefix, after the rows
        not yet fed — accumulated by the object stream's rule."""
        self.feed()
        return self._note_findings(self._sweep())

    def finalize(self) -> CheckResult:
        """The close: the stream monitors over the rows not yet fed, then,
        with no proven violation, :meth:`solved`; otherwise the accumulated
        violations and a polynomial sweep merged after them, like the object
        stream's collect-all close.

        An exact causal or pram close with nothing fed yet (a finalize-only
        session) decides first and runs the monitors only when the decision
        rejects.  A monitor hit proves the stream not even slow-memory
        consistent, and slow memory is weaker than causal and pram memory,
        so a consistent decision leaves no hit to find: the result, and
        ``first_stream_violation`` (``None``), are what the monitors-first
        close returns.  After such a close the monitors have observed no
        row (``ops_fed``, the arena's length, is unchanged).  A rejecting
        decision is kept, and is the close when the monitors hit nothing."""
        if self._finalized is None:
            decided = None
            if self._exact and not self._fed and self.criterion in COLUMNAR_CRITERIA:
                decided = self.solved()
                if decided.consistent:
                    self._finalized = decided
                    return decided
            self.feed()
            if self._violations:
                self._finalized = self._closing(self._sweep())
            else:
                self._finalized = self.solved() if decided is None else decided
        return self._finalized

    @property
    def ops_fed(self) -> int:
        return len(self.arena)

    def solved(self) -> CheckResult:
        """The batch close of the whole arena, without the stream monitors: its
        violations are the object check's.  Causal and pram: with ``exact``,
        every view's saturation and witness, and the bad patterns of the
        views it rejects; without, every view's bad patterns.  Any other
        criterion: its object checker on the materialised rows."""
        if self.criterion not in COLUMNAR_CRITERIA:
            return self._object_check(self._exact)
        found, witnesses = self._views(self._exact)
        return CheckResult(
            criterion=self.criterion, consistent=not found,
            exact=self._exact or bool(found), violations=found,
            serializations=adapter.Witnesses(self.arena, witnesses, self._cache),
        )

    def _sweep(self) -> List[str]:
        """The polynomial bad-pattern findings over the whole arena."""
        if self.criterion not in COLUMNAR_CRITERIA:
            return self._object_check(exact=False).violations
        return self._views(solve=False)[0]

    def _object_check(self, exact: bool) -> CheckResult:
        history = adapter.history_from_arena(self.arena, self._cache, self._universe)
        read_from = adapter.read_from_of(self.arena, self._cache)
        return self._checker.check(history, read_from=read_from, exact=exact)

    # -- columnar views -------------------------------------------------------
    def _views(self, solve: bool) -> Tuple[List[str], Dict[int, array]]:
        """The object checker's violation strings in its order, and the
        witness rows of every view that has one.

        With ``solve`` each view is saturated first: a witness that passes
        ``_verify`` proves the view consistent, so no bad pattern (each a
        sound refutation) can exist there.  Only a rejected view runs the
        bad-pattern pass, on its bounds recomputed (saturation lowers them in
        place), to name the violation — the strings are those of the
        object's gate-first order.  Without ``solve`` every view runs the
        bad-pattern pass alone."""
        arena = self.arena
        pids = sorted(set(self._universe) | set(arena.processes))
        clocks = self._causal_vcs(pids) if self.criterion == "causal" else None
        chains = _write_chains(arena, pids)
        violations: List[str] = []
        witnesses: Dict[int, array] = {}
        for p in pids:
            if solve:
                schedule = self._witness(p, self._bounds(p, chains, clocks), chains, clocks)
                if schedule is not None:
                    witnesses[p] = schedule
                    continue
            bound = self._bounds(p, chains, clocks, read_only=True)
            found = self._bad_patterns(p, bound, chains, clocks)
            violations.extend(f"p{p}: {v}" for v in found)
            if solve and not found:
                violations.append(
                    f"p{p}: no legal serialization of H_{{{p}+w}} respects "
                    f"{_RELATION_NAMES[self.criterion]}"
                )
        return violations, witnesses

    def _causal_vcs(self, pids: List[int]) -> Clocks:
        """Two vector-clock sweeps over the generating DAG (row order is a
        topological order because sources precede their reads).

        ``vc[row*P + j]``  = number of ``pids[j]``-operations causally ≤ row.
        ``wvc[row*P + j]`` = number of ``pids[j]``-writes causally ≤ row.
        ``merged[row]``    = the last row, at or before ``row``, where
        ``row``'s process merged a source clock into its own (its first row
        counts as one).

        A row's clocks are its process' previous row's, with the process' own
        entries advanced, and with a source clock merged in only where the
        reader does not count the source write yet (where it does, it holds
        the source's whole past and the merge would change nothing).  So
        between two rows of a process that no merge separates, the clocks
        differ in the process' own entries only: :meth:`_bounds` reads the
        own operations' clocks only at merges, and :meth:`_verify` tests the
        rest of a row's clock only where it moved.  ``merged`` is a row, not
        an own index, so both compare it with the rows they hold; like the
        clocks it lives for one check only.
        """
        arena = self.arena
        kind, proc, index, source = arena.kind, arena.proc, arena.index, arena.source
        n = len(kind)
        P = len(pids)
        pidx = {pid: j for j, pid in enumerate(pids)}
        vc = array("i", bytes(4 * n * P))
        wvc = array("i", bytes(4 * n * P))
        merged = array("i", bytes(4 * n))
        last: Dict[int, int] = {}
        wcount: Dict[int, int] = {}
        for row in range(n):
            p = proc[row]
            base = row * P
            prev = last.get(p)
            if prev is not None:
                pb = prev * P
                vc[base:base + P] = vc[pb:pb + P]
                wvc[base:base + P] = wvc[pb:pb + P]
                merged[row] = merged[prev]
            else:
                merged[row] = row
            if kind[row] == KIND_WRITE:
                w = wcount.get(p, 0) + 1
                wcount[p] = w
                wvc[base + pidx[p]] = w
            else:
                s = source[row]
                sb = s * P
                sj = pidx[proc[s]] if s != NO_SOURCE else 0
                # A reader that already counts its source write holds the
                # source's whole causal past: the merge would change nothing.
                if s != NO_SOURCE and wvc[sb + sj] > wvc[base + sj]:
                    merged[row] = row
                    for j in range(P):
                        x = vc[sb + j]
                        if x > vc[base + j]:
                            vc[base + j] = x
                        x = wvc[sb + j]
                        if x > wvc[base + j]:
                            wvc[base + j] = x
            vc[base + pidx[p]] = index[row] + 1
            last[p] = row
        return vc, wvc, pidx, merged

    def _bounds(
        self, p: int, chains: _Chains, clocks: Optional[Clocks], read_only: bool = False
    ) -> Dict[int, List[int]]:
        """Batch index of the remote writes of view p before saturation: the
        first own position each precedes in the relation (``len(own)``:
        none), non-decreasing along each write chain.  Causal reads it off
        the own operations' write clocks; in the pram view the only paths
        from a remote write to an own operation run down its chain to a write
        that an own read reads.

        Saturation needs every other process' chain.  The bad-pattern pass
        reads only the chains of the writers of the variables the own reads
        read, their sources among them: ``read_only`` builds just those."""
        arena = self.arena
        kind, proc, var, source = arena.kind, arena.proc, arena.var, arena.source
        own = arena.rows_of(p)
        wanted: Iterable[int] = chains.rows
        if read_only:
            read = {var[row] for row in own if kind[row] != KIND_WRITE}
            wanted = {q for v in read for q in chains.writers.get(v, ())}
        bound = {q: [len(own)] * len(chains.rows[q]) for q in wanted if q != p}
        if clocks is not None:
            # An own operation's write clock differs from its predecessor's
            # in q's entry only where p merged a source clock (``merged`` of
            # _causal_vcs; p's first row counts): the index moves there alone.
            wvc, pidx, merged = clocks[1], clocks[2], clocks[3]
            P = len(pidx)
            moves = [(t, row * P) for t, row in enumerate(own) if merged[row] == row]
            for q, bq in bound.items():
                filled, j = 0, pidx[q]
                for t, base in moves:
                    need = wvc[base + j]
                    if need > filled:
                        bq[filled:need] = [t] * (need - filled)
                        filled = need
            return bound
        for t, row in enumerate(own):
            s = source[row]
            if kind[row] != KIND_WRITE and s != NO_SOURCE and proc[s] != p:
                bq = bound[proc[s]]
                k = bisect_left(chains.rows[proc[s]], s)
                bq[k] = min(bq[k], t)
        for bq in bound.values():
            for k in range(len(bq) - 2, -1, -1):
                bq[k] = min(bq[k], bq[k + 1])
        return bound

    def _bad_patterns(
        self, p: int, bound: Dict[int, List[int]], chains: _Chains, clocks: Optional[Clocks]
    ) -> List[str]:
        """The object pre-check's findings on view p, same strings in the same
        order: per own read, its writer forced after it (only causal orders
        an own operation before a remote one), then per writer process the
        writes on its variable forced before it — and, for a sourced read,
        after its source.  In each writer's chain "before the read" is a
        prefix (the batch index grows along chains, and with the read) and
        "after the source" a suffix (clocks grow along chains)."""
        arena = self.arena
        kind, proc, var, index, source = (
            arena.kind, arena.proc, arena.var, arena.index, arena.source,
        )
        label = arena.label
        own = arena.rows_of(p)
        mine: Dict[int, List[int]] = {}
        for t, row in enumerate(own):
            if kind[row] == KIND_WRITE:
                mine.setdefault(var[row], []).append(t)
        before: Dict[Tuple[int, int], int] = {}
        found: List[str] = []
        for t, r in enumerate(own):
            if kind[r] == KIND_WRITE:
                continue
            v, s = var[r], source[r]
            sp = p if s == NO_SOURCE else proc[s]
            if sp != p:
                ks = bisect_left(chains.rows[sp], s)
                if clocks is not None and clocks[0][s * len(clocks[2]) + clocks[2][p]] > t:
                    found.append(f"{label(r)} is constrained to precede its writer {label(s)}")
            for q in chains.writers.get(v, ()):
                if q == p:
                    at = mine[v]
                    hi = bisect_left(at, t)
                    if s == NO_SOURCE:
                        lo = 0
                    else:
                        lo = bisect_right(at, index[s]) if sp == p else bisect_left(at, bound[sp][ks])
                    rows = [own[i] for i in at[lo:hi]]
                elif s == NO_SOURCE or clocks is not None or q == sp:
                    chain, xs, bq = chains.rows[q], chains.on[(q, v)], bound[q]
                    hi = before.get((q, v), 0)
                    while hi < len(xs) and bq[xs[hi]] <= t:
                        hi += 1
                    before[(q, v)] = hi
                    if s == NO_SOURCE:
                        lo = 0
                    elif q == sp:
                        lo = bisect_right(xs, ks)
                    else:
                        clock, j, o = ((clocks[0], clocks[2][p], index[s]) if sp == p
                                       else (clocks[1], clocks[2][sp], ks))
                        P = len(clocks[2])
                        lo = _last_true(hi, lambda i: clock[chain[xs[i]] * P + j] <= o)
                    rows = [chain[k] for k in xs[lo:hi]]
                else:
                    continue  # in the pram view nothing else follows a source
                for w in rows:
                    if s == NO_SOURCE:
                        found.append(f"{label(r)} returns ⊥ but {label(w)} precedes it")
                    elif w != s:
                        found.append(f"{label(w)} is forced between {label(s)} and {label(r)}")
        return found

    def _witness(
        self, p: int, bound: Dict[int, List[int]], chains: _Chains, clocks: Optional[Clocks]
    ) -> Optional[array]:
        """Saturate view p's batch index and emit its witness rows; ``None`` proves
        that no legal serialization of the view respects the relation.  It
        decides the view alone, with no bad-pattern gate before it.

        Own operation ``t`` has index ``t``.  An own read at ``t`` of ``s``
        needs every other write on its variable placed before it — per writer
        chain, the last one with index ``<= t`` — placed before ``s``.  Such a
        write later in ``s``' chain, or an own one at or after ``s``' index,
        closes a cycle; one with a larger index is lowered to ``s``' index
        with its predecessors (for causal, below its own lower bound
        ``vc[row][p]`` is a cycle); one with the same index gets an edge to
        ``s`` inside the batch.  A read of ⊥ with a write on its variable
        before it (an own one, or one with index ``<= t``) rejects the view.
        One sweep visits the own reads in order; after a read that lowers
        writes to index ``at`` it rewinds to ``at`` — a lowering only sets
        indices above ``at`` to ``at``, so no read before ``at`` is affected —
        and once it passes the last read nothing can move: the fixpoint.
        Each writer chain's pointer (its last write with index ``<= t``)
        steps back on a rewind as well as forward: indices are non-decreasing
        along a chain.  Emission: batch ``t`` in row order (a topological
        order of the relation), sorted locally only when it holds such an
        edge, then own operation ``t``.
        """
        arena = self.arena
        kind, proc, var, index, source = (
            arena.kind, arena.proc, arena.var, arena.index, arena.source,
        )
        own = arena.rows_of(p)
        mine: Dict[int, List[int]] = {}
        for t, row in enumerate(own):
            if kind[row] == KIND_WRITE:
                mine.setdefault(var[row], []).append(t)

        def lower(q: int, k: int, to: int) -> bool:
            if clocks is None:
                preds = {q: k + 1}
            else:
                vc, wvc, pidx, _ = clocks
                base = chains.rows[q][k] * len(pidx)
                if vc[base + pidx[p]] > to:
                    return False
                preds = {g: wvc[base + pidx[g]] for g in bound}
            for g, c in preds.items():
                bg = bound[g]
                while c and bg[c - 1] > to:
                    c -= 1
                    bg[c] = to
            return True

        edges = set()
        before: Dict[Tuple[int, int], int] = {}
        start = 0
        while True:
            for t in range(start, len(own)):
                r = own[t]
                if kind[r] == KIND_WRITE:
                    continue
                v, s = var[r], source[r]
                written = mine.get(v, ())
                if s == NO_SOURCE:
                    if written and written[0] < t:
                        return None  # an own write on v before r
                    if any(bound[q][chains.on[(q, v)][0]] <= t
                           for q in chains.writers.get(v, ()) if q != p):
                        return None
                    continue
                sp = proc[s]
                ks = index[s] if sp == p else bisect_left(chains.rows[sp], s)
                at = ks if sp == p else bound[sp][ks]
                if bisect_left(written, at + (sp == p)) < bisect_left(written, t):
                    return None  # an own write on v after s and before r
                lowered = False
                for q in chains.writers.get(v, ()):
                    if q == p:
                        continue
                    xs, bq = chains.on[(q, v)], bound[q]
                    i = before.get((q, v), 0)
                    while i and bq[xs[i - 1]] > t:
                        i -= 1
                    while i < len(xs) and bq[xs[i]] <= t:
                        i += 1
                    before[(q, v)] = i
                    if not i or bq[xs[i - 1]] < at:
                        continue
                    last = xs[i - 1]
                    if q == sp and last > ks:
                        return None
                    if bq[last] > at:
                        if not lower(q, last, at):
                            return None
                        lowered = True
                    if sp != p and q != sp:
                        edges.add((q, last, sp, ks))
                if lowered:
                    start = at
                    break
            else:
                break  # the sweep passed the last read: the fixpoint

        rows = chains.rows
        tied: Dict[int, List[Tuple[int, int]]] = {}
        for q, k, sq, ks in sorted(edges):
            if bound[q][k] == bound[sq][ks]:
                tied.setdefault(bound[q][k], []).append((rows[q][k], rows[sq][ks]))
        # Batch t of each chain is a run of it (indices are non-decreasing
        # along a chain): pop the chains whose next run is the lowest batch,
        # merge their runs by row and emit them after the own operations
        # before t.  The runs are ascending and disjoint, so one sort of
        # their concatenation (linear in timsort) is their merge.
        witness = array("i")
        done = 0
        nxt = dict.fromkeys(bound, 0)
        heads = [(bq[0], q) for q, bq in bound.items() if bq]
        heapify(heads)
        while heads:
            t = heads[0][0]
            runs = []
            while heads and heads[0][0] == t:
                q = heappop(heads)[1]
                bq, k = bound[q], nxt[q]
                end = nxt[q] = bisect_right(bq, t, k)
                runs.append(rows[q][k:end])
                if end < len(bq):
                    heappush(heads, (bq[end], q))
            witness.extend(iter(own[done:t]))
            done = t
            batch = sorted(chain(*runs)) if len(runs) > 1 else runs[0]
            if t in tied:
                batch = self._sorted_batch(list(batch), tied[t], rows, clocks)
                if not batch:
                    return None
            witness.extend(iter(batch))
        witness.extend(iter(own[done:]))
        self._verify(p, witness, rows, clocks)
        return witness

    def _sorted_batch(
        self,
        batch: List[int],
        tied: List[Tuple[int, int]],
        rows: Dict[int, Sequence[int]],
        clocks: Optional[Clocks],
    ) -> List[int]:
        """Topological order of one batch under the relation plus the
        saturation edges ``tied``, smallest row first; empty on a cycle.  A
        process' members of a batch are consecutive in its chain, so inside
        it the relation is the chains plus, for causal, an edge from the last
        member of each other process the write clock counts."""
        proc = self.arena.proc
        preds: Dict[int, List[int]] = {row: [] for row in batch}
        for before, after in tied:
            preds[after].append(before)
        runs: Dict[int, List[int]] = {}
        for row in batch:
            run = runs.setdefault(proc[row], [])
            preds[row].extend(run[-1:])
            run.append(row)
        if clocks is not None:
            wvc, pidx = clocks[1], clocks[2]
            first = {g: bisect_left(rows[g], run[0]) for g, run in runs.items()}
            for row in batch:
                for g, run in runs.items():
                    counted = min(wvc[row * len(pidx) + pidx[g]] - first[g], len(run))
                    if g != proc[row] and counted > 0:
                        preds[row].append(run[counted - 1])
        succ: Dict[int, List[int]] = {row: [] for row in batch}
        waiting = dict.fromkeys(batch, 0)
        for row, before in preds.items():
            for b in dict.fromkeys(before):
                succ[b].append(row)
                waiting[row] += 1
        ready = [row for row in batch if not waiting[row]]
        out: List[int] = []
        while ready:
            out.append(heappop(ready))
            for after in succ[out[-1]]:
                waiting[after] -= 1
                if not waiting[after]:
                    heappush(ready, after)
        return out if len(out) == len(batch) else []

    def _verify(
        self,
        p: int,
        schedule: Sequence[int],
        rows: Dict[int, Sequence[int]],
        clocks: Optional[Clocks],
    ) -> None:
        """Self-check of view p's witness — every process' view operations in
        chain order, each read preceded last on its variable by its source
        row, and for causal every row after all it is counted to follow.  A
        failure is an internal error, never a verdict.

        The causal test (``vc[row]`` counts no own operation not yet done,
        ``wvc[row]`` no more writes of a process than its view rows done)
        reads a row's clock only where it moved: at a process' first view
        row, and where the process merged a source clock (``merged`` of
        :meth:`_causal_vcs`) after its previous view row.  A row it skips would pass, by induction along the
        process' view rows.  The previous one passed, tested or skipped; the
        row's clock equals its clock outside the process' own entries (no
        merge came between them), and the done counts only grew since; the
        own entries pass whenever the chain position does, which every row
        checks: the ``k``-th view row of ``q`` (from 0) counts ``k + 1`` of
        ``q``'s writes when ``q != p``, and ``k + 1`` of p's operations, so
        at most as many of its writes, when ``q = p``, against ``k + 1``
        done.  So the first row the test of every row refuses is tested, and
        the check raises there, with the same message."""
        arena = self.arena
        kind, proc, var, source = arena.kind, arena.proc, arena.var, arena.source
        # Process q's view rows in slot pidx[q]; done[j]: how many of slot
        # j's are done — for causal, the counts no row's clock may exceed.
        slot = {q: j for j, q in enumerate(rows)} if clocks is None else clocks[2]
        lines: List[Sequence[int]] = [()] * len(slot)
        for q, j in slot.items():
            lines[j] = arena.rows_of(p) if q == p else rows[q]
        done = [0] * len(slot)
        jp = slot[p]
        if clocks is not None:
            vc, wvc, _, merged = clocks
            P = len(slot)
        last: Dict[int, int] = {}
        for row in schedule:
            j = slot[proc[row]]
            k = done[j]
            line = lines[j]
            try:
                ok = line[k] == row
            except IndexError:  # the process has no view row left
                ok = False
            done[j] = k + 1
            if kind[row] == KIND_WRITE:
                last[var[row]] = row
            elif last.get(var[row], NO_SOURCE) != source[row]:
                ok = False
            if clocks is not None and ok and (not k or merged[row] > line[k - 1]):
                base = row * P
                ok = vc[base + jp] <= done[jp] and all(map(le, wvc[base:base + P], done))
            if not ok:
                raise AssertionError(f"p{p}: the columnar witness fails its self-check at row {row}")
        if any(k != len(line) for k, line in zip(done, lines)):
            raise AssertionError(f"p{p}: the columnar witness misses view operations")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ArenaBatchChecker criterion={self.criterion!r} "
            f"ops={len(self.arena)} exact={self._exact}>"
        )
