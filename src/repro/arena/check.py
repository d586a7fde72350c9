"""Consistency checking directly over arena columns.

:class:`ArenaBatchChecker` checks every history-keeping
:class:`repro.api.Session` run: the session records into an
:class:`~repro.arena.store.OpArena` (:class:`~repro.arena.recorder.ArenaRecorder`)
and the checker reads the rows from that shared arena, so the operation
arguments of the :class:`~repro.core.consistency.incremental.IncrementalChecker`
protocol are ignored — ``feed``, ``check_now`` and ``finalize`` each first
advance over the rows appended since the last call.  A finalize-only session
subscribes no listener at all: ``finalize`` then advances over the whole run
and no per-operation object is ever built.  A session whose policy checks
mid-run subscribes ``feed``, so a stream-monitor hit is noted at the row that
proves it and a fail-fast run stops where the object stream would.

Causal and pram are checked over the columns at every size.  Monitors, bad
patterns and witnesses run over the int columns, with no per-view graph: the
stream monitors of
:class:`~repro.core.consistency.incremental.StreamMonitors` replicated over
rows (same messages, same order, frontier state kept across calls), and for
**causal** two vector-clock sweeps (operation and write counts per process)
that answer ``a -> b`` in O(1).
Each view ``H_{p+w}`` gives every remote write a *batch index*, the first own
operation it precedes — read off the clocks for causal, off the read-from
pairs for pram (whose restricted
:func:`~repro.core.orders.pram_generating_order` graph is p's chain, the
write chains and read-from into p's reads).  The bad patterns are bisections
over it, and saturation (:meth:`ArenaBatchChecker._witness`, the columnar
form of :meth:`~repro.core.serialization.SerializationProblem.saturate`)
lowers it to a fixpoint: a cycle proves the view inconsistent, otherwise the
batches and own operations, interleaved, are the witness.  Both engines emit
by the one rule stated in :mod:`repro.core.serialization`, so verdicts,
violation strings and witnesses equal the object checker's over the
materialised history.

Every other criterion, and an adapter-built arena whose read sources do not
all precede their reads, is checked by one inner
:func:`~repro.core.consistency.incremental.incremental_checker`: each row is
materialised and fed to it once, in recording order, and ``check_now``,
``finalize`` and ``first_stream_violation`` are the inner checker's.

A columnar check keeps each view's witness as an ``array('i')`` of rows: its
``CheckResult.serializations`` is an :class:`~repro.arena.adapter.Witnesses`
mapping that materialises a view's operations on its first access only.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from heapq import heappop, heappush
from operator import le
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..core.consistency.base import CheckResult
from ..core.consistency.incremental import IncrementalChecker, incremental_checker
from ..core.consistency.registry import get_checker
from . import adapter
from .store import KIND_WRITE, NO_SOURCE, OpArena

#: Criteria with a columnar path; everything else materialises.
COLUMNAR_CRITERIA = frozenset({"causal", "pram"})

#: The relation each columnar criterion's object checker builds
#: (:func:`~repro.core.orders.causal_order`,
#: :func:`~repro.core.orders.pram_generating_order`): the one an unsatisfiable
#: view's verdict names.
_RELATION_NAMES = {"causal": "causal", "pram": "pram-gen"}

#: The causal vector clocks ``(vc, wvc, pidx)`` of :meth:`ArenaBatchChecker._causal_vcs`.
Clocks = Tuple[array, array, Dict[int, int]]


class _Chains(NamedTuple):
    """The write index every view of one check shares: each process' write
    rows, the chain positions of its writes on each variable id, and each
    variable id's writers (ascending)."""

    rows: Dict[int, Sequence[int]]
    on: Dict[Tuple[int, int], List[int]]
    writers: Dict[int, List[int]]


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
        get_checker(criterion)  # an unknown name fails here, not at finalize
        self.criterion = criterion
        self.arena = arena
        self._exact = exact
        self._cache: adapter.OpCache = {} if cache is None else cache
        self.start()

    # -- incremental protocol -------------------------------------------------
    def start(self, universe: Optional[Tuple[int, ...]] = None) -> None:
        """Reset, and fix the path: columnar when the criterion has one and
        every read source precedes its read, else the inner object checker."""
        self._universe = tuple(universe or ())
        self._reset_findings()
        #: Rows the monitors (or the inner checker) have advanced over.
        self._fed = 0
        #: Row-monitor frontiers: (reader, variable id) -> {writer: index}.
        self._observed: Dict[Tuple[int, int], Dict[int, int]] = {}
        self._inner: Optional[IncrementalChecker] = None
        if self.criterion not in COLUMNAR_CRITERIA or not self._sources_forward():
            self._inner = incremental_checker(self.criterion, exact=self._exact)
            self._inner.start(self._universe)

    def feed(self, op: Any = None, read_from: Any = None) -> Optional[CheckResult]:
        """Advance over the rows appended since the last call (the arguments
        are ignored: the shared arena already holds them); the result so far
        when they prove a violation."""
        if self._inner is not None:
            return self._feed_inner()
        hits = self._advance_monitors()
        self._note_monitor_hits(hits)
        return self._result_so_far() if hits else None

    def check_now(self) -> Optional[CheckResult]:
        """Bad-pattern sweep over the current arena prefix, after the rows
        not yet fed — accumulated by the object stream's rule."""
        if self._inner is not None:
            self._feed_inner()
            return self._inner.check_now()
        self.feed()
        return self._note_findings(self._views(solve=False)[0])

    def finalize(self) -> CheckResult:
        if self._inner is not None:
            self._feed_inner()
            return self._inner.finalize()
        if self._finalized is None:
            self.feed()
            if self._violations:
                # Proven violations exist: close with a polynomial sweep merged
                # after them, like the object stream's collect-all close.
                self._finalized = self._closing(self._views(solve=False)[0])
            else:
                self._finalized = self._solved()
        return self._finalized

    @property
    def ops_fed(self) -> int:
        return len(self.arena)

    @property
    def violations(self) -> List[str]:
        if self._inner is not None:
            return self._inner.violations
        return list(self._violations)

    # -- path selection -------------------------------------------------------
    def _sources_forward(self) -> bool:
        """``True`` iff every read's source row precedes the read (always the
        case for live-recorded arenas; adapter-built ones may differ)."""
        src = self.arena.numpy_view("source")
        if src is not None:
            import numpy as np  # arena.store resolved it already

            n = len(src)
            return bool(n == 0 or not (src > np.arange(n)).any())
        source = self.arena.source
        return all(source[row] <= row for row in range(len(source)))

    # -- the inner object checker ---------------------------------------------
    def _feed_inner(self) -> Optional[CheckResult]:
        """Feed the rows not yet fed to the inner checker, materialised; its
        result so far when they prove a violation."""
        assert self._inner is not None
        result = None
        for op, source in adapter.stream_of(self.arena, self._fed, self._cache):
            hit = self._inner.feed(op, source)
            if hit is not None:
                result = hit
        self._fed = len(self.arena)
        self.first_stream_violation = self._inner.first_stream_violation
        return result

    # -- columnar path --------------------------------------------------------
    def _solved(self) -> CheckResult:
        """The closing check of a stream with no proven violation: every
        view's bad patterns, then (``exact``) its saturation and witness."""
        found, witnesses = self._views(self._exact)
        return CheckResult(
            criterion=self.criterion, consistent=not found,
            exact=self._exact or bool(found), violations=found,
            serializations=adapter.Witnesses(self.arena, witnesses, self._cache),
        )

    def _advance_monitors(self) -> List[Tuple[int, str]]:
        """Row-level replica of ``StreamMonitors.observe`` + the ``p{pid}:``
        prefix of ``WindowedChecker.feed`` over the rows appended since the
        last call: their hits as ``(row, message)`` (real-time monitoring is
        only used by the atomic criterion, which has no columnar path)."""
        arena = self.arena
        kind, proc, var, index, source = (
            arena.kind, arena.proc, arena.var, arena.index, arena.source,
        )
        observed = self._observed
        out: List[Tuple[int, str]] = []
        for row in range(self._fed, len(kind)):
            p = proc[row]
            v = var[row]
            frontier = observed.setdefault((p, v), {})
            if kind[row] == KIND_WRITE:
                if index[row] > frontier.get(p, -1):
                    frontier[p] = index[row]
                continue
            src = source[row]
            if src == NO_SOURCE:
                if frontier:
                    out.append((row, (
                        f"p{p}: {arena.label(row)} returns ⊥ after p{p} already "
                        f"observed a write on {arena.var_name(v)}"
                    )))
                continue
            sp = proc[src]
            si = index[src]
            seen = frontier.get(sp, -1)
            if si < seen:
                out.append((row, (
                    f"p{p}: {arena.label(row)} reads write #{si} of "
                    f"p{sp} on {arena.var_name(v)} after p{p} "
                    f"already observed write #{seen} of the same process"
                )))
            if si > seen:
                frontier[sp] = si
        self._fed = len(kind)
        return out

    # -- columnar views -------------------------------------------------------
    def _views(self, solve: bool) -> Tuple[List[str], Dict[int, array]]:
        """Every view's bad patterns, then — when it has none and ``solve`` is
        set — its saturation: the object checker's violation strings in its
        order, and the witness rows of every view that has one."""
        arena = self.arena
        pids = sorted(set(self._universe) | set(arena.processes))
        clocks = self._causal_vcs(pids) if self.criterion == "causal" else None
        chains = _Chains({q: arena.write_rows_of(q) for q in pids}, {}, {})
        for q in pids:
            for k, row in enumerate(chains.rows[q]):
                on = chains.on.setdefault((q, arena.var[row]), [])
                if not on:
                    chains.writers.setdefault(arena.var[row], []).append(q)
                on.append(k)
        violations: List[str] = []
        witnesses: Dict[int, array] = {}
        for p in pids:
            bound = self._bounds(p, chains, clocks)
            found = self._bad_patterns(p, bound, chains, clocks)
            if found:
                violations.extend(f"p{p}: {v}" for v in found)
            elif solve:
                schedule = self._witness(p, bound, chains, clocks)
                if schedule is None:
                    violations.append(
                        f"p{p}: no legal serialization of H_{{{p}+w}} respects "
                        f"{_RELATION_NAMES[self.criterion]}"
                    )
                else:
                    witnesses[p] = schedule
        return violations, witnesses

    def _causal_vcs(
        self, pids: List[int]
    ) -> Tuple[array, array, Dict[int, int]]:
        """Two vector-clock sweeps over the generating DAG (row order is a
        topological order because sources precede their reads).

        ``vc[row*P + j]``  = number of ``pids[j]``-operations causally ≤ row.
        ``wvc[row*P + j]`` = number of ``pids[j]``-writes causally ≤ row.
        """
        arena = self.arena
        kind, proc, index, source = arena.kind, arena.proc, arena.index, arena.source
        n = len(kind)
        P = len(pids)
        pidx = {pid: j for j, pid in enumerate(pids)}
        vc = array("i", bytes(4 * n * P))
        wvc = array("i", bytes(4 * n * P))
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
            if kind[row] == KIND_WRITE:
                w = wcount.get(p, 0) + 1
                wcount[p] = w
                wvc[base + pidx[p]] = w
            else:
                s = source[row]
                if s != NO_SOURCE:
                    sb = s * P
                    for j in range(P):
                        x = vc[sb + j]
                        if x > vc[base + j]:
                            vc[base + j] = x
                        x = wvc[sb + j]
                        if x > wvc[base + j]:
                            wvc[base + j] = x
            vc[base + pidx[p]] = index[row] + 1
            last[p] = row
        return vc, wvc, pidx

    def _bounds(self, p: int, chains: _Chains, clocks: Optional[Clocks]) -> Dict[int, List[int]]:
        """Batch index of every remote write of view p before saturation: the
        first own position it precedes in the relation (``len(own)``: none),
        non-decreasing along each write chain.  Causal reads it off the own
        operations' write clocks; in the pram view the only paths from a
        remote write to an own operation run down its chain to a write that
        an own read reads."""
        arena = self.arena
        kind, proc, source = arena.kind, arena.proc, arena.source
        own = arena.rows_of(p)
        bound = {q: [len(own)] * len(rows) for q, rows in chains.rows.items() if q != p}
        if clocks is not None:
            wvc, pidx = clocks[1], clocks[2]
            for q, bq in bound.items():
                filled, j = 0, pidx[q]
                for t, row in enumerate(own):
                    need = wvc[row * len(pidx) + j]
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
        that no legal serialization of the view respects the relation.

        Own operation ``t`` has index ``t``.  An own read at ``t`` of ``s``
        needs every other write on its variable placed before it — per writer
        chain, the last one with index ``<= t`` — placed before ``s``.  Such a
        write later in ``s``' chain, or an own one at or after ``s``' index,
        closes a cycle; one with a larger index is lowered to ``s``' index
        with its predecessors (for causal, below its own lower bound
        ``vc[row][p]`` is a cycle); one with the same index gets an edge to
        ``s`` inside the batch.  Reads at or after the lowest lowered index
        are revisited until nothing moves.  Emission: batch ``t`` in row order
        (a topological order of the relation), sorted locally only when it
        holds such an edge, then own operation ``t``.
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
                vc, wvc, pidx = clocks
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
        start = 0
        while start < len(own):
            lowest = len(own)
            before: Dict[Tuple[int, int], int] = {}
            for t in range(start, len(own)):
                r = own[t]
                if kind[r] == KIND_WRITE:
                    continue
                v, s = var[r], source[r]
                if s == NO_SOURCE:
                    if any(bound[q][chains.on[(q, v)][0]] <= t
                           for q in chains.writers.get(v, ()) if q != p):
                        return None
                    continue
                sp = proc[s]
                ks = index[s] if sp == p else bisect_left(chains.rows[sp], s)
                at = ks if sp == p else bound[sp][ks]
                written = mine.get(v, ())
                if bisect_left(written, at + (sp == p)) < bisect_left(written, t):
                    return None  # an own write on v after s and before r
                for q in chains.writers.get(v, ()):
                    if q == p:
                        continue
                    xs, bq = chains.on[(q, v)], bound[q]
                    i = before.get((q, v), 0)
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
                        lowest = min(lowest, at)
                    if sp != p and q != sp:
                        edges.add((q, last, sp, ks))
            start = lowest

        n = len(arena)
        rows = chains.rows
        keyed = sorted(b * n + row for q, bq in bound.items() for b, row in zip(bq, rows[q]))
        tied: Dict[int, List[Tuple[int, int]]] = {}
        for q, k, sq, ks in sorted(edges):
            if bound[q][k] == bound[sq][ks]:
                tied.setdefault(bound[q][k], []).append((rows[q][k], rows[sq][ks]))
        schedule: List[int] = []
        at = 0
        for t in range(len(own) + 1):
            end = bisect_left(keyed, (t + 1) * n, at)
            batch = [key - t * n for key in keyed[at:end]]
            at = end
            if t in tied:
                batch = self._sorted_batch(batch, tied[t], rows, clocks)
                if not batch:
                    return None
            schedule.extend(batch)
            if t < len(own):
                schedule.append(own[t])
        self._verify(p, schedule, rows, clocks)
        return array("i", schedule)

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
        schedule: List[int],
        rows: Dict[int, Sequence[int]],
        clocks: Optional[Clocks],
    ) -> None:
        """Self-check of view p's witness — every process' view operations in
        chain order, each read preceded last on its variable by its source
        row, and for causal every row after all it is counted to follow.  A
        failure is an internal error, never a verdict."""
        arena = self.arena
        kind, proc, var, source = arena.kind, arena.proc, arena.var, arena.source
        lines = dict(rows)
        lines[p] = arena.rows_of(p)
        done = dict.fromkeys(lines, 0)
        if clocks is not None:
            vc, wvc, pidx = clocks
            counts, P = [0] * len(pidx), len(pidx)
        last: Dict[int, int] = {}
        for row in schedule:
            q = proc[row]
            k = done[q]
            ok = k < len(lines[q]) and lines[q][k] == row
            done[q] = k + 1
            if kind[row] == KIND_WRITE:
                last[var[row]] = row
            elif last.get(var[row], NO_SOURCE) != source[row]:
                ok = False
            if clocks is not None and ok:
                counts[pidx[q]] = k + 1
                base = row * P
                ok = vc[base + pidx[p]] <= done[p] and all(map(le, wvc[base:base + P], counts))
            if not ok:
                raise AssertionError(f"p{p}: the columnar witness fails its self-check at row {row}")
        if any(done[q] != len(line) for q, line in lines.items()):
            raise AssertionError(f"p{p}: the columnar witness misses view operations")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ArenaBatchChecker criterion={self.criterion!r} "
            f"ops={len(self.arena)} exact={self._exact}>"
        )
