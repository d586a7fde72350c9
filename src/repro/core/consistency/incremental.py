"""Incremental consistency checking over live runs.

The batch checkers of this package answer "is this *finished* history
consistent?".  The streaming :class:`repro.api.Session` facade and the
``repro serve`` tenants need the dual question: "is the run still consistent
*so far*?" — answered while the operations arrive, so a violating run can be
stopped long before its history is complete.  One argument answers it
everywhere.  ``feed`` receives operations in *recording* (delivery) order,
which extends every process' program order, so at any instant the fed
operations form a prefix of each local history.  All relations of the paper
(program, read-from, causal and lazy closures, PRAM, slow) are *monotone* —
adding operations only ever adds pairs — and every bad pattern of
:meth:`repro.core.serialization.SerializationProblem.quick_violations` is an
existential statement over those relations.  A violation found on a prefix,
or on any sub-history of it, therefore remains a violation of every
extension: early ``False`` verdicts are exact proofs.

:class:`IncrementalChecker`
    ``start(universe) / feed(op, read_from) / check_now() / finalize()``,
    and the one rule by which every implementation — this module's and the
    arena's :class:`~repro.arena.check.ArenaBatchChecker` — accumulates what
    it proves: monitor hits in feed order, prefix findings with string
    dedup, the collect-all closing merge and ``first_stream_violation``.

:class:`WindowedChecker`
    The incremental checker of a stream of operations: O(1)-per-operation
    stream monitors (:class:`~repro.arena.check.RowMonitor`) on every
    operation plus, on demand (:meth:`~IncrementalChecker.check_now`) and at
    ``finalize``, the batch check of the operations it retains — which are
    rows of its own arena, decided by
    :meth:`~repro.arena.check.ArenaBatchChecker.solved`.  Its ``window`` is
    the retention policy: ``None`` retains the whole stream (with
    ``exact=True`` a clean ``finalize`` is then the batch checker's exact
    decision, witnesses included), and ``N >= 4`` retains a sliding window
    with Theorem 1 eviction (``repro serve``).  :func:`incremental_checker`
    builds the first.

:class:`CheckPolicy`
    When to spend how much: every-op / every-N / on-finalize cadence for the
    prefix checks, fail-fast versus collect-all on violation.
"""

from __future__ import annotations

import abc
import bisect
from array import array
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ...exceptions import (
    ConsistencyCheckError,
    DistributionError,
    UnknownCriterionError,
)
from ..distribution import VariableDistribution
from ..operations import Operation, OpKind, decode_value, encode_value
from ..share_graph import ShareGraph
from .base import CheckResult, ConsistencyChecker
from .registry import get_checker


# ---------------------------------------------------------------------------
# Check policy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckPolicy:
    """When the incremental checkers run their prefix checks.

    Attributes
    ----------
    every:
        Run the polynomial prefix check every ``every`` fed operations;
        ``0`` disables periodic checks (finalize-only, unless ``geometric``).
        The O(1) stream monitors always run on every operation regardless.
    fail_fast:
        When ``True`` the session stops the run at the first proven
        violation; when ``False`` it keeps executing and collects every
        violation it finds.
    geometric:
        Run the prefix check at geometrically growing prefixes (operations
        16, 32, 64, ...).  Each check is O(prefix²)-ish, so a geometric
        cadence keeps the *total* checking work within a constant factor of
        the single final check — the right default for fail-fast sessions,
        where a fixed ``every=1`` cadence would cost O(n³) on a clean run.
    """

    every: int = 0
    fail_fast: bool = False
    geometric: bool = False

    #: First geometric checkpoint (prefixes below this are monitor-only).
    GEOMETRIC_START = 16

    #: Spellings accepted by :meth:`parse` (and by ``Session(check_policy=...)``):
    #: name -> (every, fail_fast, geometric).
    ALIASES = {
        "finalize": (0, False, False),
        "every_op": (1, False, False),
        "fail_fast": (0, True, True),
    }

    def __post_init__(self) -> None:
        if self.every < 0:
            raise ConsistencyCheckError(
                f"CheckPolicy.every must be >= 0, got {self.every}"
            )

    @classmethod
    def parse(cls, spec: "CheckPolicy | str | None") -> "CheckPolicy":
        """Resolve a policy from an instance, an alias string or ``None``.

        Strings: ``"finalize"``, ``"every_op"``, ``"fail_fast"``, ``"every:N"``
        or ``"every:N:fail_fast"`` — exactly; a misspelt suffix is an error,
        never a silently collect-all policy.
        """
        if spec is None:
            return cls()
        if isinstance(spec, cls):
            return spec
        if not isinstance(spec, str):
            raise ConsistencyCheckError(
                f"check policy must be a CheckPolicy or a string, got {spec!r}"
            )
        if spec in cls.ALIASES:
            every, fail_fast, geometric = cls.ALIASES[spec]
            return cls(every=every, fail_fast=fail_fast, geometric=geometric)
        if spec.startswith("every:"):
            _, number, *suffix = spec.split(":")
            if not number.isdecimal() or suffix not in ([], ["fail_fast"]):
                raise ConsistencyCheckError(
                    f"malformed check policy {spec!r}; want 'every:N[:fail_fast]'"
                )
            return cls(every=int(number), fail_fast=bool(suffix))
        raise ConsistencyCheckError(
            f"unknown check policy {spec!r}; known: "
            f"{sorted(cls.ALIASES)} or 'every:N[:fail_fast]'"
        )

    def due(self, ops_fed: int) -> bool:
        """``True`` when a prefix check is due after ``ops_fed`` operations."""
        if self.every > 0 and ops_fed % self.every == 0:
            return True
        if self.geometric and ops_fed >= self.GEOMETRIC_START:
            return ops_fed & (ops_fed - 1) == 0  # powers of two
        return False


# ---------------------------------------------------------------------------
# The incremental protocol and its accumulation rule
# ---------------------------------------------------------------------------

def append_new(violations: List[str], found: Sequence[str]) -> List[str]:
    """Append every string of ``found`` not yet in ``violations``, in order."""
    for violation in found:
        if violation not in violations:
            violations.append(violation)
    return violations


class IncrementalChecker(abc.ABC):
    """Streaming counterpart of :class:`~repro.core.consistency.base.ConsistencyChecker`.

    Life cycle: ``start(universe)`` once, ``feed(op, read_from)`` per
    operation in recording order, ``check_now()`` whenever the caller's
    :class:`CheckPolicy` says so, ``finalize()`` once at the end of the run.
    ``feed``/``check_now`` return a :class:`CheckResult` as soon as a
    violation is *proven* (such early verdicts are exact), else ``None``.

    Every implementation accumulates what it proves by one rule, written
    here: stream-monitor hits enter :attr:`violations` verbatim in feed order
    (:meth:`_note_monitor_hits`, duplicates kept), prefix and window findings
    are appended with string dedup (:meth:`_note_findings`), every
    inconsistent return carries the whole accumulated list
    (:meth:`_result_so_far`), and ``finalize`` merges its closing polynomial
    sweep after it (:meth:`_closing`).  Subclasses call :meth:`_reset_findings`
    from ``start``.
    """

    #: Criterion name, e.g. ``"pram"``.
    criterion: str = "abstract"

    #: Earliest stream-monitor hit as ``(stream position, message)`` — the
    #: violation a session reports first when no ``feed`` returned one.
    first_stream_violation: Optional[Tuple[int, str]] = None

    @abc.abstractmethod
    def start(self, universe: Optional[Tuple[int, ...]] = None) -> None:
        """Reset the checker for a fresh run over processes ``universe``."""

    @abc.abstractmethod
    def feed(
        self, op: Operation, read_from: Optional[Operation] = None
    ) -> Optional[CheckResult]:
        """Observe one recorded operation (``read_from`` resolves its writer)."""

    @abc.abstractmethod
    def check_now(self) -> Optional[CheckResult]:
        """Run the (polynomial) prefix check on everything fed so far."""

    @abc.abstractmethod
    def finalize(self) -> CheckResult:
        """Close the stream and return the definitive result."""

    @property
    @abc.abstractmethod
    def ops_fed(self) -> int:
        """Number of operations observed so far (the early-exit metric)."""

    # -- the accumulation rule -------------------------------------------------
    @property
    def violations(self) -> List[str]:
        """The violations proven so far, in the order they were accumulated."""
        return list(self._violations)

    def _reset_findings(self) -> None:
        self._violations: List[str] = []
        self._finalized: Optional[CheckResult] = None
        self.first_stream_violation = None

    def _note_monitor_hits(self, hits: Sequence[Tuple[int, str]]) -> None:
        """Accumulate stream-monitor hits ``(stream position, message)``."""
        if hits and self.first_stream_violation is None:
            self.first_stream_violation = hits[0]
        self._violations.extend(message for _, message in hits)

    def _note_findings(self, found: Sequence[str]) -> Optional[CheckResult]:
        """Accumulate prefix or window findings; the result so far, if any."""
        append_new(self._violations, found)
        return self._result_so_far() if self._violations else None

    def _result_so_far(self) -> CheckResult:
        # A violation proven on a prefix is exact whatever mode we run in.
        return CheckResult(
            criterion=self.criterion,
            consistent=False,
            exact=True,
            violations=list(self._violations),
        )

    def _closing(self, found: Sequence[str]) -> CheckResult:
        """The collect-all close: the accumulated findings, then the closing
        sweep's.  With neither, the sweep and the monitors are all that
        speaks for the stream: a heuristic pass, like the batch pre-check's."""
        result = self._note_findings(found)
        if result is None:
            return CheckResult(criterion=self.criterion, consistent=True, exact=False)
        return result


# ---------------------------------------------------------------------------
# The incremental checker: a retention window over the stream
# ---------------------------------------------------------------------------

#: Format tag of :meth:`WindowedChecker.checkpoint` payloads.
CHECKPOINT_FORMAT = "repro-windowed-checkpoint-v1"


@dataclass
class WindowMetrics:
    """Bounded-memory accounting of one :class:`WindowedChecker`."""

    ops_fed: int = 0
    retained: int = 0
    peak_retained: int = 0
    evicted_proved: int = 0
    evicted_forced: int = 0
    standins: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class WindowedChecker(IncrementalChecker):
    """The incremental checker: stream monitors on every operation, plus the
    polynomial bad-pattern pre-check over the operations it retains.

    ``window`` is the retention policy:

    * ``None`` retains the whole stream — the mode behind
      :func:`incremental_checker`;
    * ``N >= 4`` retains a sliding window and garbage-collects the prefix,
      which is what lets the ``repro serve`` monitors run forever.

    **The window is arena rows** of the checker's own
    :class:`~repro.arena.store.OpArena`, in a topological order of program
    order ∪ read-from: ``feed`` appends one row, once a read's ``read_from``
    is known to be a retained, fed write on its variable
    (:class:`~repro.exceptions.ConsistencyCheckError` otherwise).  Per row it
    also keeps the caller's :class:`Operation` (results name the caller's
    objects) and the stream index, which the monitors
    (:class:`~repro.arena.check.RowMonitor`), pins and checkpoints speak of;
    the arena's ``index`` is the dense position the columnar check needs.
    Every due check and close is
    :meth:`~repro.arena.check.ArenaBatchChecker.solved` on that arena.

    Soundness rests on two pillars:

    * **Monotone subset.**  Every retained window is a sub-history of the
      full stream whose program order, read-from and derived closures are
      subsets of the full relations, so every bad pattern found over the
      window is a bad pattern of the full history — windowed violations are
      *exact* proofs.  The O(1) monitors keep running — exactly — across
      evictions because their state (per-reader writer frontiers, in stream
      indices) never references retained rows.

    * **Proved eviction (paper, Theorem 1).**  A write ``w_p(x)#k`` can stop
      participating in *new* bad patterns once every process that can ever
      read ``x`` has observed a write of ``p`` on ``x`` with index ``>= k``:
      by Theorem 1 the processes whose operations are x-relevant are
      ``C(x)`` plus x-hoop processes, and only the holders ``C(x)`` invoke
      operations on ``x`` themselves — so any future read of ``w`` would
      make its reader's per-writer frontier go backwards, which the stream
      monitors flag in O(1) without the write being retained.  Such
      evictions are counted ``evicted_proved``.  When the window overflows
      anyway, the oldest unpinned operations are evicted *forced* (counted
      separately): that only weakens the windowed check's completeness,
      never its soundness.  An eviction is one compaction of the arena
      (:meth:`~repro.arena.store.OpArena.keep`).

    Under a finite window two invariants keep the retained windows free of
    spurious bad patterns: the read-from source of every retained read stays
    pinned (a read whose writer is missing from the window would be
    reported as a violation), and the newest retained write per ``(process,
    variable)`` is never evicted (it resolves future source references
    without reconstruction).  A source reference to an evicted write is
    rebuilt by :meth:`resolve_source` as an equivalent stand-in, spliced in
    just before the first retained row of its process with a larger stream
    index, so row order stays topological.  This pin, frontier and stand-in
    bookkeeping runs only under a finite window.

    **Exactness.**  A stream with no proven violation closes with the batch
    check (``exact=exact``) of the retained operations when they are the
    whole stream: always under ``window=None``, and under a finite window
    with ``exact=True`` while nothing has been evicted and no stand-in
    inserted.  With ``exact=True`` the verdict *and* the witnesses then
    equal the offline check's.  Otherwise the close is the polynomial sweep
    with its findings deduplicated, and a clean verdict is heuristic
    (``exact=False``), as served tenants have always reported.  Once a
    violation is proven the close is that sweep merged after the accumulated
    findings.  The clean-window memo only ever skips that sweep, never an
    exact decision.  ``real_time`` monitoring is on exactly for the atomic
    criterion.

    The full state round-trips through JSON (:meth:`checkpoint` /
    :meth:`restore`), so a serving process can be stopped and resumed
    without replaying the stream.
    """

    def __init__(
        self,
        checker: ConsistencyChecker,
        window: Optional[int] = 512,
        distribution: Optional["VariableDistribution"] = None,
        exact: bool = False,
    ) -> None:
        if window is not None and not (isinstance(window, int) and window >= 4):
            raise ConsistencyCheckError(
                "the window must be None (retain everything) or at least 4 "
                f"operations, got {window!r}"
            )
        self.criterion = checker.name
        self._window = window
        self._exact = exact
        self._share = None if distribution is None else ShareGraph.of(distribution)
        self._real_time = checker.name == "atomic"
        self.start()

    # -- protocol --------------------------------------------------------------
    def start(self, universe: Optional[Tuple[int, ...]] = None) -> None:
        # repro.arena.check imports this module
        from ...arena.check import RowMonitor
        from ...arena.store import OpArena

        self._reset_findings()
        self._arena = OpArena()
        for pid in universe or ():
            self._arena.declare_process(pid)
        #: Per row: the caller's operation and its stream index.
        self._cache: Dict[int, Operation] = {}
        self._stream = array("q")
        #: Row of every retained write.
        self._write_row: Dict[Operation, int] = {}
        self._monitor = RowMonitor(self._arena, real_time=self._real_time)
        self._pins: Dict[Operation, int] = {}
        self._frontier: Dict[Tuple[int, str], Operation] = {}
        self._by_writer: Dict[Tuple[int, int], Operation] = {}
        self._fed = 0
        self._metrics = WindowMetrics()
        #: ``(ops_fed, retained, standins)`` of the last window that checked clean
        self._clean_at: Optional[Tuple[int, int, int]] = None

    def feed(
        self, op: Operation, read_from: Optional[Operation] = None
    ) -> Optional[CheckResult]:
        rows = self._arena.rows_of(op.process)
        if rows and op.index <= self._stream[rows[-1]]:
            raise ConsistencyCheckError(
                f"operation {op!r} does not extend h_{op.process} "
                f"(last retained index {self._stream[rows[-1]]})"
            )
        if not op.is_read:
            read_from = None
        elif read_from is not None and (
            read_from not in self._write_row or read_from.variable != op.variable
        ):
            raise ConsistencyCheckError(
                f"{op!r} reads from {read_from!r}, which is not a retained, "
                f"fed write on {op.variable}"
            )
        row = self._append(op, read_from)
        if self._window is not None:
            self._track(op, read_from)
        self._fed += 1
        hits = self._monitor.observe(row, self._stream)
        if hits:
            self._note_monitor_hits([(self._fed - 1, message) for _, message in hits])
        if self._window and len(self._arena) > self._window:
            self._evict()
        return self._result_so_far() if hits else None

    def check_now(self) -> Optional[CheckResult]:
        return self._note_findings(self._window_violations())

    def finalize(self) -> CheckResult:
        if self._finalized is None:
            if not self._violations and (
                self._window is None or self._exact and self._holds_whole_stream()
            ):
                self._finalized = self._decide(self._exact)
            else:
                self._finalized = self._closing(self._window_violations())
        return self._finalized

    @property
    def ops_fed(self) -> int:
        return self._fed

    def _decide(self, exact: bool) -> CheckResult:
        """The batch check of the retained rows."""
        from ...arena.check import ArenaBatchChecker

        return ArenaBatchChecker(
            self.criterion, self._arena, exact=exact, cache=self._cache
        ).solved()

    def _window_violations(self) -> List[str]:
        """Bad patterns of the retained operations: none, without checking,
        when nothing was fed or re-inserted since they last checked clean."""
        state = (self._fed, len(self._arena), self._metrics.standins)
        if state == self._clean_at:
            return []
        result = self._decide(exact=False)
        if result.consistent:
            self._clean_at = state
        return result.violations

    def _holds_whole_stream(self) -> bool:
        metrics = self._metrics
        return not (
            metrics.evicted_proved or metrics.evicted_forced or metrics.standins
        )

    # -- the retained rows -----------------------------------------------------
    @property
    def window(self) -> Optional[int]:
        return self._window

    @property
    def metrics(self) -> WindowMetrics:
        metrics = self._metrics
        metrics.ops_fed = self._fed
        metrics.retained = len(self._arena)
        metrics.peak_retained = max(metrics.peak_retained, metrics.retained)
        return metrics

    @property
    def retained_operations(self) -> int:
        return len(self._arena)

    def _append(self, op: Operation, source: Optional[Operation]) -> int:
        """Append ``op`` as a row (``source``: a read's retained writer)."""
        arena = self._arena
        if op.is_write:
            row = self._write_row[op] = arena.append_write(op.process, op.variable, op.value,
                                                           op.invoked_at, op.completed_at)
        elif source is None:
            row = arena.append_read(op.process, op.variable, op.value,
                                    invoked_at=op.invoked_at, completed_at=op.completed_at)
        else:
            row = arena.append_read(op.process, op.variable, op.value, self._write_row[source],
                                    op.invoked_at, op.completed_at)
        self._cache[row] = op
        self._stream.append(op.index)
        return row

    def _reorder(self, rows: Sequence[int]) -> None:
        """Keep ``rows``, in that order (one copy of each column)."""
        self._arena.keep(rows)
        ops = [self._cache[row] for row in rows]
        self._cache = dict(enumerate(ops))
        self._stream = array("q", [op.index for op in ops])
        self._write_row = {op: row for row, op in enumerate(ops) if op.is_write}

    def lookup_write(self, process: int, index: int) -> Optional[Operation]:
        """The retained write ``(process, index)`` of a finite window, or
        ``None`` if evicted."""
        return self._by_writer.get((process, index))

    def resolve_source(
        self, process: int, variable: str, value: Any, index: int
    ) -> Operation:
        """Resolve a ``(process, index)`` source reference to an operation.

        Returns the retained write when it survives in the window; otherwise
        reconstructs an equivalent stand-in write at its original index and
        splices it in before the first retained row of ``process`` with a
        larger stream index, so the ingestion layer never has to retain
        anything itself.  Only a finite window resolves references.
        """
        if self._window is None:
            raise ConsistencyCheckError(
                f"source references resolve against a finite window, not window={self._window}"
            )
        op = self._by_writer.get((process, index))
        if op is not None:
            return op
        rows = list(self._arena.rows_of(process))
        indices = [self._stream[row] for row in rows]
        pos = bisect.bisect_left(indices, index)
        if pos < len(indices) and indices[pos] == index:
            raise ConsistencyCheckError(
                f"source reference (p{process}, #{index}) collides with the "
                f"retained non-write operation {self._cache[rows[pos]]!r}"
            )
        standin = Operation.write(process, variable, value, index=index)
        row = self._append(standin, None)
        if pos < len(rows):
            self._reorder([*range(rows[pos]), row, *range(rows[pos], row)])
        self._track(standin, None)
        self._metrics.standins += 1
        return standin

    # -- finite-window bookkeeping and eviction --------------------------------
    def _track(self, op: Operation, read_from: Optional[Operation]) -> None:
        if op.is_write:
            self._by_writer[(op.process, op.index)] = op
            newest = self._frontier.get((op.process, op.variable))
            if newest is None or newest.index < op.index:  # a stand-in may be older
                self._frontier[(op.process, op.variable)] = op
        elif read_from is not None:
            self._pins[read_from] = self._pins.get(read_from, 0) + 1
        if len(self._arena) > self._metrics.peak_retained:
            self._metrics.peak_retained = len(self._arena)

    def _evict(self) -> None:
        from ...arena.store import NO_SOURCE

        arena, cache, metrics = self._arena, self._cache, self._metrics
        dropped = bytearray(len(arena))
        retained = len(arena)

        def drop(row: int, proved: bool) -> None:
            nonlocal retained
            retained -= 1
            dropped[row] = 1
            if proved:
                metrics.evicted_proved += 1
            else:
                metrics.evicted_forced += 1
            op = cache[row]
            if op.is_write:
                self._by_writer.pop((op.process, op.index), None)
            elif arena.source[row] != NO_SOURCE:
                source = cache[arena.source[row]]
                pins = self._pins.get(source, 0) - 1
                if pins <= 0:
                    self._pins.pop(source, None)
                else:
                    self._pins[source] = pins

        # Proved pass: drop every write the monitors' reader frontiers prove
        # dead (Theorem 1 bounds the candidate readers to the clique).
        for pid in arena.processes:
            for row in arena.write_rows_of(pid):
                if self._provably_dead(row):
                    drop(row, proved=True)
        assert self._window is not None
        if retained > self._window:
            # Forced pass: evict the oldest unpinned operations down to the
            # low watermark.  Evicting a read releases the pin on its source,
            # so a second sweep may free writes the first could not touch.
            low = max(self._window // 2, 1)
            while retained > low:
                evicted = False
                for pid in arena.processes:
                    if retained <= low:
                        break
                    for row in arena.rows_of(pid):
                        if retained > low and not dropped[row] and self._forced_evictable(row):
                            drop(row, proved=False)
                            evicted = True
                if not evicted:
                    break
        if retained < len(arena):
            self._reorder([row for row in range(len(arena)) if not dropped[row]])

    def _provably_dead(self, row: int) -> bool:
        op = self._cache[row]
        if self._share is None:
            return False
        if self._pins.get(op, 0):
            return False
        if self._frontier.get((op.process, op.variable)) is op:
            return False
        try:
            clique = self._share.clique(op.variable)
        except DistributionError:
            return False
        vid = self._arena.var[row]
        for reader in sorted(clique):
            if reader == op.process:
                continue  # the writer observed its own write when it was fed
            if self._monitor.observed_index(reader, vid, op.process) < op.index:
                return False
        return True

    def _forced_evictable(self, row: int) -> bool:
        op = self._cache[row]
        if op.is_read:
            return True
        if self._pins.get(op, 0):
            return False
        return self._frontier.get((op.process, op.variable)) is not op

    # -- checkpointing ---------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """JSON-able snapshot of the full checker state (see :meth:`restore`)."""
        from ...arena.adapter import read_from_of

        sources = read_from_of(self._arena, self._cache)
        operations = []
        read_from = []
        for pid in self._arena.processes:
            for row in self._arena.rows_of(pid):
                op = self._cache[row]
                operations.append({
                    "kind": op.kind.value,
                    "process": op.process,
                    "variable": op.variable,
                    "value": encode_value(op.value),
                    "index": op.index,
                    "invoked_at": op.invoked_at,
                    "completed_at": op.completed_at,
                })
                if op.is_read:
                    source = sources[op]
                    read_from.append([
                        [op.process, op.index],
                        None if source is None else [source.process, source.index],
                    ])
        return {
            "format": CHECKPOINT_FORMAT,
            "criterion": self.criterion,
            "window": self._window,
            "exact": self._exact,
            "real_time": self._real_time,
            "fed": self._fed,
            "universe": list(self._arena.processes),
            "violations": list(self._violations),
            "metrics": self.metrics.as_dict(),
            "operations": operations,
            "read_from": read_from,
            "monitors": self._monitor.export_state(),
        }

    @classmethod
    def restore(
        cls,
        data: Dict[str, Any],
        distribution: Optional["VariableDistribution"] = None,
    ) -> "WindowedChecker":
        """Rebuild a checker from a :meth:`checkpoint` payload.

        The restored checker continues exactly where the snapshot left off:
        same retained window, pins, monitor frontiers, metrics and verdict
        state.  Operations get fresh ``uid``\\ s — identity only has to be
        consistent *within* one checker — and are appended as rows in
        :func:`~repro.arena.adapter.topological_order`.  A malformed payload
        raises :class:`~repro.exceptions.ConsistencyCheckError` here, never
        later inside a check; an unknown criterion raises
        :class:`~repro.exceptions.UnknownCriterionError`.
        """
        if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
            found = data.get("format") if isinstance(data, dict) else type(data).__name__
            raise ConsistencyCheckError(
                f"not a windowed-checker checkpoint: format={found!r}"
            )
        missing = [key for key in ("criterion", "window", "operations") if key not in data]
        if missing:
            raise ConsistencyCheckError(f"checkpoint lacks the keys {missing}")
        try:
            return cls._restore(data, distribution)
        except UnknownCriterionError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConsistencyCheckError(
                f"malformed windowed-checker checkpoint: {type(exc).__name__}: {exc}"
            ) from None

    @classmethod
    def _restore(
        cls,
        data: Dict[str, Any],
        distribution: Optional["VariableDistribution"],
    ) -> "WindowedChecker":
        from ...arena.adapter import topological_order

        checker = cls(
            get_checker(data["criterion"]),
            window=data["window"],
            distribution=distribution,
            exact=bool(data.get("exact", False)),
        )
        checker.start(tuple(data.get("universe", ())))
        lines: Dict[int, List[Operation]] = {}
        by_ref: Dict[Tuple[int, int], Operation] = {}
        for record in data["operations"]:
            op = Operation(
                OpKind(record["kind"]),
                record["process"],
                record["variable"],
                decode_value(record["value"]),
                record["index"],
                invoked_at=record.get("invoked_at"),
                completed_at=record.get("completed_at"),
            )
            ops = lines.setdefault(op.process, [])
            if ops and op.index <= ops[-1].index:
                raise ConsistencyCheckError(
                    f"checkpoint operation {op!r} does not extend h_{op.process} "
                    f"(previous index {ops[-1].index})"
                )
            ops.append(op)
            by_ref[(op.process, op.index)] = op
        read_from: Dict[Operation, Optional[Operation]] = {}
        for read_ref, source_ref in data.get("read_from", ()):
            read = by_ref.get(tuple(read_ref))
            if read is None or not read.is_read:
                raise ConsistencyCheckError(
                    f"checkpoint read-from references unknown read {read_ref!r}"
                )
            source = None
            if source_ref is not None:
                source = by_ref.get(tuple(source_ref))
                if source is None:
                    raise ConsistencyCheckError(
                        f"checkpoint read-from references evicted source {source_ref!r}"
                    )
            read_from[read] = source
        order = topological_order([lines[pid] for pid in sorted(lines)], read_from)
        if order is None:
            raise ConsistencyCheckError(
                "checkpoint read-from has no order with program order: a cycle, "
                "or a source that is no write"
            )
        for op in order:
            source = read_from.get(op)
            checker._append(op, source)
            if checker._window is not None:
                checker._track(op, source)
        checker._fed = int(data.get("fed", 0))
        checker._violations = list(data.get("violations", ()))
        metrics = dict(data.get("metrics", ()))
        checker._metrics = WindowMetrics(
            peak_retained=int(metrics.get("peak_retained", len(checker._arena))),
            evicted_proved=int(metrics.get("evicted_proved", 0)),
            evicted_forced=int(metrics.get("evicted_forced", 0)),
            standins=int(metrics.get("standins", 0)),
        )
        checker._monitor.load_state(data.get("monitors", {}))
        return checker

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<WindowedChecker criterion={self.criterion!r} "
            f"window={self._window} retained={len(self._arena)} fed={self._fed}>"
        )


# ---------------------------------------------------------------------------
# Factory
# ---------------------------------------------------------------------------

def incremental_checker(
    criterion: str,
    exact: bool = True,
    bounded: bool = False,
) -> WindowedChecker:
    """The incremental checker of a history-keeping run of ``criterion``.

    It retains the whole stream (``window=None``) and, with ``exact=True``,
    closes a clean stream with the batch checker's exact decision and
    witnesses.  ``bounded`` must be ``False``: a checker that retains
    nothing is no longer offered (a finite-window
    :class:`WindowedChecker` is the bounded-memory checker).  The keyword
    stays for the callers that still pass ``bounded=False`` and goes with
    the next ``benchmark`` change.
    """
    if bounded:
        raise ConsistencyCheckError(
            "incremental_checker no longer builds a bounded checker that "
            "retains nothing; use WindowedChecker(window=N) for bounded memory"
        )
    return WindowedChecker(get_checker(criterion), window=None, exact=exact)
