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

:class:`StreamMonitors`
    O(1)-per-operation necessary conditions maintained natively (no relation
    is built): per-reader per-variable writer monotonicity (a process that
    observed the ``i``-th write of a writer on ``x`` can never read an older
    write of that writer on ``x``), freshness of ``⊥`` reads, and — for the
    atomic criterion — a real-time staleness monitor.  All are sound for the
    *weakest* criterion of the lattice (slow memory), hence for every
    criterion above it.

:class:`WindowedChecker`
    The incremental checker: the stream monitors on every operation plus, on
    demand (:meth:`~IncrementalChecker.check_now`) and at ``finalize``, the
    polynomial bad-pattern pre-check over the operations it retains.  Its
    ``window`` is the retention policy: ``None`` retains the whole stream
    (with ``exact=True`` a clean ``finalize`` is then the batch checker's
    exact decision, witnesses included), and ``N >= 4`` retains a sliding
    window with Theorem 1 eviction (``repro serve``).  Causal and pram
    windows are decided on the arena, like every batch check of theirs.
    :func:`incremental_checker` builds the first.

:class:`CheckPolicy`
    When to spend how much: every-op / every-N / on-finalize cadence for the
    prefix checks, fail-fast versus collect-all on violation.
"""

from __future__ import annotations

import abc
import bisect
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ...exceptions import (
    ConsistencyCheckError,
    DistributionError,
    UnknownCriterionError,
)
from ..distribution import VariableDistribution
from ..history import History
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
# O(1) stream monitors
# ---------------------------------------------------------------------------

class StreamMonitors:
    """Constant-time-per-op necessary conditions over the operation stream.

    Every reported violation is a proof of inconsistency under slow memory —
    the weakest criterion of the lattice — and therefore under every
    registered criterion.  State is O(processes² x variables) worst case, independent of
    the run length, which is what lets a finite window keep monitoring
    exactly across evictions.
    """

    def __init__(self, real_time: bool = False) -> None:
        self._real_time = real_time
        # (reader, variable) -> {writer process -> highest write index observed}
        self._observed: Dict[Tuple[int, str], Dict[int, int]] = {}
        # variable -> write with the latest completion time seen so far
        self._last_completed_write: Dict[str, Operation] = {}

    def observe(self, op: Operation, source: Optional[Operation]) -> List[str]:
        """Account for ``op``; return the violations it proves (usually none)."""
        violations: List[str] = []
        if op.is_write:
            frontier = self._observed.setdefault((op.process, op.variable), {})
            prev = frontier.get(op.process, -1)
            frontier[op.process] = max(prev, op.index)
            if self._real_time and op.completed_at is not None:
                last = self._last_completed_write.get(op.variable)
                if last is None or last.completed_at < op.completed_at:
                    self._last_completed_write[op.variable] = op
            return violations

        frontier = self._observed.setdefault((op.process, op.variable), {})
        if source is None:
            if frontier:
                violations.append(
                    f"{op.label()} returns ⊥ after p{op.process} already "
                    f"observed a write on {op.variable}"
                )
        else:
            seen = frontier.get(source.process, -1)
            if source.index < seen:
                violations.append(
                    f"{op.label()} reads write #{source.index} of "
                    f"p{source.process} on {op.variable} after p{op.process} "
                    f"already observed write #{seen} of the same process"
                )
            frontier[source.process] = max(seen, source.index)
        if self._real_time and op.invoked_at is not None:
            last = self._last_completed_write.get(op.variable)
            stale = (
                last is not None
                and last.completed_at < op.invoked_at
                and last is not source
                and (source is None
                     or (source.completed_at is not None
                         and last.invoked_at is not None
                         and source.completed_at < last.invoked_at))
            )
            if stale:
                got = "⊥" if source is None else source.label()
                violations.append(
                    f"{op.label()} returns {got} although {last.label()} "
                    f"completed before the read was invoked (real time)"
                )
        return violations

    def observed_index(self, reader: int, variable: str, writer: int) -> int:
        """Highest write index of ``writer`` on ``variable`` that ``reader``
        has observed so far (``-1`` when nothing was observed).

        This is the eviction proof obligation of
        :class:`WindowedChecker`: once every potential reader of a variable
        has advanced past a write, any *future* read of that write is itself
        a monitor-provable violation, so retaining the write adds nothing.
        """
        return self._observed.get((reader, variable), {}).get(writer, -1)

    # -- checkpointing ---------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """JSON-able snapshot of the monitor state (see ``load_state``)."""
        observed = [
            [reader, variable, writer, index]
            for (reader, variable), frontier in sorted(self._observed.items())
            for writer, index in sorted(frontier.items())
        ]
        last = [
            [variable, op.process, op.index, encode_value(op.value),
             op.invoked_at, op.completed_at]
            for variable, op in sorted(self._last_completed_write.items())
        ]
        return {"real_time": self._real_time, "observed": observed, "last": last}

    def load_state(
        self,
        state: Dict[str, Any],
        resolve: Optional[Callable[[int, int], Optional[Operation]]] = None,
    ) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        ``resolve`` maps a ``(process, index)`` write reference to a retained
        :class:`Operation`, so the staleness monitor's identity comparison
        keeps working after a restore; unresolved references are rebuilt as
        equivalent stand-in writes.
        """
        self._real_time = bool(state.get("real_time", self._real_time))
        self._observed = {}
        for reader, variable, writer, index in state.get("observed", ()):
            frontier = self._observed.setdefault((reader, variable), {})
            frontier[writer] = max(frontier.get(writer, -1), index)
        self._last_completed_write = {}
        for variable, process, index, value, invoked, completed in state.get("last", ()):
            op = resolve(process, index) if resolve is not None else None
            if op is None:
                op = Operation.write(
                    process, variable, decode_value(value), index=index,
                    invoked_at=invoked, completed_at=completed,
                )
            self._last_completed_write[variable] = op


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
        return {
            "ops_fed": self.ops_fed,
            "retained": self.retained,
            "peak_retained": self.peak_retained,
            "evicted_proved": self.evicted_proved,
            "evicted_forced": self.evicted_forced,
            "standins": self.standins,
        }


class WindowedChecker(IncrementalChecker):
    """The incremental checker: stream monitors on every operation, plus the
    polynomial bad-pattern pre-check over the operations it retains.

    ``window`` is the retention policy:

    * ``None`` retains the whole stream — the mode behind
      :func:`incremental_checker`;
    * ``N >= 4`` retains a sliding window and garbage-collects the prefix,
      which is what lets the ``repro serve`` monitors run forever.

    Soundness rests on two pillars:

    * **Monotone subset.**  Every retained view is a sub-history of the full
      stream whose program order, read-from and derived closures are subsets
      of the full relations, so every bad pattern found over the window is a
      bad pattern of the full history — windowed violations are *exact*
      proofs.  The O(1) monitors keep running — exactly — across evictions
      because their state (per-reader writer frontiers) never references
      retained operations.

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
      never its soundness.

    Under a finite window two invariants keep the retained views free of
    spurious bad patterns: the read-from source of every retained read stays
    pinned (a read whose writer is missing from the view would be reported
    as a violation by the serialization pre-check), and the newest retained
    write per ``(process, variable)`` is never evicted (it resolves future
    source references without reconstruction).  A source reference to an
    evicted write is rebuilt by :meth:`resolve_source` as an equivalent
    stand-in, re-inserted at its original index — the windowed
    :class:`History` accepts gap-tolerant, strictly-increasing indices.  This
    pin, frontier and stand-in bookkeeping runs only under a finite window.

    **Exactness.**  A stream with no proven violation closes with the
    wrapped batch checker's ``check(..., exact=exact)`` over the retained
    operations when they are the whole stream: always under ``window=None``,
    and under a finite window with ``exact=True`` while nothing has been
    evicted and no stand-in inserted.  With ``exact=True`` the verdict *and*
    the witnesses then equal the offline check's.  Otherwise the close is
    the polynomial sweep with its findings deduplicated, and a clean verdict
    is heuristic (``exact=False``), as served tenants have always reported.
    Once a violation is proven the close is that sweep merged after the
    accumulated findings.  The clean-window memo only ever skips that
    sweep, never an exact decision.  ``real_time`` monitoring is on exactly
    for the atomic criterion.

    **Where a window is decided.**  Each check hands the wrapped checker the
    retained operations as one windowed :class:`History`
    (:meth:`window_view`).  For causal and pram that checker is a
    :class:`~repro.core.consistency.criteria.ColumnarChecker`: the window is
    appended to an arena (:func:`~repro.arena.adapter.arena_from_history`)
    and closed by :meth:`~repro.arena.check.ArenaBatchChecker.solved`, the
    batch check's own code, so its violations are the object per-view
    check's, in its order.  The other criteria decide on the object stack.

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
        self._checker = checker
        self.criterion = checker.name
        self._window = window
        self._exact = exact
        self._share = None if distribution is None else ShareGraph.of(distribution)
        self._real_time = checker.name == "atomic"
        self.start()

    # -- protocol --------------------------------------------------------------
    def start(self, universe: Optional[Tuple[int, ...]] = None) -> None:
        self._reset_findings()
        self._monitors = StreamMonitors(real_time=self._real_time)
        self._ops: Dict[int, List[Operation]] = {
            pid: [] for pid in (universe or ())
        }
        self._read_from: Dict[Operation, Optional[Operation]] = {}
        self._pins: Dict[Operation, int] = {}
        self._frontier: Dict[Tuple[int, str], Operation] = {}
        self._by_writer: Dict[Tuple[int, int], Operation] = {}
        self._retained = 0
        self._fed = 0
        self._metrics = WindowMetrics()
        #: ``(ops_fed, retained, standins)`` of the last window that checked clean
        self._clean_at: Optional[Tuple[int, int, int]] = None

    def feed(
        self, op: Operation, read_from: Optional[Operation] = None
    ) -> Optional[CheckResult]:
        window = self._window
        ops = self._ops.setdefault(op.process, [])
        if ops and op.index <= ops[-1].index:
            raise ConsistencyCheckError(
                f"operation {op!r} does not extend h_{op.process} "
                f"(last retained index {ops[-1].index})"
            )
        ops.append(op)
        self._retained += 1
        if op.is_read:
            self._read_from[op] = read_from
        if window is not None:
            self._track(op, read_from)
        self._fed += 1
        found = self._monitors.observe(op, read_from)
        if found:
            self._note_monitor_hits(
                [(self._fed - 1, f"p{op.process}: {v}") for v in found]
            )
        if window and self._retained > window:
            self._evict()
        return self._result_so_far() if found else None

    def check_now(self) -> Optional[CheckResult]:
        return self._note_findings(self._window_violations())

    def finalize(self) -> CheckResult:
        if self._finalized is None:
            if not self._violations and (
                self._window is None or self._exact and self._holds_whole_stream()
            ):
                history, read_from = self.window_view()
                self._finalized = self._checker.check(
                    history, read_from=read_from, exact=self._exact
                )
            else:
                self._finalized = self._closing(self._window_violations())
        return self._finalized

    @property
    def ops_fed(self) -> int:
        return self._fed

    def _window_violations(self) -> List[str]:
        """Bad patterns of the retained operations: none, without checking,
        when nothing was fed or re-inserted since they last checked clean."""
        state = (self._fed, self._retained, self._metrics.standins)
        if state == self._clean_at:
            return []
        history, read_from = self.window_view()
        result = self._checker.check(history, read_from=read_from, exact=False)
        if result.consistent:
            self._clean_at = state
        return result.violations

    def _holds_whole_stream(self) -> bool:
        metrics = self._metrics
        return not (
            metrics.evicted_proved or metrics.evicted_forced or metrics.standins
        )

    # -- windowed views --------------------------------------------------------
    @property
    def window(self) -> Optional[int]:
        return self._window

    @property
    def metrics(self) -> WindowMetrics:
        metrics = self._metrics
        metrics.ops_fed = self._fed
        metrics.retained = self._retained
        metrics.peak_retained = max(metrics.peak_retained, self._retained)
        return metrics

    @property
    def retained_operations(self) -> int:
        return self._retained

    def window_view(self) -> Tuple[History, Dict[Operation, Optional[Operation]]]:
        """The retained sub-history and its read-from restriction."""
        return History(self._ops, windowed=self._window is not None), dict(self._read_from)

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
        re-inserts it, so the ingestion layer never has to retain anything
        itself.  Only a finite window resolves references.
        """
        if self._window is None:
            raise ConsistencyCheckError(
                f"source references resolve against a finite window, not window={self._window}"
            )
        op = self._by_writer.get((process, index))
        if op is not None:
            return op
        standin = Operation.write(process, variable, value, index=index)
        ops = self._ops.setdefault(process, [])
        indices = [o.index for o in ops]
        pos = bisect.bisect_left(indices, index)
        if pos < len(indices) and indices[pos] == index:
            raise ConsistencyCheckError(
                f"source reference (p{process}, #{index}) collides with the "
                f"retained non-write operation {ops[pos]!r}"
            )
        ops.insert(pos, standin)
        self._by_writer[(process, index)] = standin
        self._retained += 1
        self._metrics.standins += 1
        if self._retained > self._metrics.peak_retained:
            self._metrics.peak_retained = self._retained
        frontier = self._frontier.get((process, variable))
        if frontier is None or frontier.index < index:
            self._frontier[(process, variable)] = standin
        return standin

    # -- finite-window bookkeeping and eviction --------------------------------
    def _track(self, op: Operation, read_from: Optional[Operation]) -> None:
        if op.is_write:
            self._by_writer[(op.process, op.index)] = op
            self._frontier[(op.process, op.variable)] = op
        elif read_from is not None:
            self._pins[read_from] = self._pins.get(read_from, 0) + 1
        if self._retained > self._metrics.peak_retained:
            self._metrics.peak_retained = self._retained

    def _evict(self) -> None:
        # Proved pass: drop every write the monitors' reader frontiers prove
        # dead (Theorem 1 bounds the candidate readers to the clique).
        for pid in sorted(self._ops):
            kept: List[Operation] = []
            for op in self._ops[pid]:
                if self._provably_dead(op):
                    self._drop(op, proved=True)
                else:
                    kept.append(op)
            self._ops[pid] = kept
        if self._retained <= self._window:
            return
        # Forced pass: evict the oldest unpinned operations down to the low
        # watermark.  Evicting a read releases the pin on its source, so a
        # second sweep may free writes the first could not touch.
        low = max(self._window // 2, 1)
        while self._retained > low:
            evicted = False
            for pid in sorted(self._ops):
                if self._retained <= low:
                    break
                kept = []
                for op in self._ops[pid]:
                    if self._retained > low and self._forced_evictable(op):
                        self._drop(op, proved=False)
                        evicted = True
                    else:
                        kept.append(op)
                self._ops[pid] = kept
            if not evicted:
                break

    def _provably_dead(self, op: Operation) -> bool:
        if not op.is_write or self._share is None:
            return False
        if self._pins.get(op, 0):
            return False
        if self._frontier.get((op.process, op.variable)) is op:
            return False
        try:
            clique = self._share.clique(op.variable)
        except DistributionError:
            return False
        for reader in sorted(clique):
            if reader == op.process:
                continue  # the writer observed its own write when it was fed
            if self._monitors.observed_index(reader, op.variable, op.process) < op.index:
                return False
        return True

    def _forced_evictable(self, op: Operation) -> bool:
        if op.is_read:
            return True
        if self._pins.get(op, 0):
            return False
        return self._frontier.get((op.process, op.variable)) is not op

    def _drop(self, op: Operation, proved: bool) -> None:
        self._retained -= 1
        if proved:
            self._metrics.evicted_proved += 1
        else:
            self._metrics.evicted_forced += 1
        if op.is_write:
            self._by_writer.pop((op.process, op.index), None)
        else:
            source = self._read_from.pop(op, None)
            if source is not None:
                pins = self._pins.get(source, 0) - 1
                if pins <= 0:
                    self._pins.pop(source, None)
                else:
                    self._pins[source] = pins

    # -- checkpointing ---------------------------------------------------------
    def checkpoint(self) -> Dict[str, Any]:
        """JSON-able snapshot of the full checker state (see :meth:`restore`)."""
        operations = []
        read_from = []
        for pid in sorted(self._ops):
            for op in self._ops[pid]:
                operations.append({
                    "kind": op.kind.value,
                    "process": op.process,
                    "variable": op.variable,
                    "value": encode_value(op.value),
                    "index": op.index,
                    "invoked_at": op.invoked_at,
                    "completed_at": op.completed_at,
                })
                if op.is_read and op in self._read_from:
                    source = self._read_from[op]
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
            "universe": sorted(self._ops),
            "violations": list(self._violations),
            "metrics": self.metrics.as_dict(),
            "operations": operations,
            "read_from": read_from,
            "monitors": self._monitors.export_state(),
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
        consistent *within* one checker.  A malformed payload raises
        :class:`~repro.exceptions.ConsistencyCheckError` here, never later
        inside a check; an unknown criterion raises
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
        checker = cls(
            get_checker(data["criterion"]),
            window=data["window"],
            distribution=distribution,
            exact=bool(data.get("exact", False)),
        )
        checker.start(tuple(data.get("universe", ())))
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
            ops = checker._ops.setdefault(op.process, [])
            if ops and op.index <= ops[-1].index:
                raise ConsistencyCheckError(
                    f"checkpoint operation {op!r} does not extend h_{op.process} "
                    f"(previous index {ops[-1].index})"
                )
            ops.append(op)
            by_ref[(op.process, op.index)] = op
            checker._retained += 1
            if op.is_write and checker._window:
                checker._by_writer[(op.process, op.index)] = op
                checker._frontier[(op.process, op.variable)] = op
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
                if checker._window:
                    checker._pins[source] = checker._pins.get(source, 0) + 1
            checker._read_from[read] = source
        checker._fed = int(data.get("fed", 0))
        checker._violations = list(data.get("violations", ()))
        metrics = dict(data.get("metrics", ()))
        checker._metrics = WindowMetrics(
            peak_retained=int(metrics.get("peak_retained", checker._retained)),
            evicted_proved=int(metrics.get("evicted_proved", 0)),
            evicted_forced=int(metrics.get("evicted_forced", 0)),
            standins=int(metrics.get("standins", 0)),
        )
        checker._monitors.load_state(
            data.get("monitors", {}),
            resolve=lambda process, index: by_ref.get((process, index)),
        )
        return checker

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<WindowedChecker criterion={self.criterion!r} "
            f"window={self._window} retained={self._retained} fed={self._fed}>"
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
