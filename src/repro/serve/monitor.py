"""Per-tenant monitoring state machine (deterministic — no wall clock).

A :class:`TenantMonitor` owns one bounded-memory
:class:`~repro.core.consistency.incremental.WindowedChecker` and consumes
:class:`~repro.serve.trace.TraceRecord` lines in recording order.  It is
the part of the service that must stay exactly reproducible: feeding the
same records always yields the same verdict, whatever the ingest timing —
all wall-clock accounting (lag, uptime) lives in
:mod:`repro.serve.service`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from ..core.consistency import CheckPolicy, CheckResult, WindowedChecker, get_checker
from ..core.operations import BOTTOM, Operation
from ..core.relevance import relevance_summary
from ..exceptions import ConsistencyCheckError, TenantError, TraceFormatError
from .spec import DEFAULT_WINDOW, TenantSpec
from .trace import TraceMeta, TraceRecord

#: Tenant life cycle: ``running`` -> (``violated`` |) ``done``.
RUNNING = "running"
VIOLATED = "violated"
DONE = "done"


def check_source(reader: str, source: Operation, variable: str, value: Any) -> None:
    """Raise :class:`TraceFormatError` unless ``source`` is a write of
    ``value`` on ``variable``, the read described by ``reader`` returns."""
    if not source.is_write or source.variable != variable or source.value != value:
        raise TraceFormatError(
            f"read record {reader} names source [{source.process}, {source.index}], "
            f"which is {source.label()}, not a write of {value!r} on {variable}"
        )


class TenantMonitor:
    """One monitored stream: windowed checker + check policy + verdict.

    The monitor ingests wire records, materialises them as operations,
    resolves read-from source references against the retained window
    (reconstructing evicted writers as stand-ins), runs the O(1) stream
    monitors on every record and the polynomial windowed check at the
    cadence the tenant's :class:`CheckPolicy` asks for (for causal and pram,
    the columnar check of the window's arena).  A proven violation
    flips the state to ``violated``; with a fail-fast policy further
    records are drained without checking (the verdict is already exact).
    """

    def __init__(
        self,
        spec: TenantSpec,
        meta: Optional[TraceMeta] = None,
        default_window: int = DEFAULT_WINDOW,
    ) -> None:
        spec.validate()
        self.spec = spec
        self.name = spec.name
        self.criterion = spec.criterion
        self.policy = CheckPolicy.parse(spec.policy)
        self.window = spec.window if spec.window != DEFAULT_WINDOW else default_window
        self.meta = meta or TraceMeta()
        self.distribution = self.meta.variable_distribution()
        self.state = RUNNING
        self.result: Optional[CheckResult] = None
        self._finalized = False
        self._checker = WindowedChecker(
            get_checker(self.criterion), window=self.window, distribution=self.distribution
        )
        self._checker.start()

    # -- ingestion -------------------------------------------------------------
    def ingest(self, record: TraceRecord) -> Optional[CheckResult]:
        """Feed one record; returns the result as soon as one is proven.

        Raises :class:`TraceFormatError` for records that break the format's
        invariants and :class:`TenantError` for streams that do not extend
        the tenant's program order.
        """
        if self._finalized:
            raise TenantError(f"tenant {self.name!r} already finalised")
        if self.state == VIOLATED and self.policy.fail_fast:
            return self.result  # drain: the verdict is already exact
        source = None
        if record.is_read:
            if record.source is not None:
                source = self._checker.resolve_source(
                    record.source[0], record.variable, record.value, record.source[1]
                )
                check_source(
                    f"r{record.process}({record.variable}){record.value!r} "
                    f"of tenant {self.name!r}",
                    source, record.variable, record.value,
                )
            elif record.value is not BOTTOM:
                raise TraceFormatError(
                    f"read record of tenant {self.name!r} returns "
                    f"{record.value!r} but names no 'source' write"
                )
        operation = record.to_operation()
        try:
            found = self._checker.feed(operation, read_from=source)
        except ConsistencyCheckError as exc:
            raise TenantError(f"tenant {self.name!r}: {exc}") from None
        if found is None and self.policy.due(self._checker.ops_fed):
            found = self._checker.check_now()
        if found is not None and not found.consistent:
            self.state = VIOLATED
            self.result = found
            return found
        return None

    def finalize(self) -> CheckResult:
        """Close the stream; idempotent."""
        if not self._finalized:
            self._finalized = True
            self.result = self._checker.finalize()
            self.state = VIOLATED if not self.result.consistent else DONE
        assert self.result is not None
        return self.result

    # -- introspection ---------------------------------------------------------
    @property
    def ops_ingested(self) -> int:
        return self._checker.ops_fed

    @property
    def retained_operations(self) -> int:
        return self._checker.retained_operations

    @property
    def metrics(self) -> "Any":
        """The windowed checker's :class:`WindowMetrics`."""
        return self._checker.metrics

    def checkpoint(self) -> Dict[str, Any]:
        """The windowed checker's JSON snapshot (see ``WindowedChecker``)."""
        return self._checker.checkpoint()

    def relevance_report(self) -> Dict[str, Dict[str, Any]]:
        """Theorem 1 relevance summary backing this tenant's eviction proofs."""
        if self.distribution is None:
            return {}
        return relevance_summary(self.distribution)

    def status(self) -> Dict[str, Any]:
        """JSON-able snapshot for the service's status stream."""
        metrics = self._checker.metrics
        status: Dict[str, Any] = {
            "tenant": self.name,
            "criterion": self.criterion,
            "state": self.state,
            "ops": self.ops_ingested,
            "retained": self.retained_operations,
            "window": self.window,
            "evicted_proved": metrics.evicted_proved,
            "evicted_forced": metrics.evicted_forced,
            "peak_retained": metrics.peak_retained,
        }
        if self.result is not None:
            status["consistent"] = self.result.consistent
            status["exact"] = self.result.exact
        return status

    def verdict(self) -> Dict[str, Any]:
        """The wire-form verdict record sent to the tenant's client."""
        result = self.result if self.result is not None else self.finalize()
        violations: List[str] = list(result.violations)
        return {
            "type": "verdict",
            "tenant": self.name,
            "criterion": self.criterion,
            "consistent": result.consistent,
            "exact": result.exact,
            "violations": violations,
            "ops": self.ops_ingested,
            "metrics": self._checker.metrics.as_dict(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<TenantMonitor {self.name!r} criterion={self.criterion!r} "
            f"state={self.state} ops={self.ops_ingested}>"
        )
