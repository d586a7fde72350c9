"""Offline trace checking — the ground-truth oracle for the windowed service.

``repro trace replay`` runs a captured ``repro-trace-v1`` file through the
same ingestion parser the service uses and then through the *batch*
checkers over the full history — no eviction, every view decided exactly
(causal and pram on the arena, by saturation).  The equivalence tests pit
this oracle against the bounded-memory
:class:`~repro.serve.monitor.TenantMonitor` on the same traces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.consistency import CheckResult, get_checker
from ..core.consistency.incremental import WindowMetrics
from ..core.history import History
from ..core.operations import BOTTOM, Operation
from ..exceptions import TraceFormatError
from .monitor import TenantMonitor, check_source
from .spec import DEFAULT_WINDOW, TenantSpec
from .trace import TraceMeta, TraceRecord, read_trace


@dataclass
class ReplayReport:
    """Outcome of one offline replay: per-criterion batch verdicts."""

    path: str
    scenario: str
    protocol: str
    operations: int
    criteria: Tuple[str, ...]
    results: Dict[str, CheckResult] = field(default_factory=dict)

    @property
    def consistent(self) -> bool:
        return all(result.consistent for result in self.results.values())

    @property
    def exact(self) -> bool:
        return all(result.exact for result in self.results.values())

    def summary(self) -> str:
        lines = [
            f"trace {self.path}: {self.operations} ops"
            + (f" from {self.scenario!r}" if self.scenario else "")
            + (f" via {self.protocol}" if self.protocol else "")
        ]
        for criterion in self.criteria:
            lines.append(f"  {self.results[criterion].summary()}")
        return "\n".join(lines)


def materialise(
    meta: TraceMeta, records: Sequence[TraceRecord]
) -> Tuple[History, Dict[Operation, Optional[Operation]]]:
    """Build the full :class:`History` and read-from mapping of a trace.

    Offline replay sees the whole stream, so every source reference must
    resolve — a dangling one is a malformed trace, not an eviction — to a
    write on the read's variable of the value the read returns: a corrupt
    trace gets no verdict.
    """
    per_process: Dict[int, List[Operation]] = {}
    writers: Dict[Tuple[int, int], Operation] = {}
    reads: List[Tuple[Operation, Optional[Tuple[int, int]]]] = []
    for record in records:
        operation = record.to_operation()
        per_process.setdefault(operation.process, []).append(operation)
        if operation.is_write:
            writers[(operation.process, operation.index)] = operation
        else:
            if record.source is None and record.value is not BOTTOM:
                raise TraceFormatError(
                    f"read record {operation.label()} returns a value "
                    "but names no 'source' write"
                )
            reads.append((operation, record.source))
    read_from: Dict[Operation, Optional[Operation]] = {}
    for operation, source in reads:
        if source is None:
            read_from[operation] = None
            continue
        writer = writers.get(source)
        if writer is None:
            raise TraceFormatError(
                f"read record {operation.label()} references source "
                f"[{source[0]}, {source[1]}] which is not a write of the trace"
            )
        check_source(operation.label(), writer, operation.variable, operation.value)
        read_from[operation] = writer
    return History(per_process), read_from


def replay_trace(
    path: str,
    criteria: Sequence[str] = (),
    exact: bool = True,
) -> ReplayReport:
    """Check a whole trace file with the batch checkers (the oracle path)."""
    meta, records = read_trace(path)
    selected = tuple(criteria) or tuple(meta.criteria) or ("causal",)
    history, read_from = materialise(meta, records)
    report = ReplayReport(
        path=path,
        scenario=meta.scenario,
        protocol=meta.protocol,
        operations=len(records),
        criteria=selected,
    )
    for criterion in selected:
        checker = get_checker(criterion)
        report.results[criterion] = checker.check(
            history, read_from=read_from, exact=exact
        )
    return report


def replay_windowed(
    path: str,
    criterion: str = "causal",
    window: int = DEFAULT_WINDOW,
    policy: str = "fail_fast",
) -> Tuple[CheckResult, WindowMetrics]:
    """Replay a trace through the bounded-memory tenant monitor.

    The same path the online service drives, minus the socket: useful for
    the equivalence tests and for ``repro trace replay --window N``.
    """
    meta, records = read_trace(path)
    monitor = TenantMonitor(
        TenantSpec(name="replay", criterion=criterion, policy=policy, window=window),
        meta=meta,
    )
    for record in records:
        found = monitor.ingest(record)
        if found is not None and monitor.policy.fail_fast:
            break
    result = monitor.finalize()
    return result, monitor.metrics
