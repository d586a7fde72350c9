"""Online, multi-tenant consistency monitoring (``repro serve``).

The paper's x-relevance result (Theorem 1) bounds which processes'
operations can ever participate in a consistency violation; this package
turns that bound into an *eviction proof* and builds the repo's first
subsystem whose input is not generated in-process: a long-running asyncio
service that ingests JSONL operation traces over TCP (or tails trace
files), multiplexes many concurrent tenants — one bounded-memory
:class:`~repro.core.consistency.incremental.WindowedChecker` per tenant —
and reports verdicts, ingest lag, retained-operation counts and
backpressure metrics on a periodic status stream and at shutdown.  A
tenant's window is rows of its checker's own arena, and each due check is
the batch check's code on them (:class:`~repro.arena.check.ArenaBatchChecker`).

Layering: :mod:`repro.serve.trace` defines the ``repro-trace-v1`` record
format (shared with ``repro run --trace-out``), :mod:`repro.serve.spec`
the JSON-round-trippable configuration axis, :mod:`repro.serve.monitor`
the deterministic per-tenant monitor (no wall clock), and
:mod:`repro.serve.service` the asyncio front end — the only module of the
package allowed to read the wall clock, for lag/uptime metrics only.
"""

from .monitor import TenantMonitor
from .replay import ReplayReport, replay_trace
from .spec import ServeSpec, TenantSpec, TraceSpec
from .trace import (
    TRACE_FORMAT,
    TraceMeta,
    TraceRecord,
    iter_trace_lines,
    read_trace,
    write_trace,
)

__all__ = [
    "TRACE_FORMAT",
    "ReplayReport",
    "ServeSpec",
    "TenantMonitor",
    "TenantSpec",
    "TraceMeta",
    "TraceRecord",
    "TraceSpec",
    "iter_trace_lines",
    "read_trace",
    "replay_trace",
    "write_trace",
]
