"""The asyncio monitoring service: TCP ingestion, file tailing, status.

Wire protocol (newline-delimited JSON over TCP, one stream per tenant):

.. code-block:: text

    client -> {"type": "hello", "tenant": "shard-7", "criterion": "causal",
               "policy": "fail_fast", "window": 512,
               "scenario": "...", "protocol": "...",
               "distribution": {"x": [0, 2]}}
    server -> {"type": "hello_ok", "tenant": "shard-7"}
    client -> {"type": "op", ...}          # repro-trace-v1 op records
    client -> ...
    server -> {"type": "violation", ...}   # pushed as soon as one is proven
    client -> {"type": "end"}              # or just close the connection
    server -> {"type": "verdict", ...}
    server -> {"type": "bye"}

Backpressure: each tenant's records flow through a bounded
:class:`asyncio.Queue`; when the monitor falls behind, the socket reader
blocks on the queue and TCP flow control pushes back on the producer —
memory stays bounded end to end (the monitor's side is bounded by the
eviction window).

This is the one module of the package allowed to touch the wall clock
(``repro lint`` allowlists it): ``time.monotonic()`` feeds the ingest-lag,
queue-wait and uptime *metrics* only — it never reaches a monitor, a
verdict or anything else that must replay deterministically.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..exceptions import ReproError, ServeError, TenantError, TraceFormatError
from .monitor import RUNNING, TenantMonitor
from .spec import ServeSpec, TenantSpec, TraceSpec
from .trace import TRACE_FORMAT, TraceMeta, TraceRecord, parse_line

#: Maximum wire-line length accepted by the readers (1 MiB).
LINE_LIMIT = 2 ** 20

#: Poll period of the file tail (follow mode), in seconds.
TAIL_POLL_S = 0.05

StatusSink = Callable[[Dict[str, Any]], None]


def _print_status(status: Dict[str, Any]) -> None:
    print(json.dumps(status, sort_keys=True), flush=True)


@dataclass
class _Tenant:
    """One live tenant: the deterministic monitor plus service-side metrics."""

    monitor: TenantMonitor
    queue: "asyncio.Queue[Optional[Tuple[TraceRecord, float]]]"
    enqueued: int = 0
    dequeued: int = 0
    peak_queue: int = 0
    lag_ms: float = 0.0
    max_lag_ms: float = 0.0
    error: Optional[str] = None
    done: "asyncio.Event" = field(default_factory=asyncio.Event)
    violated: "asyncio.Event" = field(default_factory=asyncio.Event)

    def status(self) -> Dict[str, Any]:
        status = self.monitor.status()
        status["queued"] = self.enqueued - self.dequeued
        status["peak_queue"] = self.peak_queue
        status["lag_ms"] = round(self.lag_ms, 3)
        status["max_lag_ms"] = round(self.max_lag_ms, 3)
        if self.error:
            status["error"] = self.error
        return status


class MonitorService:
    """Long-running multi-tenant consistency monitor (``repro serve run``).

    Life cycle: :meth:`start` binds the listener and spawns the status loop
    and one ingestion task per file-backed tenant of the spec
    (:meth:`wait_files` awaits them all);
    :meth:`wait_closed` blocks until :meth:`stop` (or cancellation) shuts
    everything down, finalising every still-running tenant and emitting the
    final status + verdicts on the status sink.
    """

    def __init__(self, spec: ServeSpec, on_status: Optional[StatusSink] = None) -> None:
        spec.validate()
        self.spec = spec
        self.on_status = on_status if on_status is not None else _print_status
        self.tenants: Dict[str, _Tenant] = {}
        self.port: Optional[int] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: List["asyncio.Task[Any]"] = []
        self._file_tasks: List["asyncio.Task[Any]"] = []
        self._started_at: Optional[float] = None
        self._stopping = False

    # -- life cycle ------------------------------------------------------------
    async def start(self) -> int:
        """Bind the listener; returns the bound port."""
        if self._server is not None:
            raise ServeError("service already started")
        self._started_at = time.monotonic()
        self._server = await asyncio.start_server(
            self._handle_client, host=self.spec.host, port=self.spec.port,
            limit=LINE_LIMIT,
        )
        sockets = self._server.sockets or ()
        self.port = sockets[0].getsockname()[1] if sockets else self.spec.port
        self._file_tasks = [
            asyncio.ensure_future(self._ingest_file(tenant_spec, tenant_spec.trace))
            for tenant_spec in self.spec.tenants if tenant_spec.trace is not None
        ]
        self._tasks.extend(self._file_tasks)
        if self.spec.status_interval > 0:
            self._tasks.append(asyncio.ensure_future(self._status_loop()))
        return self.port

    async def wait_files(self) -> None:
        """Wait until every file-backed tenant has closed; a tenant whose
        trace file cannot be read raises its :class:`ServeError` here."""
        await asyncio.gather(*self._file_tasks)

    async def wait_closed(self) -> None:
        if self._server is not None:
            await self._server.wait_closed()

    async def stop(self) -> List[Dict[str, Any]]:
        """Shut down: close the listener, finalise tenants, emit verdicts."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        verdicts = []
        for name in sorted(self.tenants):
            tenant = self.tenants[name]
            if tenant.monitor.state == RUNNING:
                tenant.monitor.finalize()
            verdicts.append(tenant.monitor.verdict())
        final = self._snapshot(final=True)
        final["verdicts"] = verdicts
        self.on_status(final)
        return verdicts

    # -- status ----------------------------------------------------------------
    def _snapshot(self, final: bool = False) -> Dict[str, Any]:
        uptime = 0.0
        if self._started_at is not None:
            uptime = time.monotonic() - self._started_at
        return {
            "type": "shutdown" if final else "status",
            "uptime_s": round(uptime, 3),
            "tenants": [
                self.tenants[name].status() for name in sorted(self.tenants)
            ],
        }

    async def _status_loop(self) -> None:
        while not self._stopping:
            await asyncio.sleep(self.spec.status_interval)
            if not self._stopping:
                self.on_status(self._snapshot())

    # -- tenant plumbing -------------------------------------------------------
    def _register(self, spec: TenantSpec, meta: TraceMeta) -> _Tenant:
        if spec.name in self.tenants:
            raise TenantError(f"tenant {spec.name!r} already connected")
        monitor = TenantMonitor(spec, meta=meta, default_window=self.spec.window)
        tenant = _Tenant(
            monitor=monitor,
            queue=asyncio.Queue(maxsize=self.spec.queue_size),
        )
        self.tenants[spec.name] = tenant
        self._tasks.append(asyncio.ensure_future(self._pump(tenant)))
        return tenant

    async def _enqueue(self, tenant: _Tenant, record: Optional[TraceRecord]) -> None:
        await tenant.queue.put(
            None if record is None else (record, time.monotonic())
        )
        if record is not None:
            tenant.enqueued += 1
            depth = tenant.enqueued - tenant.dequeued
            if depth > tenant.peak_queue:
                tenant.peak_queue = depth

    async def _pump(self, tenant: _Tenant) -> None:
        """Drain one tenant's queue into its monitor (the consumer side)."""
        monitor = tenant.monitor
        while True:
            item = await tenant.queue.get()
            if item is None:
                break
            record, enqueued_at = item
            tenant.dequeued += 1
            tenant.lag_ms = (time.monotonic() - enqueued_at) * 1000.0
            if tenant.lag_ms > tenant.max_lag_ms:
                tenant.max_lag_ms = tenant.lag_ms
            try:
                monitor.ingest(record)
            except (TraceFormatError, TenantError) as exc:
                tenant.error = str(exc)
                break
            if monitor.state != RUNNING and monitor.result is not None:
                tenant.violated.set()
            # Checking is synchronous CPU work: yield so concurrent tenants
            # (and the status loop) stay live while one stream is hot.
            await asyncio.sleep(0)
        if monitor.state == RUNNING and tenant.error is None:
            monitor.finalize()
        tenant.done.set()

    # -- TCP ingestion ---------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        tenant: Optional[_Tenant] = None
        try:
            try:
                hello = await self._read_json(reader)
                if hello is None or hello.get("type") != "hello":
                    raise TenantError("first line must be a 'hello' record")
                spec, meta = self._parse_hello(hello)
                tenant = self._register(spec, meta)
            except ReproError as exc:
                await self._send(writer, {"type": "error", "error": str(exc)})
                return
            await self._send(writer, {"type": "hello_ok", "tenant": spec.name})
            reported_violation = False
            while True:
                line = await reader.readline()
                if not line:
                    break  # connection closed = end of stream
                text = line.decode("utf-8", errors="replace").strip()
                if not text:
                    continue
                try:
                    data = json.loads(text)
                    if not isinstance(data, dict):
                        raise TraceFormatError("wire line must be a JSON object")
                    kind = data.get("type")
                    if kind == "end":
                        break
                    if kind == "meta":
                        continue  # a piped file's meta line: already configured
                    if kind != "op":
                        raise TraceFormatError(f"wire line has unknown type {kind!r}")
                    record = TraceRecord.from_dict(data)
                except (json.JSONDecodeError, TraceFormatError) as exc:
                    tenant.error = str(exc)
                    await self._send(writer, {"type": "error", "error": str(exc)})
                    break
                await self._enqueue(tenant, record)
                if not reported_violation and tenant.violated.is_set():
                    reported_violation = True
                    await self._send(writer, {
                        "type": "violation",
                        "tenant": spec.name,
                        "violations": list(tenant.monitor.result.violations),
                    })
            await self._enqueue(tenant, None)
            await tenant.done.wait()
            if tenant.error is not None and tenant.monitor.result is None:
                await self._send(writer, {"type": "error", "error": tenant.error})
            else:
                if not reported_violation and tenant.violated.is_set():
                    # the pump flipped the state after the last mid-stream
                    # check: the violation record still precedes the verdict
                    await self._send(writer, {
                        "type": "violation",
                        "tenant": spec.name,
                        "violations": list(tenant.monitor.result.violations),
                    })
                await self._send(writer, tenant.monitor.verdict())
            await self._send(writer, {"type": "bye"})
        except (ConnectionResetError, BrokenPipeError):
            if tenant is not None:
                await self._enqueue(tenant, None)
        finally:
            try:
                writer.close()
            except Exception:
                pass

    async def _read_json(self, reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
        line = await reader.readline()
        if not line:
            return None
        try:
            data = json.loads(line.decode("utf-8", errors="replace"))
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"wire line is not JSON: {exc}") from None
        if not isinstance(data, dict):
            raise TraceFormatError("wire line must be a JSON object")
        return data

    def _parse_hello(self, hello: Dict[str, Any]) -> Tuple[TenantSpec, TraceMeta]:
        """The tenant and stream a hello declares, through the tenant-spec
        and trace-meta decoders (a mistyped field is a typed error)."""
        name = hello.get("tenant")
        if not name or not isinstance(name, str):
            raise TenantError("hello record needs a non-empty 'tenant' name")
        spec = TenantSpec.from_dict({"name": name, "window": self.spec.window, **{
            key: hello[key] for key in ("criterion", "policy", "window") if key in hello}})
        meta = TraceMeta.from_dict({"format": TRACE_FORMAT, **{
            key: hello[key] for key in ("scenario", "protocol", "distribution")
            if hello.get(key) is not None}})
        return spec, meta

    async def _send(self, writer: asyncio.StreamWriter, record: Dict[str, Any]) -> None:
        writer.write((json.dumps(record, sort_keys=True) + "\n").encode("utf-8"))
        try:
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass

    # -- file ingestion --------------------------------------------------------
    async def _ingest_file(self, spec: TenantSpec, trace: TraceSpec) -> None:
        """Tail a ``repro-trace-v1`` file into a tenant monitor."""
        tenant: Optional[_Tenant] = None
        try:
            with open(trace.path, "r", encoding="utf-8") as handle:
                while True:
                    line = handle.readline()
                    if not line:
                        if trace.follow and not self._stopping:
                            await asyncio.sleep(TAIL_POLL_S)
                            continue
                        break
                    parsed = parse_line(line)
                    if parsed is None:
                        continue
                    if isinstance(parsed, TraceMeta):
                        if tenant is None:
                            tenant = self._register(spec, parsed)
                        continue
                    if tenant is None:
                        tenant = self._register(spec, TraceMeta())
                    await self._enqueue(tenant, parsed)
            if tenant is None and not trace.follow:  # an empty file: 0 ops
                tenant = self._register(spec, TraceMeta())
        except FileNotFoundError:
            raise ServeError(f"tenant {spec.name!r}: trace file {trace.path!r} not found")
        except OSError as exc:
            raise ServeError(
                f"tenant {spec.name!r}: cannot read trace file {trace.path!r}: {exc}"
            ) from None
        finally:
            if tenant is not None:
                await self._enqueue(tenant, None)
                await tenant.done.wait()


# ---------------------------------------------------------------------------
# Client helper (used by the smoke test, the CLI and the test suite)
# ---------------------------------------------------------------------------

async def stream_trace(
    host: str,
    port: int,
    tenant: str,
    meta: TraceMeta,
    records: List[TraceRecord],
    criterion: str = "causal",
    policy: str = "fail_fast",
    window: Optional[int] = None,
    timeout: float = 30.0,
) -> Dict[str, Any]:
    """Stream one trace to a running service; returns the verdict record."""
    reader, writer = await asyncio.open_connection(host, port, limit=LINE_LIMIT)
    try:
        hello: Dict[str, Any] = {
            "type": "hello",
            "tenant": tenant,
            "criterion": criterion,
            "policy": policy,
            "scenario": meta.scenario,
            "protocol": meta.protocol,
            "distribution": {
                var: sorted(holders)
                for var, holders in sorted(meta.distribution.items())
            },
        }
        if window is not None:
            hello["window"] = window
        writer.write((json.dumps(hello) + "\n").encode("utf-8"))
        response = await asyncio.wait_for(reader.readline(), timeout)
        reply = json.loads(response.decode("utf-8"))
        if reply.get("type") != "hello_ok":
            raise ServeError(f"service refused tenant {tenant!r}: {reply}")
        for record in records:
            writer.write(
                (json.dumps(record.to_dict(), sort_keys=True) + "\n").encode("utf-8")
            )
        await writer.drain()
        writer.write(b'{"type": "end"}\n')
        await writer.drain()
        verdict: Optional[Dict[str, Any]] = None
        while True:
            line = await asyncio.wait_for(reader.readline(), timeout)
            if not line:
                break
            record = json.loads(line.decode("utf-8"))
            kind = record.get("type")
            if kind == "verdict":
                verdict = record
            elif kind == "error":
                raise ServeError(f"tenant {tenant!r}: {record.get('error')}")
            elif kind == "bye":
                break
        if verdict is None:
            raise ServeError(f"tenant {tenant!r}: connection closed without a verdict")
        return verdict
    finally:
        try:
            writer.close()
        except Exception:
            pass
