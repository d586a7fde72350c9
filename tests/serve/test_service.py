"""The asyncio monitoring service: wire protocol, tenancy, backpressure."""

import asyncio
import json

import pytest

from repro.exceptions import ServeError
from repro.serve.service import LINE_LIMIT, MonitorService, stream_trace
from repro.serve.spec import ServeSpec, TenantSpec, TraceSpec
from repro.serve.trace import TraceMeta, TraceRecord, write_trace

META = TraceMeta(protocol="test", distribution={"x": [0, 1]},
                 criteria=("causal",))


def _rec(kind, proc, val, idx, src=None):
    return TraceRecord(kind=kind, process=proc, variable="x", value=val,
                       index=idx, invoked_at=float(idx),
                       completed_at=float(idx), source=src)


def _violating():
    """p1 reads write #1 of p0, then stale write #0: a proven violation."""
    return [
        _rec("write", 0, "v0", 0),
        _rec("write", 0, "v1", 1),
        _rec("read", 1, "v1", 0, (0, 1)),
        _rec("read", 1, "v0", 1, (0, 0)),
    ]


def _clean():
    return [
        _rec("write", 0, "v0", 0),
        _rec("read", 1, "v0", 0, (0, 0)),
    ]


def _run(coro):
    return asyncio.run(coro)


async def _with_service(spec, body):
    statuses = []
    service = MonitorService(spec, on_status=statuses.append)
    port = await service.start()
    try:
        result = await body(service, port)
    finally:
        verdicts = await service.stop()
    return result, verdicts, statuses


class TestWireProtocol:
    def test_violating_and_clean_tenants_in_parallel(self):
        async def body(service, port):
            return await asyncio.gather(
                stream_trace("127.0.0.1", port, "bad", META, _violating()),
                stream_trace("127.0.0.1", port, "good", META, _clean()),
            )

        (bad, good), verdicts, statuses = _run(
            _with_service(ServeSpec(status_interval=0), body))
        assert bad["consistent"] is False
        assert bad["exact"] is True
        assert bad["violations"]
        assert good["consistent"] is True
        assert {v["tenant"]: v["consistent"] for v in verdicts} == {
            "bad": False, "good": True,
        }
        final = statuses[-1]
        assert final["type"] == "shutdown"
        assert {t["tenant"] for t in final["tenants"]} == {"bad", "good"}
        assert all(t["queued"] == 0 for t in final["tenants"])

    def test_duplicate_tenant_is_refused(self):
        async def body(service, port):
            first = await stream_trace("127.0.0.1", port, "t", META, _clean())
            with pytest.raises(ServeError, match="already connected"):
                await stream_trace("127.0.0.1", port, "t", META, _clean())
            return first

        first, verdicts, _ = _run(
            _with_service(ServeSpec(status_interval=0), body))
        assert first["consistent"] is True
        assert len(verdicts) == 1

    def test_bad_hello_gets_an_error_record(self):
        async def body(service, port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=LINE_LIMIT)
            writer.write(b'{"type": "op"}\n')
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 10)
            writer.close()
            return json.loads(line)

        reply, verdicts, _ = _run(
            _with_service(ServeSpec(status_interval=0), body))
        assert reply["type"] == "error"
        assert "hello" in reply["error"]
        assert verdicts == []

    def test_a_non_json_hello_gets_an_error_record(self):
        async def body(service, port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=LINE_LIMIT)
            writer.write(b'{"type": "hello", "tenant"\n')
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 10)
            writer.close()
            return json.loads(line)

        reply, verdicts, _ = _run(
            _with_service(ServeSpec(status_interval=0), body))
        assert reply["type"] == "error"
        assert "not JSON" in reply["error"]
        assert verdicts == []

    @pytest.mark.parametrize("field", [
        {"distribution": {"x": [0, "a"]}},
        {"distribution": {"x": 5}},
        {"distribution": ["x"]},
        {"window": "x"},
    ], ids=repr)
    def test_a_mistyped_hello_gets_an_error_record(self, field):
        async def body(service, port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=LINE_LIMIT)
            hello = {"type": "hello", "tenant": "t", **field}
            writer.write((json.dumps(hello) + "\n").encode())
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 10)
            writer.close()
            return json.loads(line)

        reply, verdicts, _ = _run(
            _with_service(ServeSpec(status_interval=0), body))
        assert reply["type"] == "error"
        assert next(iter(field)) in reply["error"]
        assert verdicts == []

    def test_unknown_criterion_in_hello_is_refused(self):
        async def body(service, port):
            with pytest.raises(ServeError, match="refused"):
                await stream_trace("127.0.0.1", port, "t", META, _clean(),
                                   criterion="linearizable")
            return None

        _run(_with_service(ServeSpec(status_interval=0), body))

    def test_violation_is_pushed_before_the_stream_ends(self):
        """fail_fast flags the violating tenant mid-stream: the wire carries
        a 'violation' record before the final verdict."""
        async def body(service, port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=LINE_LIMIT)
            hello = {"type": "hello", "tenant": "push", "criterion": "causal",
                     "policy": "fail_fast",
                     "distribution": {"x": [0, 1]}}
            writer.write((json.dumps(hello) + "\n").encode())
            await asyncio.wait_for(reader.readline(), 10)  # hello_ok
            for record in _violating():
                writer.write(
                    (json.dumps(record.to_dict()) + "\n").encode())
                await writer.drain()
                # let the pump drain before the next send so the push
                # check observes the flipped state deterministically
                for _ in range(50):
                    if service.tenants["push"].queue.empty():
                        break
                    await asyncio.sleep(0.01)
            writer.write(b'{"type": "end"}\n')
            await writer.drain()
            kinds = []
            while True:
                line = await asyncio.wait_for(reader.readline(), 10)
                if not line:
                    break
                record = json.loads(line)
                kinds.append(record["type"])
                if record["type"] == "bye":
                    break
            writer.close()
            return kinds

        kinds, verdicts, _ = _run(
            _with_service(ServeSpec(status_interval=0), body))
        assert kinds.index("violation") < kinds.index("verdict")
        assert verdicts[0]["consistent"] is False

    def test_backpressure_queue_is_bounded(self):
        """Many more records than queue slots: the bounded queue forces the
        reader to wait, so the peak queue depth never exceeds the bound."""
        records = [_rec("write", 0, f"v{i}", i) for i in range(200)]

        async def body(service, port):
            return await stream_trace("127.0.0.1", port, "fat", META, records,
                                      window=16)

        verdict, _, statuses = _run(
            _with_service(ServeSpec(status_interval=0, queue_size=8), body))
        assert verdict["consistent"] is True
        assert verdict["ops"] == 200
        tenant = statuses[-1]["tenants"][0]
        assert tenant["peak_queue"] <= 8
        assert tenant["peak_retained"] <= 16 + 4 + 8


class TestFileIngestion:
    def test_file_backed_tenant_reaches_a_verdict(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        write_trace(path, META, _violating())
        spec = ServeSpec(status_interval=0, tenants=(
            TenantSpec(name="filetenant", trace=TraceSpec(path)),
        ))

        async def body(service, port):
            for _ in range(200):
                tenant = service.tenants.get("filetenant")
                if tenant is not None and tenant.done.is_set():
                    return tenant.monitor.verdict()
                await asyncio.sleep(0.01)
            raise AssertionError("file tenant never finished")

        verdict, verdicts, _ = _run(_with_service(spec, body))
        assert verdict["consistent"] is False
        assert verdict["exact"] is True
        assert verdicts[0]["tenant"] == "filetenant"

    def test_missing_trace_file_does_not_wedge_shutdown(self, tmp_path):
        spec = ServeSpec(status_interval=0, tenants=(
            TenantSpec(name="ghost",
                       trace=TraceSpec(str(tmp_path / "missing.jsonl"))),
        ))

        async def body(service, port):
            await asyncio.sleep(0.05)
            return None

        _, verdicts, _ = _run(_with_service(spec, body))
        assert verdicts == []  # the tenant never registered


class TestServiceLifecycle:
    def test_double_start_is_refused(self):
        async def body():
            service = MonitorService(ServeSpec(status_interval=0),
                                     on_status=lambda s: None)
            await service.start()
            try:
                with pytest.raises(ServeError, match="already started"):
                    await service.start()
            finally:
                await service.stop()

        _run(body())

    def test_stop_finalizes_running_tenants(self):
        """A tenant whose client vanished mid-stream still gets a verdict
        at shutdown (heuristic-clean, the stream just ended early)."""
        async def body(service, port):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port, limit=LINE_LIMIT)
            hello = {"type": "hello", "tenant": "cut",
                     "distribution": {"x": [0, 1]}}
            writer.write((json.dumps(hello) + "\n").encode())
            await asyncio.wait_for(reader.readline(), 10)
            writer.write(
                (json.dumps(_rec("write", 0, "v", 0).to_dict()) + "\n")
                .encode())
            await writer.drain()
            for _ in range(100):
                tenant = service.tenants.get("cut")
                if tenant is not None and tenant.monitor.ops_ingested == 1:
                    break
                await asyncio.sleep(0.01)
            writer.close()
            return None

        _, verdicts, _ = _run(
            _with_service(ServeSpec(status_interval=0), body))
        assert len(verdicts) == 1
        assert verdicts[0]["tenant"] == "cut"
        assert verdicts[0]["consistent"] is True
        assert verdicts[0]["ops"] == 1


def test_smoke_entry_point_passes(capsys):
    from repro.serve.smoke import run_smoke

    assert run_smoke() == 0
    out = capsys.readouterr().out
    assert "PASS" in out
