"""The ``repro-trace-v1`` wire format and the serve spec layer."""

import copy
import json

import pytest

from repro.core.operations import BOTTOM
from repro.exceptions import ScenarioSpecError, TraceFormatError
from repro.serve.spec import DEFAULT_WINDOW, ServeSpec, TenantSpec, TraceSpec
from repro.serve.trace import (
    TRACE_FORMAT,
    TraceMeta,
    TraceRecord,
    dump_line,
    parse_line,
    read_trace,
    write_trace,
)


def _meta():
    return TraceMeta(
        scenario="figure2-hoop",
        protocol="causal_partial",
        distribution={"x": [0, 2], "y": [1, 2]},
        criteria=("causal",),
        seed=7,
    )


def _records():
    return [
        TraceRecord(kind="write", process=0, variable="x", value="a", index=0,
                    invoked_at=0.0, completed_at=0.5),
        TraceRecord(kind="read", process=2, variable="x", value="a", index=0,
                    invoked_at=1.0, completed_at=1.0, source=(0, 0)),
        TraceRecord(kind="read", process=1, variable="y", value=BOTTOM, index=0),
    ]


class TestTraceRoundTrip:
    def test_meta_round_trips(self):
        meta = _meta()
        parsed = parse_line(dump_line(meta))
        assert isinstance(parsed, TraceMeta)
        assert parsed.to_dict() == meta.to_dict()

    def test_op_round_trips(self):
        for record in _records():
            parsed = parse_line(dump_line(record))
            assert isinstance(parsed, TraceRecord)
            assert parsed.to_dict() == record.to_dict()

    def test_bottom_value_round_trips_distinctly(self):
        line = dump_line(_records()[2])
        assert json.loads(line)["value"] == {"$bottom": True}
        parsed = parse_line(line)
        assert parsed.value is BOTTOM

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        count = write_trace(path, _meta(), _records())
        assert count == 3
        meta, records = read_trace(path)
        assert meta.to_dict() == _meta().to_dict()
        assert [r.to_dict() for r in records] == [r.to_dict() for r in _records()]

    def test_blank_lines_are_skipped(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        lines = [dump_line(_meta()), "", dump_line(_records()[0]), "   "]
        (tmp_path / "trace.jsonl").write_text("\n".join(lines) + "\n")
        _, records = read_trace(path)
        assert len(records) == 1

    def test_meta_rebuilds_variable_distribution(self):
        distribution = _meta().variable_distribution()
        assert distribution is not None
        assert sorted(distribution.holders("x")) == [0, 2]
        assert sorted(distribution.holders("y")) == [1, 2]
        assert TraceMeta().variable_distribution() is None


class TestTraceErrors:
    def test_wrong_format_tag_is_rejected(self):
        with pytest.raises(TraceFormatError, match="unsupported trace format"):
            parse_line('{"type": "meta", "format": "repro-trace-v0"}')

    def test_unknown_type_is_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown type"):
            parse_line('{"type": "verdict"}')

    def test_non_json_is_rejected(self):
        with pytest.raises(TraceFormatError, match="not JSON"):
            parse_line("{nope")

    def test_unknown_kind_is_rejected(self):
        with pytest.raises(TraceFormatError, match="unknown kind"):
            TraceRecord.from_dict({"kind": "rmw", "process": 0,
                                   "variable": "x", "value": 1, "index": 0})

    def test_source_on_write_is_rejected(self):
        with pytest.raises(TraceFormatError, match="only read records"):
            TraceRecord.from_dict({"kind": "write", "process": 0,
                                   "variable": "x", "value": 1, "index": 0,
                                   "source": [0, 0]})

    def test_missing_meta_is_rejected(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(dump_line(_records()[0]) + "\n")
        with pytest.raises(TraceFormatError, match="no meta record"):
            read_trace(str(path))

    def test_duplicate_meta_is_rejected(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text(dump_line(_meta()) + "\n" + dump_line(_meta()) + "\n")
        with pytest.raises(TraceFormatError, match="duplicate meta"):
            read_trace(str(path))

    def test_format_tag_is_versioned(self):
        assert TRACE_FORMAT == "repro-trace-v1"


#: Values a hand-edited or truncated trace line may hold anywhere.
GARBAGE = [None, True, False, 0, -1, 2.5, "", "x", [], [1], ["x"], {}, {"x": 5},
           {"x": [0, "a"]}]


def corruptions(data):
    """Every copy of ``data`` with one value, at any depth, replaced by a
    garbage value."""
    items = data.items() if isinstance(data, dict) else enumerate(data)
    for key, value in list(items):
        for garbage in GARBAGE:
            corrupted = copy.deepcopy(data)
            corrupted[key] = copy.deepcopy(garbage)
            yield corrupted
        if isinstance(value, (dict, list)):
            for inner in corruptions(value):
                corrupted = copy.deepcopy(data)
                corrupted[key] = inner
                yield corrupted


#: ``(record, key, value)``: the malformed fields ``repro trace`` must
#: refuse with an ``error:`` line (record 0 is the meta, 1 the first op).
MALFORMED = [
    (1, "invoked_at", "abc"),
    (1, "variable", ["x"]),
    (1, "process", True),
    (0, "criteria", "causal"),
    (0, "distribution", {"x": [0, "a"]}),
    (0, "distribution", {"x": 5}),
]


class TestCorruptFields:
    """A mistyped field is a :class:`TraceFormatError`, never a traceback
    from deep inside a checker and never a verdict."""

    @pytest.mark.parametrize("line", [_meta().to_dict(), _records()[1].to_dict()],
                             ids=["meta", "op"])
    def test_every_single_corruption_loads_or_is_typed(self, line):
        count = 0
        for data in corruptions(line):
            try:
                parsed = parse_line(json.dumps(data))
            except TraceFormatError:
                continue
            count += 1
            assert isinstance(parsed, (TraceMeta, TraceRecord))
        assert count  # e.g. another string value still loads

    @pytest.mark.parametrize("record,key,value", MALFORMED,
                             ids=[f"{key}={value!r}" for _, key, value in MALFORMED])
    @pytest.mark.parametrize("command", ["replay", "info"])
    def test_the_cli_refuses_a_mistyped_field(self, tmp_path, capsys, command,
                                              record, key, value):
        from repro.cli import main

        lines = [_meta().to_dict()] + [r.to_dict() for r in _records()]
        lines[record][key] = value
        path = tmp_path / "t.jsonl"
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        assert main(["trace", command, str(path)]) == 2
        err = capsys.readouterr().err
        assert f"error: cannot read trace file {path}: " in err
        assert repr(key) in err and "Traceback" not in err

    def test_well_typed_fields_still_load(self):
        data = {"type": "op", "kind": "read", "process": 0, "variable": "x",
                "value": None, "index": 3, "invoked_at": 1, "completed_at": None,
                "source": [1, 0]}
        record = parse_line(json.dumps(data))
        assert (record.process, record.index, record.source) == (0, 3, (1, 0))
        assert record.invoked_at == 1 and record.value is None
        meta = parse_line(json.dumps({"type": "meta", "format": TRACE_FORMAT,
                                      "distribution": {}, "criteria": [],
                                      "seed": None}))
        assert meta == TraceMeta()


class TestServeSpecs:
    def test_defaults_serialize_to_nothing(self):
        assert ServeSpec().to_dict() == {}
        assert TenantSpec(name="t").to_dict() == {"name": "t"}

    def test_full_round_trip(self):
        spec = ServeSpec(
            host="0.0.0.0",
            port=9090,
            window=128,
            queue_size=16,
            status_interval=0.0,
            tenants=(
                TenantSpec(name="a"),
                TenantSpec(name="b", criterion="pram", policy="every:8",
                           window=32,
                           trace=TraceSpec("/tmp/b.jsonl", follow=True)),
            ),
        )
        assert ServeSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip(self):
        spec = ServeSpec(tenants=(TenantSpec(name="t", window=64),))
        assert ServeSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    def test_string_shorthands(self):
        tenant = TenantSpec.from_dict("shard-1")
        assert tenant == TenantSpec(name="shard-1")
        trace = TraceSpec.from_dict("/tmp/x.jsonl")
        assert trace == TraceSpec(path="/tmp/x.jsonl")

    def test_unknown_keys_are_rejected(self):
        with pytest.raises(ScenarioSpecError):
            ServeSpec.from_dict({"prot": 1})
        with pytest.raises(ScenarioSpecError):
            TenantSpec.from_dict({"name": "t", "criteria": "causal"})

    def test_bad_values_are_rejected(self):
        with pytest.raises(ScenarioSpecError, match="unknown criterion"):
            TenantSpec(name="t", criterion="linearizable").validate()
        with pytest.raises(ScenarioSpecError, match="window"):
            TenantSpec(name="t", window=2).validate()
        with pytest.raises(ScenarioSpecError, match="slug"):
            TenantSpec(name="no spaces!").validate()
        with pytest.raises(ScenarioSpecError, match="duplicate tenant"):
            ServeSpec(tenants=(TenantSpec(name="t"),
                               TenantSpec(name="t"))).validate()
        with pytest.raises(ScenarioSpecError, match="port"):
            ServeSpec(port=70000).validate()

    def test_default_window_constant(self):
        assert DEFAULT_WINDOW == 512
