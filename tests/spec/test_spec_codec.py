"""The one JSON codec every ``*Spec``, fault window and placement report
shares (:class:`repro.spec.scenario.Spec`).

Three guards.  Coverage: ``FULL`` holds an instance of every ``Spec``
subclass of the package, every field is off its default in one of them, and
no subclass hand-writes ``to_dict``/``from_dict``, so the full-form round
trip fails for any field a codec drops.  Hostile input: every single-value corruption of a valid spec's
JSON form, at every depth, either loads or raises
:class:`~repro.exceptions.ScenarioSpecError` — never a ``TypeError`` or
``AttributeError`` from deep inside a constructor (a fault window raises its
own :class:`~repro.exceptions.NetworkModelError`).  Canonical form: the
committed hunt reproducers, the hunter's draws and the serve configurations
round-trip to the same dict, so ``ScenarioPoint.content_hash`` (and every
existing cache entry) does not move.
"""

import copy
import dataclasses
import inspect
import json
import typing
from pathlib import Path

import pytest

from repro.exceptions import NetworkModelError, ScenarioSpecError
from repro.hunt.sampler import SpecSampler
from repro.netsim.models import CrashWindow, Partition
from repro.place.report import PlacementReport, VariablePlacement
from repro.serve.spec import ServeSpec, TenantSpec, TraceSpec
from repro.spec.registry import (
    APP_REGISTRY,
    DISTRIBUTION_REGISTRY,
    NETWORK_MODEL_REGISTRY,
    TOPOLOGY_REGISTRY,
    WORKLOAD_REGISTRY,
)
from repro.spec import (
    AppSpec,
    CheckSpec,
    DistributionSpec,
    NetworkSpec,
    ProtocolSpec,
    ScenarioSpec,
    Spec,
    TopologySpec,
    WorkloadSpec,
)

HUNTED = Path(__file__).resolve().parents[2] / "src" / "repro" / "experiments" / "hunted"

#: One spec per class with every field off its default.
FULL = [
    ProtocolSpec("pram_partial", {"x": 1}),
    TopologySpec("ring", {"nodes": 5}),
    DistributionSpec("chain", {"intermediates": 1}),
    WorkloadSpec("uniform", {"operations_per_process": 3}),
    AppSpec("bellman_ford", {"nodes": 4}, max_steps=100),
    NetworkSpec("faulty", {"drop_rate": 0.1, "partitions": [
        {"start": 0.0, "end": 1.0, "links": [[0, 2]]}]}, fifo=False),
    CheckSpec(enabled=False, criteria=("causal", "pram"), policy="every:2",
              exact=False),
    ScenarioSpec(
        "full", ProtocolSpec("causal_full", {"x": 1}),
        distribution=DistributionSpec("chain", {"intermediates": 1}),
        workload=WorkloadSpec("uniform", {"operations_per_process": 3}),
        network=NetworkSpec("faulty", {"drop_rate": 0.1}, fifo=False),
        check=CheckSpec(criteria=("causal",), exact=False),
        seed=7, description="every field set",
    ),
    ScenarioSpec("app", ProtocolSpec("pram_partial"),
                 app=AppSpec("bellman_ford", {"nodes": 4}, max_steps=50)),
    TraceSpec("/tmp/t.jsonl", follow=True),
    TenantSpec("t", criterion="pram", policy="every:8", window=32,
               trace=TraceSpec("/tmp/t.jsonl")),
    ServeSpec(host="0.0.0.0", port=9090, window=128, queue_size=16,
              status_interval=0.5,
              tenants=(TenantSpec("a"), TenantSpec("b", window=64))),
    Partition(start=0.5, end=4.0, groups=((0, 1), (2,)), links=((0, 2),),
              symmetric=False),
    CrashWindow(process=1, start=1.0, end=3.0),
    VariablePlacement("x", clique=(0, 1), relevant=(0, 1, 2),
                      hoop_process_count=1, hoop_witness=(0, 2, 1)),
    PlacementReport(
        objective="control", mode="greedy", seed=3, cost=4.5, minimal_cost=5.0,
        full_cost=9.0, evaluations=12, added=(("x", 2),),
        holders={"x": (0, 1, 2), "y": (1,)}, processes=(0, 1, 2),
        variables=[VariablePlacement("x", (0, 1), (0, 1, 2), 1, (0, 2, 1)),
                   VariablePlacement("y", (1,), (1,), 0, None)],
        predicted={"replicas": 4.0}, measured={"messages": 6.0}),
]

#: Values a hand-edited or truncated JSON file may hold anywhere.
GARBAGE = [None, True, False, 0, -1, 2.5, "", "x", [], [1], [[1, 2]], {},
           {"bogus": 1}]

#: Fields whose value must be a mapping / a list, per class.
MAPPING_FIELDS = [(ProtocolSpec, "options"), (TopologySpec, "params"),
                  (DistributionSpec, "params"), (WorkloadSpec, "params"),
                  (AppSpec, "params"), (NetworkSpec, "params")]
LIST_FIELDS = [(CheckSpec, "criteria"), (ServeSpec, "tenants")]

#: The keys a mapping form must hold, per class.
REQUIRED = {ProtocolSpec: ["name"], TopologySpec: ["name"],
            DistributionSpec: ["family"], WorkloadSpec: ["pattern"],
            AppSpec: ["name"], ScenarioSpec: ["name", "protocol"],
            TraceSpec: ["path"], TenantSpec: ["name"],
            Partition: ["start", "end"], CrashWindow: ["process", "start", "end"],
            VariablePlacement: ["variable", "clique", "relevant",
                                "hoop_process_count", "hoop_witness"],
            PlacementReport: ["objective", "mode", "seed", "cost", "minimal_cost",
                              "full_cost", "evaluations", "added", "holders",
                              "processes"]}

#: A valid mapping form of each class whose fields are not all defaulted
#: or named by its shorthand.
BASE = {TraceSpec: {"path": "/t.jsonl"},
        Partition: {"start": 0, "end": 1, "links": [[0, 2]]}}


def spec_id(spec):
    return f"{type(spec).__name__}-{getattr(spec, 'name', '')}".rstrip("-")


def load(cls, data):
    """``cls.from_dict(data)``, or ``None`` when it raised the class's typed error."""
    try:
        spec = cls.from_dict(data)
    except cls._error:
        return None
    assert isinstance(spec, cls)
    return spec


def corruptions(data):
    """Every copy of ``data`` with one value (at any depth) replaced by a
    garbage value, or one unknown key added to one mapping."""
    if isinstance(data, dict):
        yield {**data, "bogus": 1}
        items = list(data.items())
    elif isinstance(data, list):
        items = list(enumerate(data))
    else:
        return
    for key, value in items:
        for garbage in GARBAGE:
            corrupted = copy.deepcopy(data)
            corrupted[key] = copy.deepcopy(garbage)
            yield corrupted
        for inner in corruptions(value):
            corrupted = copy.deepcopy(data)
            corrupted[key] = inner
            yield corrupted


def spec_subclasses():
    """Every subclass of :class:`Spec` the package defines, at any depth
    (``repro.spec``, ``repro.serve.spec``, ``repro.netsim.models`` and
    ``repro.place.report`` are imported above)."""
    found, stack = set(), [Spec]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls.__module__.startswith("repro.") and cls not in found:
                found.add(cls)
                stack.append(cls)
    return found


def off_default(spec, spec_field):
    """Whether ``spec``'s value for ``spec_field`` differs from its default."""
    if spec_field.default is not dataclasses.MISSING:
        default = spec_field.default
    elif spec_field.default_factory is not dataclasses.MISSING:
        default = spec_field.default_factory()
    else:
        return True  # a required field is always written
    return getattr(spec, spec_field.name) != default


class TestCoverage:
    def test_full_holds_every_spec_subclass(self):
        assert {type(spec) for spec in FULL} == spec_subclasses()
        assert len(spec_subclasses()) == 15

    @pytest.mark.parametrize("cls", sorted(spec_subclasses(), key=lambda c: c.__name__),
                             ids=lambda cls: cls.__name__)
    def test_every_field_is_off_its_default_in_full(self, cls):
        # ScenarioSpec's app excludes its distribution and workload, so a
        # field counts as covered when one FULL instance of its class sets it
        instances = [spec for spec in FULL if type(spec) is cls]
        for spec_field in dataclasses.fields(cls):
            assert any(off_default(spec, spec_field) for spec in instances), \
                f"no FULL {cls.__name__} sets {spec_field.name!r}"

    @pytest.mark.parametrize("cls", sorted(spec_subclasses(), key=lambda c: c.__name__),
                             ids=lambda cls: cls.__name__)
    def test_no_subclass_writes_its_own_codec(self, cls):
        assert "to_dict" not in vars(cls) and "from_dict" not in vars(cls)


class TestHostileInput:
    @pytest.mark.parametrize("spec", FULL, ids=spec_id)
    def test_the_full_form_round_trips(self, spec):
        data = json.loads(json.dumps(spec.to_dict()))
        assert type(spec).from_dict(data) == spec

    @pytest.mark.parametrize("spec", FULL, ids=spec_id)
    def test_any_top_level_value_is_typed(self, spec):
        for garbage in GARBAGE:
            load(type(spec), copy.deepcopy(garbage))

    @pytest.mark.parametrize("spec", FULL, ids=spec_id)
    def test_every_single_corruption_is_typed(self, spec):
        count = 0
        for data in corruptions(spec.to_dict()):
            load(type(spec), data)
            count += 1
        assert count >= len(GARBAGE)

    @pytest.mark.parametrize("spec", FULL, ids=spec_id)
    def test_an_unknown_key_is_rejected(self, spec):
        with pytest.raises(type(spec)._error, match="unknown keys \\['bogus'\\]"):
            type(spec).from_dict({**spec.to_dict(), "bogus": 1})

    @pytest.mark.parametrize("spec", FULL, ids=spec_id)
    def test_a_missing_required_key_is_rejected(self, spec):
        data = spec.to_dict()
        for key in REQUIRED.get(type(spec), []):
            with pytest.raises(type(spec)._error, match=f"misses the '{key}' key"):
                type(spec).from_dict({k: v for k, v in data.items() if k != key})

    def test_a_scenario_without_app_needs_distribution_and_workload(self):
        data = FULL[7].to_dict()
        del data["workload"]
        with pytest.raises(ScenarioSpecError, match="misses the 'workload' key"):
            ScenarioSpec.from_dict(data)
        data["app"] = "bellman_ford"
        with pytest.raises(ScenarioSpecError, match="an app and a distribution"):
            ScenarioSpec.from_dict(data)

    @pytest.mark.parametrize("cls,name", MAPPING_FIELDS,
                             ids=lambda value: getattr(value, "__name__", value))
    def test_a_mapping_field_rejects_a_non_mapping(self, cls, name):
        for garbage in (5, "x", [1], [["a", 1]], True):
            with pytest.raises(ScenarioSpecError, match=f"{name} must be a mapping"):
                cls.from_dict({**cls("n").to_dict(), name: garbage})

    @pytest.mark.parametrize("cls,name", LIST_FIELDS,
                             ids=lambda value: getattr(value, "__name__", value))
    def test_a_list_field_rejects_a_non_list(self, cls, name):
        for garbage in (5, 2.5, {"a": 1}, True):
            with pytest.raises(ScenarioSpecError, match=f"{name} must be a list"):
                cls.from_dict({name: garbage})

    def test_garbage_nested_specs_are_typed(self):
        base = FULL[7].to_dict()
        for section in ("protocol", "distribution", "workload", "network", "app"):
            for garbage in (5, [1], 2.5):
                data = {k: v for k, v in base.items()
                        if section != "app" or k not in ("distribution", "workload")}
                data[section] = garbage
                with pytest.raises(ScenarioSpecError, match="must be a mapping"):
                    ScenarioSpec.from_dict(data)

    def test_shorthands_and_check_forms(self):
        assert ProtocolSpec.from_dict("p") == ProtocolSpec("p")
        assert NetworkSpec.from_dict("faulty") == NetworkSpec("faulty")
        assert TraceSpec.from_dict("/t.jsonl") == TraceSpec("/t.jsonl")
        assert CheckSpec.from_dict(None) == CheckSpec()
        assert CheckSpec.from_dict(False) == CheckSpec(enabled=False)
        assert CheckSpec.from_dict({"criteria": "causal"}) == CheckSpec(criteria=("causal",))
        with pytest.raises(ScenarioSpecError, match="must be a mapping, got str"):
            ScenarioSpec.from_dict("x")
        with pytest.raises(ScenarioSpecError, match="must be a mapping, got str"):
            ServeSpec.from_dict("x")

    def test_the_shorthand_field_is_always_written(self):
        assert NetworkSpec().to_dict() == {"model": "reliable"}
        assert CheckSpec().to_dict() == {}
        assert ServeSpec().to_dict() == {}


class TestNoCoercion:
    """Fault windows and placement reports once had hand-written decoders
    that coerced what the codec refuses; each literal here loaded."""

    @pytest.mark.parametrize("cls,data,message", [
        (Partition, {"start": "1.5", "end": 2, "groups": [[0], [1]]},
         "partition start must be a number, got '1.5'"),
        (Partition, {"start": 0, "end": True, "groups": [[0], [1]]},
         "partition end must be a number, got True"),
        (CrashWindow, {"process": "1", "start": 0, "end": 1},
         "crash window process must be an integer, got '1'"),
        (CrashWindow, {"process": 1, "start": 0, "end": True},
         "crash window end must be a number, got True"),
    ], ids=["string-start", "bool-end", "string-process", "crash-bool-end"])
    def test_a_fault_window_raises_network_model_error(self, cls, data, message):
        with pytest.raises(NetworkModelError, match=message):
            cls.from_dict(data)

    @pytest.mark.parametrize("key,value,message", [
        ("seed", 3.7, "placement report seed must be an integer, got 3.7"),
        ("cost", "1e3", "placement report cost must be a number, got '1e3'"),
    ])
    def test_a_placement_report_raises_scenario_spec_error(self, key, value, message):
        with pytest.raises(ScenarioSpecError, match=message):
            PlacementReport.from_dict({**FULL[-1].to_dict(), key: value})

    @pytest.mark.parametrize("params,message", [
        ({"partitions": [{"start": "1.5", "end": 2, "links": [[0, 2]]}]},
         "partition start must be a number"),
        ({"partitions": {"start": 0}}, "partitions must be a list"),
        ({"crashes": [{"process": "1", "start": 0, "end": 1}]},
         "crash window process must be an integer"),
    ])
    def test_a_network_spec_reports_a_bad_window_as_a_spec_error(self, params, message):
        with pytest.raises(ScenarioSpecError, match="network spec invalid: " + message):
            NetworkSpec("faulty", params).validate()

    def test_a_float_field_reads_an_integer_as_a_float(self):
        crash = CrashWindow.from_dict({"process": 1, "start": 0, "end": 2})
        assert type(crash.start) is float and type(crash.end) is float


class TestServeNumbers:
    """A JSON ``true`` is no port, window, queue size or interval."""

    @pytest.mark.parametrize("key", ["port", "window", "queue_size",
                                     "status_interval"])
    def test_serve_spec_rejects_a_bool(self, key):
        with pytest.raises(ScenarioSpecError, match=key):
            ServeSpec.from_dict({key: True})

    def test_tenant_window_rejects_a_bool(self):
        with pytest.raises(ScenarioSpecError, match="window"):
            TenantSpec.from_dict({"name": "t", "window": True})

    def test_numbers_still_load(self):
        spec = ServeSpec.from_dict({"port": 8080, "status_interval": 0,
                                    "tenants": [{"name": "t", "window": 8}]})
        assert spec.port == 8080 and spec.status_interval == 0
        assert spec.tenants[0].window == 8


#: Every ``bool`` field of every spec class.
BOOL_FIELDS = [(type(spec), spec_field.name) for spec in FULL
               for spec_field in dataclasses.fields(spec)
               if typing.get_type_hints(type(spec))[spec_field.name] is bool]

#: ``(spec class, name, key)`` of every ``int``/``float`` parameter of every
#: registered component a spec's free-form ``params`` reach.
NUMERIC_PARAMS = [
    (cls, name, parameter.name)
    for cls, registry in ((WorkloadSpec, WORKLOAD_REGISTRY),
                          (NetworkSpec, NETWORK_MODEL_REGISTRY),
                          (DistributionSpec, DISTRIBUTION_REGISTRY),
                          (TopologySpec, TOPOLOGY_REGISTRY),
                          (AppSpec, APP_REGISTRY))
    for name in registry.names()
    for parameter in inspect.signature(registry.get(name).factory).parameters.values()
    if parameter.name in registry.get(name).params
    and parameter.annotation in ("int", "float", int, float)
]


class TestTypedValues:
    """A quoted ``"false"`` is no boolean and a string no number."""

    @pytest.mark.parametrize("cls,name", BOOL_FIELDS,
                             ids=lambda value: getattr(value, "__name__", value))
    def test_a_bool_field_takes_only_a_boolean(self, cls, name):
        base = BASE.get(cls, {})
        for value in (True, False):
            assert getattr(cls.from_dict({**base, name: value}), name) is value
        for garbage in ("false", "true", 0, 1, None, [], {}):
            with pytest.raises(cls._error, match=f"{name} must be a boolean"):
                cls.from_dict({**base, name: garbage})

    def test_there_are_bool_fields(self):
        assert {(CheckSpec, "enabled"), (CheckSpec, "exact"), (NetworkSpec, "fifo"),
                (TraceSpec, "follow"), (Partition, "symmetric")} <= set(BOOL_FIELDS)

    @pytest.mark.parametrize("cls,name,key", NUMERIC_PARAMS,
                             ids=lambda value: getattr(value, "__name__", value))
    def test_a_numeric_param_rejects_a_non_number(self, cls, name, key):
        for garbage in ("x", "0.5", True, [1], {"a": 1}):
            spec = cls.from_dict({cls._shorthand: name, "params": {key: garbage}})
            with pytest.raises(ScenarioSpecError, match=f"{key} must be a number"):
                spec.validate()

    def test_the_numeric_params_include_the_rates(self):
        keys = {key for _, _, key in NUMERIC_PARAMS}
        assert {"write_fraction", "drop_rate", "duplicate_rate", "duplicate_lag"} <= keys
        assert {cls for cls, _, _ in NUMERIC_PARAMS} == {
            WorkloadSpec, NetworkSpec, DistributionSpec, TopologySpec, AppSpec}

    @pytest.mark.parametrize("cls,name,key", [
        (WorkloadSpec, "uniform", "write_fraction"),
        (NetworkSpec, "faulty", "drop_rate"),
        (NetworkSpec, "faulty", "duplicate_rate"),
    ])
    def test_a_rate_is_a_number_in_the_unit_interval(self, cls, name, key):
        for rate in (0, 0.5, 1):
            cls(name, {key: rate}).validate()
        for rate in (-0.1, 1.5, "x"):
            with pytest.raises(ScenarioSpecError,
                               match=f"{key} must be a number in \\[0, 1\\], got {rate!r}"):
                cls(name, {key: rate}).validate()


class TestCanonicalForm:
    @pytest.mark.parametrize("path", sorted(HUNTED.glob("*.json")),
                             ids=lambda path: path.stem)
    def test_hunted_reproducers_are_canonical(self, path):
        data = json.loads(path.read_text(encoding="utf-8"))["spec"]
        assert ScenarioSpec.from_dict(data).to_dict() == data

    def test_there_are_hunted_reproducers(self):
        assert len(list(HUNTED.glob("*.json"))) >= 7

    @pytest.mark.parametrize("hunter_seed", [0, 1, 2])
    def test_sampler_draws_round_trip(self, hunter_seed):
        sampler = SpecSampler(hunter_seed)
        for index in range(200):
            spec = sampler.sample(index)
            data = json.loads(json.dumps(spec.to_dict()))
            clone = ScenarioSpec.from_dict(data)
            assert clone == spec
            assert clone.to_dict() == data

    @pytest.mark.parametrize("spec", [
        ServeSpec(),
        ServeSpec(status_interval=0),
        ServeSpec(status_interval=0, queue_size=8),
        ServeSpec(status_interval=0, tenants=(
            TenantSpec(name="filetenant", trace=TraceSpec("/tmp/f.jsonl")),)),
        ServeSpec(tenants=(TenantSpec(name="t", window=64),)),
        ServeSpec(host="0.0.0.0", port=9090, window=128, queue_size=16,
                  status_interval=0.0, tenants=(
                      TenantSpec(name="a"),
                      TenantSpec(name="b", criterion="pram", policy="every:8",
                                 window=32,
                                 trace=TraceSpec("/tmp/b.jsonl", follow=True)))),
        TenantSpec("shard-1"),
        TenantSpec(name="plain", policy="finalize", window=256),
        TenantSpec(name="prefix", criterion="pram", policy="every:4", window=16),
        TenantSpec("cfg", trace=TraceSpec("/tmp/clean.jsonl")),
        TraceSpec("/tmp/x.jsonl"),
    ], ids=repr)
    def test_serve_specs_round_trip(self, spec):
        data = json.loads(json.dumps(spec.to_dict()))
        clone = type(spec).from_dict(data)
        assert clone == spec
        assert clone.to_dict() == data
