"""Typed, JSON-round-trippable scenario specifications.

One :class:`ScenarioSpec` names *everything* a single end-to-end run needs —
which protocol (:class:`ProtocolSpec`), over which variable distribution
(:class:`DistributionSpec`, optionally over a :class:`TopologySpec`), driven
by which scripted workload (:class:`WorkloadSpec`), on which network
(:class:`NetworkSpec`: latency model plus fault injection), checked how
(:class:`CheckSpec`), with which seed.  Every spec is pure data:

* **validated eagerly** against the component registries of
  :mod:`repro.spec.registry`, with typed errors
  (:class:`~repro.exceptions.ScenarioSpecError` and friends — never a bare
  ``KeyError``);
* **JSON round-trippable** through the one codec of :class:`Spec`, which
  every ``*Spec`` here and in :mod:`repro.serve.spec` inherits —
  ``spec == ScenarioSpec.from_dict(spec.to_dict())`` holds for every
  built-in suite point, and ``from_dict`` rejects unknown keys and mistyped
  values, so a spec file survives `json.dump`/`json.load` and version drift
  is reported instead of silently ignored;
* **buildable** — ``build_*`` methods materialise the concrete objects, and
  :meth:`repro.api.Session.from_spec` runs the whole scenario.

The single ``seed`` is threaded through every seedable component (workload
generation, seeded distribution families, the network model's latency and
fault schedule), so one integer reproduces a run bit for bit.
"""

from __future__ import annotations

import inspect
from dataclasses import MISSING, dataclass, field, fields
from functools import lru_cache
from typing import (TYPE_CHECKING, Any, ClassVar, Dict, List, Mapping, Optional, Set, Tuple,
                    Type, TypeVar, Union, get_args, get_origin, get_type_hints)

if TYPE_CHECKING:  # concrete result types, imported lazily at runtime
    from ..core.distribution import VariableDistribution
    from ..dsm.app import AppInstance
    from ..netsim.models import NetworkModel
    from ..workloads.topology import WeightedDigraph

from ..exceptions import (
    AppCompatibilityError,
    NetworkModelError,
    ReproError,
    ScenarioSpecError,
)
from .registry import (
    APP_REGISTRY,
    DISTRIBUTION_REGISTRY,
    NETWORK_MODEL_REGISTRY,
    TOPOLOGY_REGISTRY,
    WORKLOAD_REGISTRY,
    Component,
    resolve_protocol,
)


#: Marks a field without a default: always written, required on load.
_REQUIRED = object()

#: Scalar field types checked on load: accepted types and their noun.
_SCALARS: Dict[Any, Tuple[Tuple[type, ...], str]] = {
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    str: ((str,), "a string"),
}

S = TypeVar("S", bound="Spec")


class Spec:
    """Base of every ``*Spec`` dataclass: one JSON codec read off its fields.

    :meth:`to_dict` writes each field whose value differs from its default
    (so a field without a default always, and the :attr:`_shorthand` field
    too): nested specs through their own ``to_dict``, tuples as lists,
    mappings as copies.  Defaults are omitted, so the canonical form the
    experiment cache hashes does not move when a field is added.

    :meth:`from_dict` inverts it.  A bare string sets the shorthand field; a
    non-mapping, an unknown key, a missing required key or a value of the
    wrong shape raises :class:`~repro.exceptions.ScenarioSpecError`.  Values
    are decoded by the field's declared type: nested specs by their own
    ``from_dict``, tuples element by element, and ``bool``, ``int``,
    ``float`` and ``str`` fields type-checked (a JSON ``true`` is not a
    number, a ``"false"`` not a boolean).  Subclasses say only what a type
    cannot, through
    ``_shorthand``, ``_validate_on_load`` and the :meth:`_normalize` and
    :meth:`_required_keys` hooks.
    """

    #: The field a bare string sets, e.g. ``ProtocolSpec.from_dict("pram_partial")``.
    _shorthand: ClassVar[Optional[str]] = None
    #: Whether :meth:`from_dict` validates what it built.
    _validate_on_load: ClassVar[bool] = False

    def validate(self) -> None:
        """Raise a typed error on the first malformed field."""

    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form: the fields that differ from their defaults."""
        data: Dict[str, Any] = {}
        for name, _, default in _codec(type(self)):
            value = _encode(getattr(self, name))
            if value != default or name == self._shorthand:
                data[name] = value
        return data

    @classmethod
    def from_dict(cls: Type[S], data: Any) -> S:
        """Rebuild a spec from :meth:`to_dict` output (typed errors)."""
        label = cls.__name__[: -len("Spec")].lower()
        data = cls._normalize(data)
        if not isinstance(data, dict):
            raise ScenarioSpecError(
                f"{label} spec must be a mapping, got {type(data).__name__}"
            )
        codec = _codec(cls)
        allowed = [name for name, _, _ in codec]
        unknown = sorted(set(data) - set(allowed))
        if unknown:
            raise ScenarioSpecError(
                f"{label} spec has unknown keys {unknown}; allowed: {sorted(allowed)}"
            )
        missing = sorted(cls._required_keys(data) - set(data))
        if missing:
            raise ScenarioSpecError(f"{label} spec misses " + (
                f"the {missing[0]!r} key" if len(missing) == 1 else f"keys {missing}"))
        spec = cls(**{
            name: _decode(data[name], hint, f"{label} {name}")
            for name, hint, _ in codec if name in data
        })
        if cls._validate_on_load:
            spec.validate()
        return spec

    @classmethod
    def _normalize(cls, data: Any) -> Any:
        """Map a shorthand input onto its mapping form."""
        if isinstance(data, str) and cls._shorthand is not None:
            return {cls._shorthand: data}
        return data

    @classmethod
    def _required_keys(cls, data: Dict[str, Any]) -> Set[str]:
        """The keys ``data`` must hold: the fields without a default."""
        return {name for name, _, default in _codec(cls) if default is _REQUIRED}


@lru_cache(maxsize=None)
def _codec(cls: Any) -> Tuple[Tuple[str, Any, Any], ...]:
    """``(name, declared type, encoded default)`` of each field of ``cls``."""
    hints = get_type_hints(cls)
    rows: List[Tuple[str, Any, Any]] = []
    for spec_field in fields(cls):
        default: Any = _REQUIRED
        if spec_field.default is not MISSING:
            default = _encode(spec_field.default)
        elif spec_field.default_factory is not MISSING:
            default = _encode(spec_field.default_factory())
        rows.append((spec_field.name, hints[spec_field.name], default))
    return tuple(rows)


def _encode(value: Any) -> Any:
    if isinstance(value, Spec):
        return value.to_dict()
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    if isinstance(value, Mapping):
        return dict(value)
    return value


def _decode(value: Any, hint: Any, what: str) -> Any:
    """Decode one JSON value by its declared type (``what`` names it in errors)."""
    if get_origin(hint) is Union:  # Optional[X]
        if value is None:
            return None
        hint = next(arg for arg in get_args(hint) if arg is not type(None))
    if isinstance(hint, type) and issubclass(hint, Spec):
        return hint.from_dict(value)
    if get_origin(hint) is dict:
        if not isinstance(value, Mapping):
            raise ScenarioSpecError(
                f"{what} must be a mapping, got {type(value).__name__}"
            )
        return dict(value)
    if get_origin(hint) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ScenarioSpecError(f"{what} must be a list, got {type(value).__name__}")
        return tuple(_decode(item, get_args(hint)[0], what) for item in value)
    if hint is bool and not isinstance(value, bool):
        raise ScenarioSpecError(f"{what} must be a boolean, got {value!r}")
    if hint in _SCALARS:
        types, noun = _SCALARS[hint]
        if not isinstance(value, types) or isinstance(value, bool):
            raise ScenarioSpecError(f"{what} must be {noun}, got {value!r}")
    return value


def _check_numbers(
    component: Component, params: Mapping[str, Any], rates: Tuple[str, ...] = ()
) -> None:
    """Reject a ``rates`` parameter that is not a number in ``[0, 1]``, and a
    non-number in any other parameter ``component``'s factory declares
    ``int`` or ``float`` (a JSON ``true`` is not a number): ``params`` is a
    free-form mapping, so the codec cannot type it."""
    if not params:
        return
    for name in rates:
        rate = params.get(name)
        if rate is not None and not (_is_number(rate) and 0.0 <= rate <= 1.0):
            raise ScenarioSpecError(f"{name} must be a number in [0, 1], got {rate!r}")
    for name in _numeric_params(component.factory):
        value = params.get(name)
        if value is not None and not _is_number(value):
            raise ScenarioSpecError(f"{name} must be a number, got {value!r}")


@lru_cache(maxsize=None)
def _numeric_params(factory: Any) -> Tuple[str, ...]:
    """The parameters ``factory`` declares ``int`` or ``float``."""
    return tuple(
        parameter.name for parameter in inspect.signature(factory).parameters.values()
        if parameter.annotation in ("int", "float", int, float)
    )


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# ---------------------------------------------------------------------------
# Component specs
# ---------------------------------------------------------------------------

@dataclass
class ProtocolSpec(Spec):
    """Which protocol runs: a registry name plus constructor options."""

    _shorthand = "name"

    name: str
    options: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        component = resolve_protocol(self.name)  # typed UnknownProtocolError
        component.validate_params(self.options)

    @property
    def component(self) -> Component:
        return resolve_protocol(self.name)

    @property
    def criterion(self) -> str:
        """The consistency criterion the protocol claims (registry metadata)."""
        return self.component.metadata["criterion"]


@dataclass
class TopologySpec(Spec):
    """Which topology to build: a registry name plus its parameters."""

    _shorthand = "name"

    name: str
    params: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        component = TOPOLOGY_REGISTRY.get(self.name)
        component.validate_params(self.params)
        _check_numbers(component, self.params)
        component.require_params(self.params)

    def build(self) -> "WeightedDigraph":
        """Materialise the :class:`~repro.workloads.topology.WeightedDigraph`."""
        return TOPOLOGY_REGISTRY.create(self.name, **self.params)


@dataclass
class DistributionSpec(Spec):
    """Which variable distribution to build: a family name plus its parameters.

    The ``neighbourhood`` family composes a :class:`TopologySpec` by flat
    convention: ``params["topology"]`` names the topology and the remaining
    parameters belong to it (the shape the experiment grids sweep over).
    :meth:`topology_spec` exposes that nested view.
    """

    _shorthand = "family"

    family: str
    params: Dict[str, Any] = field(default_factory=dict)

    def _component(self) -> Component:
        return DISTRIBUTION_REGISTRY.get(self.family)

    def topology_spec(self) -> Optional[TopologySpec]:
        """The nested topology of a topology-based family (else ``None``)."""
        if not self._component().metadata.get("topology_nested"):
            return None
        params = {k: v for k, v in self.params.items() if k != "topology"}
        return TopologySpec(self.params.get("topology", "figure8"), params)

    def validate(self) -> None:
        component = self._component()  # typed UnknownComponentError
        if component.metadata.get("topology_nested"):
            topology = self.topology_spec()
            assert topology is not None
            topology.validate()  # typed: unknown topology / foreign params
            return
        component.validate_params(self.params)
        _check_numbers(component, self.params)
        component.require_params(self.params)

    def build(self, seed: int = 0) -> "VariableDistribution":
        """Materialise the distribution (``seed`` fills in a missing family seed)."""
        self.validate()
        component = self._component()
        params = dict(self.params)
        if component.metadata.get("seeded"):
            params.setdefault("seed", seed)
        return component.factory(**params)


@dataclass
class WorkloadSpec(Spec):
    """Which scripted access pattern to replay: a pattern name plus parameters."""

    _shorthand = "pattern"

    pattern: str
    params: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        component = WORKLOAD_REGISTRY.get(self.pattern)  # typed error
        component.validate_params(self.params)
        _check_numbers(component, self.params, rates=("write_fraction",))
        component.require_params(self.params)

    def build(self, distribution: "VariableDistribution", seed: int = 0) -> List[Any]:
        """Generate the access script for ``distribution`` with the given seed."""
        self.validate()
        return WORKLOAD_REGISTRY.get(self.pattern).factory(
            distribution, seed=seed, **self.params
        )


def ensure_app_protocol_compatible(
    app_name: str, blocking_ok: bool, protocol: Component
) -> None:
    """The one blocking-compatibility rule, shared by spec and session gates.

    Direct-style applications (``blocking_ok=False``) cannot run on
    protocols whose reads block (``blocking_reads`` registry metadata).
    """
    if protocol.metadata.get("blocking_reads") and not blocking_ok:
        raise AppCompatibilityError(
            f"application {app_name!r} uses direct-style operations and "
            f"cannot run on the blocking protocol {protocol.name!r}"
        )


@dataclass
class AppSpec(Spec):
    """Which application programs to run: a registry name plus parameters.

    An app spec replaces the ``distribution``/``workload`` pair of a
    :class:`ScenarioSpec`: the registered factory derives the variable
    distribution from the app's own topology/input parameters and provides
    one program per process plus the result validator
    (:class:`repro.dsm.AppInstance`).  ``max_steps`` optionally caps the
    per-program step budget — fault-injected application scenarios use a
    small budget so a stalled spin barrier is *diagnosed* as a
    :class:`~repro.exceptions.LivelockError` instead of spinning for the
    default 200k steps.
    """

    _shorthand = "name"

    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    max_steps: Optional[int] = None

    def _component(self) -> Component:
        return APP_REGISTRY.get(self.name)

    def validate(self) -> None:
        component = self._component()  # typed UnknownAppError
        component.validate_params(self.params)
        _check_numbers(component, self.params)
        component.require_params(self.params)
        if self.max_steps is not None and int(self.max_steps) < 1:
            raise ScenarioSpecError(
                f"app max_steps must be >= 1, got {self.max_steps!r}"
            )

    def check_protocol(self, protocol: "ProtocolSpec") -> None:
        """Reject protocols the app's programs cannot run on (typed error)."""
        ensure_app_protocol_compatible(
            self.name,
            bool(self._component().metadata.get("blocking_ok")),
            protocol.component,
        )

    def build(self, seed: int = 0) -> "AppInstance":
        """Materialise the :class:`repro.dsm.AppInstance`.

        The scenario ``seed`` feeds the factory's input generation unless the
        spec pins its own ``seed`` parameter (mirroring
        :meth:`NetworkSpec.build`), so ``params={"seed": ...}`` overrides
        instead of colliding with the positional seed.
        """
        self.validate()
        component = self._component()
        params = dict(self.params)
        params.setdefault("seed", seed)
        instance = component.factory(**params)
        # The registry metadata is the single source of truth for the
        # blocking-protocol capability: stamp it on the instance so
        # check_protocol (spec validation) and the session's instance-level
        # gate can never disagree for a registered app.
        instance.blocking_ok = bool(component.metadata.get("blocking_ok"))
        return instance


@dataclass
class NetworkSpec(Spec):
    """Which network the messages cross: a model name plus its parameters.

    The default is the ``reliable`` model with the historical constant unit
    latency.  ``params`` reach the registered
    :class:`~repro.netsim.models.NetworkModel` constructor: a ``latency``
    sub-spec (number or ``{"kind": ...}`` mapping), fault knobs
    (``drop_rate``, ``duplicate_rate``, ``partitions``, ``crashes``) for the
    ``faulty`` model, and an optional ``seed`` pinning the fault schedule
    independently of the scenario seed.  ``fifo`` is network-level QoS and
    therefore lives here, not on the session.
    """

    _shorthand = "model"

    model: str = "reliable"
    params: Dict[str, Any] = field(default_factory=dict)
    fifo: bool = True

    def validate(self) -> None:
        component = NETWORK_MODEL_REGISTRY.get(self.model)  # typed error
        component.validate_params(self.params)
        _check_numbers(component, self.params, rates=("drop_rate", "duplicate_rate"))
        component.require_params(self.params)
        # Deep-check the declarative sub-specs (latency / partition / crash
        # dicts) without instantiating the model — building happens exactly
        # once, with the real scenario seed, when the session resolves us.
        from ..netsim.latency import build_latency
        from ..netsim.models import CrashWindow, Partition

        try:
            if "latency" in self.params:
                build_latency(self.params["latency"])
            for partition in self.params.get("partitions", ()):
                Partition.from_dict(partition)
            for crash in self.params.get("crashes", ()):
                CrashWindow.from_dict(crash)
        except NetworkModelError as exc:
            raise ScenarioSpecError(f"network spec invalid: {exc}") from exc

    def build(self, seed: int = 0) -> "NetworkModel":
        """Materialise the :class:`~repro.netsim.models.NetworkModel`.

        The scenario ``seed`` becomes the model's fault/latency seed unless
        the spec pins its own ``seed`` parameter.
        """
        params = dict(self.params)
        params.setdefault("seed", seed)
        return NETWORK_MODEL_REGISTRY.create(self.model, **params)


@dataclass
class CheckSpec(Spec):
    """How the run is checked: criteria, cadence/policy, exactness.

    Empty ``criteria`` means "whatever criterion the protocol claims".
    ``policy`` is a :class:`~repro.core.consistency.incremental.CheckPolicy`
    string spelling (``"finalize"``, ``"every_op"``, ``"fail_fast"``,
    ``"every:N[:fail_fast]"``) or ``None`` for the default.
    """

    enabled: bool = True
    criteria: Tuple[str, ...] = ()
    policy: Optional[str] = None
    exact: bool = True

    def validate(self) -> None:
        from ..core.consistency.incremental import CheckPolicy
        from ..core.consistency.registry import CRITERIA

        for criterion in self.criteria:
            if criterion not in CRITERIA:
                raise ScenarioSpecError(
                    f"unknown consistency criterion {criterion!r}; "
                    f"known: {sorted(CRITERIA)}"
                )
        if self.policy is not None:
            try:
                CheckPolicy.parse(self.policy)
            except ReproError as exc:
                raise ScenarioSpecError(f"bad check policy: {exc}") from exc

    @classmethod
    def _normalize(cls, data: Any) -> Any:
        """``None`` is the default check, a bool its ``enabled`` flag and a
        bare-string ``criteria`` one criterion."""
        if data is None:
            return {}
        if isinstance(data, bool):
            return {"enabled": data}
        if isinstance(data, dict) and isinstance(data.get("criteria"), str):
            return {**data, "criteria": [data["criteria"]]}
        return data


# ---------------------------------------------------------------------------
# The composed scenario
# ---------------------------------------------------------------------------

@dataclass
class ScenarioSpec(Spec):
    """One complete, runnable scenario — the unit the whole stack composes.

    ``Session.from_spec(spec)`` executes it; ``spec.to_dict()`` is its
    canonical JSON form (what ``repro run --scenario file.json`` loads and
    what the experiment cache hashes).

    A scenario runs either a scripted workload (``distribution`` +
    ``workload``) or an application (``app``, which derives its own
    distribution and programs) — never both.
    """

    name: str
    protocol: ProtocolSpec
    distribution: Optional[DistributionSpec] = None
    workload: Optional[WorkloadSpec] = None
    network: NetworkSpec = field(default_factory=NetworkSpec)
    check: CheckSpec = field(default_factory=CheckSpec)
    seed: int = 0
    description: str = ""
    app: Optional[AppSpec] = None

    def validate(self) -> None:
        """Raise a typed :class:`ScenarioSpecError` on the first malformed field."""
        if not self.name or not self.name.replace("-", "").replace("_", "").isalnum():
            raise ScenarioSpecError(
                f"scenario name must be a non-empty [-_a-zA-Z0-9] slug, got {self.name!r}"
            )
        self.protocol.validate()
        if self.app is not None:
            if self.distribution is not None or self.workload is not None:
                raise ScenarioSpecError(
                    f"scenario {self.name!r} names an app and a "
                    "distribution/workload, not both: an app brings its own "
                    "distribution and programs"
                )
            self.app.validate()
            self.app.check_protocol(self.protocol)  # typed AppCompatibilityError
        else:
            if self.distribution is None or self.workload is None:
                raise ScenarioSpecError(
                    f"scenario {self.name!r} needs either an app or a "
                    "distribution plus a workload"
                )
            self.distribution.validate()
            self.workload.validate()
        self.network.validate()
        self.check.validate()

    def criteria(self) -> Tuple[str, ...]:
        """The criteria to check: explicit ones, else the protocol's claim."""
        return self.check.criteria or (self.protocol.criterion,)

    @classmethod
    def _required_keys(cls, data: Dict[str, Any]) -> Set[str]:
        """An app replaces the distribution/workload pair; without one both
        are required."""
        required = super()._required_keys(data)
        if "app" not in data:
            return required | {"distribution", "workload"}
        if {"distribution", "workload"} & set(data):
            raise ScenarioSpecError(
                "scenario spec names an app and a distribution/workload; "
                "an app brings its own distribution and programs"
            )
        return required

    # -- serialization ---------------------------------------------------------