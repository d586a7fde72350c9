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
* **JSON round-trippable** — ``spec == ScenarioSpec.from_dict(spec.to_dict())``
  holds for every built-in suite point, and ``from_dict`` rejects unknown
  keys, so a spec file survives `json.dump`/`json.load` and version drift is
  reported instead of silently ignored;
* **buildable** — ``build_*`` methods materialise the concrete objects, and
  :meth:`repro.api.Session.from_spec` runs the whole scenario.

The single ``seed`` is threaded through every seedable component (workload
generation, seeded distribution families, the network model's latency and
fault schedule), so one integer reproduces a run bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Tuple

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


def _require_dict(data: Any, what: str) -> Dict[str, Any]:
    if not isinstance(data, dict):
        raise ScenarioSpecError(
            f"{what} spec must be a mapping, got {type(data).__name__}"
        )
    return data


def _reject_unknown_keys(data: Mapping[str, Any], allowed: Tuple[str, ...], what: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioSpecError(
            f"{what} spec has unknown keys {unknown}; allowed: {sorted(allowed)}"
        )


# ---------------------------------------------------------------------------
# Component specs
# ---------------------------------------------------------------------------

@dataclass
class ProtocolSpec:
    """Which protocol runs: a registry name plus constructor options."""

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

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name}
        if self.options:
            data["options"] = dict(self.options)
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "ProtocolSpec":
        if isinstance(data, str):
            return cls(data)
        data = _require_dict(data, "protocol")
        _reject_unknown_keys(data, ("name", "options"), "protocol")
        if "name" not in data:
            raise ScenarioSpecError("protocol spec misses the 'name' key")
        return cls(name=data["name"], options=dict(data.get("options", {})))


@dataclass
class TopologySpec:
    """Which topology to build: a registry name plus its parameters."""

    name: str
    params: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        component = TOPOLOGY_REGISTRY.get(self.name)
        component.validate_params(self.params)

    def build(self) -> "WeightedDigraph":
        """Materialise the :class:`~repro.workloads.topology.WeightedDigraph`."""
        return TOPOLOGY_REGISTRY.create(self.name, **self.params)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name}
        if self.params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "TopologySpec":
        if isinstance(data, str):
            return cls(data)
        data = _require_dict(data, "topology")
        _reject_unknown_keys(data, ("name", "params"), "topology")
        if "name" not in data:
            raise ScenarioSpecError("topology spec misses the 'name' key")
        return cls(name=data["name"], params=dict(data.get("params", {})))


@dataclass
class DistributionSpec:
    """Which variable distribution to build: a family name plus its parameters.

    The ``neighbourhood`` family composes a :class:`TopologySpec` by flat
    convention: ``params["topology"]`` names the topology and the remaining
    parameters belong to it (the shape the experiment grids sweep over).
    :meth:`topology_spec` exposes that nested view.
    """

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

    def build(self, seed: int = 0) -> "VariableDistribution":
        """Materialise the distribution (``seed`` fills in a missing family seed)."""
        self.validate()
        component = self._component()
        params = dict(self.params)
        if component.metadata.get("seeded"):
            params.setdefault("seed", seed)
        return component.factory(**params)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"family": self.family}
        if self.params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "DistributionSpec":
        if isinstance(data, str):
            return cls(data)
        data = _require_dict(data, "distribution")
        _reject_unknown_keys(data, ("family", "params"), "distribution")
        if "family" not in data:
            raise ScenarioSpecError("distribution spec misses the 'family' key")
        return cls(family=data["family"], params=dict(data.get("params", {})))


@dataclass
class WorkloadSpec:
    """Which scripted access pattern to replay: a pattern name plus parameters."""

    pattern: str
    params: Dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        component = WORKLOAD_REGISTRY.get(self.pattern)  # typed error
        component.validate_params(self.params)
        fraction = self.params.get("write_fraction")
        if fraction is not None and not 0.0 <= float(fraction) <= 1.0:
            raise ScenarioSpecError(
                f"write_fraction must be in [0, 1], got {fraction!r}"
            )

    def build(self, distribution: "VariableDistribution", seed: int = 0) -> List[Any]:
        """Generate the access script for ``distribution`` with the given seed."""
        self.validate()
        return WORKLOAD_REGISTRY.get(self.pattern).factory(
            distribution, seed=seed, **self.params
        )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"pattern": self.pattern}
        if self.params:
            data["params"] = dict(self.params)
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "WorkloadSpec":
        if isinstance(data, str):
            return cls(data)
        data = _require_dict(data, "workload")
        _reject_unknown_keys(data, ("pattern", "params"), "workload")
        if "pattern" not in data:
            raise ScenarioSpecError("workload spec misses the 'pattern' key")
        return cls(pattern=data["pattern"], params=dict(data.get("params", {})))


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
class AppSpec:
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

    name: str
    params: Dict[str, Any] = field(default_factory=dict)
    max_steps: Optional[int] = None

    def _component(self) -> Component:
        return APP_REGISTRY.get(self.name)

    def validate(self) -> None:
        component = self._component()  # typed UnknownAppError
        component.validate_params(self.params)
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

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"name": self.name}
        if self.params:
            data["params"] = dict(self.params)
        if self.max_steps is not None:
            data["max_steps"] = self.max_steps
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "AppSpec":
        if isinstance(data, str):
            return cls(data)
        data = _require_dict(data, "app")
        _reject_unknown_keys(data, ("name", "params", "max_steps"), "app")
        if "name" not in data:
            raise ScenarioSpecError("app spec misses the 'name' key")
        max_steps = data.get("max_steps")
        if max_steps is not None and (not isinstance(max_steps, int)
                                      or isinstance(max_steps, bool)):
            raise ScenarioSpecError(
                f"app max_steps must be an integer, got {max_steps!r}"
            )
        return cls(name=data["name"], params=dict(data.get("params", {})),
                   max_steps=max_steps)


@dataclass
class NetworkSpec:
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

    model: str = "reliable"
    params: Dict[str, Any] = field(default_factory=dict)
    fifo: bool = True

    def validate(self) -> None:
        component = NETWORK_MODEL_REGISTRY.get(self.model)  # typed error
        component.validate_params(self.params)
        for rate_key in ("drop_rate", "duplicate_rate"):
            rate = self.params.get(rate_key)
            if rate is not None and not 0.0 <= float(rate) <= 1.0:
                raise ScenarioSpecError(
                    f"{rate_key} must be in [0, 1], got {rate!r}"
                )
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

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"model": self.model}
        if self.params:
            data["params"] = dict(self.params)
        if not self.fifo:
            data["fifo"] = False
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "NetworkSpec":
        if isinstance(data, str):
            return cls(data)
        data = _require_dict(data, "network")
        _reject_unknown_keys(data, ("model", "params", "fifo"), "network")
        return cls(
            model=data.get("model", "reliable"),
            params=dict(data.get("params", {})),
            fifo=bool(data.get("fifo", True)),
        )


@dataclass
class CheckSpec:
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
        from ..core.consistency.registry import all_checkers

        known = all_checkers()
        for criterion in self.criteria:
            if criterion not in known:
                raise ScenarioSpecError(
                    f"unknown consistency criterion {criterion!r}; "
                    f"known: {sorted(known)}"
                )
        if self.policy is not None:
            try:
                CheckPolicy.parse(self.policy)
            except ReproError as exc:
                raise ScenarioSpecError(f"bad check policy: {exc}") from exc

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {}
        if not self.enabled:
            data["enabled"] = False
        if self.criteria:
            data["criteria"] = list(self.criteria)
        if self.policy is not None:
            data["policy"] = self.policy
        if not self.exact:
            data["exact"] = False
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "CheckSpec":
        if data is None:
            return cls()
        if isinstance(data, bool):
            return cls(enabled=data)
        data = _require_dict(data, "check")
        _reject_unknown_keys(data, ("enabled", "criteria", "policy", "exact"), "check")
        criteria = data.get("criteria", ())
        if isinstance(criteria, str):
            criteria = (criteria,)
        return cls(
            enabled=bool(data.get("enabled", True)),
            criteria=tuple(criteria),
            policy=data.get("policy"),
            exact=bool(data.get("exact", True)),
        )


# ---------------------------------------------------------------------------
# The composed scenario
# ---------------------------------------------------------------------------

@dataclass
class ScenarioSpec:
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
                    "distribution/workload; an app brings its own "
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

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical JSON form (defaults omitted, so hashes stay stable)."""
        data: Dict[str, Any] = {
            "name": self.name,
            "protocol": self.protocol.to_dict(),
        }
        if self.app is not None:
            data["app"] = self.app.to_dict()
        else:
            assert self.distribution is not None and self.workload is not None
            data["distribution"] = self.distribution.to_dict()
            data["workload"] = self.workload.to_dict()
        network = self.network.to_dict()
        if network != {"model": "reliable"}:
            data["network"] = network
        check = self.check.to_dict()
        if check:
            data["check"] = check
        if self.seed:
            data["seed"] = self.seed
        if self.description:
            data["description"] = self.description
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "ScenarioSpec":
        """Rebuild a scenario from :meth:`to_dict` output (typed errors)."""
        data = _require_dict(data, "scenario")
        allowed = tuple(f.name for f in fields(cls))
        _reject_unknown_keys(data, allowed, "scenario")
        required = {"name", "protocol"}
        if "app" not in data:
            required |= {"distribution", "workload"}
        missing = sorted(required - set(data))
        if missing:
            raise ScenarioSpecError(f"scenario spec misses keys {missing}")
        if "app" in data and ({"distribution", "workload"} & set(data)):
            raise ScenarioSpecError(
                "scenario spec names an app and a distribution/workload; "
                "an app brings its own distribution and programs"
            )
        seed = data.get("seed", 0)
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ScenarioSpecError(f"scenario seed must be an integer, got {seed!r}")
        return cls(
            name=data["name"],
            protocol=ProtocolSpec.from_dict(data["protocol"]),
            distribution=(DistributionSpec.from_dict(data["distribution"])
                          if "distribution" in data else None),
            workload=(WorkloadSpec.from_dict(data["workload"])
                      if "workload" in data else None),
            network=NetworkSpec.from_dict(data.get("network", {"model": "reliable"})),
            check=CheckSpec.from_dict(data.get("check")),
            seed=seed,
            description=data.get("description", ""),
            app=AppSpec.from_dict(data["app"]) if "app" in data else None,
        )
