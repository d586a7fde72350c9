"""Decorator-based plugin registries for every pluggable component kind.

The composition surface of the reproduction — which protocol runs, over which
variable distribution, generated by which workload pattern, on which network
— used to be a handful of hardcoded module-level tables.  This module replaces
them with one mechanism: a :class:`ComponentRegistry` per component kind, and
a ``register_*`` decorator that attaches a factory plus *capability metadata*
(the criterion a protocol claims, whether a distribution family is seeded,
...) under a public name.  Third-party code registers new components without
touching any core file::

    from repro.spec import register_protocol
    from repro.mcs.base import MCSProcess

    @register_protocol("my_proto", criterion="causal", replication="partial")
    class MyProtocol(MCSProcess):
        ...

    Session(protocol="my_proto", ...)          # resolves like a built-in

Built-in components live next to the code they wrap (protocol classes in
:mod:`repro.mcs`, workload generators in :mod:`repro.workloads`, network
models in :mod:`repro.netsim.models`) and self-register at import time; each
registry lazily imports its built-in modules on first lookup, so importing
:mod:`repro.spec` alone never drags in the whole package.

Lookups raise :class:`~repro.exceptions.UnknownComponentError` (protocols:
:class:`~repro.exceptions.UnknownProtocolError`, which is also a
:class:`~repro.exceptions.ProtocolConfigError`) and parameter-name validation
raises :class:`~repro.exceptions.ComponentParamError` — all of them
:class:`~repro.exceptions.ScenarioSpecError` subclasses, so spec-level
callers can catch one type.

:data:`repro.mcs.PROTOCOLS` and :data:`repro.mcs.PROTOCOL_CRITERION` are live
read-only :class:`RegistryView` mappings over the protocol registry, so
protocols registered later appear in them automatically.
"""

from __future__ import annotations

import importlib
import inspect
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
)

if TYPE_CHECKING:
    from ..workloads.topology import WeightedDigraph

#: What every ``register_*`` helper returns: a decorator when used as
#: ``@register_x(...)``, the factory itself when called directly.
RegistrarReturn = Callable[..., Any]

from ..exceptions import (
    ComponentParamError,
    UnknownAppError,
    UnknownComponentError,
    UnknownProtocolError,
)


@dataclass(frozen=True)
class Component:
    """One registered component: a named factory plus capability metadata."""

    name: str
    kind: str
    factory: Callable[..., Any]
    params: Tuple[str, ...] = ()
    metadata: Mapping[str, Any] = field(default_factory=dict)
    #: The declared parameters the factory has no default for (none for a
    #: component with ``dynamic_params``).
    required: Tuple[str, ...] = ()

    def validate_params(self, params: Mapping[str, Any]) -> None:
        """Raise :class:`ComponentParamError` on parameter names not declared.

        Components registered with ``dynamic_params=True`` defer validation
        to their factory (e.g. the ``neighbourhood`` distribution family,
        whose accepted parameters depend on the chosen topology).
        """
        if self.metadata.get("dynamic_params"):
            return
        unknown = sorted(set(params) - set(self.params))
        if unknown:
            raise ComponentParamError(
                f"{self.kind} {self.name!r} does not accept parameters "
                f"{unknown}; allowed: {sorted(self.params)}"
            )

    def require_params(self, params: Mapping[str, Any]) -> None:
        """Raise :class:`ComponentParamError` when ``params`` misses one of
        the :attr:`required` parameters (the factory would fail on it)."""
        missing = [name for name in self.required if name not in params]
        if missing:
            raise ComponentParamError(
                f"{self.kind} {self.name!r} needs parameters {missing}"
            )

    def create(self, **params: Any) -> Any:
        """Validate parameter names, require the needed ones and call the factory."""
        self.validate_params(params)
        self.require_params(params)
        return self.factory(**params)


def _required(factory: Callable[..., Any], params: Tuple[str, ...]) -> Tuple[str, ...]:
    """The names of ``params`` that ``factory`` takes with no default, but
    ``seed``: the seeded builds fill it in from the scenario seed."""
    try:
        signature = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # a callable with no inspectable signature
        return ()
    return tuple(
        name for name in params
        if name != "seed" and name in signature
        and signature[name].default is inspect.Parameter.empty
    )


class ComponentRegistry:
    """A name -> :class:`Component` mapping for one component kind."""

    def __init__(
        self,
        kind: str,
        builtin_modules: Tuple[str, ...] = (),
        unknown_error: Type[UnknownComponentError] = UnknownComponentError,
    ) -> None:
        self.kind = kind
        self._components: Dict[str, Component] = {}
        self._builtin_modules = builtin_modules
        self._builtins_loaded = False
        self._unknown_error = unknown_error

    # -- built-in loading ------------------------------------------------------
    def _ensure_builtins(self) -> None:
        """Import the modules whose decorators register the built-ins (once)."""
        if self._builtins_loaded:
            return
        self._builtins_loaded = True  # set first: the imports re-enter us
        for module in self._builtin_modules:
            importlib.import_module(module)

    # -- registration ----------------------------------------------------------
    def register(
        self,
        name: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        params: Tuple[str, ...] = (),
        replace: bool = False,
        **metadata: Any,
    ) -> RegistrarReturn:
        """Register ``factory`` under ``name``; usable as a decorator.

        ``params`` lists the parameter names the factory accepts from specs
        (validated on every :meth:`Component.create`).  Any further keyword
        becomes capability metadata on the component.  Duplicate names raise
        :class:`ComponentParamError` unless ``replace=True``.
        """

        def decorate(fn: Callable[..., Any]) -> Callable[..., Any]:
            if not replace and name in self._components:
                raise ComponentParamError(
                    f"{self.kind} {name!r} is already registered"
                )
            self._components[name] = Component(
                name=name,
                kind=self.kind,
                factory=fn,
                params=tuple(params),
                metadata=dict(metadata),
                required=() if metadata.get("dynamic_params") else _required(fn, params),
            )
            return fn

        if factory is not None:
            return decorate(factory)
        return decorate

    def unregister(self, name: str) -> None:
        """Remove ``name`` (for tests/plugins); unknown names are ignored."""
        self._components.pop(name, None)

    # -- lookup ----------------------------------------------------------------
    def get(self, name: str) -> Component:
        """The component registered under ``name`` (typed error when absent)."""
        self._ensure_builtins()
        try:
            return self._components[name]
        except KeyError:
            raise self._unknown_error(
                f"unknown {self.kind} {name!r}; known: {self.names()}"
            ) from None

    def create(self, name: str, **params: Any) -> Any:
        """Resolve ``name`` and build it with validated parameters."""
        return self.get(name).create(**params)

    def names(self) -> List[str]:
        """Registered names, sorted."""
        self._ensure_builtins()
        return sorted(self._components)

    def components(self) -> Tuple[Component, ...]:
        """Every registered component, sorted by name."""
        self._ensure_builtins()
        return tuple(self._components[name] for name in self.names())

    def __contains__(self, name: object) -> bool:
        self._ensure_builtins()
        return name in self._components

    def __len__(self) -> int:
        self._ensure_builtins()
        return len(self._components)

    def __iter__(self) -> Iterator[str]:
        self._ensure_builtins()
        return iter(sorted(self._components))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ComponentRegistry kind={self.kind!r} components={len(self)}>"


class RegistryView(MappingABC):
    """Live read-only mapping ``name -> value(component)`` over a registry.

    ``value`` picks what the mapping stores for each component — the factory
    for ``PROTOCOLS``, a metadata entry for ``PROTOCOL_CRITERION``.
    """

    def __init__(
        self, registry: ComponentRegistry, value: Callable[[Component], Any]
    ) -> None:
        self._registry = registry
        self._value = value

    def __getitem__(self, name: str) -> Any:
        return self._value(self._registry.get(name))

    def __iter__(self) -> Iterator[str]:
        return iter(self._registry.names())

    def __len__(self) -> int:
        return len(self._registry.names())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<RegistryView {self._registry.kind} {self._registry.names()}>"


# ---------------------------------------------------------------------------
# The registries
# ---------------------------------------------------------------------------

#: Memory-consistency protocols (:class:`repro.mcs.base.MCSProcess` classes).
PROTOCOL_REGISTRY = ComponentRegistry(
    "protocol",
    builtin_modules=("repro.mcs.system",),
    unknown_error=UnknownProtocolError,
)

#: Variable-distribution families (factories returning ``VariableDistribution``).
DISTRIBUTION_REGISTRY = ComponentRegistry(
    "distribution family",
    builtin_modules=("repro.workloads.distributions", "repro.place.families"),
)

#: Scripted workload patterns (factories returning ``List[Access]``).
WORKLOAD_REGISTRY = ComponentRegistry(
    "workload pattern", builtin_modules=("repro.workloads.access_patterns",)
)

#: Weighted-digraph topology builders.
TOPOLOGY_REGISTRY = ComponentRegistry(
    "topology", builtin_modules=("repro.workloads.topology",)
)

#: Network models (latency + fault injection), see :mod:`repro.netsim.models`.
NETWORK_MODEL_REGISTRY = ComponentRegistry(
    "network model", builtin_modules=("repro.netsim.models",)
)

#: Application programs (factories returning :class:`repro.dsm.AppInstance`).
APP_REGISTRY = ComponentRegistry(
    "application",
    builtin_modules=("repro.apps",),
    unknown_error=UnknownAppError,
)


# ---------------------------------------------------------------------------
# Registration decorators
# ---------------------------------------------------------------------------

def register_protocol(
    name: str,
    *,
    criterion: str,
    replication: str = "partial",
    options: Tuple[str, ...] = (),
    **metadata: Any,
) -> RegistrarReturn:
    """Register an :class:`~repro.mcs.base.MCSProcess` subclass by name.

    ``criterion`` is the consistency criterion the protocol claims to enforce
    on reliable FIFO channels (what ``Session`` checks by default);
    ``replication`` is ``"partial"`` or ``"full"``; ``options`` lists the
    extra constructor keywords accepted via ``protocol_options``.

    Further capability metadata declares the protocol's *guarantee envelope*,
    which :mod:`repro.hunt` classifies adversarial outcomes against:

    ``fault_tolerant``
        The claimed criterion still holds when the ``faulty`` network model
        drops, duplicates or partitions messages and crashes interfaces —
        the hardened protocols stall instead of lying.  Default ``False``
        (an undeclared protocol is *not* assumed safe under faults, so a
        violation there is never misreported as a protocol bug).
    ``order_tolerant``
        The claimed criterion still holds on reliable but non-FIFO channels
        (the protocol reorders/buffers arrivals itself).  Default ``False``.
    ``blocking_reads``
        Reads may block awaiting remote state; liveness then needs the
        network to keep delivering (a stalled run under faults is expected,
        not a finding).
    """
    return PROTOCOL_REGISTRY.register(
        name,
        params=tuple(options),
        criterion=criterion,
        replication=replication,
        **metadata,
    )


def register_distribution(
    name: str, *, params: Tuple[str, ...] = (), seeded: bool = False, **metadata: Any
) -> RegistrarReturn:
    """Register a variable-distribution family (``seeded`` = accepts ``seed``)."""
    return DISTRIBUTION_REGISTRY.register(
        name, params=tuple(params), seeded=seeded, **metadata
    )


def register_workload(
    name: str, *, params: Tuple[str, ...] = (), **metadata: Any
) -> RegistrarReturn:
    """Register a scripted workload pattern (always receives ``seed``)."""
    return WORKLOAD_REGISTRY.register(name, params=tuple(params), **metadata)


def register_topology(
    name: str, *, params: Tuple[str, ...] = (), **metadata: Any
) -> RegistrarReturn:
    """Register a topology builder."""
    return TOPOLOGY_REGISTRY.register(name, params=tuple(params), **metadata)


def register_network_model(
    name: str, *, params: Tuple[str, ...] = (), **metadata: Any
) -> RegistrarReturn:
    """Register a :class:`~repro.netsim.models.NetworkModel` class."""
    return NETWORK_MODEL_REGISTRY.register(name, params=tuple(params), **metadata)


def register_app(
    name: str,
    *,
    params: Tuple[str, ...] = (),
    blocking_ok: bool = False,
    variables_per_process: str = "",
    **metadata: Any,
) -> RegistrarReturn:
    """Register an application-program factory by name.

    The factory receives the declared ``params`` plus the scenario ``seed``
    and returns a :class:`repro.dsm.AppInstance` (distribution + one program
    per process + result validator).  Capability metadata:

    ``blocking_ok``
        Whether the programs issue command-style operations and can run on
        blocking protocols (``sequencer_sc``); direct-style apps declare
        ``False`` and the session rejects the combination with a typed
        :class:`~repro.exceptions.AppCompatibilityError`.
    ``variables_per_process``
        Human-readable footprint of the app's variable distribution (shown
        by ``repro apps list``), e.g. ``"2·(1 + indegree)"`` for
        Bellman-Ford's ``x_h, k_h`` pattern.
    """
    return APP_REGISTRY.register(
        name,
        params=tuple(params),
        blocking_ok=blocking_ok,
        variables_per_process=variables_per_process,
        **metadata,
    )


def resolve_app(name: str) -> Component:
    """Resolve an application name through the registry (typed error)."""
    return APP_REGISTRY.get(name)


def resolve_protocol(name: str) -> Component:
    """Resolve a protocol name through the registry.

    This is the *single* validation path: :class:`repro.api.Session` and
    :class:`repro.mcs.MCSystem` both call it, so an unknown protocol raises
    the same :class:`~repro.exceptions.UnknownProtocolError` (a
    :class:`~repro.exceptions.ProtocolConfigError`) wherever it is named.
    """
    return PROTOCOL_REGISTRY.get(name)


def build_topology(name: str, **params: Any) -> "WeightedDigraph":
    """Build a named topology, validating the parameter names."""
    return TOPOLOGY_REGISTRY.create(name, **params)
