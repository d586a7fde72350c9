"""Typed scenario specs and plugin registries — the composition layer.

Everything runnable in the reproduction is composed from five pluggable
component kinds — protocols, variable-distribution families, workload
patterns, topologies and network models — each resolved by name through a
decorator-based registry (:mod:`repro.spec.registry`) and each describable as
pure data (:mod:`repro.spec.scenario`).  A complete run is one
:class:`ScenarioSpec`::

    from repro.spec import ScenarioSpec
    from repro.api import Session

    spec = ScenarioSpec.from_dict({
        "name": "partitioned-hoop",
        "protocol": "best_effort",
        "distribution": {"family": "chain", "params": {"intermediates": 1}},
        "workload": {"pattern": "hoop_relay", "params": {"rounds": 6}},
        "network": {"model": "faulty",
                    "params": {"latency": 0.1,
                               "partitions": [{"start": 0, "end": 4,
                                               "links": [[0, 2]]}]}},
        "check": {"criteria": ["causal"], "policy": "fail_fast",
                  "exact": False},
    })
    report = Session.from_spec(spec).run()

Third-party components plug in with the ``register_*`` decorators and are
then addressable from specs, :class:`~repro.api.Session`, the experiment
suites and the CLI without touching any core module.
"""

from .registry import (
    APP_REGISTRY,
    DISTRIBUTION_REGISTRY,
    NETWORK_MODEL_REGISTRY,
    PROTOCOL_REGISTRY,
    TOPOLOGY_REGISTRY,
    WORKLOAD_REGISTRY,
    Component,
    ComponentRegistry,
    RegistryView,
    build_topology,
    register_app,
    register_distribution,
    register_network_model,
    register_protocol,
    register_topology,
    register_workload,
    resolve_app,
    resolve_protocol,
)
from .scenario import (
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

__all__ = [
    "APP_REGISTRY",
    "AppSpec",
    "CheckSpec",
    "Component",
    "ComponentRegistry",
    "DISTRIBUTION_REGISTRY",
    "DistributionSpec",
    "NETWORK_MODEL_REGISTRY",
    "NetworkSpec",
    "PROTOCOL_REGISTRY",
    "ProtocolSpec",
    "RegistryView",
    "ScenarioSpec",
    "Spec",
    "TOPOLOGY_REGISTRY",
    "TopologySpec",
    "WORKLOAD_REGISTRY",
    "WorkloadSpec",
    "build_topology",
    "register_app",
    "register_distribution",
    "register_network_model",
    "register_protocol",
    "register_topology",
    "register_workload",
    "resolve_app",
    "resolve_protocol",
]
