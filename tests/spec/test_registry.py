"""Tests of the component registries and their decorator-based plugins."""

import pytest

from repro.exceptions import (
    ComponentParamError,
    ProtocolConfigError,
    ScenarioSpecError,
    UnknownComponentError,
    UnknownProtocolError,
)
from repro.mcs.base import MCSProcess
from repro.mcs.system import PROTOCOL_CRITERION, PROTOCOLS, MCSystem
from repro.spec import (
    DISTRIBUTION_REGISTRY,
    NETWORK_MODEL_REGISTRY,
    PROTOCOL_REGISTRY,
    TOPOLOGY_REGISTRY,
    WORKLOAD_REGISTRY,
    register_protocol,
    register_workload,
    resolve_protocol,
)


class TestLookup:
    def test_builtin_protocols_resolve(self):
        for name in ("pram_partial", "causal_partial", "causal_full",
                     "sequencer_sc", "best_effort"):
            component = resolve_protocol(name)
            assert component.name == name
            assert component.metadata["criterion"]

    def test_unknown_protocol_is_typed(self):
        with pytest.raises(UnknownProtocolError, match="unknown protocol"):
            resolve_protocol("nope")
        # the same error is a ProtocolConfigError (protocol-layer contract),
        # a ScenarioSpecError (spec-layer contract) and a KeyError (legacy)
        assert issubclass(UnknownProtocolError, ProtocolConfigError)
        assert issubclass(UnknownProtocolError, ScenarioSpecError)
        assert issubclass(UnknownProtocolError, KeyError)

    def test_unknown_component_is_typed(self):
        for registry in (DISTRIBUTION_REGISTRY, WORKLOAD_REGISTRY,
                         TOPOLOGY_REGISTRY, NETWORK_MODEL_REGISTRY):
            with pytest.raises(UnknownComponentError, match="unknown"):
                registry.get("definitely-not-registered")

    def test_param_validation_is_typed(self):
        component = WORKLOAD_REGISTRY.get("uniform")
        with pytest.raises(ComponentParamError, match="does not accept"):
            component.validate_params({"bogus": 1})

    def test_a_missing_required_param_is_typed(self):
        component = DISTRIBUTION_REGISTRY.get("random")
        assert component.required == ("processes", "variables")
        with pytest.raises(ComponentParamError,
                           match=r"'random' needs parameters \['variables'\]"):
            component.require_params({"processes": 3})
        component.require_params({"processes": 3, "variables": 2})  # seed: filled by build
        with pytest.raises(ComponentParamError, match="needs parameters"):
            TOPOLOGY_REGISTRY.create("ring")
        assert DISTRIBUTION_REGISTRY.get("neighbourhood").required == ()  # dynamic

    def test_every_registered_suite_point_names_its_required_params(self):
        from repro.experiments.registry import REGISTRY

        points = [point for suite in REGISTRY.suites() for spec in REGISTRY.specs(suite)
                  for point in spec.expand()]
        assert len(points) > 70
        for point in points:
            point.spec.validate()

    def test_builtin_registries_are_populated(self):
        assert {"uniform", "single_writer", "hoop_relay"} <= set(WORKLOAD_REGISTRY)
        assert {"chain", "random", "neighbourhood"} <= set(DISTRIBUTION_REGISTRY)
        assert {"figure8", "ring", "star", "line", "random"} <= set(TOPOLOGY_REGISTRY)
        assert {"reliable", "faulty"} <= set(NETWORK_MODEL_REGISTRY)


class TestBackCompatViews:
    def test_protocols_view_behaves_like_the_old_table(self):
        assert "pram_partial" in PROTOCOLS
        assert sorted(PROTOCOLS) == sorted(PROTOCOL_CRITERION)
        assert PROTOCOL_CRITERION["pram_partial"] == "pram"
        assert isinstance(PROTOCOLS["causal_full"], type)

    def test_view_lookup_raises_typed_error(self):
        with pytest.raises(UnknownProtocolError):
            PROTOCOLS["nope"]
        with pytest.raises(KeyError):  # legacy catch spelling
            PROTOCOL_CRITERION["nope"]


class TestSessionAndSystemShareTheValidationPath:
    def test_same_error_type_and_message(self):
        from repro.api import Session
        from repro.workloads.distributions import chain_distribution

        distribution = chain_distribution(1)
        with pytest.raises(ProtocolConfigError) as session_error:
            Session(protocol="nope", distribution=distribution,
                    workload=[])
        with pytest.raises(ProtocolConfigError) as system_error:
            MCSystem(distribution, protocol="nope")
        assert str(session_error.value) == str(system_error.value)

    def test_bad_protocol_option_is_typed(self):
        from repro.workloads.distributions import chain_distribution

        with pytest.raises(ComponentParamError, match="does not accept"):
            MCSystem(chain_distribution(1), protocol="pram_partial",
                     protocol_options={"bogus": 1})


class TestThirdPartyPlugin:
    def test_protocol_plugs_in_end_to_end(self):
        # A third-party protocol registered via the decorator is resolvable
        # by name from Session without touching any core module.
        from repro.api import Session
        from repro.mcs.pram_partial import PRAMPartialReplication

        @register_protocol("test_clone", criterion="pram", replication="partial")
        class CloneProtocol(PRAMPartialReplication):
            protocol_name = "test_clone"

        try:
            assert "test_clone" in PROTOCOLS
            assert PROTOCOL_CRITERION["test_clone"] == "pram"
            report = Session(
                protocol="test_clone",
                distribution=("random", {"processes": 3, "variables": 3,
                                         "replicas_per_variable": 2}),
                workload=("uniform", {"operations_per_process": 4}),
            ).run()
            assert report.consistent is True
            assert report.criteria == ("pram",)
        finally:
            PROTOCOL_REGISTRY.unregister("test_clone")
        assert "test_clone" not in PROTOCOLS

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ComponentParamError, match="already registered"):
            register_workload("uniform")(lambda distribution, seed=0: [])

    def test_workload_plugin_reaches_experiment_specs(self):
        from repro.experiments import WorkloadSpec
        from repro.spec import WORKLOAD_REGISTRY
        from repro.workloads.access_patterns import Access

        @register_workload("test_singleton", params=("variable",))
        def singleton_script(distribution, variable="x", seed=0):
            process = sorted(distribution.holders(variable))[0]
            return [Access(process, "write", variable, "v")]

        try:
            assert "test_singleton" in WORKLOAD_REGISTRY
            spec = WorkloadSpec("test_singleton", {"variable": "x"})
            from repro.workloads.distributions import chain_distribution

            script = spec.build(chain_distribution(1), seed=3)
            assert len(script) == 1 and script[0].kind == "write"
        finally:
            WORKLOAD_REGISTRY.unregister("test_singleton")


class TestEagerOptionAndQoSValidation:
    def test_experiment_spec_validates_protocol_options_eagerly(self):
        import pytest as _pytest

        from repro.exceptions import ScenarioSpecError
        from repro.experiments import DistributionSpec, ExperimentSpec, WorkloadSpec

        spec = ExperimentSpec(
            name="bad-options",
            distribution=DistributionSpec("chain", {"intermediates": 1}),
            workload=WorkloadSpec("uniform", {"operations_per_process": 3}),
            protocols=("pram_partial",),
            protocol_options={"bogus": 1},
        )
        with _pytest.raises(ScenarioSpecError, match="does not accept"):
            spec.validate()  # at registration, not halfway through a suite

    def test_session_takes_channel_order_from_the_network_spec(self):
        from repro.api import Session
        from repro.spec import NetworkSpec

        for network, fifo in ((NetworkSpec("reliable", fifo=False), False),
                              ("reliable", True), (None, True)):
            session = Session(protocol="pram_partial",
                              distribution=("chain", {"intermediates": 1}),
                              workload=("uniform", {"operations_per_process": 3}),
                              network=network)
            assert session.system.network.fifo is fifo
