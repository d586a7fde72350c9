"""Tests of scenario-spec validation, grid expansion and content hashing."""

import pytest

from repro.experiments import (
    REGISTRY,
    DistributionSpec,
    ExperimentSpec,
    ScenarioRegistry,
    ScenarioSpecError,
    WorkloadSpec,
    build_topology,
    builtin_scenarios,
)


def make_spec(**overrides):
    base = dict(
        name="tiny",
        distribution=DistributionSpec("chain", {"intermediates": 1}),
        workload=WorkloadSpec("uniform", {"operations_per_process": 3,
                                          "write_fraction": 0.5}),
        protocols=("pram_partial",),
        seeds=(0,),
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestValidation:
    def test_valid_spec_passes(self):
        make_spec().validate()

    def test_unknown_protocol(self):
        with pytest.raises(ScenarioSpecError, match="unknown protocol"):
            make_spec(protocols=("pram_partial", "nope")).validate()

    def test_empty_protocols_and_seeds(self):
        with pytest.raises(ScenarioSpecError, match="no protocols"):
            make_spec(protocols=()).validate()
        with pytest.raises(ScenarioSpecError, match="no seeds"):
            make_spec(seeds=()).validate()

    def test_bad_name(self):
        with pytest.raises(ScenarioSpecError, match="slug"):
            make_spec(name="has spaces").validate()

    def test_unknown_distribution_family(self):
        with pytest.raises(ScenarioSpecError, match="unknown distribution family"):
            make_spec(distribution=DistributionSpec("nope", {})).validate()

    def test_unknown_distribution_param(self):
        bad = DistributionSpec("chain", {"intermediates": 1, "bogus": 3})
        with pytest.raises(ScenarioSpecError, match="does not accept"):
            make_spec(distribution=bad).validate()

    def test_unknown_workload_pattern_and_param(self):
        with pytest.raises(ScenarioSpecError, match="unknown workload pattern"):
            make_spec(workload=WorkloadSpec("nope", {})).validate()
        with pytest.raises(ScenarioSpecError, match="does not accept"):
            make_spec(workload=WorkloadSpec("uniform", {"bogus": 1})).validate()

    def test_write_fraction_range(self):
        bad = WorkloadSpec("uniform", {"write_fraction": 1.5})
        with pytest.raises(ScenarioSpecError, match="write_fraction"):
            make_spec(workload=bad).validate()

    def test_unknown_topology(self):
        bad = DistributionSpec("neighbourhood", {"topology": "moebius"})
        with pytest.raises(ScenarioSpecError, match="unknown topology"):
            make_spec(distribution=bad).validate()
        with pytest.raises(ScenarioSpecError, match="unknown topology"):
            build_topology("moebius")

    def test_topology_rejects_foreign_params(self):
        with pytest.raises(ScenarioSpecError, match="does not accept"):
            build_topology("figure8", nodes=5)

    def test_neighbourhood_rejects_params_of_other_topologies(self):
        bad = DistributionSpec("neighbourhood", {"topology": "figure8",
                                                 "nodes": 8})
        with pytest.raises(ScenarioSpecError, match="does not accept"):
            make_spec(distribution=bad).validate()

    def test_grid_value_incompatible_with_topology_fails_eagerly(self):
        spec = make_spec(
            distribution=DistributionSpec("neighbourhood",
                                          {"topology": "line", "nodes": 4}),
            grid={"distribution.extra_edges": (1, 2)},
        )
        with pytest.raises(ScenarioSpecError, match="does not accept"):
            spec.validate()

    def test_bad_grid_axis(self):
        with pytest.raises(ScenarioSpecError, match="grid axis"):
            make_spec(grid={"bogus": (1, 2)}).validate()
        with pytest.raises(ScenarioSpecError, match="grid axis"):
            make_spec(grid={"distribution.bogus": (1, 2)}).validate()
        with pytest.raises(ScenarioSpecError, match="no values"):
            make_spec(grid={"distribution.intermediates": ()}).validate()


class TestExpansion:
    def test_cross_product_size(self):
        spec = make_spec(
            protocols=("pram_partial", "causal_partial"),
            seeds=(0, 1, 2),
            grid={"distribution.intermediates": (1, 2),
                  "workload.operations_per_process": (3, 4)},
        )
        points = spec.expand()
        assert len(points) == 2 * 3 * 2 * 2

    def test_grid_overrides_base_params(self):
        spec = make_spec(grid={"distribution.intermediates": (4,)})
        (point,) = spec.expand()
        assert point.distribution.params["intermediates"] == 4
        # the base spec is untouched by the expansion
        assert spec.distribution.params["intermediates"] == 1

    def test_expansion_is_deterministic(self):
        spec = make_spec(seeds=(0, 1),
                         grid={"distribution.intermediates": (1, 3)})
        first = [p.content_hash() for p in spec.expand()]
        second = [p.content_hash() for p in spec.expand()]
        assert first == second

    def test_points_build_runnable_objects(self):
        spec = make_spec()
        (point,) = spec.expand()
        distribution = point.distribution.build(seed=point.seed)
        script = point.workload.build(distribution, seed=point.seed)
        assert distribution.processes and script


class TestContentHash:
    def test_hash_is_stable_across_param_order(self):
        a = make_spec(distribution=DistributionSpec(
            "random", {"processes": 4, "variables": 3, "replicas_per_variable": 2}))
        b = make_spec(distribution=DistributionSpec(
            "random", {"replicas_per_variable": 2, "variables": 3, "processes": 4}))
        assert [p.content_hash() for p in a.expand()] == \
               [p.content_hash() for p in b.expand()]

    def test_hash_differs_per_seed_protocol_and_param(self):
        base = make_spec().expand()[0]
        other_seed = make_spec(seeds=(1,)).expand()[0]
        other_proto = make_spec(protocols=("causal_partial",)).expand()[0]
        other_param = make_spec(
            distribution=DistributionSpec("chain", {"intermediates": 2})).expand()[0]
        hashes = {p.content_hash()
                  for p in (base, other_seed, other_proto, other_param)}
        assert len(hashes) == 4

    def test_presentation_fields_do_not_affect_hash(self):
        plain = make_spec().expand()[0]
        filed = make_spec(suite="paper", paper_ref="Theorem 1",
                          description="docs only").expand()[0]
        assert plain.content_hash() == filed.content_hash()


class TestRegistry:
    def test_builtin_suites_registered(self):
        assert "paper" in REGISTRY.suites()
        assert "stress" in REGISTRY.suites()
        assert len(REGISTRY.names("paper")) >= 6
        assert len(REGISTRY.names()) >= 10

    def test_every_builtin_scenario_expands(self):
        for spec in builtin_scenarios():
            assert spec.expand()

    def test_duplicate_registration_rejected(self):
        registry = ScenarioRegistry()
        registry.register(make_spec())
        with pytest.raises(ScenarioSpecError, match="already registered"):
            registry.register(make_spec())

    def test_unknown_scenario_lookup(self):
        with pytest.raises(ScenarioSpecError, match="unknown scenario"):
            REGISTRY.get("no-such-scenario")
