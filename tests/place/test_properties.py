"""Property tests: Theorem 1 agreement and optimizer-output round-trips.

Two properties back the placement subsystem:

* on random distributions (n <= 12 processes), the biconnected-component
  :meth:`ShareGraph.relevant_processes` characterisation agrees with
  brute-force hoop *enumeration* (clique union every process on any
  enumerated x-hoop) — two independent code paths for Theorem 1 (the
  generated differential test is ``tests/core/test_share_graph_blocks.py``);
* optimizer output distributions survive the full serialisation loop:
  ``PlacementReport`` JSON -> ``explicit`` family ``DistributionSpec`` ->
  scenario JSON -> ``Session.from_spec`` replay on every registered
  partial-replication protocol.
"""

import json

import pytest

from repro.core.share_graph import ShareGraph
from repro.place import build_report, optimize_placement, synthetic_profile
from repro.spec import PROTOCOL_REGISTRY
from repro.spec.scenario import DistributionSpec, ScenarioSpec
from repro.workloads.distributions import random_distribution


def brute_force_relevant(share, variable):
    """Theorem 1 by enumeration: the clique plus every process on any hoop."""
    relevant = set(share.clique(variable))
    for hoop in share.hoops(variable):
        relevant.update(hoop.path)
    return frozenset(relevant)


class TestTheorem1Agreement:
    @pytest.mark.parametrize("seed", range(12))
    def test_relevant_processes_matches_hoop_enumeration(self, seed):
        processes = 4 + seed % 9  # 4..12
        variables = 3 + seed % 4
        replicas = 2 + seed % 2
        dist = random_distribution(processes, variables,
                                   replicas_per_variable=replicas, seed=seed)
        share = ShareGraph(dist)
        for var in dist.variables:
            assert share.relevant_processes(var) == \
                brute_force_relevant(share, var), \
                f"seed={seed} var={var}"

    @pytest.mark.parametrize("seed", range(6))
    def test_hoop_candidates_overapproximate_hoop_processes(self, seed):
        dist = random_distribution(4 + seed, 4, replicas_per_variable=2,
                                   seed=seed)
        share = ShareGraph(dist)
        for var in dist.variables:
            assert share.hoop_processes(var) <= share.hoop_candidates(var)


def partial_replication_protocols():
    return sorted(
        component.name
        for component in PROTOCOL_REGISTRY.components()
        if component.metadata.get("replication") == "partial"
    )


class TestOptimizerOutputRoundTrip:
    @pytest.fixture(scope="class")
    def placed(self):
        profile = synthetic_profile(8, 6, accessors_per_variable=3, seed=4)
        result = optimize_placement(profile, "control", seed=0, budget=60)
        return profile, result

    def test_report_holders_rebuild_the_distribution(self, placed):
        profile, result = placed
        report = build_report(result, profile)
        data = json.loads(json.dumps(report.to_dict()))
        spec = DistributionSpec("explicit", {
            "holders": data["holders"],
            "processes": data["processes"],
        })
        spec.validate()
        assert spec.build() == result.distribution

    def test_new_protocols_are_registered_partial(self):
        names = partial_replication_protocols()
        assert "sequencer_shard" in names
        assert "causal_tree" in names

    @pytest.mark.parametrize("protocol", partial_replication_protocols())
    def test_replays_through_session_from_spec(self, placed, protocol):
        from repro.api import Session

        profile, result = placed
        report = build_report(result, profile)
        holders = {var: list(pids) for var, pids in report.holders.items()}
        spec_json = json.dumps({
            "name": f"place-roundtrip-{protocol}",
            "protocol": protocol,
            "distribution": {"family": "explicit",
                             "params": {"holders": holders,
                                        "processes": list(report.processes)}},
            "workload": {"pattern": "zipfian",
                         "params": {"operations_per_process": 3,
                                    "write_fraction": 0.5, "skew": 1.0}},
            "seed": 2,
            "check": {"exact": False},
        })
        spec = ScenarioSpec.from_dict(json.loads(spec_json))
        session = Session.from_spec(spec)
        assert session.distribution == result.distribution
        outcome = session.run()
        assert outcome.outcome() == "pass"
