"""Unit tests for placement reports and measured overhead."""

import json

import pytest
from place_helpers import chain_profile

from repro.exceptions import ScenarioSpecError
from repro.place import (
    PlacementReport,
    build_report,
    measure_overhead,
    optimize_placement,
    synthetic_profile,
)


@pytest.fixture(scope="module")
def chain_result():
    profile = chain_profile()
    return profile, optimize_placement(profile, "control", mode="exact")


class TestBuildReport:
    def test_rows_cover_every_variable(self, chain_result):
        profile, result = chain_result
        report = build_report(result, profile)
        assert {row.variable for row in report.variables} == set(profile.variables)
        for row in report.variables:
            assert set(row.clique) <= set(row.relevant)

    def test_hoop_witness_only_when_hoops_remain(self, chain_result):
        profile, result = chain_result
        report = build_report(result, profile)
        for row in report.variables:
            if row.hoop_process_count:
                assert row.hoop_witness is not None
                assert len(row.hoop_witness) >= 3
            else:
                assert row.hoop_witness is None

    def test_predicted_quantities_present(self, chain_result):
        profile, result = chain_result
        report = build_report(result, profile)
        assert report.predicted["replicas"] == \
            float(result.distribution.total_replicas())

    def test_render_mentions_the_objective(self, chain_result):
        profile, result = chain_result
        text = build_report(result, profile).render()
        assert "control" in text
        assert "cost" in text


class TestRoundTrip:
    def test_json_round_trip_rebuilds_distribution(self, chain_result):
        profile, result = chain_result
        report = build_report(result, profile)
        data = json.loads(json.dumps(report.to_dict()))
        restored = PlacementReport.from_dict(data)
        assert restored.distribution() == result.distribution
        assert restored.cost == report.cost
        assert [r.variable for r in restored.variables] == \
            [r.variable for r in report.variables]

    def test_malformed_report_rejected(self):
        with pytest.raises(ScenarioSpecError):
            PlacementReport.from_dict({"objective": "control"})


class TestMeasureOverhead:
    def test_measured_run_is_consistent_and_counted(self, chain_result):
        profile, result = chain_result
        measured = measure_overhead(
            result.distribution, "causal_tree",
            ("uniform", {"operations_per_process": 4}), seed=2, exact=True)
        assert measured["consistent"] == 1.0
        assert measured["messages"] > 0
        assert measured["control_bytes"] > 0

    def test_report_carries_measured_numbers(self):
        profile = synthetic_profile(6, 5, accessors_per_variable=2, seed=3)
        result = optimize_placement(profile, "control")
        measured = measure_overhead(result.distribution, "sequencer_shard",
                                    seed=1)
        report = build_report(result, profile, measured=measured)
        data = PlacementReport.from_dict(report.to_dict())
        assert data.measured == measured
        assert "measured" in report.render()
