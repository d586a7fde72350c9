"""Unit tests for access profiles (the placement optimizer's input)."""

import pytest

from repro.core.distribution import VariableDistribution
from repro.exceptions import ScenarioSpecError
from repro.place import AccessProfile, synthetic_profile
from repro.workloads.access_patterns import Access, uniform_access_script
from repro.workloads.distributions import random_distribution


class TestConstructors:
    def test_from_accesses_counts(self):
        script = [
            Access(0, "write", "x", "v0"),
            Access(0, "write", "x", "v1"),
            Access(1, "read", "x"),
            Access(1, "write", "y", "v2"),
        ]
        profile = AccessProfile.from_accesses(script)
        assert profile.writes[(0, "x")] == 2
        assert profile.reads[(1, "x")] == 1
        assert profile.write_count("x") == 2
        assert profile.read_count("x") == 1
        assert profile.operation_count() == 4
        assert profile.processes == (0, 1)
        assert profile.variables == ("x", "y")

    def test_from_workload_matches_script(self):
        dist = random_distribution(4, 5, replicas_per_variable=2, seed=3)
        script = uniform_access_script(dist, operations_per_process=6, seed=1)
        via_pattern = AccessProfile.from_workload(
            "uniform", {"operations_per_process": 6}, dist, seed=1)
        assert via_pattern == AccessProfile.from_accesses(script)

    def test_accessors_and_writers(self):
        profile = AccessProfile(reads={(1, "x"): 3}, writes={(0, "x"): 2})
        assert profile.accessors("x") == frozenset({0, 1})
        assert profile.writers("x") == frozenset({0})
        assert profile.accessors("missing") == frozenset()


class TestMinimalDistribution:
    def test_holders_are_exactly_the_accessors(self):
        profile = AccessProfile(reads={(1, "x"): 1, (2, "y"): 1},
                                writes={(0, "x"): 1, (1, "y"): 1})
        dist = profile.minimal_distribution()
        assert dist.holders("x") == frozenset({0, 1})
        assert dist.holders("y") == frozenset({1, 2})

    def test_empty_profile_rejected(self):
        with pytest.raises(ScenarioSpecError):
            AccessProfile().minimal_distribution()

    def test_workload_replays_on_any_superset_placement(self):
        # any admissible placement has holders >= accessors, so the profile's
        # own accesses are always executable on it
        profile = synthetic_profile(6, 5, accessors_per_variable=2, seed=4)
        minimal = profile.minimal_distribution()
        for var in minimal.variables:
            assert profile.accessors(var) <= minimal.holders(var)


class TestRoundTrip:
    def test_json_round_trip(self):
        import json

        profile = synthetic_profile(5, 4, seed=9)
        data = json.loads(json.dumps(profile.to_dict()))
        assert AccessProfile.from_dict(data) == profile

    def test_unknown_keys_rejected(self):
        with pytest.raises(ScenarioSpecError):
            AccessProfile.from_dict({"reads": [], "writes": [], "bogus": 1})

    def test_malformed_entries_rejected(self):
        with pytest.raises(ScenarioSpecError):
            AccessProfile.from_dict({"reads": [[0, "x"]], "writes": []})

    @pytest.mark.parametrize("process", ["3", 3.7, True, -1, None])
    def test_a_process_is_a_non_negative_integer(self, process):
        with pytest.raises(ScenarioSpecError, match="process|entry\\[0\\]"):
            AccessProfile.from_dict({"reads": [[process, "x", 1]]})

    @pytest.mark.parametrize("variable", [5, 1.5, None, ["x"]])
    def test_a_variable_is_a_string(self, variable):
        with pytest.raises(ScenarioSpecError, match="entry\\[1\\] must be a string"):
            AccessProfile.from_dict({"writes": [[0, variable, 1]]})

    @pytest.mark.parametrize("count", ["3", 3.7, True, None])
    def test_a_count_is_an_integer(self, count):
        with pytest.raises(ScenarioSpecError, match="entry\\[2\\] must be an integer"):
            AccessProfile.from_dict({"reads": [[0, "x", count]]})

    @pytest.mark.parametrize("data", [[], "x", None])
    def test_a_profile_is_a_mapping(self, data):
        with pytest.raises(ScenarioSpecError, match="must be a mapping"):
            AccessProfile.from_dict(data)


class TestSynthetic:
    def test_deterministic_per_seed(self):
        assert synthetic_profile(10, 8, seed=5) == synthetic_profile(10, 8, seed=5)
        assert synthetic_profile(10, 8, seed=5) != synthetic_profile(10, 8, seed=6)

    def test_every_variable_has_requested_accessors(self):
        profile = synthetic_profile(9, 7, accessors_per_variable=3, seed=0)
        for var in profile.variables:
            assert len(profile.accessors(var)) == 3
            assert len(profile.writers(var)) == 1

    def test_accessor_bounds_validated(self):
        with pytest.raises(ScenarioSpecError):
            synthetic_profile(3, 2, accessors_per_variable=4)
