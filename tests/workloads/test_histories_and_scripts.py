"""Unit tests for history generators and access-pattern scripts."""

import pytest

from repro.core.consistency import get_checker
from repro.mcs.system import MCSystem
from repro.workloads.access_patterns import (
    Access,
    run_script,
    single_writer_script,
    uniform_access_script,
)
from repro.workloads.distributions import random_distribution
from repro.workloads.random_history import random_history, serial_history


class TestRandomHistories:
    def test_random_history_is_differentiated(self):
        h = random_history(processes=4, variables=3, operations=20, seed=5)
        assert h.is_differentiated()
        h.read_from()  # must not raise

    def test_random_history_deterministic_per_seed(self):
        a = random_history(seed=9)
        b = random_history(seed=9)
        assert a.describe() == b.describe()

    def test_serial_history_is_sequentially_consistent(self):
        h = serial_history(processes=4, variables=3, operations=18, seed=2)
        assert get_checker("sequential").check(h).consistent

    def test_distribution_restricts_accesses(self):
        dist = random_distribution(processes=3, variables=3, replicas_per_variable=1, seed=0)
        h = random_history(processes=3, variables=3, operations=30, seed=1,
                           distribution=dist)
        dist.validate_history(h)

    def test_operation_budget_respected(self):
        h = random_history(processes=3, variables=2, operations=15, seed=0)
        assert len(h) <= 15


class TestScripts:
    def test_uniform_script_counts(self):
        dist = random_distribution(processes=4, variables=6, replicas_per_variable=2, seed=0)
        script = uniform_access_script(dist, operations_per_process=10, seed=0)
        assert len(script) == 40
        per_process = {}
        for access in script:
            per_process[access.process] = per_process.get(access.process, 0) + 1
            assert dist.holds(access.process, access.variable)
        assert all(count == 10 for count in per_process.values())

    def test_single_writer_script_has_one_writer_per_variable(self):
        dist = random_distribution(processes=5, variables=5, replicas_per_variable=3, seed=1)
        script = single_writer_script(dist, writes_per_variable=4, seed=1)
        writers = {}
        for access in script:
            if access.kind == "write":
                writers.setdefault(access.variable, set()).add(access.process)
        assert all(len(w) == 1 for w in writers.values())

    def test_scripts_are_deterministic(self):
        dist = random_distribution(processes=4, variables=4, replicas_per_variable=2, seed=2)
        assert uniform_access_script(dist, seed=7) == uniform_access_script(dist, seed=7)

    def test_run_script_and_workload(self):
        dist = random_distribution(processes=4, variables=4, replicas_per_variable=2, seed=3)
        script = uniform_access_script(dist, operations_per_process=5, seed=3)
        system = MCSystem(dist, protocol="pram_partial")
        run_script(system, script)
        assert len(system.history()) == len(script)
        assert system.stats.messages_sent > 0

    def test_run_script_handles_blocking_protocols(self):
        dist = random_distribution(processes=3, variables=3, replicas_per_variable=2, seed=4)
        script = uniform_access_script(dist, operations_per_process=4, seed=4)
        system = MCSystem(dist, protocol="sequencer_sc")
        run_script(system, script)
        assert len(system.history()) == len(script)

    def test_access_dataclass(self):
        access = Access(0, "write", "x", "v")
        assert access.process == 0 and access.value == "v"

    def test_access_is_an_immutable_value_without_a_dict(self):
        import copy
        import dataclasses
        import pickle

        access = Access(0, "write", "x", "v")
        assert not hasattr(access, "__dict__")
        assert access == Access(process=0, kind="write", variable="x", value="v")
        assert hash(access) == hash(Access(0, "write", "x", "v"))
        assert access != Access(0, "read", "x") and Access(0, "read", "x").value is None
        assert access != (0, "write", "x", "v")
        assert pickle.loads(pickle.dumps(access)) == access == copy.deepcopy(access)
        assert repr(access) == "Access(process=0, kind='write', variable='x', value='v')"
        with pytest.raises(dataclasses.FrozenInstanceError):
            access.value = "w"
        with pytest.raises(dataclasses.FrozenInstanceError):
            del access.kind
