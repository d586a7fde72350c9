"""Fixtures shared by the checker tests of this directory."""

import pytest

from repro.mcs.system import MCSystem
from repro.workloads.access_patterns import run_script, uniform_access_script
from repro.workloads.distributions import random_distribution


@pytest.fixture(scope="session")
def stress_system():
    """A settled 520-operation ``pram_partial`` run (stress-suite scale), fully
    seeded, so its history doubles as a structural drift check."""
    dist = random_distribution(processes=8, variables=10, replicas_per_variable=4, seed=7)
    system = MCSystem(dist, protocol="pram_partial")
    run_script(system, uniform_access_script(dist, operations_per_process=65, seed=7))
    assert len(system.history()) == 520
    return system
