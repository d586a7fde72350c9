"""Scenario-suite experiment orchestrator.

This package turns the repo's one-off benchmarks into a declarative,
cacheable experiment pipeline.  The data flow of every run is

    workload script --> netsim simulator --> history recorder
                                      |            |
                                      v            v
                             efficiency metrics   consistency checker
                                      \\            /
                                       v          v
                                  ScenarioRecord --> aggregate --> report

* :mod:`~repro.experiments.spec` — declarative :class:`ExperimentSpec` /
  :class:`ScenarioPoint` dataclasses: protocol line-up, distribution family,
  workload pattern, seeds, parameter grids, content hashing;
* :mod:`~repro.experiments.registry` — named-scenario registry grouped into
  suites;
* :mod:`~repro.experiments.suites` — the built-in ``paper`` and ``stress``
  suites (registered on import);
* :mod:`~repro.experiments.hunted` — the ``hunted`` suite, auto-grown from
  the minimal reproducers ``repro hunt`` commits under
  ``src/repro/experiments/hunted/``;
* :mod:`~repro.experiments.cache` — content-hash result cache, so repeated
  runs of unchanged scenario/seed pairs are free;
* :mod:`~repro.experiments.runner` — batch execution (optionally with the
  points spread over a ``multiprocessing`` pool, one point per task) and
  per-scenario aggregation.

CLI: ``python -m repro experiments list|run|report``.  Claim-to-scenario
cross references live in EXPERIMENTS.md at the repository root.
"""

from ..exceptions import ScenarioSpecError
from .cache import DEFAULT_CACHE_DIR, ResultCache
from .registry import REGISTRY, ScenarioRegistry
from .runner import (
    ScenarioRecord,
    SuiteResult,
    aggregate_records,
    run_point,
    run_suite,
)
from .spec import (
    CACHE_VERSION,
    DistributionSpec,
    ExperimentSpec,
    NetworkSpec,
    ScenarioPoint,
    WorkloadSpec,
    build_topology,
)
from .suites import builtin_scenarios, register_builtin_scenarios
from .hunted import hunted_scenarios, register_hunted_scenarios

__all__ = [
    "CACHE_VERSION",
    "ExperimentSpec",
    "NetworkSpec",
    "DEFAULT_CACHE_DIR",
    "DistributionSpec",
    "REGISTRY",
    "ResultCache",
    "ScenarioPoint",
    "ScenarioRecord",
    "ScenarioRegistry",
    "ScenarioSpecError",
    "SuiteResult",
    "WorkloadSpec",
    "aggregate_records",
    "build_topology",
    "builtin_scenarios",
    "hunted_scenarios",
    "register_builtin_scenarios",
    "register_hunted_scenarios",
    "run_point",
    "run_suite",
]
