"""Equivalence guard and determinism audit.

* The redesign must not change results: for every fault-free point of the
  built-in ``paper`` and ``stress`` suites, a run driven through the typed
  :class:`repro.spec.ScenarioSpec` path produces verdicts and witnesses
  identical to the pre-redesign string/tuple entry point (which remains
  supported).
* One seed reproduces a run bit for bit, including under fault injection:
  histories, read-from mappings, verdicts and fault schedules.
"""

import pytest

from repro.api import Session
from repro.experiments.suites import builtin_scenarios


def fault_free_points():
    points = []
    for spec in builtin_scenarios():
        if spec.suite not in ("paper", "stress"):
            continue
        points.extend(spec.expand())
    assert points
    return points


def _result_fingerprint(report):
    """Everything observable a run produced, in comparable form."""
    results = {}
    for criterion, result in report.results.items():
        witnesses = None
        if result.serializations:
            witnesses = {
                process: [op.label() for op in sequence]
                for process, sequence in sorted(result.serializations.items())
            }
        results[criterion] = (result.consistent, result.exact,
                              tuple(result.violations), witnesses)
    history = None
    if report.history is not None:
        history = tuple(
            (pid, tuple(op.label() for op in report.history.local(pid).operations))
            for pid in sorted(report.history.processes)
        )
    return {
        "consistent": report.consistent,
        "exact": report.exact,
        "results": results,
        "operations": report.operations_executed,
        "messages": report.efficiency.messages_sent,
        "control_bytes": report.efficiency.control_bytes,
        "history": history,
    }


class TestSpecPathMatchesLegacyPath:
    @pytest.mark.parametrize("point", fault_free_points(),
                             ids=lambda p: p.label())
    def test_identical_verdicts_and_witnesses(self, point):
        legacy = Session(
            protocol=point.spec.protocol.name,            # plain string
            distribution=(point.spec.distribution.family,  # (family, params)
                          dict(point.spec.distribution.params)),
            workload=(point.spec.workload.pattern,        # (pattern, params)
                      dict(point.spec.workload.params)),
            seed=point.spec.seed,
            check=point.check_consistency,
            exact=point.exact,
        ).run()
        via_spec = Session.from_spec(point.spec).run()
        assert _result_fingerprint(via_spec) == _result_fingerprint(legacy)


class TestDeterminism:
    def _faulty_spec(self):
        from repro.spec import ScenarioSpec

        return ScenarioSpec.from_dict({
            "name": "determinism-faulty",
            "protocol": "best_effort",
            "distribution": {"family": "random",
                             "params": {"processes": 4, "variables": 4,
                                        "replicas_per_variable": 3}},
            "workload": {"pattern": "uniform",
                         "params": {"operations_per_process": 12,
                                    "write_fraction": 0.5}},
            "network": {"model": "faulty",
                        "params": {"latency": {"kind": "uniform",
                                               "low": 0.05, "high": 0.3},
                                   "drop_rate": 0.2,
                                   "duplicate_rate": 0.2}},
            "check": {"exact": False},
            "seed": 7,
        })

    def test_same_seed_same_run_under_faults(self):
        spec = self._faulty_spec()
        first = Session.from_spec(spec).run()
        second = Session.from_spec(spec).run()
        assert _result_fingerprint(first) == _result_fingerprint(second)
        # the fault schedule itself is part of the reproducibility contract
        assert first.messages_dropped == second.messages_dropped
        assert first.messages_duplicated == second.messages_duplicated
        assert first.drops_by_reason == second.drops_by_reason
        # the seed exercised the fault path at all (not a vacuous test)
        assert first.messages_dropped or first.messages_duplicated

    def test_different_seed_changes_the_run(self):
        from repro.spec import ScenarioSpec

        base = self._faulty_spec()
        other = ScenarioSpec.from_dict({**base.to_dict(), "seed": 8})
        first = Session.from_spec(base).run()
        second = Session.from_spec(other).run()
        assert _result_fingerprint(first) != _result_fingerprint(second)

    def test_same_seed_same_run_reliable(self):
        point = fault_free_points()[0]
        first = Session.from_spec(point.spec).run()
        second = Session.from_spec(point.spec).run()
        assert _result_fingerprint(first) == _result_fingerprint(second)
