"""Benchmarks of streaming (incremental) vs batch consistency checking.

The claim under test is the Session facade's reason to exist: on a violating
run, fail-fast incremental checking stops at the violation instead of paying
for the whole history.  The comparison runs under ``pytest-benchmark`` timing
with the ops-ratio assertion attached, so tier-1 gates it on every run.
"""

import pytest

from bench_cases import STREAM_RATIO_FLOOR, build_violating_stream
from repro.api import Session
from repro.core.consistency import get_checker, incremental_checker
from repro.core.history import History


@pytest.fixture(scope="module")
def violating_stream():
    log, read_from, position = build_violating_stream()
    per_process = {}
    for op, _source in log:
        per_process.setdefault(op.process, []).append(op)
    return log, read_from, History(per_process), position


def test_failfast_incremental_beats_batch_on_violating_stream(benchmark, violating_stream):
    log, read_from, history, _ = violating_stream

    def run():
        checker = incremental_checker("pram", exact=False)
        checker.start(universe=history.processes)
        for op, source in log:
            if checker.feed(op, source) is not None:
                return checker.ops_fed
        raise AssertionError("violation missed")

    ops_incremental = benchmark(run)
    batch = get_checker("pram").check(history, read_from, exact=False)
    assert not batch.consistent
    # Acceptance: >= 3x fewer operations processed than the batch checker,
    # which must consume the entire history before it can say anything.
    assert len(history) / ops_incremental >= STREAM_RATIO_FLOOR


def test_batch_precheck_pays_for_the_whole_history(benchmark, violating_stream):
    _, read_from, history, _ = violating_stream
    result = benchmark(get_checker("pram").check, history, read_from, exact=False)
    assert not result.consistent


def test_failfast_session_stops_violating_run_early(benchmark):
    """Acceptance: a fail-fast Session aborts a violating stress run before
    consuming the full workload (atomicity checked on a weak protocol)."""

    def run():
        return Session(
            protocol="pram_partial",
            distribution=("random", {"processes": 8, "variables": 10,
                                     "replicas_per_variable": 4}),
            workload=("uniform", {"operations_per_process": 65}),
            seed=7,
            criteria="atomic",
            check_policy="fail_fast",
        ).run()

    report = benchmark(run)
    assert report.consistent is False
    assert report.stopped_early
    assert report.operations_executed * 3 <= report.operations_total
