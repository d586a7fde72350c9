"""Benchmarks for the spec-driven application path (``Session(app=...)``).

The series reported: wall-clock of one Bellman-Ford application session (its
message counts are pinned by the e2e ``suite_small`` workload, which runs the
whole apps suite) plus the faulty-network variants, asserting that fault
injection keeps the runs validated (duplication) or diagnosed (partition)
rather than merely slower.
"""

import pytest

from repro.api import Session
from repro.spec import ScenarioSpec


def _bellman_session(**kwargs):
    return Session(
        protocol="pram_partial",
        app=("bellman_ford", {"topology": "figure8", "source": 1}),
        **kwargs,
    )


def test_app_session_bellman_ford_figure8(benchmark):
    def run():
        session = _bellman_session(check=False)
        report = session.run()
        return session, report

    session, report = benchmark.pedantic(run, rounds=3, iterations=1)
    assert report.app_correct is True
    delivered = session.system.stats.messages_delivered
    assert delivered > 0
    assert report.efficiency.irrelevant_messages == 0


def test_app_session_with_incremental_checking(benchmark):
    report = benchmark.pedantic(
        lambda: _bellman_session(exact=False).run(), rounds=3, iterations=1,
    )
    assert report.consistent is True
    assert report.app_correct is True
    assert report.ops_checked == report.operations()


def test_app_session_under_duplication(benchmark):
    spec = ScenarioSpec.from_dict({
        "name": "apps-bench-duplication",
        "protocol": "pram_partial",
        "app": {"name": "bellman_ford", "params": {"topology": "figure8"}},
        "network": {"model": "faulty",
                    "params": {"latency": 0.1, "duplicate_rate": 0.5,
                               "duplicate_lag": 3.0}},
        "check": {"exact": False},
    })
    report = benchmark.pedantic(
        lambda: Session.from_spec(spec).run(), rounds=2, iterations=1,
    )
    assert report.messages_duplicated > 0
    assert report.app_correct is True   # sequence numbers discard duplicates
    assert report.consistent is True


def test_app_session_partition_is_diagnosed_not_spun(benchmark):
    spec = ScenarioSpec.from_dict({
        "name": "apps-bench-partition",
        "protocol": "pram_partial",
        "app": {"name": "bellman_ford", "max_steps": 1500},
        "network": {"model": "faulty",
                    "params": {"latency": 0.1,
                               "partitions": [{"start": 0.0, "end": 1e9,
                                               "links": [[1, 2]]}]}},
        "check": {"exact": False},
    })
    report = benchmark.pedantic(
        lambda: Session.from_spec(spec).run(), rounds=2, iterations=1,
    )
    assert report.app_correct is False
    assert "livelock" in report.app_diagnosis
    assert report.consistent is True
