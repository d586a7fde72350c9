"""Differential test: every history-keeping session against the object oracle.

A history-keeping :class:`~repro.api.Session` records into the arena and is
checked by :class:`~repro.arena.check.ArenaBatchChecker`.  The reference is
the session's own recorded log (``session.recorder.log()``) replayed through
the object pipeline — one :func:`~repro.core.consistency.incremental.incremental_checker`
per criterion, driven by the session's
:class:`~repro.core.consistency.incremental.CheckPolicy`: ``feed`` every
operation, ``check_now`` when a check is due, stop at the first proven
violation under fail-fast, then ``finalize``.  Per criterion the verdict,
exactness, the violations in order and the witness labels must be equal;
so must ``first_violation``, and the reference's stop position must equal
``ops_checked`` and ``operations_executed`` (a session that stopped late
recorded more than the reference fed; one that stopped early proved nothing
the reference can confirm).

Inputs: the 71 points of the paper, stress, faults, apps and hunted suites;
sixty scenarios drawn by the hunt's :class:`~repro.hunt.SpecSampler`
(random protocols, distributions, fault schedules and check policies); and
finalize-policy runs of a criterion with no columnar path whose stream
monitors hit, which pins the delegated ``first_stream_violation``.

The recorded run is also the input of two more verdict paths, which must
not contradict the batch checkers (the ground truth): the batch checker on
the session's own history, and — for scripted specs, through the exported
``repro-trace-v1`` file — the bounded-memory windowed monitor.
"""

import dataclasses

import pytest

from repro.api import Session
from repro.core.consistency import get_checker
from repro.core.consistency.incremental import incremental_checker
from repro.experiments.registry import REGISTRY
from repro.hunt import SpecSampler
from repro.serve.replay import replay_trace, replay_windowed
from repro.spec import CheckSpec

SUITES = ("paper", "stress", "faults", "apps", "hunted")

SPECS = [point.spec for suite in SUITES for experiment in REGISTRY.specs(suite)
         for point in experiment.expand()]
SAMPLED = [SpecSampler(0).sample(index) for index in range(60)]

#: The scripted violations whose stream monitors fire (the hunted corpus and
#: the duplicating best-effort run), checked finalize-only under a criterion
#: the arena delegates to the object checker.
MONITOR_HITS = [
    dataclasses.replace(spec, check=CheckSpec(criteria=("slow",), policy="finalize",
                                              exact=False))
    for spec in SPECS if spec.name.startswith("hunted-") or spec.name == "faults-duplication"
]


def _spec_id(spec):
    checked = "+".join(spec.check.criteria)
    return f"{spec.name}-{spec.protocol.name}-s{spec.seed}" + (f"-{checked}" if checked else "")


def oracle(log, universe, criteria, exact, policy):
    """The object replay of a recorded log under ``policy``: the results,
    the first violation and how many operations were fed before the stop."""
    checkers = {criterion: incremental_checker(criterion, exact=exact)
                for criterion in criteria}
    for checker in checkers.values():
        checker.start(universe)
    first = []

    def note(result):
        if result is not None and not result.consistent and result.violations and not first:
            first.append(result.violations[0])

    fed = 0
    for op, source in log:
        fed += 1
        for checker in checkers.values():
            note(checker.feed(op, source))
        if policy.due(fed):
            for checker in checkers.values():
                note(checker.check_now())
        if first and policy.fail_fast:
            break
    results = {criterion: checker.finalize() for criterion, checker in checkers.items()}
    return results, (first[0] if first else None), fed


def result_key(result):
    return (result.consistent, result.exact, tuple(result.violations),
            {pid: [op.label() for op in witness]
             for pid, witness in result.serializations.items()})


def assert_no_path_contradicts_batch(report, trace):
    """The heuristic-checked run against the batch checkers: on its own
    history, and (given a trace of it) through the windowed monitor."""
    if not report.stopped_early:
        for criterion, result in report.results.items():
            batch = get_checker(criterion).check(
                report.history, read_from=report.read_from, exact=False)
            assert (batch.consistent, batch.exact) == (result.consistent, result.exact), \
                criterion
    if trace is None:
        return
    for criterion, batch in replay_trace(trace, exact=False).results.items():
        for window in (8, 64):
            windowed, _ = replay_windowed(trace, criterion=criterion,
                                          window=window, policy="every:4")
            # a windowed violation is always a proof; a clean verdict of a
            # heuristic check never is
            assert windowed.consistent or not batch.consistent, (criterion, window)
            assert not (windowed.consistent and windowed.exact), (criterion, window)


@pytest.mark.parametrize("spec", SPECS + SAMPLED + MONITOR_HITS, ids=_spec_id)
def test_session_matches_the_object_oracle(spec, tmp_path):
    trace = str(tmp_path / "run.jsonl") if spec.app is None else None
    session = Session.from_spec(spec, trace_out=trace)
    assert session.engine == "arena"
    report = session.run()

    results, first, fed = oracle(session.recorder.log(), tuple(session.distribution.processes),
                                 tuple(session.checkers), session.exact, session.policy)
    assert sorted(report.results) == sorted(results)
    for criterion, result in results.items():
        assert result_key(report.results[criterion]) == result_key(result), criterion
    assert report.first_violation == first
    if results:
        assert report.ops_checked == fed
    assert report.operations_executed == fed
    if not spec.check.exact:
        assert_no_path_contradicts_batch(report, trace)


def test_the_monitor_hit_inputs_are_delegated_and_hit():
    """The last input group is not vacuous: each run's criterion has no
    columnar path, checks finalize-only and its monitors fire."""
    assert len(MONITOR_HITS) == 8
    for spec in MONITOR_HITS:
        session = Session.from_spec(spec)
        report = session.run()
        (checker,) = session.checkers.values()
        assert checker._inner is not None
        assert checker.first_stream_violation is not None
        assert report.first_violation == checker.first_stream_violation[1]
