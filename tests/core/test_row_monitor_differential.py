"""Differential test: the one stream monitor against the object one it replaced.

:class:`~repro.arena.check.RowMonitor` runs the O(1) stream monitors over
arena rows, reading write positions from the index column its caller passes.
The reference is :class:`stream_monitors.StreamMonitors`, the object monitor
it replaced, kept verbatim.  Fed the same stream, operation by operation,
the two must report the same messages (with the ``p{pid}:`` prefix the
checkers add) and export the same JSON state; a row monitor that loads the
reference's state mid-stream must go on agreeing.

Inputs: the recorded logs of the paper, stress and faults points and of the
sixty :class:`~repro.hunt.SpecSampler` runs, each as recorded and with one
read made stale (re-pointed at an older write of its writer on its
variable), with and without the atomic criterion's real-time rule.
"""

import json
import random

import pytest

from repro.api import Session
from repro.arena.check import RowMonitor
from repro.arena.store import NO_SOURCE, OpArena
from repro.experiments.suites import builtin_scenarios
from repro.hunt import SpecSampler
from stream_monitors import StreamMonitors


def recorded_logs():
    specs = [point.spec for experiment in builtin_scenarios()
             if experiment.suite in ("paper", "stress", "faults") and experiment.app is None
             for point in experiment.expand()]
    specs += [SpecSampler(0).sample(index) for index in range(60)]
    logs = []
    for index, spec in enumerate(specs):
        if spec.app is not None:
            continue
        session = Session.from_spec(spec)
        session.checkers = {}  # record only
        session.run()
        log = list(session.recorder.log())
        logs.append(log)
        stale = staled(log, random.Random(index))
        if stale is not None:
            logs.append(stale)
    return logs


def staled(log, rng):
    """``log`` with one read re-pointed at an older write of its writer on its
    variable; ``None`` when no read has one."""
    earlier = {}
    candidates = []
    for at, (op, source) in enumerate(log):
        if op.is_write:
            earlier.setdefault((op.process, op.variable), []).append(op)
        elif source is not None:
            older = [w for w in earlier[(source.process, op.variable)] if w.index < source.index]
            if older:
                candidates.append((at, older))
    if not candidates:
        return None
    at, older = rng.choice(candidates)
    return log[:at] + [(log[at][0], rng.choice(older))] + log[at + 1:]


@pytest.fixture(scope="module")
def logs():
    return recorded_logs()


def drive(log, real_time):
    """Both monitors over ``log``; how many messages they reported."""
    reference = StreamMonitors(real_time=real_time)
    arena = OpArena()
    monitor = RowMonitor(arena, real_time=real_time)
    rows = {}
    reported = 0
    for position, (op, source) in enumerate(log):
        expected = [f"p{op.process}: {found}" for found in reference.observe(op, source)]
        if op.is_write:
            row = rows[op] = arena.append_write(op.process, op.variable, op.value,
                                                op.invoked_at, op.completed_at)
        else:
            row = arena.append_read(op.process, op.variable, op.value,
                                    NO_SOURCE if source is None else rows[source],
                                    op.invoked_at, op.completed_at)
        assert arena.index[row] == op.index
        assert [message for _, message in monitor.observe(row, arena.index)] == expected
        reported += len(expected)
        if position == len(log) // 2:
            monitor = RowMonitor(arena)
            monitor.load_state(json.loads(json.dumps(reference.export_state())))
        assert monitor.export_state() == reference.export_state()
    return reported


@pytest.mark.parametrize("real_time", [False, True], ids=["slow", "atomic"])
def test_the_row_monitor_reports_what_the_object_monitor_did(logs, real_time):
    reported = sum(drive(log, real_time) for log in logs)
    assert len(logs) >= 200
    assert reported >= (2000 if real_time else 50)
