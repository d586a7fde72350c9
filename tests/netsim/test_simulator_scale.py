"""Scale and slicing tests of the simulator's heap of call groups.

A group of ``call_at`` calls must run exactly as one record per call would:
in ``(time, sequence)`` order, also across 10^5 calls, also when the calls
schedule more calls at their own instant, and also when a run is cut into
slices by event budgets or horizons and resumed.
"""

import random

import pytest

from repro.exceptions import SimulationError
from repro.netsim.simulator import Simulator


def random_workload(seed, size=400):
    """``size`` groups of one to four names at a few instants, and a rule
    for the follow-up calls each name schedules (some at its own instant)."""
    rng = random.Random(seed)
    groups = [(rng.randrange(20) / 4.0, [f"{i}.{j}" for j in range(rng.randrange(1, 5))])
              for i in range(size)]
    follow = {name: (rng.choice((0.0, 0.0, 0.25, 1.0)), rng.randrange(1, 4))
              for _, names in groups for name in names if rng.random() < 0.3}
    return groups, follow


def drive(seed, grouped, resume):
    """Run the workload of ``seed`` with one record per group (``grouped``)
    or one per call; ``resume(sim)`` runs the simulator to the end.
    Returns every call's ``(now, name)`` in the order they ran."""
    groups, follow = random_workload(seed)
    sim = Simulator()
    ran = []

    def schedule(time, names):
        if grouped:
            sim.call_at(time, call, names)
        else:
            for name in names:
                sim.call_at(time, call, [name])

    def call(name):
        ran.append((sim.now, name))
        if name in follow:
            delay, count = follow[name]
            schedule(sim.now + delay, [f"{name}/{k}" for k in range(count)])

    for time, names in groups:
        schedule(time, names)
    resume(sim)
    assert sim.pending_events == 0
    assert sim.processed_events == len(ran)
    return ran


def run_to_end(sim):
    sim.run()


class TestGroupsMatchOneRecordPerCall:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_groups_match_one_record_per_call_bit_for_bit(self, seed):
        grouped = drive(seed, grouped=True, resume=run_to_end)
        assert grouped == drive(seed, grouped=False, resume=run_to_end)
        assert [now for now, _ in grouped] == sorted(now for now, _ in grouped)
        assert any("/" in name for _, name in grouped)

    @pytest.mark.parametrize("budget", [1, 2, 5, 13, 64])
    def test_a_run_sliced_by_budgets_matches_one_run(self, budget):
        def in_slices(sim):
            while True:
                before = sim.processed_events
                try:
                    sim.run(max_events=budget)
                    return
                except SimulationError:
                    assert sim.processed_events - before == budget

        expected = drive(3, grouped=False, resume=run_to_end)
        assert drive(3, grouped=True, resume=in_slices) == expected
        assert drive(3, grouped=False, resume=in_slices) == expected

    def test_a_run_sliced_by_horizons_matches_one_run(self):
        def in_slices(sim):
            for step in range(40):
                sim.run(until=step / 8.0)
                assert sim.now == step / 8.0
            sim.run()

        expected = drive(4, grouped=False, resume=run_to_end)
        assert drive(4, grouped=True, resume=in_slices) == expected


class TestScaleDrain:
    def test_100k_call_drain_runs_in_time_then_sequence_order(self):
        """10^5 calls in groups of one to eight over 10^4 instants: every
        call runs once, in ``(time, sequence)`` order."""
        rng = random.Random(7)
        sim = Simulator()
        ran = []
        keys = []
        call = 0
        for sequence in range(25_000):
            time = float(rng.randrange(10_000))
            size = rng.randrange(1, 9)
            args = list(range(call, call + size))
            call += size
            keys.extend((time, sequence, arg) for arg in args)
            sim.call_at(time, ran.append, args)
        assert sim.pending_events == call
        assert sim.run() == call
        assert ran == [arg for _, _, arg in sorted(keys)]
        assert sim.pending_events == 0 and sim.now == max(keys)[0]

    def test_pending_events_stays_consistent_across_horizons(self):
        sim = Simulator()
        for i in range(1_000):
            sim.call_at(float(i % 50), lambda _: None, [None] * (1 + i % 3))
        total = sim.pending_events
        assert total == sum(1 + i % 3 for i in range(1_000))
        done = 0
        for horizon in range(50):
            done += sim.run(until=float(horizon))
            assert sim.processed_events == done
            assert sim.pending_events == total - done
        assert done == total and sim.pending_events == 0


class Probe:
    """A callback that counts every comparison made against it."""

    comparisons = 0

    def __call__(self, arg):
        pass

    def _compare(self, other):
        Probe.comparisons += 1
        return NotImplemented

    __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _compare
    __hash__ = object.__hash__


@pytest.fixture
def probe_count():
    Probe.comparisons = 0
    yield
    Probe.comparisons = 0


def test_the_comparison_probe_sees_a_comparison(probe_count):
    assert Probe() != Probe()
    assert Probe.comparisons > 0


def test_the_heap_never_compares_two_callbacks(probe_count):
    """The unique sequence number decides every tie in time, so records at
    one instant never fall through to comparing their callbacks."""
    sim = Simulator()
    for i in range(500):
        sim.call_at(float(i % 5), Probe(), [i, i + 1])
    assert sim.run() == 1_000
    assert Probe.comparisons == 0
