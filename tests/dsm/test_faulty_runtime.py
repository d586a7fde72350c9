"""DSM runtime retry/livelock behaviour under the ``faulty`` network model.

The runtime's guards must turn a protocol stalled by fault injection into a
typed :class:`~repro.exceptions.LivelockError` — never an unbounded spin:

* blocking sequencer reads whose ordering messages are cut by a partition
  keep raising :class:`~repro.exceptions.RetryOperation`; the step budget
  converts the retry storm into ``LivelockError``;
* a direct-style spin barrier waiting for an update that a permanent
  partition dropped exhausts the same budget;
* through the :class:`repro.api.Session` facade the failure is *diagnosed*
  (``app_correct=False`` plus the livelock text) instead of raised, which is
  what the fault-injected ``apps`` suite gates on.
"""

import pytest

from repro.api import Session
from repro.core.distribution import VariableDistribution
from repro.dsm.program import Read, Write
from repro.dsm.runtime import DSMRuntime
from repro.exceptions import LivelockError
from repro.mcs.system import MCSystem
from repro.netsim.models import FaultyNetworkModel
from repro.spec import AppSpec


def _partitioned_system(protocol, links, latency=0.1):
    dist = VariableDistribution({0: {"flag", "data"}, 1: {"flag", "data"}})
    model = FaultyNetworkModel(
        latency=latency,
        partitions=[{"start": 0.0, "end": float("inf"), "links": links}],
    )
    return MCSystem(dist, protocol=protocol, network_model=model)


class TestBlockingReadsAcrossPartitions:
    def test_sequencer_read_across_partition_raises_livelock(self):
        # Process 1's write request can never reach the sequencer (process
        # 0), so its command-style read keeps raising RetryOperation; the
        # step budget must convert that into LivelockError, not a hang.
        system = _partitioned_system("sequencer_sc", links=[[1, 0]])
        runtime = DSMRuntime(system, max_steps_per_process=80, retry_delay=0.2)

        def blocked(ctx):
            yield Write("data", 1)
            value = yield Read("data")  # waits for an ordering that never comes
            return value

        def idle(ctx):
            yield
            return None

        runtime.add_programs({0: idle, 1: blocked})
        with pytest.raises(LivelockError):
            runtime.run()
        assert runtime.retry_counts()[1] > 0

    def test_sequencer_completes_when_links_are_up(self):
        # Control: the same programs terminate on an un-partitioned faulty
        # network (latency only), exercising the retry path non-fatally.
        dist = VariableDistribution({0: {"flag", "data"}, 1: {"flag", "data"}})
        system = MCSystem(dist, protocol="sequencer_sc",
                          network_model=FaultyNetworkModel(latency=0.1))
        runtime = DSMRuntime(system, max_steps_per_process=500, retry_delay=0.2)

        def writer(ctx):
            yield Write("data", 7)
            value = yield Read("data")
            return value

        def idle(ctx):
            yield
            return None

        runtime.add_programs({0: writer, 1: idle})
        results = runtime.run()
        assert results[0] == 7


class TestSpinBarriersAcrossPartitions:
    def test_direct_style_spin_wait_raises_livelock(self):
        system = _partitioned_system("pram_partial", links=[[0, 1]])
        runtime = DSMRuntime(system, max_steps_per_process=60)

        def producer(ctx):
            ctx.write("flag", True)
            yield
            return "done"

        def spinner(ctx):
            while ctx.read("flag") is not True:  # the update was dropped
                yield
            return "unreachable"

        runtime.add_programs({0: producer, 1: spinner})
        with pytest.raises(LivelockError):
            runtime.run()
        assert runtime.step_counts()[1] > 60

    def test_session_diagnoses_the_livelock_instead_of_raising(self):
        report = Session(
            protocol="pram_partial",
            app=AppSpec("bellman_ford", {"topology": "figure8"}, max_steps=1500),
            network=("faulty", {"latency": 0.1,
                                "partitions": [{"start": 0.0, "end": 1e9,
                                                "links": [[1, 2]]}]}),
            exact=False,
        ).run()
        assert report.app_correct is False
        assert "livelock" in report.app_diagnosis
        assert report.stopped_early
        # the checker verdict is still produced: stale reads, not violations
        assert report.consistent is True
        assert report.messages_dropped > 0
        assert not report  # the diagnosed failure makes the report falsy
