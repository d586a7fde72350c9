"""Tests of the DSM runtime and the application-program model."""

import pytest

from repro.api import Session
from repro.core.distribution import VariableDistribution
from repro.dsm.app import AppInstance
from repro.dsm.program import Read, Write
from repro.dsm.runtime import DSMRuntime
from repro.exceptions import LivelockError, SimulationError
from repro.mcs.system import MCSystem


def two_process_distribution():
    return VariableDistribution({0: {"flag", "data"}, 1: {"flag", "data"}})


def run_programs(dist, protocol, programs, **session_kwargs):
    """Run caller-owned programs through a check-free Session; runtime errors raise."""
    instance = AppInstance(name="programs", distribution=dist,
                           programs=dict(programs), validate=None,
                           blocking_ok=True)
    return Session(protocol=protocol, app=instance, check=False,
                   diagnose_app_failures=False, **session_kwargs).run()


class TestDirectStylePrograms:
    def test_producer_consumer(self):
        dist = two_process_distribution()

        def producer(ctx):
            ctx.write("data", "payload")
            ctx.write("flag", True)
            yield
            return "produced"

        def consumer(ctx):
            while ctx.read("flag") is not True:
                yield
            return ctx.read("data")

        report = run_programs(dist, "pram_partial", {0: producer, 1: consumer})
        assert report.app_results[0] == "produced"
        # PRAM preserves the producer's program order, so the data is visible
        # once the flag is.
        assert report.app_results[1] == "payload"
        assert report.sim_time > 0
        assert report.operations() == len(report.history)

    def test_history_and_efficiency_are_exposed(self):
        dist = two_process_distribution()

        def writer(ctx):
            ctx.write("data", 1)
            yield
            return None

        def idle(ctx):
            yield
            return None

        report = run_programs(dist, "pram_partial", {0: writer, 1: idle})
        assert len(report.history.writes) == 1
        assert report.efficiency.protocol == "pram_partial"
        assert set(report.program_steps) == {0, 1}

    def test_each_run_is_independent(self):
        dist = two_process_distribution()

        def writer(ctx):
            ctx.write("data", 1)
            yield
            return None

        def idle(ctx):
            yield
            return None

        first = run_programs(dist, "pram_partial", {0: writer, 1: idle})
        second = run_programs(dist, "pram_partial", {0: writer, 1: idle})
        assert len(first.history) == len(second.history)

    def test_context_accessors(self):
        dist = two_process_distribution()
        seen = {}

        def probe(ctx):
            seen["pid"] = ctx.pid
            seen["vars"] = set(ctx.variables)
            seen["now"] = ctx.now
            yield
            return None

        def idle(ctx):
            yield
            return None

        run_programs(dist, "pram_partial", {0: probe, 1: idle})
        assert seen["pid"] == 0
        assert seen["vars"] == {"flag", "data"}
        assert seen["now"] >= 0


class TestCommandStylePrograms:
    def test_blocking_reads_on_sequencer_sc(self):
        dist = two_process_distribution()

        def writer(ctx):
            yield Write("data", 123)
            value = yield Read("data")   # must wait for total ordering
            return value

        def reader(ctx):
            while True:
                value = yield Read("data")
                if value == 123:
                    return value

        report = run_programs(dist, "sequencer_sc", {0: writer, 1: reader})
        assert report.app_results[0] == 123
        assert report.app_results[1] == 123

    def test_command_style_works_on_wait_free_protocols_too(self):
        dist = two_process_distribution()

        def program(ctx):
            yield Write("data", 5)
            value = yield Read("data")
            return value

        def idle(ctx):
            yield
            return None

        report = run_programs(dist, "pram_partial", {0: program, 1: idle})
        assert report.app_results[0] == 5

    def test_unknown_command_rejected(self):
        dist = two_process_distribution()
        system = MCSystem(dist, protocol="pram_partial")
        runtime = DSMRuntime(system)

        def bad(ctx):
            yield "not-a-command"
            return None

        def idle(ctx):
            yield
            return None

        runtime.add_programs({0: bad, 1: idle})
        with pytest.raises(SimulationError):
            runtime.run()


class TestRuntimeGuards:
    def test_livelock_guard(self):
        dist = two_process_distribution()
        system = MCSystem(dist, protocol="pram_partial")
        runtime = DSMRuntime(system, max_steps_per_process=50)

        def spinner(ctx):
            while True:
                yield

        def idle(ctx):
            yield
            return None

        runtime.add_programs({0: spinner, 1: idle})
        with pytest.raises(LivelockError):
            runtime.run()

    def test_duplicate_program_rejected(self):
        dist = two_process_distribution()
        system = MCSystem(dist, protocol="pram_partial")
        runtime = DSMRuntime(system)
        runtime.add_program(0, lambda ctx: iter(()))
        with pytest.raises(SimulationError):
            runtime.add_program(0, lambda ctx: iter(()))

    def test_livelock_raises_through_an_undiagnosed_session(self):
        def spinner(ctx):
            while True:
                yield

        def idle(ctx):
            yield
            return None

        with pytest.raises(LivelockError):
            run_programs(two_process_distribution(), "pram_partial",
                         {0: spinner, 1: idle})

    def test_retry_counts_reported(self):
        dist = two_process_distribution()

        def writer(ctx):
            yield Write("data", 1)
            value = yield Read("data")   # retried until the write is ordered
            return value

        def idle(ctx):
            yield
            return None

        # process 0 is the sequencer, so only the remote writer has to wait
        report = run_programs(dist, "sequencer_sc", {0: idle, 1: writer})
        assert report.app_results[1] == 1
        assert report.program_retries[1] > 0
        assert report.program_retries[0] == 0
