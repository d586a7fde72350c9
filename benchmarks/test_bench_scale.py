"""Benchmarks of the arena engine's scale tier.

The struct-of-arrays history engine exists for one reason: checking 10^5+
operation histories end-to-end, which the object pipeline cannot sustain
(its exact search and transitive-closure pre-check grow superlinearly and
leave the feasible range around a few hundred operations).  The timed series
here compares both engines at the object engine's comfortable size and
measures the columnar-only costs — recording throughput and the columnar
exact check — at the 10^4-op tier.  Un-instrumented throughput, peak RSS and
the exact row/byte counters at scale are the e2e ``scale_pram`` workload
(``make bench``); keeping the long runs out of pytest-benchmark keeps this
file re-runnable.
"""

import pytest

from bench_cases import SCALE_OBJECT_REFERENCE_OPS, scale_session
from repro.arena.check import ArenaBatchChecker
from repro.arena.recorder import ArenaRecorder
from repro.core.operations import BOTTOM

ARENA_TIER = 10_000


@pytest.fixture(scope="module")
def recorded_arena():
    """A 10^4-op arena recorded by a real (check-free) protocol session."""
    session = scale_session("arena", ARENA_TIER)
    session.checkers = {}
    session.run()
    return session.recorder.arena


def _record_n(n):
    recorder = ArenaRecorder()
    per_var = {}
    for i in range(n):
        process, variable = i % 4, f"x{i % 8}"
        if i % 5 == 0:
            recorder.record_write(process, variable, f"{variable}#{i}", (process, i))
            per_var[variable] = (process, i)
        elif variable in per_var:
            recorder.record_read(process, variable, "v", per_var[variable])
        else:
            recorder.record_read(process, variable, BOTTOM, None)
    return recorder


def test_engines_at_object_feasible_size(benchmark):
    """Both engines, end-to-end, at the object engine's reference size."""
    result = benchmark(lambda: scale_session("arena", SCALE_OBJECT_REFERENCE_OPS).run())
    assert result.consistent is True


def test_object_engine_at_reference_size(benchmark):
    result = benchmark(lambda: scale_session("object", SCALE_OBJECT_REFERENCE_OPS).run())
    assert result.consistent is True


def test_arena_recording_throughput(benchmark):
    """Pure recording cost at the 10^4 tier: integer appends, no objects."""
    recorder = benchmark(_record_n, ARENA_TIER)
    assert recorder.operation_count() == ARENA_TIER
    assert not recorder.cache  # nothing forced materialisation


def test_columnar_exact_check_at_10k(benchmark, recorded_arena):
    """The columnar exact causal check (monitors + quick + scheduler)."""
    def check():
        checker = ArenaBatchChecker("causal", recorded_arena, exact=True,
                                    materialize_max=0)
        return checker.finalize()

    result = benchmark(check)
    assert result.consistent and result.exact
    assert result.serializations  # witnesses came from the scheduler


def test_columnar_precheck_at_10k(benchmark, recorded_arena):
    """The polynomial bad-pattern sweep alone (the fail-fast checkpoint cost)."""
    def check():
        checker = ArenaBatchChecker("causal", recorded_arena, exact=False,
                                    materialize_max=0)
        return checker.finalize()

    result = benchmark(check)
    assert result.consistent is True


def test_arena_memory_footprint_vs_object_estimate():
    """Column bytes per op must undercut the object engine's footprint by 4x+."""
    recorder = _record_n(ARENA_TIER)
    arena = recorder.arena
    from repro.arena.info import OBJECT_OP_BYTES

    column_bytes = sum(arena.column_bytes().values())
    per_op = column_bytes / len(arena)
    assert per_op * 4 <= OBJECT_OP_BYTES, (
        f"arena stores {per_op:.0f} B/op, object estimate {OBJECT_OP_BYTES} B/op"
    )
