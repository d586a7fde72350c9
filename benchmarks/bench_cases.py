"""Seeded case builders shared by the ``test_bench_*`` series.

Importable by bare name because pytest puts this directory (the one holding
``conftest.py``) on ``sys.path``.  Everything here is fully seeded, so the
histories double as structural drift checks for the benchmarks that use them.
"""

from repro.api import Session
from repro.mcs.system import MCSystem
from repro.workloads.access_patterns import run_script, uniform_access_script
from repro.workloads.distributions import random_distribution

#: Fail-fast incremental checking must process at least this many times fewer
#: operations than batch checking on the violating stress stream.
STREAM_RATIO_FLOOR = 3.0
#: Largest history the object engine checks exactly in seconds, not minutes
#: (its cost grows superlinearly past it).
SCALE_OBJECT_REFERENCE_OPS = 400
SCALE_PROCESSES = 4


def build_stress_system():
    """The 500+ op ``pram_partial`` protocol run of the stress benchmarks."""
    dist = random_distribution(processes=8, variables=10, replicas_per_variable=4, seed=7)
    system = MCSystem(dist, protocol="pram_partial")
    run_script(system, uniform_access_script(dist, operations_per_process=65, seed=7))
    assert len(system.history()) >= 500
    return system


def build_stress_case():
    """The stress history and its exact read-from mapping."""
    system = build_stress_system()
    return system.history(), system.read_from()


def build_violating_stream():
    """The stress stream with one early read redirected to a stale write.

    Returns ``(log, read_from, violation_position)`` where ``log`` is the
    ``(op, source)`` recording stream with the corrupted source, ``read_from``
    the matching full mapping, and ``violation_position`` the 0-based stream
    index of the corrupted read.  The corruption is the smallest possible:
    one read made to return an *older* write of the same writer on the same
    variable than the reader had already observed — a proven violation of
    every criterion of the lattice, placed in the first third of the stream
    so fail-fast checking has something to save.
    """
    system = build_stress_system()
    log = list(system.recorder.log())
    read_from = system.read_from()
    writes = {}  # (writer, variable) -> [writes in program order]
    observed = {}  # (reader, variable, writer) -> max observed write index
    for position, (op, source) in enumerate(log):
        if op.is_write:
            writes.setdefault((op.process, op.variable), []).append(op)
            continue
        if source is None:
            continue
        seen = observed.get((op.process, op.variable, source.process))
        stale_candidates = [
            w for w in writes.get((source.process, op.variable), [])
            if seen is not None and w.index < seen
        ]
        if stale_candidates:
            stale = stale_candidates[0]
            corrupted_log = list(log)
            corrupted_log[position] = (op, stale)
            corrupted_rf = dict(read_from)
            corrupted_rf[op] = stale
            assert position <= len(log) // 3, (
                f"corruption landed at stream position {position}/{len(log)}; "
                "the stress workload changed — pick an earlier read"
            )
            return corrupted_log, corrupted_rf, position
        observed[(op.process, op.variable, source.process)] = max(
            seen if seen is not None else -1, source.index
        )
    raise AssertionError("no corruptible read found in the stress stream")


def scale_session(engine: str, total_ops: int) -> Session:
    """One end-to-end scale run: simulate, record, exact causal check."""
    return Session(
        protocol="pram_partial",
        distribution=("random", {"processes": SCALE_PROCESSES, "variables": 8,
                                 "replicas_per_variable": 2, "seed": 3}),
        workload=("uniform", {
            "operations_per_process": total_ops // SCALE_PROCESSES,
            "write_fraction": 0.4,
        }),
        seed=3,
        criteria=("causal",),
        exact=True,
        engine=engine,
    )
