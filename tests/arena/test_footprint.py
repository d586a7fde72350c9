"""Footprint guard: a recorded run keeps its columns and little else.

A ``scale_pram``-shaped session (``pram_partial``, exact causal check,
``random_distribution(4, 8, 2, seed=3)``) runs under :mod:`tracemalloc`.
What the run still holds once it returned, with its report, is the arena's
columns, the per-process row arrays and the witnesses: no Python object
allocated once per write or per row.  The script itself is one slotted
:class:`~repro.workloads.access_patterns.Access` per operation plus each
write's value string.

The limits are the bytes per operation measured on this layout (python 3.11,
6 000 operations: 96 for the script, 86 retained by the run) with about 10%
headroom.  Keeping a write-id tuple, an interning key or a row int per write,
or a ``__dict__`` per access, crosses them (the former layout measured 136
and 199).
"""

import gc
import tracemalloc

from repro.api import Session
from repro.workloads.access_patterns import uniform_access_script
from repro.workloads.distributions import random_distribution

OPS = 6_000
#: Bytes per operation the script may hold.
SCRIPT_LIMIT = 106
#: Bytes per operation the run may retain above its script and session.
RUN_LIMIT = 94


DIST = random_distribution(4, 8, 2, seed=3)


def script_of(ops):
    return uniform_access_script(DIST, ops // len(DIST.processes), 0.4, seed=3)


def session_of(script):
    return Session("pram_partial", DIST, script, seed=3, criteria=("causal",), exact=True)


def traced():
    return tracemalloc.get_traced_memory()[0]


def test_a_run_retains_its_columns_and_little_else():
    session_of(script_of(200)).run()  # imports, registries and lazy caches stay out
    gc.collect()
    tracemalloc.start()
    try:
        start = traced()
        script = script_of(OPS)
        gc.collect()
        script_bytes = traced() - start
        session = session_of(script)
        gc.collect()
        before = traced()
        report = session.run()
        gc.collect()
        retained = traced() - before
    finally:
        tracemalloc.stop()
    assert len(script) == OPS
    assert report.consistent and report.exact
    assert sorted(report.result("causal").serializations) == sorted(DIST.processes)
    assert script_bytes / OPS <= SCRIPT_LIMIT, script_bytes / OPS
    assert retained / OPS <= RUN_LIMIT, retained / OPS
