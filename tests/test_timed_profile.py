"""Smoke test of ``make profile`` (``benchmarks/timed_profile.py``): both
cProfile tables, the checker's and the simulation's phase splits, then the
tracemalloc section, then the sampled profile, on the smallest workload; and
the windowed phases on ``monitor_stream``."""

import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_profile_prints_both_tables_then_memory():
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "timed_profile.py"), "--workload", "place_40p"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    assert out.index("Ordered by: internal time") < out.index("Ordered by: cumulative time")
    memory = out[out.index("Ordered by: cumulative time"):]
    found = re.search(r"place_40p: one full-size timed section under tracemalloc: "
                      r"peak ([\d.]+) MiB, retained ([\d.]+) MiB above the inputs", memory)
    assert found and 0 < float(found.group(2)) <= float(found.group(1))
    lines = memory[memory.index("top 10 lines by retained size:"):].splitlines()[1:]
    lines = lines[:lines.index(next(line for line in lines if "SIGPROF" in line))]
    assert len(lines) == 10
    assert all(re.match(r"\s+[\d.]+ MiB\s+\d+ blocks  \S+:\d+$", line) for line in lines)


CHECKER = ["_reorder", "_causal_vcs", "_bounds", "_bad_patterns", "_witness", "_verify",
           "observe"]
SIMULATION = ["_transmit", "_deliver", "on_message", "record_write", "record_read"]


def phase_blocks(workload):
    """The calls column of the checker-phase and simulation-phase blocks
    ``workload``'s profile prints, in that order, between the cProfile tables
    and the tracemalloc section."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "timed_profile.py"), "--workload", workload],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    blocks = []
    after = out.index("Ordered by: cumulative time")
    for title, names in (("checker", CHECKER), ("simulation", SIMULATION)):
        start = out.index(f"{workload}: {title} phases, cumulative over 3 timed sections")
        assert after < start < out.index("under tracemalloc")
        rows = out[start:].splitlines()[1:1 + len(names)]
        found = [re.match(r"  (\w+) +([\d.]+) s +(\d+) calls$", row) for row in rows]
        assert all(found), rows
        calls = {match.group(1): int(match.group(3)) for match in found}
        assert list(calls) == names
        blocks.append(calls)
        after = start
    return blocks


def phase_calls(workload):
    """The calls column of the checker-phase block."""
    return phase_blocks(workload)[0]


def test_profile_prints_the_checker_phases_between_the_tables_and_memory():
    calls = phase_calls("place_40p")
    # place_40p checks with exact=False: one bad-pattern pass per view, no saturation
    assert calls["_bad_patterns"] == calls["_bounds"] > 0
    assert calls["_witness"] == calls["_verify"] == 0
    # its sessions record into an arena: no window to compact
    assert calls["_reorder"] == 0


def test_profile_prints_the_simulation_phases_after_the_checker_phases():
    calls = phase_blocks("place_40p")[1]
    # every queued copy is one delivery call, which hands it to one on_message
    assert calls["_deliver"] == calls["on_message"] > calls["_transmit"] > 0
    assert calls["record_write"] > 0 and calls["record_read"] > 0


def test_profile_counts_each_windowed_check_once_per_step():
    """monitor_stream's due checks: each is one causal bad-pattern sweep of
    the window's own arena, which its evictions compact; the monitors run
    once per record."""
    calls = phase_calls("monitor_stream")
    assert calls["_reorder"] > 0 and calls["_causal_vcs"] > 0
    assert calls["_bad_patterns"] == calls["_bounds"] >= calls["_causal_vcs"]
    assert calls["_witness"] == 0
    assert calls["observe"] == 3 * 2000


def test_profile_ends_with_the_sampled_shares():
    """After the tracemalloc section: the stack sampler's header, its top
    functions by self and by cumulative share, then the sampled shares of
    the checker's and the simulation's phases."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "timed_profile.py"), "--workload", "place_40p"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    sampled = out[out.index("under tracemalloc"):]
    found = re.search(r"place_40p: 3 full-size timed sections under a SIGPROF stack sampler: "
                      r"(\d+) samples over ([\d.]+) s of CPU time", sampled)
    assert found and int(found.group(1)) > 0 and float(found.group(2)) > 0
    sampled = sampled[found.end():]
    row = re.compile(r"  +([\d.]+)% +([\d.]+)%  \S+:\d+\(.+\)$")
    tables = []
    for title in ("self", "cumulative"):
        start = sampled.index(f"top 30 functions by sampled {title} share:")
        rows = [row.match(line) for line in sampled[start:].splitlines()[2:32]]
        rows = rows[:rows.index(None)] if None in rows else rows
        assert rows
        shares = [(float(m.group(1)), float(m.group(2))) for m in rows]
        assert all(own <= anywhere <= 100.0 for own, anywhere in shares)
        tables.append(shares)
        sampled = sampled[start:]
    assert tables[0] == sorted(tables[0], key=lambda share: -share[0])
    assert tables[1][0][1] == 100.0  # the timed section's own frames are on every stack
    for title, names in (("checker", CHECKER), ("simulation", SIMULATION)):
        start = sampled.index(f"place_40p: sampled {title} phases, share of the samples "
                              "(cumulative, self):")
        lines = sampled[start:].splitlines()[1:1 + len(names)]
        found = [re.match(r"  (\w+) +([\d.]+)% +([\d.]+)%$", line) for line in lines]
        assert all(found), lines
        assert [match.group(1) for match in found] == names
        assert all(float(m.group(3)) <= float(m.group(2)) <= 100.0 for m in found)
        sampled = sampled[start:]
