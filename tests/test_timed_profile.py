"""Smoke test of ``make profile`` (``benchmarks/timed_profile.py``): both
cProfile tables, then the tracemalloc section, on the smallest workload."""

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
    assert len(lines) == 10
    assert all(re.match(r"\s+[\d.]+ MiB\s+\d+ blocks  \S+:\d+$", line) for line in lines)
