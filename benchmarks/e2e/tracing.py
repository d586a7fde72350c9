"""In-memory span recorder for the traced benchmark iteration.

Spans are taken from the harness's own files, around calls into each layer's
public functions; nothing under ``src/`` is instrumented.  They are kept in
memory and written out once, when the workload ends, so recording a span costs
two ``perf_counter_ns`` reads and one list append.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List


class Tracer:
    """Collects ``{run_id, workload, name, start_ns, end_ns, parent}`` spans.

    ``parent`` is the index of the enclosing span in :attr:`spans` (``None``
    for a root).  Replay spans re-execute one layer's work after the run to
    isolate its cost; they are flagged so coverage sums can leave them out.
    """

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.run_id = 0
        self.spans: List[Dict[str, object]] = []
        self._stack: List[int] = []

    def _record(self, name: str, start_ns: int, end_ns: int) -> Dict[str, object]:
        record: Dict[str, object] = {
            "run_id": self.run_id,
            "workload": self.workload,
            "name": name,
            "start_ns": start_ns,
            "end_ns": end_ns,
            "parent": self._stack[-1] if self._stack else None,
        }
        self.spans.append(record)
        return record

    @contextmanager
    def span(self, name: str, replay: bool = False) -> Iterator[None]:
        record = self._record(name, 0, 0)
        if replay:
            record["replay"] = True
        self._stack.append(len(self.spans) - 1)
        record["start_ns"] = time.perf_counter_ns()
        try:
            yield
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def add(self, name: str, start_ns: int, end_ns: int) -> None:
        """Record a span timed by the caller, as a child of the open span."""
        self._record(name, start_ns, end_ns)

    # -- queries (all about the current run) -------------------------------------
    def seconds(self, name: str) -> float:
        """Total duration of the spans called ``name``."""
        return self.totals().get(name, 0.0)

    def totals(self) -> Dict[str, float]:
        """Total duration per span name."""
        totals: Dict[str, float] = {}
        for s in self.spans:
            if s["run_id"] == self.run_id:
                name = str(s["name"])
                totals[name] = totals.get(name, 0.0) + (s["end_ns"] - s["start_ns"]) / 1e9  # type: ignore[operator]
        return totals

    def children_seconds(self, name: str) -> float:
        """Total duration of the direct, non-replay children of span ``name``."""
        run = self.run_id
        parents = {
            i for i, s in enumerate(self.spans)
            if s["name"] == name and s["run_id"] == run
        }
        return sum(
            (s["end_ns"] - s["start_ns"]) / 1e9  # type: ignore[operator]
            for s in self.spans
            if s["parent"] in parents and not s.get("replay")
        )

    def write(self, path: str) -> None:
        """Dump every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
