"""The object form of the O(1) stream monitors: the reference of the
differential tests.

:class:`StreamMonitors` is the monitor the incremental checkers ran over
:class:`~repro.core.operations.Operation` objects before every stream
monitor became :class:`~repro.arena.check.RowMonitor`, kept verbatim.  The
streaming differential (``test_streaming_checker_differential.py``) runs it
inside the replaced checkers, and ``test_row_monitor_differential.py`` holds
the row monitor to it operation for operation, checkpoint state included.
"""

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.operations import Operation, decode_value, encode_value


class StreamMonitors:
    """Constant-time-per-op necessary conditions over the operation stream.

    Every reported violation is a proof of inconsistency under slow memory —
    the weakest criterion of the lattice — and therefore under every
    registered criterion.  State is O(processes² x variables) worst case, independent of
    the run length, which is what lets a finite window keep monitoring
    exactly across evictions.
    """

    def __init__(self, real_time: bool = False) -> None:
        self._real_time = real_time
        # (reader, variable) -> {writer process -> highest write index observed}
        self._observed: Dict[Tuple[int, str], Dict[int, int]] = {}
        # variable -> write with the latest completion time seen so far
        self._last_completed_write: Dict[str, Operation] = {}

    def observe(self, op: Operation, source: Optional[Operation]) -> List[str]:
        """Account for ``op``; return the violations it proves (usually none)."""
        violations: List[str] = []
        if op.is_write:
            frontier = self._observed.setdefault((op.process, op.variable), {})
            prev = frontier.get(op.process, -1)
            frontier[op.process] = max(prev, op.index)
            if self._real_time and op.completed_at is not None:
                last = self._last_completed_write.get(op.variable)
                if last is None or last.completed_at < op.completed_at:
                    self._last_completed_write[op.variable] = op
            return violations

        frontier = self._observed.setdefault((op.process, op.variable), {})
        if source is None:
            if frontier:
                violations.append(
                    f"{op.label()} returns ⊥ after p{op.process} already "
                    f"observed a write on {op.variable}"
                )
        else:
            seen = frontier.get(source.process, -1)
            if source.index < seen:
                violations.append(
                    f"{op.label()} reads write #{source.index} of "
                    f"p{source.process} on {op.variable} after p{op.process} "
                    f"already observed write #{seen} of the same process"
                )
            frontier[source.process] = max(seen, source.index)
        if self._real_time and op.invoked_at is not None:
            last = self._last_completed_write.get(op.variable)
            stale = (
                last is not None
                and last.completed_at < op.invoked_at
                and last is not source
                and (source is None
                     or (source.completed_at is not None
                         and last.invoked_at is not None
                         and source.completed_at < last.invoked_at))
            )
            if stale:
                got = "⊥" if source is None else source.label()
                violations.append(
                    f"{op.label()} returns {got} although {last.label()} "
                    f"completed before the read was invoked (real time)"
                )
        return violations

    def observed_index(self, reader: int, variable: str, writer: int) -> int:
        """Highest write index of ``writer`` on ``variable`` that ``reader``
        has observed so far (``-1`` when nothing was observed).

        This is the eviction proof obligation of
        :class:`WindowedChecker`: once every potential reader of a variable
        has advanced past a write, any *future* read of that write is itself
        a monitor-provable violation, so retaining the write adds nothing.
        """
        return self._observed.get((reader, variable), {}).get(writer, -1)

    # -- checkpointing ---------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """JSON-able snapshot of the monitor state (see ``load_state``)."""
        observed = [
            [reader, variable, writer, index]
            for (reader, variable), frontier in sorted(self._observed.items())
            for writer, index in sorted(frontier.items())
        ]
        last = [
            [variable, op.process, op.index, encode_value(op.value),
             op.invoked_at, op.completed_at]
            for variable, op in sorted(self._last_completed_write.items())
        ]
        return {"real_time": self._real_time, "observed": observed, "last": last}

    def load_state(
        self,
        state: Dict[str, Any],
        resolve: Optional[Callable[[int, int], Optional[Operation]]] = None,
    ) -> None:
        """Restore a snapshot produced by :meth:`export_state`.

        ``resolve`` maps a ``(process, index)`` write reference to a retained
        :class:`Operation`, so the staleness monitor's identity comparison
        keeps working after a restore; unresolved references are rebuilt as
        equivalent stand-in writes.
        """
        self._real_time = bool(state.get("real_time", self._real_time))
        self._observed = {}
        for reader, variable, writer, index in state.get("observed", ()):
            frontier = self._observed.setdefault((reader, variable), {})
            frontier[writer] = max(frontier.get(writer, -1), index)
        self._last_completed_write = {}
        for variable, process, index, value, invoked, completed in state.get("last", ()):
            op = resolve(process, index) if resolve is not None else None
            if op is None:
                op = Operation.write(
                    process, variable, decode_value(value), index=index,
                    invoked_at=invoked, completed_at=completed,
                )
            self._last_completed_write[variable] = op
