"""The ``repro-trace-v1`` JSONL operation-trace format.

One JSON object per line.  The first line is the *meta* record describing
where the stream comes from; every following line is one *op* record in
recording (delivery) order, which extends every process' program order:

.. code-block:: text

    {"type": "meta", "format": "repro-trace-v1", "scenario": "figure2-hoop",
     "protocol": "causal_partial", "distribution": {"x": [0, 2], "y": [0, 1]},
     "criteria": ["causal"]}
    {"type": "op", "kind": "write", "process": 0, "variable": "x",
     "value": "a", "index": 0, "invoked_at": 0.0, "completed_at": 0.0}
    {"type": "op", "kind": "read", "process": 2, "variable": "x",
     "value": "a", "index": 0, "invoked_at": 1.2, "completed_at": 1.2,
     "source": [0, 0]}

``source`` names the write a read returns as a ``[process, index]``
reference (absent/null for ⊥ reads); ``value`` uses
:func:`repro.core.operations.encode_value`, so the initial value ⊥
round-trips as ``{"$bottom": true}`` without colliding with real values
(history values must be hashable, a dict is not).  Timestamps are the
*source* system's own clock (simulation time for exported Session runs);
the monitoring service never interprets them as its wall clock.

This is the interchange format between the simulator (``repro run
--trace-out``), the offline oracle (``repro trace replay``) and the online
service (``repro serve``) — and the format ROADMAP item 4 reuses for
external-store adapters.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, TextIO, Tuple, Union

from ..exceptions import ServeError, TraceFormatError
from ..core.operations import Operation, OpKind, decode_value, encode_value

#: Format tag carried by every meta record.
TRACE_FORMAT = "repro-trace-v1"


@dataclass
class TraceMeta:
    """The stream-description record heading every trace.

    ``distribution`` maps each shared variable to the sorted list of holder
    processes — enough to rebuild the
    :class:`~repro.core.distribution.VariableDistribution` the windowed
    checker's eviction proofs need.  ``criteria`` are the criteria the
    source claims (a replay may override them).
    """

    scenario: str = ""
    protocol: str = ""
    distribution: Dict[str, List[int]] = field(default_factory=dict)
    criteria: Tuple[str, ...] = ()
    seed: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"type": "meta", "format": TRACE_FORMAT}
        if self.scenario:
            data["scenario"] = self.scenario
        if self.protocol:
            data["protocol"] = self.protocol
        if self.distribution:
            data["distribution"] = {
                var: sorted(int(p) for p in holders)
                for var, holders in sorted(self.distribution.items())
            }
        if self.criteria:
            data["criteria"] = list(self.criteria)
        if self.seed is not None:
            data["seed"] = self.seed
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceMeta":
        """Decode a meta record; a field of the wrong type is a
        :class:`TraceFormatError`, as is any format tag but this build's."""
        if not isinstance(data, dict):
            raise TraceFormatError(f"trace meta must be an object, got {type(data).__name__}")
        fmt = data.get("format")
        if fmt != TRACE_FORMAT:
            raise TraceFormatError(
                f"unsupported trace format {fmt!r}; this build reads {TRACE_FORMAT!r}"
            )
        for key, ok, want in _META_FIELDS:
            if key in data and not ok(data[key]):
                raise TraceFormatError(
                    f"trace meta {key!r} must be {want}, got {data[key]!r:.120}")
        return cls(
            scenario=data.get("scenario", ""),
            protocol=data.get("protocol", ""),
            distribution={var: list(holders)
                          for var, holders in data.get("distribution", {}).items()},
            criteria=tuple(data.get("criteria", ())),
            seed=data.get("seed"),
        )

    def variable_distribution(self) -> Optional["Any"]:
        """Build the :class:`VariableDistribution`, or ``None`` if unknown."""
        if not self.distribution:
            return None
        from ..core.distribution import VariableDistribution

        per_process: Dict[int, List[str]] = {}
        for var, holders in sorted(self.distribution.items()):
            for pid in holders:
                per_process.setdefault(int(pid), []).append(var)
        return VariableDistribution(per_process)


@dataclass
class TraceRecord:
    """One operation of a trace, still in wire form (no ``uid`` assigned)."""

    kind: str
    process: int
    variable: str
    value: Any
    index: int
    invoked_at: Optional[float] = None
    completed_at: Optional[float] = None
    source: Optional[Tuple[int, int]] = None

    @property
    def is_read(self) -> bool:
        return self.kind == OpKind.READ.value

    @property
    def is_write(self) -> bool:
        return self.kind == OpKind.WRITE.value

    def to_operation(self) -> Operation:
        """Materialise as a fresh :class:`Operation` (new ``uid``)."""
        return Operation(
            OpKind(self.kind),
            self.process,
            self.variable,
            self.value,
            self.index,
            invoked_at=self.invoked_at,
            completed_at=self.completed_at,
        )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "type": "op",
            "kind": self.kind,
            "process": self.process,
            "variable": self.variable,
            "value": encode_value(self.value),
            "index": self.index,
        }
        if self.invoked_at is not None:
            data["invoked_at"] = self.invoked_at
        if self.completed_at is not None:
            data["completed_at"] = self.completed_at
        if self.source is not None:
            data["source"] = [self.source[0], self.source[1]]
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceRecord":
        """Decode an op record; a missing key or a field of the wrong type
        is a :class:`TraceFormatError`."""
        try:
            kind = data["kind"]
            process = data["process"]
            variable = data["variable"]
            value = decode_value(data["value"])
            index = data["index"]
        except KeyError as exc:
            raise TraceFormatError(f"op record misses the {exc.args[0]!r} key: {data!r}") from None
        invoked_at = data.get("invoked_at")
        completed_at = data.get("completed_at")
        # One test on the fast path; the field table names the culprit.
        if not (type(process) is int and process >= 0 and type(index) is int
                and index >= 0 and type(variable) is str
                and type(value) is not list and type(value) is not dict
                and (invoked_at is None or type(invoked_at) in _NUMBER)
                and (completed_at is None or type(completed_at) in _NUMBER)):
            for key, ok, want in _OP_FIELDS:
                if not ok(data.get(key)):
                    raise TraceFormatError(
                        f"op record {key!r} must be {want}, got {data.get(key)!r:.120}")
        if kind not in _KINDS:
            raise TraceFormatError(f"op record has unknown kind {kind!r}")
        source = data.get("source")
        if source is not None:
            if not (isinstance(source, (list, tuple)) and len(source) == 2
                    and _is_id(source[0]) and _is_id(source[1])):
                raise TraceFormatError(
                    f"op record 'source' must be [process, index], got {source!r}"
                )
            if kind != OpKind.READ.value:
                raise TraceFormatError("only read records may carry a 'source'")
            source = (source[0], source[1])
        return cls(
            kind=kind,
            process=process,
            variable=variable,
            value=value,
            index=index,
            invoked_at=invoked_at,
            completed_at=completed_at,
            source=source,
        )


_KINDS = (OpKind.READ.value, OpKind.WRITE.value)
#: The JSON number types (``bool`` is not one).
_NUMBER = (int, float)


def _is_id(value: Any) -> bool:
    """A process id or index: a non-negative integer, not a ``bool``."""
    return type(value) is int and value >= 0


def _is_time(value: Any) -> bool:
    return value is None or type(value) in _NUMBER


#: ``(key, test, wanted)`` per typed field of an op record and a meta record.
_OP_FIELDS = (
    ("process", _is_id, "a non-negative integer"),
    ("index", _is_id, "a non-negative integer"),
    ("variable", lambda value: type(value) is str, "a string"),
    ("value", lambda value: type(decode_value(value)) not in (list, dict), "a JSON scalar"),
    ("invoked_at", _is_time, "a number or null"),
    ("completed_at", _is_time, "a number or null"),
)
_META_FIELDS = (
    ("scenario", lambda value: type(value) is str, "a string"),
    ("protocol", lambda value: type(value) is str, "a string"),
    ("distribution", lambda value: isinstance(value, dict) and all(
        isinstance(holders, list) and all(_is_id(pid) for pid in holders)
        for holders in value.values()), "a mapping of variable to process ids"),
    ("criteria", lambda value: isinstance(value, list)
     and all(type(name) is str for name in value), "a list of strings"),
    ("seed", lambda value: value is None or type(value) is int, "an integer or null"),
)


#: A parsed trace line: the meta record or one op record.
TraceLine = Union[TraceMeta, TraceRecord]


def parse_line(line: str) -> Optional[TraceLine]:
    """Parse one JSONL line; blank lines yield ``None``."""
    stripped = line.strip()
    if not stripped:
        return None
    try:
        data = json.loads(stripped)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"trace line is not JSON: {stripped[:120]!r} ({exc})") from None
    if not isinstance(data, dict):
        raise TraceFormatError(f"trace line must be a JSON object, got {stripped[:120]!r}")
    kind = data.get("type")
    if kind == "meta":
        return TraceMeta.from_dict(data)
    if kind == "op":
        return TraceRecord.from_dict(data)
    raise TraceFormatError(f"trace line has unknown type {kind!r}")


def dump_line(record: TraceLine) -> str:
    """Serialise a meta/op record as one JSONL line (no trailing newline)."""
    return json.dumps(record.to_dict(), sort_keys=True, separators=(",", ":"))


def iter_trace_lines(lines: Iterable[str]) -> Iterator[TraceLine]:
    """Parse an iterable of JSONL lines, skipping blanks."""
    for line in lines:
        parsed = parse_line(line)
        if parsed is not None:
            yield parsed


def read_trace(path: str) -> Tuple[TraceMeta, List[TraceRecord]]:
    """Read a whole trace file; the meta record must head the stream."""
    meta: Optional[TraceMeta] = None
    records: List[TraceRecord] = []
    with open(path, "r", encoding="utf-8") as handle:
        for parsed in iter_trace_lines(handle):
            if isinstance(parsed, TraceMeta):
                if meta is not None:
                    raise TraceFormatError(f"{path}: duplicate meta record")
                if records:
                    raise TraceFormatError(f"{path}: meta record must come first")
                meta = parsed
            else:
                records.append(parsed)
    if meta is None:
        raise TraceFormatError(f"{path}: trace has no meta record")
    return meta, records


def write_trace(
    target: Union[str, TextIO],
    meta: TraceMeta,
    records: Iterable[TraceRecord],
) -> int:
    """Write a trace (meta first, then ops); returns the op count.

    An unwritable path raises :class:`~repro.exceptions.ServeError`.
    """
    if isinstance(target, str):
        try:
            with open(target, "w", encoding="utf-8") as handle:
                return write_trace(handle, meta, records)
        except OSError as exc:
            raise ServeError(f"cannot write trace file {target}: {exc}") from None
    target.write(dump_line(meta) + "\n")
    count = 0
    for record in records:
        target.write(dump_line(record) + "\n")
        count += 1
    return count
