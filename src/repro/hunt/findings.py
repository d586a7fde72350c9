"""Findings and committed reproducers: the hunt's durable output.

A :class:`Finding` couples one concrete, JSON-round-trippable
:class:`~repro.spec.ScenarioSpec` with the *classified* outcome it keeps
producing — a proven consistency violation, a livelocked application, a
validator-rejected result, a crash in the stack, or a committed reproducer
that stopped reproducing (``unexpected_pass``).  Findings are what the
driver emits, what the shrinker minimises, and what ``repro hunt promote``
turns into entries of the ``hunted`` experiment suite (the same
expected-verdict gating machinery the ``faults`` suite uses).

The file format is deliberately dumb: one JSON object per finding, the spec
in its canonical ``to_dict`` form, the expected verdicts next to it, and a
``provenance`` block recording how the finding was discovered and how far
the shrinker got (original vs shrunk operation counts).  Anything that
survives ``json.dump``/``json.load`` round-trips bit for bit.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..exceptions import ScenarioSpecError
from ..spec.scenario import ScenarioSpec, decode_fields

#: Bump when the reproducer file layout changes; files declaring a newer
#: format than the library understands are rejected with a typed error.
FINDING_FORMAT = 1

#: The classification kinds a finding can carry.
FINDING_KINDS = (
    "violation",             # proven violation outside the guarantee envelope:
                             # the checkers catching a weak protocol (committed
                             # as a checker-sensitivity reproducer)
    "unexpected_violation",  # proven violation INSIDE the envelope: a protocol
                             # or checker bug
    "livelock",              # a run that was guaranteed to finish stalled
    "wrong_result",          # an application result the validator rejected
                             # although the envelope guarantees correctness
    "crash",                 # an exception escaped the stack
    "unexpected_pass",       # a committed reproducer stopped reproducing
)

#: Kinds whose reproducers can be promoted into the ``hunted`` experiment
#: suite.  Crash findings cannot ride the suite runner (the exception would
#: abort the whole batch) and are replayed by ``repro hunt smoke`` instead.
PROMOTABLE_KINDS = ("violation", "unexpected_violation", "livelock",
                    "wrong_result")


@dataclass
class Finding:
    """One classified, reproducible outcome: a spec plus what it must produce.

    ``kind`` is one of :data:`FINDING_KINDS`; ``guaranteed`` records whether
    the outcome landed inside the protocol's declared guarantee envelope
    (``True`` marks a genuine protocol/checker bug, ``False`` an adversarial
    success of the checkers); ``crash_type`` pins the exception class for
    crash findings so shrinking cannot silently morph one crash into
    another.  ``operations`` is the operation count of the reproducing run —
    the size metric the shrinker minimises and the acceptance gate compares.
    """

    kind: str
    spec: ScenarioSpec
    guaranteed: bool = False
    detail: str = ""
    crash_type: str = ""
    operations: int = 0
    provenance: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FINDING_KINDS:
            raise ScenarioSpecError(
                f"unknown finding kind {self.kind!r}; known: {list(FINDING_KINDS)}"
            )

    # -- identity / filing -----------------------------------------------------
    def signature(self) -> Tuple[str, ...]:
        """What "the same finding" means across trials and shrink candidates."""
        spec = self.spec
        faults = tuple(sorted(
            knob for knob in ("drop_rate", "duplicate_rate", "partitions", "crashes")
            if spec.network.params.get(knob)
        ))
        return (
            self.kind,
            self.crash_type,
            spec.protocol.name,
            spec.app.name if spec.app is not None else spec.workload.pattern,
            spec.network.model,
            "fifo" if spec.network.fifo else "nofifo",
        ) + faults

    def slug(self) -> str:
        """A filesystem/scenario-name-safe identifier for this finding."""
        parts = [self.kind.replace("_", "-"), self.spec.protocol.name]
        if not self.spec.network.fifo:
            parts.append("nofifo")
        if self.spec.network.model != "reliable":
            parts.append(self.spec.network.model)
        trial = self.provenance.get("trial")
        if trial is not None:
            parts.append(f"t{trial}")
        return "-".join(str(p) for p in parts)

    def expectation(self) -> Tuple[Optional[bool], Optional[bool]]:
        """The ``(expect_consistent, expect_correct)`` pair suite gating asserts."""
        if self.kind in ("violation", "unexpected_violation"):
            return False, None
        if self.kind == "livelock":
            # a livelock finding only exists inside the liveness envelope,
            # where safety is also guaranteed: the verdict must stay clean
            return True, False
        if self.kind == "wrong_result":
            return True, False
        return None, None

    # -- serialization ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        expect_consistent, expect_correct = self.expectation()
        expected: Dict[str, Any] = {"outcome": self.kind}
        if expect_consistent is not None:
            expected["consistent"] = expect_consistent
        if expect_correct is not None:
            expected["correct"] = expect_correct
        data: Dict[str, Any] = {
            "format": FINDING_FORMAT,
            "kind": self.kind,
            "guaranteed": self.guaranteed,
            "spec": self.spec.to_dict(),
            "expected": expected,
        }
        if self.detail:
            data["detail"] = self.detail
        if self.crash_type:
            data["crash_type"] = self.crash_type
        if self.operations:
            data["operations"] = self.operations
        if self.provenance:
            data["provenance"] = dict(self.provenance)
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "Finding":
        if not isinstance(data, dict):
            raise ScenarioSpecError(
                f"finding must be a mapping, got {type(data).__name__}"
            )
        declared = data.get("format", FINDING_FORMAT)
        if not isinstance(declared, int) or declared > FINDING_FORMAT:
            raise ScenarioSpecError(
                f"finding declares format {declared!r}; this library "
                f"understands up to {FINDING_FORMAT}"
            )
        missing = sorted({"kind", "spec"} - set(data))
        if missing:
            raise ScenarioSpecError(f"finding misses keys {missing}")
        # every field by its declared type: a quoted "false" is no boolean
        # and a "12" no operation count
        return cls(**decode_fields(cls, data, "finding"))


# ---------------------------------------------------------------------------
# File IO
# ---------------------------------------------------------------------------

def load_finding(path: str) -> Finding:
    """Read one reproducer file (typed errors on malformed content)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ScenarioSpecError(f"cannot read finding file {path}: {exc}") from exc
    finding = Finding.from_dict(data)
    finding.spec.validate()
    return finding


def load_findings_dir(directory: str) -> List[Tuple[str, Finding]]:
    """Every ``*.json`` reproducer in ``directory``, sorted by filename.

    Returns ``(path, finding)`` pairs; a missing directory is an empty hunt
    corpus, not an error.
    """
    if not os.path.isdir(directory):
        return []
    pairs: List[Tuple[str, Finding]] = []
    for name in sorted(os.listdir(directory)):
        if name.endswith(".json"):
            path = os.path.join(directory, name)
            pairs.append((path, load_finding(path)))
    return pairs


def write_finding(finding: Finding, path: str) -> str:
    """Write one reproducer file (pretty-printed, trailing newline)."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(finding.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
