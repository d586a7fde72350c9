"""Diagnostics, rule metadata and ``# repro: noqa`` suppression parsing."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Tuple

#: The inline suppression marker.  ``# repro: noqa`` silences every rule on
#: its line; ``# repro: noqa[RPR101]`` (comma-separated for several codes)
#: silences only the named rules.  The marker must sit on the line the
#: diagnostic points at (the first line of a multi-line statement).
_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?", re.IGNORECASE
)


@dataclass(frozen=True)
class Diagnostic:
    """One finding: a rule code anchored to a file, line and column."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        """The canonical ``path:line:col: CODE message`` output line."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.code)


@dataclass(frozen=True)
class Rule:
    """One registered lint rule.

    ``check`` receives a :class:`repro.lint.engine.FileContext` and yields
    :class:`Diagnostic` objects; rules marked ``project=True`` instead
    receive the full list of contexts once (for cross-file invariants such
    as registry-name uniqueness).  ``scope`` documents where the rule
    applies — the check itself enforces it via the context helpers.
    """

    code: str
    summary: str
    check: Callable[..., Iterable[Diagnostic]]
    scope: str = "src"
    project: bool = False


def parse_suppressions(source: str) -> Dict[int, Optional[FrozenSet[str]]]:
    """Map line numbers to the codes suppressed there.

    A value of ``None`` means *every* code is suppressed on that line
    (a bare ``# repro: noqa``); otherwise the frozenset holds the named
    codes, upper-cased.
    """
    suppressions: Dict[int, Optional[FrozenSet[str]]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        if "noqa" not in line:
            continue
        match = _NOQA_RE.search(line)
        if match is None:
            continue
        codes = match.group("codes")
        if codes is None:
            suppressions[lineno] = None
        else:
            named = frozenset(
                code.strip().upper() for code in codes.split(",") if code.strip()
            )
            suppressions[lineno] = named or None
    return suppressions


def is_suppressed(
    diagnostic: Diagnostic,
    suppressions: Dict[int, Optional[FrozenSet[str]]],
) -> bool:
    """Whether an inline ``# repro: noqa`` marker covers this diagnostic."""
    if diagnostic.line not in suppressions:
        return False
    codes = suppressions[diagnostic.line]
    return codes is None or diagnostic.code.upper() in codes
