"""File discovery, rule dispatch, suppression filtering and the allowlist."""

from __future__ import annotations

import ast
import fnmatch
import os
from dataclasses import dataclass, field
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from .diagnostics import Diagnostic, Rule, is_suppressed, parse_suppressions

#: Directory names never descended into.  ``fixtures`` holds the lint test
#: suite's deliberately-bad rule snippets (``tests/lint/fixtures/``) — they
#: are linted *by* the tests, through explicit contexts, not by discovery.
EXCLUDED_DIRS = frozenset(
    {"__pycache__", ".git", ".repro-cache", "build", "dist",
     ".pytest_cache", ".mypy_cache", ".ruff_cache", "fixtures"}
)

#: Project allowlist: ``(path glob, rule code, reason)`` triples.  This is
#: the *only* sanctioned way to exempt shipped code from a rule besides an
#: inline ``# repro: noqa[CODE]`` marker, and it is documented in
#: ``docs/API.md``.  Keep it empty unless a rule is structurally wrong for a
#: file — per-line exceptions belong inline where reviewers can see them.
ALLOWLIST: Tuple[Tuple[str, str, str], ...] = (
    (
        "src/repro/hunt/driver.py",
        "RPR103",
        "hunt progress reporting: time.perf_counter() only measures the "
        "search's own elapsed_s for the report; it never reaches a "
        "simulated run, a seed or a stored artifact",
    ),
    (
        "src/repro/serve/service.py",
        "RPR103",
        "online-service operational metrics: time.monotonic() feeds the "
        "ingest-lag, queue-wait and uptime figures of the status stream "
        "only; monitors, verdicts and everything replayable live in "
        "repro.serve.monitor, which takes no clock at all",
    ),
)


@dataclass
class FileContext:
    """Everything the rules need to know about one discovered file."""

    path: str                      # as displayed in diagnostics (relative)
    tree: Optional[ast.AST] = None  # None for an unparsable file
    parse_error: Optional[SyntaxError] = None
    suppressions: Dict[int, Optional[FrozenSet[str]]] = field(default_factory=dict)

    # -- package scoping -------------------------------------------------------
    def module_parts(self) -> Tuple[str, ...]:
        """The dotted-module path, if the file sits under a ``repro`` package.

        ``src/repro/mcs/system.py`` -> ``("repro", "mcs", "system")``; files
        outside any ``repro`` directory (tests, benchmarks) return ``()``.
        """
        parts = _norm_parts(self.path)
        if "repro" not in parts:
            return ()
        index = parts.index("repro")
        module = parts[index:]
        if module and module[-1].endswith(".py"):
            module = module[:-1] + (module[-1][: -len(".py")],)
        return module

    def in_repro(self) -> bool:
        return bool(self.module_parts())

    def subpackage(self) -> str:
        """The first package level under ``repro`` (``"mcs"``, ``"lint"``, ...)."""
        module = self.module_parts()
        return module[1] if len(module) > 1 else ""

    def in_subpackages(self, names: Iterable[str]) -> bool:
        return self.subpackage() in set(names)


def _norm_parts(path: str) -> Tuple[str, ...]:
    return tuple(os.path.normpath(path).replace(os.sep, "/").split("/"))


def discover_files(paths: Sequence[str]) -> List[str]:
    """Expand the command-line paths into the lintable file list.

    Globbed: every ``*.py`` under each directory; no other file kind.
    Hidden directories, caches and rule-fixture directories are skipped.
    """
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            if path.endswith(".py"):
                found.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d for d in dirnames
                if d not in EXCLUDED_DIRS and not d.startswith(".")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    found.append(os.path.join(dirpath, filename))
    unique = sorted(set(os.path.normpath(p) for p in found))
    return unique


def load_context(path: str) -> FileContext:
    """Read and parse one file into a :class:`FileContext`."""
    display = os.path.relpath(path) if os.path.isabs(path) else os.path.normpath(path)
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    context = FileContext(path=display, suppressions=parse_suppressions(source))
    try:
        context.tree = ast.parse(source, filename=display)
    except SyntaxError as exc:
        context.parse_error = exc
    return context


def _allowlisted(diagnostic: Diagnostic) -> Optional[str]:
    """The allowlist reason covering ``diagnostic``, or ``None``."""
    normalized = diagnostic.path.replace(os.sep, "/")
    for pattern, code, reason in ALLOWLIST:
        if code == diagnostic.code and fnmatch.fnmatch(normalized, pattern):
            return reason
    return None


def run_lint(
    contexts: Sequence[FileContext],
    select: Optional[Iterable[str]] = None,
    apply_allowlist: bool = True,
) -> List[Diagnostic]:
    """Run every (selected) rule over the contexts; return kept diagnostics.

    ``apply_allowlist=False`` bypasses :data:`ALLOWLIST` — used by the test
    suite to prove each allowlist entry still shields a live finding.
    """
    from .rules import all_rules

    selected = None if select is None else {code.upper() for code in select}
    rules = [
        rule for rule in all_rules()
        if selected is None or rule.code in selected
    ]
    # Rule families share one checker across several codes (e.g. RPR401-402
    # both come from the pool-callable walker): run each checker exactly once.
    seen_checks = set()
    unique_rules = []
    for rule in rules:
        if rule.check in seen_checks:
            continue
        seen_checks.add(rule.check)
        unique_rules.append(rule)
    rules = unique_rules
    raw: List[Diagnostic] = []
    for context in contexts:
        if context.parse_error is not None:
            raw.append(
                Diagnostic(
                    path=context.path,
                    line=context.parse_error.lineno or 1,
                    col=(context.parse_error.offset or 1) - 1,
                    code="RPR001",
                    message=f"file does not parse: {context.parse_error.msg}",
                )
            )
    for rule in rules:
        if rule.project:
            raw.extend(rule.check(list(contexts)))
            continue
        for context in contexts:
            if context.tree is None:
                continue
            raw.extend(rule.check(context))
    by_path = {context.path: context for context in contexts}
    kept: List[Diagnostic] = []
    for diagnostic in raw:
        if selected is not None and diagnostic.code not in selected \
                and diagnostic.code != "RPR001":
            continue
        context = by_path.get(diagnostic.path)
        if context is not None and is_suppressed(diagnostic, context.suppressions):
            continue
        if apply_allowlist and _allowlisted(diagnostic) is not None:
            continue
        kept.append(diagnostic)
    return sorted(set(kept), key=Diagnostic.sort_key)


def lint_paths(
    paths: Sequence[str],
    select: Optional[Iterable[str]] = None,
) -> List[Diagnostic]:
    """Discover, load and lint ``paths`` (the programmatic entry point)."""
    contexts = [load_context(path) for path in discover_files(paths)]
    return run_lint(contexts, select=select)
