"""Registry-contract rules (RPR201–RPR204).

The plugin registries (:mod:`repro.spec.registry`) accept arbitrary keyword
metadata, so nothing at runtime forces a protocol to *declare* its guarantee
envelope — PR 6's hunt had to discover by randomized search that
``sequencer_sc``'s order-tolerance claim was wrong.  These rules make the
declarations mandatory at commit time:

* **RPR201** — every ``@register_protocol`` call spells out its complete
  envelope: ``criterion``, ``fault_tolerant``, ``order_tolerant``,
  ``blocking_reads`` and a human-readable ``description``.  Defaults are
  not allowed precisely because an *absent* claim is indistinguishable from
  a *considered* one.
* **RPR202** — the other component kinds carry their required capability
  metadata: apps declare ``blocking_ok``/``variables_per_process``,
  distribution families declare ``seeded``, and everything ships a
  ``description`` (what ``repro protocols/apps list`` prints).
* **RPR203** — registered names are unique per component kind across the
  source tree (duplicates raise at import time, but only when both modules
  happen to be imported together — the linter sees them always).  Explicit
  ``replace=True`` registrations are exempt.
* **RPR204** — registered names are static lowercase slugs: a string
  literal matching ``[a-z][a-z0-9_]*``, so every name is greppable and
  usable as a scenario/CLI identifier.
"""

from __future__ import annotations

import ast
import re
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..diagnostics import Diagnostic, Rule
from ._names import str_constant

#: Required keyword metadata per registration decorator.
REQUIRED_METADATA: Dict[str, Tuple[str, ...]] = {
    "register_protocol": (
        "criterion", "fault_tolerant", "order_tolerant", "blocking_reads",
        "description",
    ),
    "register_app": ("blocking_ok", "variables_per_process", "description"),
    "register_distribution": ("seeded", "description"),
    "register_workload": ("description",),
    "register_topology": ("description",),
    "register_network_model": ("description",),
}

_NAME_SLUG = re.compile(r"^[a-z][a-z0-9_]*$")


def _registration_calls(tree: ast.AST) -> Iterator[ast.Call]:
    """Every ``register_*(...)`` call in the module (decorator or direct)."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = None
        if isinstance(func, ast.Name):
            name = func.id
        elif isinstance(func, ast.Attribute):
            name = func.attr
        if name in REQUIRED_METADATA:
            yield node


def _call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    assert isinstance(func, ast.Attribute)
    return func.attr


def _registered_name(call: ast.Call) -> Optional[str]:
    if not call.args:
        return None
    return str_constant(call.args[0])


def _has_replace(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg == "replace":
            return not (
                isinstance(keyword.value, ast.Constant)
                and keyword.value.value is False
            )
    return False


def check_registration_metadata(context) -> List[Diagnostic]:
    """RPR201/RPR202: every registration declares its capability metadata."""
    if not context.in_repro():
        return []
    findings: List[Diagnostic] = []
    for call in _registration_calls(context.tree):
        registrar = _call_name(call)
        given = {keyword.arg for keyword in call.keywords if keyword.arg}
        if any(keyword.arg is None for keyword in call.keywords):
            continue  # a **splat may provide anything; not statically decidable
        missing = sorted(set(REQUIRED_METADATA[registrar]) - given)
        if not missing:
            continue
        code = "RPR201" if registrar == "register_protocol" else "RPR202"
        component = _registered_name(call) or "<dynamic>"
        findings.append(
            Diagnostic(
                path=context.path,
                line=call.lineno,
                col=call.col_offset,
                code=code,
                message=(
                    f"{registrar}({component!r}) misses required capability "
                    f"metadata {missing} — declare every key explicitly "
                    "(an absent claim is indistinguishable from a considered "
                    "one)"
                ),
            )
        )
    return findings


def check_registered_name_style(context) -> List[Diagnostic]:
    """RPR204: registered names are static ``[a-z][a-z0-9_]*`` literals."""
    if not context.in_repro():
        return []
    findings: List[Diagnostic] = []
    for call in _registration_calls(context.tree):
        registrar = _call_name(call)
        if not call.args:
            findings.append(
                Diagnostic(
                    path=context.path,
                    line=call.lineno,
                    col=call.col_offset,
                    code="RPR204",
                    message=f"{registrar}() has no positional name argument",
                )
            )
            continue
        name = str_constant(call.args[0])
        if name is None:
            findings.append(
                Diagnostic(
                    path=context.path,
                    line=call.lineno,
                    col=call.col_offset,
                    code="RPR204",
                    message=(
                        f"{registrar}() name must be a string literal so the "
                        "registry stays statically auditable"
                    ),
                )
            )
        elif not _NAME_SLUG.match(name):
            findings.append(
                Diagnostic(
                    path=context.path,
                    line=call.lineno,
                    col=call.col_offset,
                    code="RPR204",
                    message=(
                        f"registered name {name!r} is not a lowercase "
                        "[a-z][a-z0-9_]* slug"
                    ),
                )
            )
    return findings


def check_unique_names(contexts: Sequence) -> List[Diagnostic]:
    """RPR203: (component kind, name) pairs are unique across the tree."""
    seen: Dict[Tuple[str, str], Tuple[str, int]] = {}
    findings: List[Diagnostic] = []
    for context in contexts:
        if context.tree is None:
            continue
        if not context.in_repro():
            continue
        for call in _registration_calls(context.tree):
            name = _registered_name(call)
            if name is None or _has_replace(call):
                continue
            key = (_call_name(call), name)
            if key in seen:
                first_path, first_line = seen[key]
                findings.append(
                    Diagnostic(
                        path=context.path,
                        line=call.lineno,
                        col=call.col_offset,
                        code="RPR203",
                        message=(
                            f"{key[0]}({name!r}) is already registered at "
                            f"{first_path}:{first_line} — duplicate names "
                            "raise only when both modules import together"
                        ),
                    )
                )
            else:
                seen[key] = (context.path, call.lineno)
    return findings


RULES = (
    Rule(
        code="RPR201",
        summary="@register_protocol declares its full guarantee envelope",
        check=check_registration_metadata,
        scope="src/repro",
    ),
    Rule(
        code="RPR202",
        summary="component registrations carry required capability metadata",
        check=check_registration_metadata,
        scope="src/repro",
    ),
    Rule(
        code="RPR203",
        summary="registered component names are unique per kind",
        check=check_unique_names,
        scope="src/repro",
        project=True,
    ),
    Rule(
        code="RPR204",
        summary="registered names are static lowercase slug literals",
        check=check_registered_name_style,
        scope="src/repro",
    ),
)
