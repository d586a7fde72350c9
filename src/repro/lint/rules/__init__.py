"""The rule families, one module each; ``all_rules`` is the engine's menu."""

from __future__ import annotations

from typing import Tuple

from ..diagnostics import Rule
from . import (
    arena_discipline,
    determinism,
    exception_discipline,
    mp_hygiene,
    registry_contracts,
)

_MODULES = (
    determinism,
    arena_discipline,
    registry_contracts,
    mp_hygiene,
    exception_discipline,
)


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, in family order (stable for ``--list-rules``)."""
    rules: list = []
    for module in _MODULES:
        rules.extend(module.RULES)
    return tuple(rules)


__all__ = ["all_rules"]
