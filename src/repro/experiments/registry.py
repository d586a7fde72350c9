"""Registry of named scenarios, grouped into suites.

Scenarios are registered by name (validated at registration time, so a broken
spec is reported where it is defined, not when a suite run reaches it) and
grouped by their ``suite`` attribute.  The built-in suites live in
:mod:`repro.experiments.suites`; user code can register additional scenarios
on the global :data:`REGISTRY` or keep a private registry instance.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .spec import ExperimentSpec, ScenarioSpecError


class ScenarioRegistry:
    """A name -> :class:`ExperimentSpec` mapping with suite-level views."""

    def __init__(self) -> None:
        self._specs: Dict[str, ExperimentSpec] = {}

    def register(self, spec: ExperimentSpec) -> ExperimentSpec:
        """Validate and store ``spec``; duplicate names are an error."""
        spec.validate()
        if spec.name in self._specs:
            raise ScenarioSpecError(f"scenario {spec.name!r} is already registered")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> ExperimentSpec:
        """The spec registered under ``name``."""
        try:
            return self._specs[name]
        except KeyError:
            raise ScenarioSpecError(
                f"unknown scenario {name!r}; known: {self.names()}"
            ) from None

    def names(self, suite: Optional[str] = None) -> List[str]:
        """Registered scenario names (optionally restricted to one suite)."""
        return [s.name for s in self.specs(suite)]

    def specs(self, suite: Optional[str] = None) -> List[ExperimentSpec]:
        """Registered specs in registration order (optionally one suite)."""
        return [
            spec for spec in self._specs.values()
            if suite is None or spec.suite == suite
        ]

    def suites(self) -> List[str]:
        """The distinct suite names, in first-seen order."""
        seen: List[str] = []
        for spec in self._specs.values():
            if spec.suite not in seen:
                seen.append(spec.suite)
        return seen

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<ScenarioRegistry scenarios={len(self)} suites={self.suites()}>"


#: The global registry the CLI and the built-in suites use.
REGISTRY = ScenarioRegistry()
