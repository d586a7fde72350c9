"""Declarative experiment specifications and their grid expansion.

An :class:`ExperimentSpec` names a *family* of runs: a protocol line-up, a
distribution family, a workload pattern, a network model, the seeds to
replay and an optional parameter grid.  It expands
(:meth:`ExperimentSpec.expand`) into concrete :class:`ScenarioPoint` runs —
one per ``grid-cell x protocol x seed`` — each of which wraps one canonical
:class:`repro.spec.ScenarioSpec` (the typed, JSON-round-trippable
single-run spec the whole stack executes).  The experiment validates only
its own axes (protocols, seeds, grid axes and values); whether a run is
valid is decided by :meth:`repro.spec.ScenarioSpec.validate` alone.

The component specs themselves (:class:`~repro.spec.DistributionSpec`,
:class:`~repro.spec.WorkloadSpec`, ...) live in :mod:`repro.spec` and are
re-exported here.

Each point canonicalises to a JSON-stable key whose SHA-256 digest
(:meth:`ScenarioPoint.content_hash`) identifies its result in the cache.  The
scenario name is part of that identity (renaming a scenario re-runs it), but
presentation-only fields (suite, paper_ref, description, the expected
verdict) are not; any change to a parameter, seed, protocol or network model
invalidates only the affected points.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar

from ..exceptions import ScenarioSpecError
from ..spec.registry import (
    APP_REGISTRY,
    DISTRIBUTION_REGISTRY,
    WORKLOAD_REGISTRY,
    build_topology,
)
from ..spec.scenario import (
    AppSpec,
    CheckSpec,
    DistributionSpec,
    NetworkSpec,
    ProtocolSpec,
    WorkloadSpec,
)
from ..spec.scenario import ScenarioSpec as _RunSpec

#: Bump when the record layout or run semantics change; part of every content
#: hash, so stale cache entries are never reused across incompatible versions.
#: (3: scenarios gained the application axis and records the app verdict;
#: 4: records carry the control/payload overhead ratio; 5: a violation proved
#: only at finalize names itself in ``first_violation``.)
CACHE_VERSION = 5

_Component = TypeVar("_Component", DistributionSpec, WorkloadSpec, AppSpec)


# ---------------------------------------------------------------------------
# Experiment (grid) spec
# ---------------------------------------------------------------------------

@dataclass
class ExperimentSpec:
    """One named experiment family: protocols x components x seeds x grid.

    ``grid`` maps dotted axis names (``"distribution.<param>"``,
    ``"workload.<param>"`` or ``"app.<param>"``) to the sequence of values to
    sweep; the cross product of all axes, the protocols and the seeds is the
    set of concrete runs (:meth:`expand`).  ``paper_ref`` ties the scenario
    to the paper claim it reproduces (see EXPERIMENTS.md at the repository
    root).

    The runs execute either a scripted workload (``distribution`` +
    ``workload``) or an application (``app``); an application brings its own
    distribution and programs.  ``network`` selects the network model every
    point runs on (default: the reliable unit-latency network);
    ``criteria``/``check_policy`` override what the points check and how
    eagerly; ``expect_consistent`` states the verdict the suite gate asserts
    — ``False`` for fault scenarios designed to produce a *proven*
    violation, ``None`` for "don't care" — and ``expect_correct`` does the
    same for the application result (``False`` for fault scenarios whose
    diagnosis — e.g. a livelocked spin barrier across a partition — *is*
    the expected outcome).
    """

    name: str
    distribution: Optional[DistributionSpec] = None
    workload: Optional[WorkloadSpec] = None
    description: str = ""
    suite: str = "custom"
    paper_ref: str = ""
    protocols: Tuple[str, ...] = ("pram_partial",)
    seeds: Tuple[int, ...] = (0,)
    grid: Dict[str, Sequence[Any]] = field(default_factory=dict)
    check_consistency: bool = True
    exact: bool = True
    network: NetworkSpec = field(default_factory=NetworkSpec)
    criteria: Tuple[str, ...] = ()
    check_policy: Optional[str] = None
    protocol_options: Dict[str, Any] = field(default_factory=dict)
    expect_consistent: Optional[bool] = True
    app: Optional[AppSpec] = None
    expect_correct: Optional[bool] = None

    def validate(self) -> None:
        """Raise a typed :class:`ScenarioSpecError` on the first malformed field.

        The experiment checks only its own axes: protocols, seeds, grid axes
        and grid values.  Every run is judged by
        :meth:`repro.spec.ScenarioSpec.validate`, on one expanded run per
        (grid cell, protocol), since the seed does not affect validity; so a
        grid value that the base spec rejects (e.g. a parameter a chosen
        topology refuses) fails here, at registration, with the error the
        run itself would raise.
        """
        for runs in self._runs(self.seeds[:1]):
            runs[0].validate()

    def _check_axes(self) -> None:
        if not self.protocols:
            raise ScenarioSpecError(f"scenario {self.name!r} lists no protocols")
        if not self.seeds:
            raise ScenarioSpecError(f"scenario {self.name!r} lists no seeds")
        components = {
            "app": self.app and (APP_REGISTRY, self.app.name),
            "distribution": self.distribution and (DISTRIBUTION_REGISTRY,
                                                   self.distribution.family),
            "workload": self.workload and (WORKLOAD_REGISTRY, self.workload.pattern),
        }
        scopes = [scope for scope, named in components.items() if named] or list(components)
        for axis, values in self.grid.items():
            scope, _, param = axis.partition(".")
            if not components.get(scope) or not param:
                wanted = " or ".join(f"'{s}.<param>'" for s in scopes)
                raise ScenarioSpecError(
                    f"scenario {self.name!r}: grid axis {axis!r} must be {wanted}"
                )
            registry, name = components[scope]
            component = registry.get(name)
            # a component that validates its own parameters (the neighbourhood
            # topologies) takes any name; ScenarioSpec.validate judges the value
            if not component.metadata.get("dynamic_params") and param not in component.params:
                raise ScenarioSpecError(
                    f"scenario {self.name!r}: grid axis {axis!r} names no parameter of "
                    f"the {scope} spec; allowed: {sorted(component.params)}"
                )
            if not values:
                raise ScenarioSpecError(
                    f"scenario {self.name!r}: grid axis {axis!r} has no values"
                )

    def _runs(self, seeds: Sequence[int]) -> Iterator[List[_RunSpec]]:
        """The runs of each (grid cell, protocol), one per seed, in expansion
        order, after the experiment's own checks."""
        self._check_axes()
        axes = sorted(self.grid)
        for cell in itertools.product(*(self.grid[axis] for axis in axes)):
            values: Dict[str, Dict[str, Any]] = {}
            for axis, value in zip(axes, cell):
                scope, _, param = axis.partition(".")
                values.setdefault(scope, {})[param] = value
            for protocol in self.protocols:
                yield [
                    _RunSpec(
                        name=self.name,
                        protocol=ProtocolSpec(protocol, dict(self.protocol_options)),
                        distribution=_merged(self.distribution, values.get("distribution")),
                        workload=_merged(self.workload, values.get("workload")),
                        app=_merged(self.app, values.get("app")),
                        network=replace(self.network, params=dict(self.network.params)),
                        check=CheckSpec(self.check_consistency, tuple(self.criteria),
                                        self.check_policy, self.exact),
                        seed=seed,
                    )
                    for seed in seeds
                ]

    def expand(self) -> List["ScenarioPoint"]:
        """All concrete runs of the experiment, in deterministic order
        (grid cell, then protocol, then seed), validated as
        :meth:`validate` does."""
        points: List[ScenarioPoint] = []
        for runs in self._runs(self.seeds):
            runs[0].validate()
            points.extend(
                ScenarioPoint(
                    spec=run,
                    suite=self.suite,
                    paper_ref=self.paper_ref,
                    expect_consistent=self.expect_consistent,
                    expect_correct=self.expect_correct,
                )
                for run in runs
            )
        return points


def _merged(
    component: Optional[_Component], params: Optional[Dict[str, Any]]
) -> Optional[_Component]:
    """A copy of ``component`` with one grid cell's ``params`` laid over its own."""
    if component is None:
        return None
    return replace(component, params={**component.params, **(params or {})})


@dataclass
class ScenarioPoint:
    """One concrete, cache-addressable run: a canonical spec plus filing.

    ``spec`` is the :class:`repro.spec.ScenarioSpec` the run executes; read
    the run's fields there (``point.spec.protocol.name``, ``point.spec.seed``).
    ``suite``/``paper_ref``/``expect_consistent``/``expect_correct`` are
    presentation and gating data excluded from the run's identity.
    """

    spec: _RunSpec
    suite: str = "custom"
    paper_ref: str = ""
    expect_consistent: Optional[bool] = True
    expect_correct: Optional[bool] = None

    # -- read by benchmarks/e2e/workloads.py -----------------------------------
    @property
    def check_consistency(self) -> bool:
        return self.spec.check.enabled

    @property
    def exact(self) -> bool:
        return self.spec.check.exact

    # -- identity --------------------------------------------------------------
    def key(self) -> Dict[str, Any]:
        """The canonical identity of the run (everything that affects its result).

        Presentation-only fields (``suite``, ``paper_ref``,
        ``expect_consistent``, ``description``) are deliberately excluded so
        re-filing a scenario does not invalidate its cache.
        """
        data = self.spec.to_dict()
        data.pop("description", None)
        data["cache_version"] = CACHE_VERSION
        data.setdefault("seed", self.spec.seed)
        return data

    def content_hash(self) -> str:
        """SHA-256 digest of the canonical JSON key (the cache address)."""
        canonical = json.dumps(self.key(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def label(self) -> str:
        """Compact human-readable identifier used by logs and progress output."""
        spec = self.spec
        params: Dict[str, Any] = {}
        for component in (spec.app, spec.distribution, spec.workload):
            if component is not None:
                params.update(component.params)
        extras = "/".join(f"{k}={v}" for k, v in sorted(params.items()))
        if spec.app is not None:
            extras = "/".join(filter(None, [f"app={spec.app.name}", extras]))
        if spec.network.model != "reliable":
            extras = "/".join(filter(None, [extras, f"net={spec.network.model}"]))
        suffix = f" [{extras}]" if extras else ""
        return f"{spec.name}:{spec.protocol.name}:s{spec.seed}{suffix}"
