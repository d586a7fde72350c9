"""Declarative experiment specifications and their grid expansion.

An :class:`ExperimentSpec` names a *family* of runs: a protocol line-up, a
distribution family, a workload pattern, a network model, the seeds to
replay and an optional parameter grid.  It is pure data, validated eagerly
(:meth:`ExperimentSpec.validate`) and expanded lazily
(:meth:`ExperimentSpec.expand`) into concrete :class:`ScenarioPoint` runs —
one per ``protocol x seed x grid-cell`` — each of which wraps one canonical
:class:`repro.spec.ScenarioSpec` (the typed, JSON-round-trippable
single-run spec the whole stack executes).

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
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..exceptions import ScenarioSpecError
from ..spec.registry import (
    APP_REGISTRY,
    DISTRIBUTION_REGISTRY,
    WORKLOAD_REGISTRY,
    build_topology,
    resolve_protocol,
)
from ..spec.scenario import (
    AppSpec,
    CheckSpec,
    DistributionSpec,
    NetworkSpec,
    ProtocolSpec,
    TopologySpec,
    WorkloadSpec,
)
from ..spec.scenario import ScenarioSpec as _RunSpec

#: Bump when the record layout or run semantics change; part of every content
#: hash, so stale cache entries are never reused across incompatible versions.
#: (3: scenarios gained the application axis and records the app verdict;
#: 4: records carry the control/payload overhead ratio; 5: a violation proved
#: only at finalize names itself in ``first_violation``.)
CACHE_VERSION = 5


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

    def _check_spec(self) -> CheckSpec:
        return CheckSpec(
            enabled=self.check_consistency,
            criteria=tuple(self.criteria),
            policy=self.check_policy,
            exact=self.exact,
        )

    def validate(self) -> None:
        """Raise :class:`ScenarioSpecError` on the first malformed field."""
        if not self.name or not self.name.replace("-", "").replace("_", "").isalnum():
            raise ScenarioSpecError(
                f"scenario name must be a non-empty [-_a-zA-Z0-9] slug, got {self.name!r}"
            )
        if not self.protocols:
            raise ScenarioSpecError(f"scenario {self.name!r} lists no protocols")
        for protocol in self.protocols:
            try:
                component = resolve_protocol(protocol)
                component.validate_params(self.protocol_options)
            except ScenarioSpecError as exc:
                raise ScenarioSpecError(
                    f"scenario {self.name!r}: {exc}"
                ) from None
        if not self.seeds:
            raise ScenarioSpecError(f"scenario {self.name!r} lists no seeds")
        if self.app is not None:
            if self.distribution is not None or self.workload is not None:
                raise ScenarioSpecError(
                    f"scenario {self.name!r} names an app and a "
                    "distribution/workload; an app brings its own "
                    "distribution and programs"
                )
            self.app.validate()
            for protocol in self.protocols:
                self.app.check_protocol(
                    ProtocolSpec(protocol, dict(self.protocol_options))
                )
        else:
            if self.distribution is None or self.workload is None:
                raise ScenarioSpecError(
                    f"scenario {self.name!r} needs either an app or a "
                    "distribution plus a workload"
                )
            self.distribution.validate()
            self.workload.validate()
        self.network.validate()
        self._check_spec().validate()
        for axis, values in self.grid.items():
            scope, _, param = axis.partition(".")
            scopes = ("app",) if self.app is not None else ("distribution", "workload")
            if scope not in scopes or not param:
                wanted = " or ".join(f"'{s}.<param>'" for s in scopes)
                raise ScenarioSpecError(
                    f"scenario {self.name!r}: grid axis {axis!r} must be {wanted}"
                )
            if scope == "app":
                component = APP_REGISTRY.get(self.app.name)
                allowed = component.params
                if component.metadata.get("dynamic_params"):
                    allowed = None  # the factory validates (topology params)
            elif scope == "distribution":
                allowed = DISTRIBUTION_REGISTRY.get(self.distribution.family).params
            else:
                allowed = WORKLOAD_REGISTRY.get(self.workload.pattern).params
            if allowed is not None and param not in allowed:
                raise ScenarioSpecError(
                    f"scenario {self.name!r}: grid axis {axis!r} names no parameter of "
                    f"the {scope} spec; allowed: {sorted(allowed)}"
                )
            if not values:
                raise ScenarioSpecError(
                    f"scenario {self.name!r}: grid axis {axis!r} has no values"
                )
        # Re-validate every grid cell's merged specs, so a grid value that is
        # incompatible with the base spec (e.g. a parameter a chosen topology
        # rejects) fails here — at registration — not halfway through a run.
        for dist, work, app in self._cells():
            if app is not None:
                app.validate()
            else:
                dist.validate()
                work.validate()

    def _cells(
        self,
    ) -> List[Tuple[Optional[DistributionSpec], Optional[WorkloadSpec], Optional[AppSpec]]]:
        """The grid-merged (distribution, workload, app) specs of every cell."""
        axes = sorted(self.grid)
        cells = itertools.product(*(self.grid[axis] for axis in axes)) if axes else [()]
        merged: List[Tuple[Optional[DistributionSpec], Optional[WorkloadSpec],
                           Optional[AppSpec]]] = []
        for cell in cells:
            dist = (replace(self.distribution, params=dict(self.distribution.params))
                    if self.distribution is not None else None)
            work = (replace(self.workload, params=dict(self.workload.params))
                    if self.workload is not None else None)
            app = (replace(self.app, params=dict(self.app.params))
                   if self.app is not None else None)
            for axis, value in zip(axes, cell):
                scope, _, param = axis.partition(".")
                target = {"distribution": dist, "workload": work, "app": app}[scope]
                target.params[param] = value
            merged.append((dist, work, app))
        return merged

    def expand(self) -> List["ScenarioPoint"]:
        """All concrete runs of the experiment, in deterministic order."""
        self.validate()
        points: List[ScenarioPoint] = []
        for dist, work, app in self._cells():
            for protocol in self.protocols:
                for seed in self.seeds:
                    scenario = _RunSpec(
                        name=self.name,
                        protocol=ProtocolSpec(protocol, dict(self.protocol_options)),
                        distribution=(replace(dist, params=dict(dist.params))
                                      if dist is not None else None),
                        workload=(replace(work, params=dict(work.params))
                                  if work is not None else None),
                        app=(replace(app, params=dict(app.params))
                             if app is not None else None),
                        network=replace(self.network,
                                        params=dict(self.network.params)),
                        check=self._check_spec(),
                        seed=seed,
                    )
                    points.append(
                        ScenarioPoint(
                            spec=scenario,
                            suite=self.suite,
                            paper_ref=self.paper_ref,
                            expect_consistent=self.expect_consistent,
                            expect_correct=self.expect_correct,
                        )
                    )
        return points


@dataclass
class ScenarioPoint:
    """One concrete, cache-addressable run: a canonical spec plus filing.

    ``spec`` is the :class:`repro.spec.ScenarioSpec` the run executes;
    ``suite``/``paper_ref``/``expect_consistent``/``expect_correct`` are
    presentation and gating data excluded from the run's identity.
    """

    spec: _RunSpec
    suite: str = "custom"
    paper_ref: str = ""
    expect_consistent: Optional[bool] = True
    expect_correct: Optional[bool] = None

    # -- delegating accessors (the historical flat field surface) -------------
    @property
    def scenario(self) -> str:
        return self.spec.name

    @property
    def protocol(self) -> str:
        return self.spec.protocol.name

    @property
    def seed(self) -> int:
        return self.spec.seed

    @property
    def distribution(self) -> Optional[DistributionSpec]:
        return self.spec.distribution

    @property
    def workload(self) -> Optional[WorkloadSpec]:
        return self.spec.workload

    @property
    def app(self) -> Optional[AppSpec]:
        return self.spec.app

    @property
    def network(self) -> NetworkSpec:
        return self.spec.network

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
        params: Dict[str, Any] = {}
        if self.app is not None:
            params.update(self.app.params)
        if self.distribution is not None:
            params.update(self.distribution.params)
        if self.workload is not None:
            params.update(self.workload.params)
        extras = "/".join(f"{k}={v}" for k, v in sorted(params.items()))
        if self.app is not None:
            extras = "/".join(filter(None, [f"app={self.app.name}", extras]))
        if self.network.model != "reliable":
            extras = "/".join(filter(None, [extras, f"net={self.network.model}"]))
        suffix = f" [{extras}]" if extras else ""
        return f"{self.scenario}:{self.protocol}:s{self.seed}{suffix}"
