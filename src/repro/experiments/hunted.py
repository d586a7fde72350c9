"""The ``hunted`` suite: committed hunt reproducers as a regression gate.

Every ``*.json`` file in ``src/repro/experiments/hunted/`` is a minimal
reproducer emitted by ``repro hunt`` (see :mod:`repro.hunt.findings` for the
format): one shrunk :class:`~repro.spec.ScenarioSpec` plus the verdict it
must keep producing.  This module turns each file into an
:class:`~repro.experiments.spec.ExperimentSpec` under the ``hunted`` suite —
the same expectation-gating machinery the hand-written ``faults`` suite uses
— so ``repro experiments run --suite hunted`` (and CI's ``make hunt-smoke``)
replays the whole corpus and :attr:`SuiteResult.failures` reports any
reproducer that stopped reproducing.

The suite grows automatically: ``repro hunt promote <finding.json>``
re-validates a finding and writes it here as ``<finding.slug()>.json``; the
next import picks it up.  The loader rejects, with a typed
:class:`~repro.exceptions.ScenarioSpecError`, a file that is not JSON, a
finding or embedded spec that fails its schema, a non-promotable kind, and a
file not named after its finding's slug (so name and content cannot drift).
Crash findings are not loadable as suite entries (the runner would abort on
the exception) — ``repro hunt smoke`` replays those directly through the
hunt oracle instead.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple

from ..exceptions import ScenarioSpecError
from ..hunt.findings import PROMOTABLE_KINDS, Finding, load_findings_dir
from ..spec.scenario import ScenarioSpec as RunSpec
from .registry import REGISTRY
from .spec import ExperimentSpec

#: Where promoted reproducers live, relative to this package.
HUNTED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "hunted")


def experiment_from_finding(name: str, finding: Finding) -> ExperimentSpec:
    """Lift one finding's single-run spec into a one-point experiment.

    The expansion of the returned spec reproduces the finding's
    :class:`~repro.spec.ScenarioSpec` exactly (same content hash modulo the
    scenario name), with the finding's expected verdicts attached for the
    suite gate.
    """
    if finding.kind not in PROMOTABLE_KINDS:
        raise ScenarioSpecError(
            f"finding kind {finding.kind!r} cannot join the hunted suite "
            f"(promotable: {list(PROMOTABLE_KINDS)})"
        )
    spec: RunSpec = finding.spec
    expect_consistent, expect_correct = finding.expectation()
    detail = finding.detail.splitlines()[0] if finding.detail else ""
    return ExperimentSpec(
        name=name,
        description=(f"hunt reproducer ({finding.kind})"
                     + (f": {detail}" if detail else "")),
        suite="hunted",
        paper_ref="hunted by repro hunt; see docs/API.md",
        protocols=(spec.protocol.name,),
        protocol_options=dict(spec.protocol.options),
        seeds=(spec.seed,),
        distribution=spec.distribution,
        workload=spec.workload,
        app=spec.app,
        network=spec.network,
        check_consistency=spec.check.enabled,
        exact=spec.check.exact,
        criteria=tuple(spec.check.criteria),
        check_policy=spec.check.policy,
        expect_consistent=expect_consistent,
        expect_correct=expect_correct,
    )


def hunted_scenarios(directory: Optional[str] = None) -> List[ExperimentSpec]:
    """All committed reproducers as experiment specs (``hunted-<slug>``)."""
    pairs: List[Tuple[str, Finding]] = load_findings_dir(directory or HUNTED_DIR)
    specs: List[ExperimentSpec] = []
    for path, finding in pairs:
        slug = finding.slug()
        if os.path.basename(path) != f"{slug}.json":
            raise ScenarioSpecError(
                f"hunted reproducer {path} must be named {slug}.json, "
                "after its finding's slug"
            )
        specs.append(experiment_from_finding(f"hunted-{slug}", finding))
    return specs


def register_hunted_scenarios(registry=REGISTRY) -> List[ExperimentSpec]:
    """Register every committed reproducer (idempotent per registry)."""
    registered = []
    for spec in hunted_scenarios():
        if spec.name not in registry:
            registered.append(registry.register(spec))
    return registered


register_hunted_scenarios()
