"""A producer/consumer pipeline over single-writer shared variables.

The classic flag-synchronised data handoff — the smallest application whose
correctness rests on exactly the guarantee PRAM consistency gives (paper,
Section 5): each stage publishes a value and *then* advances its counter, and
because every process sees each writer's writes in program order, a consumer
that observed counter ``n`` is guaranteed to observe the value of item ``n``
(or a newer one).  Chained over several stages the pattern also exercises
genuinely partial replication: stage ``i`` replicates only the variables it
shares with its neighbours, so no message ever reaches a stage that does not
use the variable.

The producer (stage 0) emits the values ``1..items``; every later stage adds
one to what it consumes and republishes.  Results are validated against the
centralised :func:`repro.apps.reference.pipeline_final_values` ground truth.
"""

from __future__ import annotations

from typing import Any, Dict

from ..core.distribution import VariableDistribution
from ..core.operations import BOTTOM
from ..dsm.app import AppInstance, AppVerdict
from ..dsm.program import ProcessContext, ProgramFn
from ..spec.registry import register_app
from .reference import pipeline_final_values


def value_variable(stage: int) -> str:
    """Name of the shared value variable written by ``stage``."""
    return f"v{stage}"


def counter_variable(stage: int) -> str:
    """Name of the shared item counter written by ``stage``."""
    return f"c{stage}"


def pipeline_distribution(stages: int) -> VariableDistribution:
    """Stage ``i`` replicates its own pair and its upstream neighbour's."""
    if stages < 2:
        raise ValueError("the pipeline needs at least 2 stages")
    per_process: Dict[int, set] = {}
    for stage in range(stages):
        variables = {value_variable(stage), counter_variable(stage)}
        if stage > 0:
            variables |= {value_variable(stage - 1), counter_variable(stage - 1)}
        per_process[stage] = variables
    return VariableDistribution(per_process)


def _as_count(value: Any) -> int:
    return -1 if value is BOTTOM else int(value)


def stage_program(stage: int, items: int) -> ProgramFn:
    """One pipeline stage: consume item ``n``, transform, publish, count."""

    def program(ctx: ProcessContext):
        produced = 0
        for item in range(1, items + 1):
            if stage == 0:
                value = item
            else:
                # Wait until the upstream stage published item `item`; the
                # value read afterwards belongs to that item or a newer one
                # (single writer + PRAM program-order visibility).
                while _as_count(ctx.read(counter_variable(stage - 1))) < item:
                    yield
                value = int(ctx.read(value_variable(stage - 1))) + 1
            ctx.write(value_variable(stage), value)
            ctx.write(counter_variable(stage), item)
            produced = value
            yield
        return produced

    return program


def pipeline_instance(stages: int = 3, items: int = 4) -> AppInstance:
    """The producer/consumer pipeline app with concrete parameters."""
    expected = pipeline_final_values(stages, items)  # validates the params
    programs = {stage: stage_program(stage, items) for stage in range(stages)}

    def validate(results: Dict[int, Any]) -> AppVerdict:
        missing = sorted(set(range(stages)) - set(results))
        if missing:
            return AppVerdict(
                correct=False, expected=expected, actual=dict(results),
                diagnosis=f"stages {missing} returned no value",
            )
        finals = {stage: int(results[stage]) for stage in range(stages)}
        wrong = sorted(s for s in range(stages) if finals[s] != expected[s])
        if wrong:
            return AppVerdict(
                correct=False, expected=expected, actual=finals,
                diagnosis="final values diverge at stages "
                          + ", ".join(f"{s} (got {finals[s]}, want "
                                      f"{expected[s]})" for s in wrong),
            )
        return AppVerdict(correct=True, expected=expected, actual=finals)

    return AppInstance(
        name="producer_consumer",
        distribution=pipeline_distribution(stages),
        programs=programs,
        validate=validate,
        details={"stages": stages, "items": items},
    )


@register_app(
    "producer_consumer",
    params=("stages", "items"),
    blocking_ok=False,
    variables_per_process="≤ 4: the stage's value/counter pair plus its "
                          "upstream neighbour's",
    description="flag-synchronised producer/consumer pipeline — the minimal "
                "application correct under PRAM (publish value, then "
                "advance counter)",
)
def producer_consumer_app(
    stages: int = 3,
    items: int = 4,
    seed: int = 0,
) -> AppInstance:
    """Registered app factory: deterministic pipeline (``seed`` unused)."""
    del seed  # the pipeline is fully deterministic
    return pipeline_instance(stages=stages, items=items)
