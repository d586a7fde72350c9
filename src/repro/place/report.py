"""Placement reports: what a placement *costs* and whether a run agrees.

A :class:`PlacementReport` documents an optimizer result per variable —
clique size, exact relevant-set size, hoop-process count and (for variables
that still have hoops) a concrete hoop witness path — together with the
paper-model predicted overhead and, when :func:`measure_overhead` has run the
placement through a real protocol, the measured control-information numbers
from :mod:`repro.mcs.metrics`.  Reports serialise to JSON (``repro place``
writes them) and render as the plain-text tables the CLI prints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..core.distribution import VariableDistribution
from ..core.share_graph import ShareGraph
from ..exceptions import ScenarioSpecError
from .objectives import predicted_overhead
from .optimizer import PlacementResult
from .profile import AccessProfile

#: Bound on witness enumeration so reports stay cheap on dense graphs.
WITNESS_MAX_LENGTH = 6


@dataclass
class VariablePlacement:
    """Per-variable row of a placement report."""

    variable: str
    clique: Tuple[int, ...]
    relevant: Tuple[int, ...]
    hoop_process_count: int
    hoop_witness: Optional[Tuple[int, ...]]  #: one x-hoop path, if any remain

    def as_row(self) -> Dict[str, object]:
        witness = (
            "-" if self.hoop_witness is None
            else "-".join(f"p{p}" for p in self.hoop_witness)
        )
        return {
            "variable": self.variable,
            "clique": len(self.clique),
            "relevant": len(self.relevant),
            "hoop_procs": self.hoop_process_count,
            "witness": witness,
        }


@dataclass
class PlacementReport:
    """The optimizer's output, exactly characterised and (optionally) measured."""

    objective: str
    mode: str
    seed: int
    cost: float
    minimal_cost: float
    full_cost: float
    evaluations: int
    added: Tuple[Tuple[str, int], ...]
    holders: Dict[str, Tuple[int, ...]]        #: variable -> replica holders
    processes: Tuple[int, ...]
    rows: List[VariablePlacement] = field(default_factory=list)
    predicted: Dict[str, float] = field(default_factory=dict)
    measured: Optional[Dict[str, float]] = None

    # -- JSON round-trip -------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return {
            "objective": self.objective,
            "mode": self.mode,
            "seed": self.seed,
            "cost": self.cost,
            "minimal_cost": self.minimal_cost,
            "full_cost": self.full_cost,
            "evaluations": self.evaluations,
            "added": [[var, pid] for var, pid in self.added],
            "holders": {var: list(pids) for var, pids in sorted(self.holders.items())},
            "processes": list(self.processes),
            "variables": [
                {
                    "variable": row.variable,
                    "clique": list(row.clique),
                    "relevant": list(row.relevant),
                    "hoop_process_count": row.hoop_process_count,
                    "hoop_witness": (
                        None if row.hoop_witness is None else list(row.hoop_witness)
                    ),
                }
                for row in self.rows
            ],
            "predicted": dict(self.predicted),
            "measured": None if self.measured is None else dict(self.measured),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "PlacementReport":
        try:
            rows = [
                VariablePlacement(
                    variable=str(entry["variable"]),
                    clique=tuple(int(p) for p in entry["clique"]),
                    relevant=tuple(int(p) for p in entry["relevant"]),
                    hoop_process_count=int(entry["hoop_process_count"]),
                    hoop_witness=(
                        None if entry.get("hoop_witness") is None
                        else tuple(int(p) for p in entry["hoop_witness"])
                    ),
                )
                for entry in data.get("variables", [])
            ]
            return cls(
                objective=str(data["objective"]),
                mode=str(data["mode"]),
                seed=int(data["seed"]),
                cost=float(data["cost"]),
                minimal_cost=float(data["minimal_cost"]),
                full_cost=float(data["full_cost"]),
                evaluations=int(data["evaluations"]),
                added=tuple((str(v), int(p)) for v, p in data.get("added", [])),
                holders={
                    str(var): tuple(int(p) for p in pids)
                    for var, pids in data.get("holders", {}).items()
                },
                processes=tuple(int(p) for p in data.get("processes", [])),
                rows=rows,
                predicted={str(k): float(v)
                           for k, v in data.get("predicted", {}).items()},
                measured=(
                    None if data.get("measured") is None
                    else {str(k): float(v) for k, v in data["measured"].items()}
                ),
            )
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ScenarioSpecError(f"malformed placement report: {exc}") from exc

    def distribution(self) -> VariableDistribution:
        """Rebuild the placed distribution (report JSON -> live object)."""
        return VariableDistribution.from_holders(
            {var: list(pids) for var, pids in self.holders.items()},
            processes=self.processes,
        )

    # -- rendering -------------------------------------------------------------
    def render(self, max_rows: int = 20) -> str:
        """Plain-text digest (the ``repro place report`` output)."""
        lines = [
            f"objective           : {self.objective} ({self.mode}, seed {self.seed})",
            f"cost                : {self.cost:g}  "
            f"(minimal {self.minimal_cost:g}, full {self.full_cost:g})",
            f"replicas added      : {len(self.added)}  "
            f"over {len(self.processes)} processes, {len(self.holders)} variables",
            f"evaluations         : {self.evaluations}",
        ]
        for key in sorted(self.predicted):
            lines.append(f"predicted {key:<10}: {self.predicted[key]:g}")
        if self.measured:
            for key in sorted(self.measured):
                lines.append(f"measured  {key:<10}: {self.measured[key]:g}")
        hooped = [row for row in self.rows if row.hoop_process_count]
        lines.append(
            f"variables with hoops: {len(hooped)}/{len(self.rows)}"
        )
        shown = hooped[:max_rows] or self.rows[:max_rows]
        if shown:
            header = list(shown[0].as_row())
            lines.append("  ".join(f"{h:>10}" for h in header))
            for row in shown:
                values = row.as_row()
                lines.append("  ".join(f"{str(values[h]):>10}" for h in header))
            hidden = max(len(hooped or self.rows) - max_rows, 0)
            if hidden:
                lines.append(f"... {hidden} more variables")
        return "\n".join(lines)


def build_report(
    result: PlacementResult,
    profile: AccessProfile,
    measured: Optional[Dict[str, float]] = None,
) -> PlacementReport:
    """Characterise ``result`` exactly (Theorem 1 sets, hoop witnesses)."""
    distribution = result.distribution
    share = ShareGraph.of(distribution)
    rows: List[VariablePlacement] = []
    for var in distribution.variables:
        hoops = share.hoop_processes(var)
        witness = None
        if hoops:
            for hoop in share.hoops(var, max_length=WITNESS_MAX_LENGTH,
                                    max_hoops=1):
                witness = hoop.path
        rows.append(VariablePlacement(
            variable=var,
            clique=tuple(sorted(share.clique(var))),
            relevant=tuple(sorted(share.relevant_processes(var))),
            hoop_process_count=len(hoops),
            hoop_witness=witness,
        ))
    return PlacementReport(
        objective=result.objective,
        mode=result.mode,
        seed=result.seed,
        cost=result.cost,
        minimal_cost=result.minimal_cost,
        full_cost=result.full_cost,
        evaluations=result.evaluations,
        added=result.added,
        holders={var: tuple(sorted(distribution.holders(var)))
                 for var in distribution.variables},
        processes=distribution.processes,
        rows=rows,
        predicted=predicted_overhead(distribution, profile),
        measured=measured,
    )


def measure_overhead(
    distribution: VariableDistribution,
    protocol: str = "causal_tree",
    workload: Any = None,
    *,
    seed: int = 0,
    exact: bool = False,
) -> Dict[str, float]:
    """Run ``distribution`` through a real protocol and report what it cost.

    Returns the measured counterpart of :func:`predicted_overhead`:
    ``messages``, ``control_bytes``, ``control_bytes_per_message``,
    ``irrelevant_messages`` and a 0/1 ``consistent`` flag, straight from the
    run's :class:`~repro.mcs.metrics.EfficiencyReport`.
    """
    from ..api.session import Session

    if workload is None:
        workload = ("uniform", {"operations_per_process": 3,
                                "write_fraction": 0.5})
    session = Session(protocol, distribution, workload, seed=seed, exact=exact)
    report = session.run()
    eff = report.efficiency
    measured: Dict[str, float] = {
        "consistent": 1.0 if report.outcome() == "pass" else 0.0,
        "operations": float(report.operations_executed),
    }
    if eff is not None:
        measured.update(
            messages=float(eff.messages_sent),
            control_bytes=float(eff.control_bytes),
            control_bytes_per_message=float(eff.control_bytes_per_message),
            irrelevant_messages=float(eff.irrelevant_messages),
        )
    return measured
