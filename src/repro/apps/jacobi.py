"""Asynchronous Jacobi iteration on a PRAM / slow shared memory.

The paper (Section 5) recalls Sinha's observation [16] that *totally
asynchronous iterative methods to find fixed points converge even on slow
memories*, which are weaker than PRAM.  The classic representative is the
Jacobi iteration for a (strictly diagonally dominant) linear system
``A·x = b``: each process repeatedly recomputes its block of unknowns from the
latest values it can see of the other blocks, with no synchronisation beyond a
round counter used for termination.

Every shared variable again has a single writer (a process' own block and its
round counter), so the computation runs correctly over the partial-replication
PRAM protocol; results are validated against the centralised
:func:`repro.apps.reference.linear_system_solution` ground truth.  The
registered ``jacobi`` app factory generates a seeded diagonally dominant
system, so the whole computation is addressable from a JSON
:class:`~repro.spec.ScenarioSpec`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

from ..core.distribution import VariableDistribution
from ..core.operations import BOTTOM
from ..dsm.app import AppInstance, AppVerdict
from ..dsm.program import ProcessContext, ProgramFn
from ..spec.registry import register_app
from .reference import linear_system_solution

if TYPE_CHECKING:
    import numpy as np


def _block_indices(pid: int, unknowns: int, workers: int) -> range:
    base = unknowns // workers
    extra = unknowns % workers
    start = pid * base + min(pid, extra)
    count = base + (1 if pid < extra else 0)
    return range(start, start + count)


def jacobi_distribution(workers: int) -> VariableDistribution:
    """Every worker holds every block variable (all-to-all read pattern).

    Jacobi genuinely needs every block to compute every other block, so the
    distribution is complete for the block variables; the example illustrates
    that the PRAM protocol degrades gracefully to (useful) full replication
    when the application requires it.
    """
    variables = {f"xb{p}" for p in range(workers)} | {f"kb{p}" for p in range(workers)}
    return VariableDistribution({pid: set(variables) for pid in range(workers)})


def _vector_to_value(vector: np.ndarray) -> Tuple[float, ...]:
    import numpy as np

    return tuple(float(v) for v in np.atleast_1d(vector))


def jacobi_program(
    pid: int,
    a: np.ndarray,
    b: np.ndarray,
    workers: int,
    iterations: int,
) -> ProgramFn:
    """One worker of the asynchronous block-Jacobi iteration."""
    import numpy as np

    unknowns = a.shape[0]
    mine = _block_indices(pid, unknowns, workers)

    def program(ctx: ProcessContext):
        ctx.write(f"kb{pid}", 0)
        ctx.write(f"xb{pid}", _vector_to_value(np.zeros(len(mine))))
        for round_id in range(1, iterations + 1):
            # Loose barrier: wait until every block has completed the previous
            # round (single-writer counters, same argument as Bellman-Ford).
            while any(
                (lambda v: -1 if v is BOTTOM else v)(ctx.read(f"kb{other}")) < round_id - 1
                for other in range(workers)
                if other != pid
            ):
                yield
            current = np.zeros(unknowns)
            for other in range(workers):
                block = ctx.read(f"xb{other}")
                indices = _block_indices(other, unknowns, workers)
                if block is not BOTTOM:
                    current[indices.start:indices.stop] = np.array(block)
            new_block = np.empty(len(mine))
            for local, i in enumerate(mine):
                sigma = a[i, :] @ current - a[i, i] * current[i]
                new_block[local] = (b[i] - sigma) / a[i, i]
            ctx.write(f"xb{pid}", _vector_to_value(new_block))
            ctx.write(f"kb{pid}", round_id)
            yield
        return _vector_to_value(new_block)

    return program


def _check_jacobi_inputs(a: np.ndarray, b: np.ndarray) -> None:
    import numpy as np

    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] != b.shape[0]:
        raise ValueError("A must be square and compatible with b")
    diag = np.abs(np.diag(a))
    off = np.abs(a).sum(axis=1) - diag
    if not np.all(diag > off):
        raise ValueError("A must be strictly diagonally dominant for Jacobi to converge")


def jacobi_instance(
    a: np.ndarray,
    b: np.ndarray,
    workers: int = 4,
    iterations: int = 40,
    tolerance: float = 1e-6,
) -> AppInstance:
    """The distributed Jacobi app over a concrete system ``A·x = b``."""
    import numpy as np

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    _check_jacobi_inputs(a, b)
    workers = max(1, min(workers, a.shape[0]))
    distribution = jacobi_distribution(workers)
    programs = {
        pid: jacobi_program(pid, a, b, workers, iterations) for pid in range(workers)
    }
    expected = linear_system_solution(a, b)

    def validate(results: Dict[int, Any]) -> AppVerdict:
        missing = sorted(set(range(workers)) - set(results))
        if missing:
            return AppVerdict(
                correct=False, expected=expected, actual=dict(results),
                diagnosis=f"workers {missing} returned no block",
            )
        solution = np.concatenate(
            [np.array(results[pid]) for pid in range(workers)]
        )
        residual = float(np.linalg.norm(a @ solution - b, ord=np.inf))
        converged = bool(np.allclose(solution, expected,
                                     atol=max(tolerance, 1e-6) * 10))
        if not converged:
            return AppVerdict(
                correct=False, expected=expected, actual=solution,
                diagnosis=f"iteration did not converge to the direct "
                          f"solution (residual {residual:.3e})",
            )
        return AppVerdict(correct=True, expected=expected, actual=solution)

    return AppInstance(
        name="jacobi",
        distribution=distribution,
        programs=programs,
        validate=validate,
        details={"a": a, "b": b, "workers": workers,
                 "iterations": iterations, "tolerance": tolerance},
    )


@register_app(
    "jacobi",
    params=("unknowns", "workers", "iterations", "tolerance", "seed"),
    blocking_ok=False,
    variables_per_process="2·workers: every block xb_p plus its counter kb_p",
    description="asynchronous block-Jacobi solve of a seeded strictly "
                "diagonally dominant system (Section 5: iterative methods "
                "converge even on slow memories)",
)
def jacobi_app(
    unknowns: int = 6,
    workers: int = 3,
    iterations: int = 40,
    tolerance: float = 1e-6,
    seed: int = 0,
) -> AppInstance:
    """Registered app factory: Jacobi on a seeded diagonally dominant system."""
    import numpy as np

    rng = np.random.default_rng(seed)
    a = rng.normal(size=(unknowns, unknowns))
    a += np.diag(np.abs(a).sum(axis=1) + 1.0)  # strictly diagonally dominant
    b = rng.normal(size=unknowns)
    return jacobi_instance(a, b, workers=workers, iterations=iterations,
                           tolerance=tolerance)
