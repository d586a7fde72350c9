"""Distributed matrix product over PRAM shared memory.

Lipton & Sandberg's original PRAM report [13] — cited by the paper in
Section 5 — lists matrix product among the *oblivious computations* that run
correctly on a PRAM memory: the data movement does not depend on the data
values, and every shared variable has a single writer, so per-writer program
order is all the synchronisation the computation needs.

The implementation partitions the rows of ``A`` over the application
processes; process 0 additionally publishes ``B``.  Every process owns (and is
the only writer of) the variables holding its row block of ``A`` and of the
result ``C``; it replicates ``B`` and nothing else — another naturally partial
distribution.  Results are validated against the centralised
:func:`repro.apps.reference.matrix_product` ground truth; the registered
``matrix_product`` app factory generates seeded operand matrices, so the
computation is addressable from a JSON :class:`~repro.spec.ScenarioSpec`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Optional

from ..core.distribution import VariableDistribution
from ..core.operations import BOTTOM
from ..dsm.app import AppInstance, AppVerdict
from ..dsm.program import ProcessContext, ProgramFn
from ..spec.registry import register_app
from .reference import matrix_product as reference_matrix_product

if TYPE_CHECKING:
    import numpy as np


def _rows_of(process: int, rows: int, workers: int) -> range:
    """Contiguous block of row indices assigned to ``process``."""
    base = rows // workers
    extra = rows % workers
    start = process * base + min(process, extra)
    count = base + (1 if process < extra else 0)
    return range(start, start + count)


def matrix_product_distribution(workers: int) -> VariableDistribution:
    """Each worker holds its ``A``/``C`` blocks plus the shared ``B``."""
    per_process: Dict[int, set] = {}
    for pid in range(workers):
        per_process[pid] = {f"A{pid}", f"C{pid}", "B"}
    return VariableDistribution(per_process)


def _matrix_to_value(matrix: np.ndarray):
    """Encode a matrix block as a hashable nested tuple (shared-memory value)."""
    import numpy as np

    return tuple(tuple(float(x) for x in row) for row in np.atleast_2d(matrix))


def _value_to_matrix(value) -> np.ndarray:
    import numpy as np

    return np.array(value, dtype=float)


def worker_program(pid: int, a_block: np.ndarray, publishes_b: Optional[np.ndarray]) -> ProgramFn:
    """The program of one worker: publish blocks, wait for ``B``, multiply."""

    def program(ctx: ProcessContext):
        ctx.write(f"A{pid}", _matrix_to_value(a_block))
        if publishes_b is not None:
            ctx.write("B", _matrix_to_value(publishes_b))
        while ctx.read("B") is BOTTOM:
            yield
        b = _value_to_matrix(ctx.read("B"))
        block = _value_to_matrix(ctx.read(f"A{pid}")) @ b
        ctx.write(f"C{pid}", _matrix_to_value(block))
        return _matrix_to_value(block)

    return program


def matrix_product_instance(
    a: np.ndarray,
    b: np.ndarray,
    workers: int = 4,
) -> AppInstance:
    """The distributed matrix-product app over concrete operand matrices."""
    import numpy as np

    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError("incompatible matrix shapes")
    workers = max(1, min(workers, a.shape[0]))
    distribution = matrix_product_distribution(workers)
    programs: Dict[int, ProgramFn] = {}
    for pid in range(workers):
        rows = _rows_of(pid, a.shape[0], workers)
        block = a[rows.start:rows.stop, :]
        programs[pid] = worker_program(pid, block, b if pid == 0 else None)
    expected = reference_matrix_product(a, b)

    def validate(results: Dict[int, Any]) -> AppVerdict:
        missing = sorted(set(range(workers)) - set(results))
        if missing:
            return AppVerdict(
                correct=False, expected=expected, actual=dict(results),
                diagnosis=f"workers {missing} returned no block",
            )
        result = np.vstack([_value_to_matrix(results[pid])
                            for pid in range(workers)])
        if not np.allclose(result, expected):
            deviation = float(np.max(np.abs(result - expected)))
            return AppVerdict(
                correct=False, expected=expected, actual=result,
                diagnosis=f"product deviates from numpy.matmul by up to "
                          f"{deviation:.3e}",
            )
        return AppVerdict(correct=True, expected=expected, actual=result)

    return AppInstance(
        name="matrix_product",
        distribution=distribution,
        programs=programs,
        validate=validate,
        details={"a": a, "b": b, "workers": workers},
    )


@register_app(
    "matrix_product",
    params=("rows", "inner", "cols", "workers", "seed"),
    blocking_ok=False,
    variables_per_process="3: the worker's A/C row blocks plus the shared B",
    description="oblivious distributed matrix product over seeded operands "
                "(Section 5: Lipton & Sandberg's PRAM-correct computations)",
)
def matrix_product_app(
    rows: int = 6,
    inner: int = 4,
    cols: int = 5,
    workers: int = 3,
    seed: int = 0,
) -> AppInstance:
    """Registered app factory: ``A @ B`` over seeded normal matrices."""
    import numpy as np

    rng = np.random.default_rng(seed)
    a = rng.normal(size=(rows, inner))
    b = rng.normal(size=(inner, cols))
    return matrix_product_instance(a, b, workers=workers)
