"""Integration tests for the additional oblivious computations (matrix product, Jacobi)."""

import numpy as np
import pytest

from repro.api import Session
from repro.apps.jacobi import jacobi_distribution, jacobi_instance
from repro.apps.matrix_product import (
    matrix_product_distribution,
    matrix_product_instance,
)


def run_matrix_product(a, b, workers):
    """``A @ B`` on ``workers`` DSM processes: the report and the stacked product."""
    report = Session(app=matrix_product_instance(a, b, workers=workers),
                     check=False).run()
    blocks = [np.array(report.app_results[pid], dtype=float)
              for pid in sorted(report.app_results)]
    return report, np.vstack(blocks)


def run_jacobi(a, b, workers, iterations):
    """A distributed Jacobi solve: the report and the residual of its solution."""
    instance = jacobi_instance(a, b, workers=workers, iterations=iterations)
    report = Session(app=instance, check=False).run()
    solution = np.concatenate([np.array(report.app_results[pid])
                               for pid in sorted(report.app_results)])
    a, b = instance.details["a"], instance.details["b"]
    return report, float(np.linalg.norm(a @ solution - b, ord=np.inf))


class TestMatrixProduct:
    def test_distribution_is_partial(self):
        dist = matrix_product_distribution(workers=3)
        assert dist.variables_of(1) == frozenset({"A1", "C1", "B"})
        assert not dist.is_fully_replicated()
        assert dist.holders("B") == frozenset({0, 1, 2})

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_product_matches_numpy(self, workers):
        rng = np.random.default_rng(42)
        a = rng.normal(size=(6, 4))
        b = rng.normal(size=(4, 5))
        report, product = run_matrix_product(a, b, workers=workers)
        assert report.app_correct is True
        assert np.allclose(product, a @ b)
        assert np.allclose(report.app_expected, a @ b)

    def test_uneven_row_split(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(7, 3))
        b = rng.normal(size=(3, 2))
        report, product = run_matrix_product(a, b, workers=3)
        assert report.app_correct is True
        assert product.shape == (7, 2)

    def test_incompatible_shapes_rejected(self):
        with pytest.raises(ValueError):
            matrix_product_instance(np.eye(3), np.ones((4, 2)))

    def test_no_irrelevant_messages_under_pram(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 3))
        report, _ = run_matrix_product(a, b, workers=2)
        assert report.efficiency.irrelevant_messages == 0


class TestJacobi:
    @staticmethod
    def _system(n, seed=0):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(n, n))
        a += np.diag(np.abs(a).sum(axis=1) + 1.0)  # strictly diagonally dominant
        b = rng.normal(size=n)
        return a, b

    def test_distribution_shape(self):
        dist = jacobi_distribution(workers=3)
        assert len(dist.variables) == 6
        assert dist.is_fully_replicated()

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_solution_converges_to_numpy_solve(self, workers):
        a, b = self._system(6)
        report, residual = run_jacobi(a, b, workers=workers, iterations=60)
        assert report.app_correct is True, residual
        assert residual < 1e-5

    def test_rejects_non_dominant_matrix(self):
        a = np.array([[1.0, 5.0], [5.0, 1.0]])
        b = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            jacobi_instance(a, b)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            jacobi_instance(np.ones((2, 3)), np.ones(2))
