"""Applications running on the distributed shared memory (paper, Section 6).

Importing this package registers the four built-in application factories
(``bellman_ford``, ``jacobi``, ``matrix_product``, ``producer_consumer``) on
:data:`repro.spec.APP_REGISTRY`; the registry lazily imports us on first
lookup, so naming an app in a :class:`~repro.spec.ScenarioSpec`,
``Session(app=...)`` or ``repro run --app`` is enough.
"""

from .bellman_ford import (
    bellman_ford_distribution,
    bellman_ford_instance,
    distance_variable,
    minimum_path_program,
    round_variable,
)
from .jacobi import jacobi_distribution, jacobi_instance
from .matrix_product import matrix_product_distribution, matrix_product_instance
from .pipeline import pipeline_distribution, pipeline_instance
from .reference import (
    bellman_ford,
    bellman_ford_steps,
    dijkstra,
    linear_system_solution,
    matrix_product,
    pipeline_final_values,
    shortest_path_tree,
)

__all__ = [
    "bellman_ford",
    "bellman_ford_distribution",
    "bellman_ford_instance",
    "bellman_ford_steps",
    "dijkstra",
    "distance_variable",
    "jacobi_distribution",
    "jacobi_instance",
    "linear_system_solution",
    "matrix_product",
    "matrix_product_distribution",
    "matrix_product_instance",
    "minimum_path_program",
    "pipeline_distribution",
    "pipeline_final_values",
    "pipeline_instance",
    "round_variable",
    "shortest_path_tree",
]
