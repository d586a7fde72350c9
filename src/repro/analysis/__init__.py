"""The paper-claims ledger (:mod:`~repro.analysis.figures`), the x-relevance
study it draws on, and the plain-text / markdown table renderers."""

from .figures import (
    STAGES,
    Claim,
    Expected,
    Reproduction,
    all_reproductions,
    claims,
    claims_markdown,
    exactly,
    figure1_distribution,
    figure2_distribution,
    figure4_history,
    figure5_distribution,
    figure5_history,
    figure6_distribution,
    figure6_history,
    reproduction_table,
)
from .relevance_study import (
    RelevancePoint,
    measure_distribution,
    relevance_sweep,
    relevance_table,
    structured_comparison,
)
from .report import markdown_table, render_mapping, render_records, render_table

__all__ = [
    "STAGES",
    "Claim",
    "Expected",
    "RelevancePoint",
    "Reproduction",
    "all_reproductions",
    "claims",
    "claims_markdown",
    "exactly",
    "figure1_distribution",
    "figure2_distribution",
    "figure4_history",
    "figure5_distribution",
    "figure5_history",
    "figure6_distribution",
    "figure6_history",
    "markdown_table",
    "measure_distribution",
    "relevance_sweep",
    "relevance_table",
    "render_mapping",
    "render_records",
    "render_table",
    "reproduction_table",
    "structured_comparison",
]
