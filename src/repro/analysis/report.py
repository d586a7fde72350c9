"""Plain-text table rendering for reports, examples and EXPERIMENTS.md.

The library has no plotting dependency; every experiment renders its result as
a monospace table (the same rows/series the paper's figures and discussion
describe); EXPERIMENTS.md records the markdown form of the claims ledger.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence


def render_table(
    rows: Sequence[Mapping[str, object]],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render a list of dict rows as an aligned plain-text table."""
    if not rows:
        return f"{title}\n(empty)" if title else "(empty)"
    if columns is None:
        columns = list(rows[0].keys())
        for row in rows[1:]:
            for key in row:
                if key not in columns:
                    columns.append(key)
    header = [str(c) for c in columns]
    table: List[List[str]] = [header]
    for row in rows:
        table.append([_fmt(row.get(col, "")) for col in columns])
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    lines.append("  ".join("-" * widths[i] for i in range(len(header))))
    for row_cells in table[1:]:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row_cells)))
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if value in (float("inf"), float("-inf")):
            return "inf" if value > 0 else "-inf"
        return f"{value:.3f}".rstrip("0").rstrip(".") if abs(value) < 1e6 else f"{value:.3e}"
    if isinstance(value, (tuple, list, set, frozenset)):
        return "[" + ", ".join(str(v) for v in sorted(value, key=str)) + "]"
    return str(value)


def render_records(
    records: Sequence[object],
    columns: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Render objects exposing ``as_row()`` as an aligned plain-text table.

    This is the bridge between the structured result records (experiment
    :class:`~repro.experiments.runner.ScenarioRecord`, ledger
    :class:`~repro.analysis.figures.Reproduction`) and the plain-text
    reports: anything with an ``as_row()`` method renders.
    """
    return render_table([record.as_row() for record in records],
                        columns=columns, title=title)


def render_mapping(mapping: Mapping[str, object], title: Optional[str] = None) -> str:
    """Render a flat mapping as ``key: value`` lines."""
    lines = [title] if title else []
    width = max((len(str(k)) for k in mapping), default=0)
    for key, value in mapping.items():
        lines.append(f"{str(key).ljust(width)} : {_fmt(value)}")
    return "\n".join(lines)


def markdown_table(rows: Sequence[Mapping[str, object]], columns: Optional[Sequence[str]] = None) -> str:
    """Render rows as a GitHub-flavoured markdown table (for EXPERIMENTS.md)."""
    if not rows:
        return "(empty)"
    if columns is None:
        columns = list(rows[0].keys())
    head = "| " + " | ".join(str(c) for c in columns) + " |"
    sep = "|" + "|".join(" --- " for _ in columns) + "|"
    body = [
        "| " + " | ".join(_fmt(row.get(col, "")) for col in columns) + " |" for row in rows
    ]
    return "\n".join([head, sep] + body)
