"""Plain-text table rendering for benchmark and example output.

The benchmarks print tables shaped like the paper's Table I and Table II; the
helpers here keep that formatting in one place (monospace columns, no external
dependencies) so every harness produces consistent, diff-able output.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.exceptions import ExperimentError

__all__ = ["format_table", "format_percentage"]


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = "") -> str:
    """Render a simple monospace table.

    Parameters
    ----------
    headers:
        Column headers.
    rows:
        Row cells; each row must have exactly ``len(headers)`` entries.
    title:
        Optional title printed above the table.
    """
    if not headers:
        raise ExperimentError("a table needs at least one column")
    str_rows = [[_stringify(cell) for cell in row] for row in rows]
    for row in str_rows:
        if len(row) != len(headers):
            raise ExperimentError(
                f"row {row} has {len(row)} cells but the table has {len(headers)} columns"
            )
    widths = [len(h) for h in headers]
    for row in str_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))

    def render_row(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[i]) for i, cell in enumerate(cells))

    lines = []
    if title:
        lines.append(title)
    lines.append(render_row(list(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    lines.extend(render_row(row) for row in str_rows)
    return "\n".join(lines)


def _stringify(cell: object) -> str:
    if isinstance(cell, float):
        return f"{cell:.2f}"
    return str(cell)


def format_percentage(value: float) -> str:
    """Format a percentage the way Table II does (two decimals, % suffix)."""
    return f"{value:.2f}%"
