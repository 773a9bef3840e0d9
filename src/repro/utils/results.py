"""Summary statistics and text-table rendering for experiment results.

Results themselves persist as registry run records
(:class:`repro.utils.store.RunStore`); these helpers reduce a cell's trials
and render rows as the plain-text tables every command prints.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["render_table", "mean", "std_error"]


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean, raising on empty input instead of returning NaN."""
    if not values:
        raise ValueError("mean of empty sequence")
    return sum(values) / len(values)


def std_error(values: Sequence[float]) -> float:
    """Standard error of the mean (0.0 for a single sample)."""
    if not values:
        raise ValueError("std_error of empty sequence")
    if len(values) == 1:
        return 0.0
    mu = mean(values)
    var = sum((v - mu) ** 2 for v in values) / (len(values) - 1)
    return math.sqrt(var / len(values))


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    float_format: str = "{:.3f}",
) -> str:
    """Render rows as a fixed-width text table.

    Numbers are formatted with ``float_format``; other values via ``str``.
    """
    formatted_rows: list[list[str]] = []
    for row in rows:
        formatted: list[str] = []
        for cell in row:
            if isinstance(cell, bool) or not isinstance(cell, (int, float)):
                formatted.append(str(cell))
            elif isinstance(cell, int):
                formatted.append(str(cell))
            else:
                formatted.append(float_format.format(cell))
        formatted_rows.append(formatted)

    widths = [len(h) for h in headers]
    for row in formatted_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells but table has {len(headers)} columns"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def fmt_line(cells: Sequence[str]) -> str:
        return "  ".join(cell.rjust(widths[i]) for i, cell in enumerate(cells))

    lines = [fmt_line(list(headers)), fmt_line(["-" * w for w in widths])]
    lines.extend(fmt_line(row) for row in formatted_rows)
    return "\n".join(lines)
