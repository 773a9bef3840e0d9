"""Minimal ASCII line plots for terminal-only environments.

The experiment tables and examples run without matplotlib (and often over
ssh), so the figure-shaped results are easier to eyeball as a quick ASCII
chart next to the exact numeric table.  This is intentionally tiny: multiple
named series over a shared x axis, rendered onto a character grid.
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = ["ascii_plot"]

_MARKERS = "*o+x#@%&"


def ascii_plot(
    x_values: Sequence[float],
    series: Mapping[str, Sequence[float]],
    width: int = 64,
    height: int = 18,
    x_label: str = "x",
    y_label: str = "y",
    connect: bool = False,
) -> str:
    """Render one or more series as an ASCII chart.

    Parameters
    ----------
    x_values:
        Shared x coordinates (need not be uniformly spaced).
    series:
        Mapping from series name to y values (same length as ``x_values``).
    width, height:
        Plot area size in characters (excluding axes and labels).
    connect:
        Also draw interpolated line segments between a series' consecutive
        points (with the series' own marker), so sparse multi-series charts
        — one curve per scheduler, say — read as curves rather than
        scattered dots.  Segments never overwrite an occupied cell; the
        exact data points are drawn last and always win.
    """
    if width < 8 or height < 4:
        raise ValueError("plot area must be at least 8x4 characters")
    if not series:
        raise ValueError("at least one series is required")
    x_list = [float(x) for x in x_values]
    if len(x_list) < 2:
        raise ValueError("at least two x values are required")
    for name, y_values in series.items():
        if len(y_values) != len(x_list):
            raise ValueError(
                f"series {name!r} has {len(y_values)} values but there are "
                f"{len(x_list)} x values"
            )

    all_y = [float(y) for ys in series.values() for y in ys]
    y_min, y_max = min(all_y), max(all_y)
    if y_max == y_min:
        y_max = y_min + 1.0
    x_min, x_max = min(x_list), max(x_list)
    if x_max == x_min:
        x_max = x_min + 1.0

    grid = [[" "] * width for _ in range(height)]

    def to_column(x: float) -> int:
        return int(round((x - x_min) / (x_max - x_min) * (width - 1)))

    def to_row(y: float) -> int:
        return int(round((1.0 - (y - y_min) / (y_max - y_min)) * (height - 1)))

    for index, (name, y_values) in enumerate(series.items()):
        marker = _MARKERS[index % len(_MARKERS)]
        points = [
            (to_column(x), to_row(float(y))) for x, y in zip(x_list, y_values)
        ]
        if connect:
            for (c0, r0), (c1, r1) in zip(points, points[1:]):
                if c1 < c0:
                    c0, r0, c1, r1 = c1, r1, c0, r0
                span = c1 - c0
                for column in range(c0, c1 + 1):
                    t = 0.0 if span == 0 else (column - c0) / span
                    row = int(round(r0 + t * (r1 - r0)))
                    if grid[row][column] == " ":
                        grid[row][column] = marker
        for column, row in points:
            grid[row][column] = marker

    lines = []
    for row_index, row in enumerate(grid):
        if row_index == 0:
            label = f"{y_max:8.2f} |"
        elif row_index == height - 1:
            label = f"{y_min:8.2f} |"
        else:
            label = " " * 9 + "|"
        lines.append(label + "".join(row))
    lines.append(" " * 9 + "+" + "-" * width)
    lines.append(
        " " * 10 + f"{x_min:<10.1f}" + " " * max(0, width - 20) + f"{x_max:>10.1f}  ({x_label})"
    )
    legend = "   ".join(
        f"{_MARKERS[i % len(_MARKERS)]} {name}" for i, name in enumerate(series)
    )
    lines.append(f"  {y_label}:  {legend}")
    return "\n".join(lines)
