"""Plain-text and markdown table formatting for benchmark reports."""

from __future__ import annotations

import unicodedata
from typing import Dict, Iterable, List, Optional, Sequence, Union

Cell = Union[str, int, float, None]

#: What a missing / ``None`` cell renders as.
NONE_CELL = "-"


def _format_cell(value: Cell) -> str:
    if value is None:
        return NONE_CELL
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def display_width(text: str) -> int:
    """Terminal column width of ``text``.

    East-Asian wide and fullwidth characters occupy two terminal columns;
    combining marks occupy none.  Plain ``len`` would mis-align any table
    containing such cells (dataset labels, unicode minus signs, CJK notes).
    """
    width = 0
    for char in text:
        if unicodedata.combining(char):
            continue
        width += 2 if unicodedata.east_asian_width(char) in ("W", "F") else 1
    return width


def _pad(text: str, width: int) -> str:
    """Left-justify ``text`` to ``width`` terminal columns."""
    return text + " " * max(0, width - display_width(text))


def _grid(rows: Sequence[Dict[str, Cell]], columns: Optional[Sequence[str]]) -> List[List[str]]:
    if columns is None:
        columns = list(rows[0].keys())
    grid = [[str(c) for c in columns]]
    for row in rows:
        grid.append([_format_cell(row.get(c)) for c in columns])
    return grid


def format_table(
    rows: Sequence[Dict[str, Cell]], columns: Optional[Sequence[str]] = None, title: str = ""
) -> str:
    """Render ``rows`` (dicts) as an aligned text table.

    ``None`` (and missing) cells render as ``-``; column widths use
    terminal display width, so wide/fullwidth characters stay aligned.
    """
    if not rows:
        return f"{title}\n(no rows)" if title else "(no rows)"
    grid = _grid(rows, columns)
    widths = [max(display_width(line[i]) for line in grid) for i in range(len(grid[0]))]
    lines = []
    if title:
        lines.append(title)
    lines.append(" | ".join(_pad(cell, width) for cell, width in zip(grid[0], widths)))
    lines.append("-+-".join("-" * width for width in widths))
    for line in grid[1:]:
        lines.append(" | ".join(_pad(cell, width) for cell, width in zip(line, widths)))
    return "\n".join(lines)


def to_markdown(
    rows: Sequence[Dict[str, Cell]], columns: Optional[Sequence[str]] = None, title: str = ""
) -> str:
    """Render ``rows`` as a GitHub-flavoured markdown table.

    Used for the ``table.md`` rendered into every archived run; pipe
    characters inside cells are escaped so they cannot break the table.
    """
    heading = f"### {title}\n\n" if title else ""
    if not rows:
        return f"{heading}(no rows)"
    grid = _grid(rows, columns)
    escaped = [[cell.replace("|", "\\|") for cell in line] for line in grid]
    widths = [max(display_width(line[i]) for line in escaped) for i in range(len(escaped[0]))]
    lines = ["| " + " | ".join(_pad(c, w) for c, w in zip(escaped[0], widths)) + " |"]
    lines.append("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for line in escaped[1:]:
        lines.append("| " + " | ".join(_pad(c, w) for c, w in zip(line, widths)) + " |")
    return heading + "\n".join(lines)


def percent(value: float) -> float:
    """Convert a fraction to a percentage rounded to one decimal."""
    return round(100.0 * value, 1)


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; NaN for no values, so a claim over none fails."""
    values = list(values)
    return sum(values) / len(values) if values else float("nan")
