"""Plain-text table formatting for the experiment drivers.

Every experiment prints the same rows/series the paper reports; these
helpers render them as aligned ASCII tables.
"""

from __future__ import annotations


def format_table(headers, rows, title=None) -> str:
    """Render ``rows`` (sequences of cells) under ``headers``.

    Cells are stringified; numeric cells are right-aligned, text cells
    left-aligned.
    """
    headers = [str(h) for h in headers]
    printable = [[_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in printable:
        for index, cell in enumerate(row):
            if index >= len(widths):
                widths.append(len(cell))
            else:
                widths[index] = max(widths[index], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row, raw in zip(printable, rows):
        cells = []
        for index, cell in enumerate(row):
            width = widths[index]
            if isinstance(raw[index], (int, float)) and not isinstance(
                    raw[index], bool):
                cells.append(cell.rjust(width))
            else:
                cells.append(cell.ljust(width))
        lines.append("  ".join(cells))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def format_percent(value: float, digits: int = 0) -> str:
    """``0.37 -> '37%'``."""
    return f"{value * 100:.{digits}f}%"


def format_ipc(value: float) -> str:
    return f"{value:.2f}"
