"""Export experiment rows to CSV for downstream plotting.

Every ``run_*`` driver returns dataclass rows; these helpers flatten
them generically so new experiments export without bespoke code.
"""

from __future__ import annotations

import csv
import dataclasses
import io


def _flatten(row) -> dict:
    """Dataclass (or mapping) -> flat dict of scalar fields."""
    if dataclasses.is_dataclass(row) and not isinstance(row, type):
        raw = dataclasses.asdict(row)
    elif isinstance(row, dict):
        raw = dict(row)
    else:
        raise TypeError(f"cannot export row of type {type(row).__name__}")
    flat = {}
    for key, value in raw.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            flat[key] = value
        # Nested structures (full result objects) are dropped: exports
        # carry the scalar series the paper plots.
    return flat


def rows_to_csv(rows) -> str:
    """Render dataclass rows as CSV text (header + one line per row)."""
    flats = [_flatten(row) for row in rows]
    if not flats:
        return ""
    fieldnames = list(flats[0])
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    for flat in flats:
        writer.writerow({k: flat.get(k, "") for k in fieldnames})
    return buffer.getvalue()


def write_csv(path, rows) -> None:
    """Write rows to a CSV file."""
    with open(path, "w", newline="") as handle:
        handle.write(rows_to_csv(rows))
