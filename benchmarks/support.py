"""Shared table rendering for the benchmark gate scripts.

:class:`Row` and :func:`print_table` print a bench's human-readable
table; the measurements themselves are each script's own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class Row:
    """One row of a regenerated table."""

    label: str
    values: dict = field(default_factory=dict)

    def cell(self, key: str) -> str:
        value = self.values.get(key, "")
        if isinstance(value, float):
            return f"{value:.2f}"
        return str(value)


def print_table(title: str, columns: list[str], rows: Iterable[Row]) -> None:
    """Print a fixed-width table (the bench's human-readable artifact)."""
    rows = list(rows)
    widths = {column: max([len(column)]
                          + [len(row.cell(column)) for row in rows])
              for column in columns}
    label_width = max([5] + [len(row.label) for row in rows])
    print(f"\n=== {title} ===")
    header = " | ".join([" " * label_width]
                        + [column.rjust(widths[column])
                           for column in columns])
    print(header)
    print("-" * len(header))
    for row in rows:
        print(" | ".join([row.label.ljust(label_width)]
                         + [row.cell(column).rjust(widths[column])
                            for column in columns]))

