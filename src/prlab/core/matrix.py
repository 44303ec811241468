"""Rectangular integer matrices and their text format (one row per line)."""

from __future__ import annotations

from operator import index

from .poly import read_ints, read_items


class IntMatrix:
    __slots__ = ("entries",)

    def __init__(self, rows):
        entries = tuple(tuple(map(index, row)) for row in rows)
        if not entries or not entries[0]:
            raise ValueError("matrix must have at least one row and one column")
        width = len(entries[0])
        for row in entries:
            if len(row) != width:
                raise ValueError("ragged rows: matrix must be rectangular")
        self.entries = entries

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def apply(self, vector) -> tuple[int, ...]:
        """Matrix-vector product A·x with exact integers."""
        vector = tuple(vector)
        if len(vector) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(a * x for a, x in zip(row, vector)) for row in self.entries)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in row) for row in self.entries)

    def __repr__(self):
        return f"IntMatrix({self.entries!r})"


def parse_matrix(text: str) -> IntMatrix:
    """One row per line, entries separated by whitespace; blank lines are
    skipped."""
    rows = []
    for number, (line, at) in enumerate(read_items(text, "\n"), start=1):
        row = read_ints(line, at, f"line {number} of the matrix", signed=True, sep=None)
        if row:
            rows.append(row)
    if not rows:
        raise ValueError("empty matrix text")
    return IntMatrix(rows)
