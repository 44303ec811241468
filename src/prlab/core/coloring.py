"""Total colorings of an integer interval with colors 1..r."""

from __future__ import annotations

from collections import Counter
from itertools import chain
from operator import index, sub

from .poly import read_ints


def arithmetic_runs(values):
    """The ascending value list as arithmetic runs (first, d, count): d is 1
    when the list has no gaps (a range is one run), else the most common gap
    from a value to its next or second-next neighbour, and each value extends
    the run ending d below it."""
    if values[-1] - values[0] == len(values) - 1:  # no gaps
        return [(values[0], 1, len(values))]
    gaps = chain(map(sub, values[1:], values), map(sub, values[2:], values))
    d = Counter(gaps).most_common(1)[0][0]
    ends: dict[int, list[int]] = {}  # an open run's last value: [first, count]
    for x in values:
        ends[x] = run = ends.pop(x - d, None) or [x, 0]
        run[1] += 1
    return [(first, d, count) for first, count in ends.values()]


class Coloring:
    __slots__ = ("lo", "hi", "_colors", "_classes", "_runs")

    def __init__(self, lo: int, values):
        vals = tuple(map(index, values))
        if not vals:
            raise ValueError("coloring needs a nonempty domain")
        if any(v < 1 for v in vals):
            raise ValueError("colors are 1-based positive integers")
        self.lo = index(lo)
        self.hi = self.lo + len(vals) - 1
        self._colors = vals
        self._classes = None
        self._runs: dict[int, list] = {}

    @classmethod
    def from_text(cls, text: str, lo: int = 1) -> "Coloring":
        """Whitespace-separated 1-based color indices, the color of lo first."""
        colors = read_ints(text, where="the coloring", signed=True, sep=None)
        if not colors:
            raise ValueError("empty coloring text")
        return cls(lo, colors)

    def color(self, n: int) -> int:
        if not self.lo <= n <= self.hi:
            raise ValueError(f"{n} outside coloring domain [{self.lo}, {self.hi}]")
        return self._colors[n - self.lo]

    def values(self) -> tuple[int, ...]:
        return self._colors

    @property
    def classes(self) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """Each color with the ascending tuple of its points, in order of the
        colors' first appearance; computed on first use, then kept."""
        if self._classes is None:
            members: dict[int, list[int]] = {}
            for n, c in enumerate(self._colors, self.lo):
                members.setdefault(c, []).append(n)
            self._classes = tuple((c, tuple(ns)) for c, ns in members.items())
        return self._classes

    def runs(self, color: int):
        """The arithmetic_runs of the color's points; split on first use,
        then kept."""
        if color not in self._runs:
            self._runs[color] = arithmetic_runs(dict(self.classes)[color])
        return self._runs[color]

    def __eq__(self, other):
        if not isinstance(other, Coloring):
            return NotImplemented
        return (self.lo, self._colors) == (other.lo, other._colors)

    def __hash__(self):
        return hash((self.lo, self._colors))

    def __str__(self):
        return " ".join(str(c) for c in self._colors)

    def __repr__(self):
        return f"Coloring(lo={self.lo}, hi={self.hi}, r={max(self._colors)})"
