"""Total colorings of an integer interval with colors 1..r."""

from __future__ import annotations

from operator import index

from .poly import read_ints


class Coloring:
    __slots__ = ("lo", "hi", "_colors", "_classes")

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
