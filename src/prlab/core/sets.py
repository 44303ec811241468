"""Finite and eventually periodic subsets of the naturals.

A FiniteSet is its sorted elements.  A PeriodicSet is (period p, residue
set, threshold t, prefix): membership for n >= t is n mod p in residues;
below t the explicit prefix decides, so a PeriodicSet with no residues is
finite too, though it stays a PeriodicSet.
"""

from __future__ import annotations

import re
from operator import index

from .poly import SPACE, read_int, read_ints


class FiniteSet:
    __slots__ = ("elements", "_set")

    def __init__(self, elements=()):
        elems = sorted(set(map(index, elements)))
        if elems and elems[0] < 0:
            raise ValueError("elements must be naturals (>= 0)")
        self.elements = tuple(elems)
        self._set = frozenset(elems)

    def __contains__(self, x) -> bool:
        return x in self._set

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def __bool__(self):
        return bool(self.elements)

    def min(self) -> int:
        if not self.elements:
            raise ValueError("empty set")
        return self.elements[0]

    def max(self) -> int:
        if not self.elements:
            raise ValueError("empty set")
        return self.elements[-1]

    def total(self) -> int:
        return sum(self.elements)

    def __eq__(self, other):
        if not isinstance(other, FiniteSet):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self):
        return hash(self.elements)

    def __str__(self):
        return "{" + ",".join(str(x) for x in self.elements) + "}"

    def __repr__(self):
        return f"FiniteSet({list(self.elements)})"


def parse_finite(text: str) -> FiniteSet:
    """Comma-separated naturals, optionally in braces; a blank string is the
    empty set."""
    body = text.strip(SPACE)
    start = text.index(body)
    inner = body.strip("{}")
    return FiniteSet(read_ints(inner, start + body.index(inner), "the set"))


class PeriodicSet:
    __slots__ = ("period", "residues", "threshold", "prefix")

    def __init__(self, period: int, residues, threshold: int = 0, prefix=()):
        if period < 1:
            raise ValueError("period must be >= 1")
        if threshold < 0:
            raise ValueError("threshold must be >= 0")
        res = frozenset(map(index, residues))
        if any(not 0 <= r < period for r in res):
            raise ValueError("residues must lie in [0, period)")
        pre = frozenset(map(index, prefix))
        if any(not 0 <= x < threshold for x in pre):
            raise ValueError("prefix must lie in [0, threshold)")
        self.period = period
        self.residues = res
        self.threshold = threshold
        self.prefix = pre

    def membership(self, n: int) -> bool:
        if n < 0:
            return False
        if n < self.threshold:
            return n in self.prefix
        return (n % self.period) in self.residues

    __contains__ = membership

    def __eq__(self, other):
        if not isinstance(other, PeriodicSet):
            return NotImplemented
        return (self.period, self.residues, self.threshold, self.prefix) == (
            other.period,
            other.residues,
            other.threshold,
            other.prefix,
        )

    def __hash__(self):
        return hash((self.period, self.residues, self.threshold, self.prefix))

    def to_text(self) -> str:
        res = ",".join(str(r) for r in sorted(self.residues))
        pre = ",".join(str(x) for x in sorted(self.prefix))
        return f"p={self.period}; residues={{{res}}}; t={self.threshold}; prefix={{{pre}}}"

    __str__ = to_text

    def __repr__(self):
        return f"PeriodicSet({self.to_text()!r})"


_FIELD_RE = re.compile(r"\s*([a-z]+)\s*=\s*(\{[^}]*\}|[0-9]+)\s*$", re.ASCII)


def parse_periodic(text: str) -> PeriodicSet:
    """Parse "p=<int>; residues={r1,...}; t=<int>; prefix={...}" (t/prefix optional)."""
    fields: dict[str, tuple[str, int]] = {}  # name: (value, its position)
    start = 0
    for chunk in text.split(";"):
        if chunk.strip():
            m = _FIELD_RE.match(chunk)
            if m is None:
                raise ValueError(f"bad field {chunk.strip()!r} in periodic-set text")
            fields[m.group(1)] = (m.group(2), start + m.start(2))
        start += len(chunk) + 1
    if "p" not in fields or "residues" not in fields:
        raise ValueError("periodic-set text needs at least p=... and residues={...}")

    def number(name: str) -> int:
        raw, start = fields.get(name, ("0", 0))
        return read_int(raw, start, f"field {name!r}")

    def intset(name: str) -> set[int]:
        raw, start = fields.get(name, ("{}", 0))
        if raw.startswith("{"):
            raw, start = raw[1:-1], start + 1
        return set(read_ints(raw, start, f"field {name!r}"))

    return PeriodicSet(number("p"), intset("residues"), number("t"), intset("prefix"))
