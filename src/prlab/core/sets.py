"""Finite and eventually periodic subsets of the naturals.

A FiniteSet is its sorted elements.  A PeriodicSet is (period p, residue
set, threshold t, prefix): membership for n >= t is n mod p in residues;
below t the explicit prefix decides, so a PeriodicSet with no residues is
finite too, though it stays a PeriodicSet.
"""

from __future__ import annotations

import re
from operator import index

from .poly import ParseError, read_int, read_ints, read_items


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


def _naturals(text: str, position: int, where: str) -> list[int]:
    """Comma-separated naturals, optionally inside one pair of braces around
    the whole list; text starts at position of its input."""
    m = re.fullmatch(r"\s*\{(.*)\}\s*", text, re.ASCII | re.DOTALL)
    return read_ints(m[1], position + m.start(1), where) if m else read_ints(text, position, where)


def parse_finite(text: str) -> FiniteSet:
    """Comma-separated naturals, optionally in braces; a blank string is the
    empty set."""
    return FiniteSet(_naturals(text, 0, "the set"))


class PeriodicSet:
    __slots__ = ("period", "residues", "threshold", "prefix")

    def __init__(self, period: int, residues, threshold: int = 0, prefix=()):
        period, threshold = index(period), index(threshold)
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


def parse_periodic(text: str) -> PeriodicSet:
    """Parse "p=<int>; residues={r1,...}; t=<int>; prefix={...}" (t/prefix
    optional).  Fields are split at ';', and a blank, malformed, unknown or
    repeated field is a ParseError where it stands."""
    fields: dict[str, object] = {}
    for item, at in read_items(text, ";"):
        m = re.fullmatch(r"([a-z]+)\s*=(.*)", item, re.ASCII | re.DOTALL)
        if m is None:
            raise ParseError(f"bad field {item!r} in periodic-set text", at)
        name, where = m[1], f"field {m[1]!r}"
        if name in fields or name not in ("p", "residues", "t", "prefix"):
            raise ParseError(f"{'repeated' if name in fields else 'unknown'} {where}", at)
        read = read_int if name in ("p", "t") else _naturals
        fields[name] = read(m[2], at + m.start(2), where)
    if "p" not in fields or "residues" not in fields:
        raise ValueError("periodic-set text needs at least p=... and residues={...}")
    return PeriodicSet(fields["p"], fields["residues"], fields.get("t", 0), fields.get("prefix", ()))
