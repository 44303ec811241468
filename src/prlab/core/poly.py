"""Exact multivariate polynomials over the integers with named variables.

A variable is a parser name such as "x1" or any other sortable, hashable
key; prlab.omega's canonical forms use (atom, depth) pairs.

Coefficients are arbitrary-precision ints.  A polynomial is kept in normal
reduced form: no duplicate exponent vectors, no zero coefficients.  Monomials
remember the order in which they first appeared; printing and the linear
reduct rely on that order, while equality ignores it.
"""

from __future__ import annotations

import re
from operator import index
from typing import NamedTuple

# exponent vector: ((var, exp), ...) sorted by variable, exp >= 1; a var is a
# parser name or any sortable, hashable key such as omega's (atom, depth)
MonomialKey = tuple[tuple[object, int], ...]

_VAR_RE = re.compile(r"[a-z][a-z0-9_]*")


class Poly:
    """Integer polynomial in named variables.

    Treat instances as immutable: all arithmetic returns fresh objects.
    """

    __slots__ = ("monomials", "constant")

    def __init__(self, monomials=None, constant: int = 0):
        self.monomials: dict[MonomialKey, int] = {}
        self.constant = index(constant)
        if monomials:
            items = monomials.items() if isinstance(monomials, dict) else monomials
            for key, coeff in items:
                self._add_key(key, index(coeff))

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def const(cls, n: int) -> "Poly":
        return cls(constant=n)

    @classmethod
    def variable(cls, name: str) -> "Poly":
        if not _VAR_RE.fullmatch(name):
            raise ValueError(f"invalid variable name {name!r}")
        return cls({((name, 1),): 1})

    def _add_key(self, key: MonomialKey, coeff: int) -> None:
        """Accumulate an int coeff onto the monomial key, keeping normal form."""
        if coeff == 0:
            return
        if not key:
            self.constant += coeff
            return
        cur = self.monomials.get(key, 0) + coeff
        if cur == 0:
            del self.monomials[key]
        else:
            self.monomials[key] = cur

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.monomials and self.constant == 0

    def variables(self) -> tuple[str, ...]:
        seen = set()
        for key in self.monomials:
            for v, _ in key:
                seen.add(v)
        return tuple(sorted(seen))

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "Poly":
        out = Poly(constant=-self.constant)
        out.monomials = {k: -c for k, c in self.monomials.items()}  # still normal
        return out

    def __add__(self, other) -> "Poly":
        other = _coerce(other)
        out = Poly(constant=self.constant + other.constant)
        out.monomials = dict(self.monomials)  # already in normal form
        for k, c in other.monomials.items():
            out._add_key(k, c)
        return out

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "Poly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "Poly":
        other = _coerce(other)
        out = Poly()
        right = [*other.monomials.items(), ((), other.constant)]
        for k1, c1 in [*self.monomials.items(), ((), self.constant)]:
            if c1 == 0:
                continue
            for k2, c2 in right:
                if c2 == 0:
                    continue
                out._add_key(_merge_keys(k1, k2), c1 * c2)
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power")
        out = Poly.const(1)
        for _ in range(n):
            out = out * self
        return out

    def substitute(self, mapping: dict[str, "Poly"]) -> "Poly":
        """Replace variables by polynomials; unmapped variables stay."""
        out = Poly.const(self.constant)
        for key, coeff in self.monomials.items():
            term = Poly.const(coeff)
            for v, e in key:
                base = mapping.get(v)
                if base is None:
                    base = Poly.variable(v)
                term = term * base ** e
            out = out + term
        return out

    def evaluate(self, assignment: dict[str, int]) -> int:
        """Exact integer value; every variable must be assigned."""
        total = self.constant
        for key, coeff in self.monomials.items():
            term = coeff
            for v, e in key:
                if v not in assignment:
                    raise ValueError(f"missing value for variable {v!r}")
                term *= assignment[v] ** e
            total += term
        return total

    # -- equality / printing ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.constant == other.constant and self.monomials == other.monomials

    def __hash__(self):
        return hash((frozenset(self.monomials.items()), self.constant))

    def __str__(self) -> str:
        parts: list[tuple[str, str]] = []
        for key, coeff in self.monomials.items():
            frag = "*".join(v if e == 1 else f"{v}^{e}" for v, e in key)
            if abs(coeff) != 1:
                frag = f"{abs(coeff)}*{frag}"
            parts.append(("-" if coeff < 0 else "+", frag))
        if self.constant != 0:
            parts.append(("-" if self.constant < 0 else "+", str(abs(self.constant))))
        if not parts:
            return "0"
        sign, frag = parts[0]
        out = ("-" if sign == "-" else "") + frag
        for sign, frag in parts[1:]:
            out += sign + frag
        return out

    def __repr__(self) -> str:
        return f"Poly({self})"


def _coerce(x) -> Poly:
    if isinstance(x, Poly):
        return x
    if isinstance(x, int):
        return Poly.const(x)
    raise TypeError(f"cannot mix Poly with {type(x).__name__}")


def _merge_keys(k1: MonomialKey, k2: MonomialKey) -> MonomialKey:
    if not k1:
        return k2
    if not k2:
        return k1
    powers: dict[str, int] = {}
    for v, e in k1 + k2:
        powers[v] = powers.get(v, 0) + e
    return tuple(sorted(powers.items()))


class PolyProps(NamedTuple):
    degree: int
    partial_degrees: dict[str, int]
    max_partial_degree: int
    is_homogeneous: bool


def poly_props(P: Poly) -> PolyProps:
    """Degree data for a nonzero polynomial (the zero polynomial is rejected)."""
    if P.is_zero():
        raise ValueError("zero polynomial")
    partial: dict[str, int] = {}
    totals = []
    for key, _ in P.monomials.items():
        totals.append(sum(e for _, e in key))
        for v, e in key:
            partial[v] = max(partial.get(v, 0), e)
    if P.constant != 0:
        totals.append(0)
    degree = max(totals)
    return PolyProps(
        degree=degree,
        partial_degrees=partial,
        max_partial_degree=max(partial.values()) if partial else 0,
        is_homogeneous=len(set(totals)) == 1,
    )


def linear_coefficients(P: Poly) -> tuple[int, ...] | None:
    """The coefficients of P's variables, in P.variables() order, when P has
    degree 1, else None; P is homogeneous when also P.constant == 0.  The
    zero polynomial is rejected, as by poly_props."""
    if P.is_zero():
        raise ValueError("zero polynomial")
    if not P.monomials or any(len(key) > 1 or key[0][1] > 1 for key in P.monomials):
        return None
    return tuple(c for _, c in sorted(P.monomials.items()))


# -- reading expressions ---------------------------------------------------
#
# Both expression grammars, polynomials below and star terms in prlab.omega,
# read their text through one Cursor and report a syntax error as one
# ParseError.  A grammar's token pattern names each token class by a group
# ("int" values become ints) and ends in the catch-all group "bad", so one
# finditer pass meets every non-space character.


class ParseError(ValueError):
    """Syntax error in input text, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


SPACE = " \t\n\r\f\v"  # ASCII whitespace
_NATURAL_RE = re.compile(r"\s*([0-9]*)\s*", re.ASCII)
_INTEGER_RE = re.compile(r"\s*([+-]?[0-9]*)\s*", re.ASCII)


def read_int(text: str, position: int = 0, where: str = "", signed: bool = False) -> int:
    """The one rule for an integer in any text prlab reads: ASCII digits with
    ASCII whitespace around them, after one + or - when signed.  text starts
    at position of its input and fills the place named by where; anything
    else, or more digits than int() converts, is a ParseError there."""
    at = f" in {where}" if where else ""
    m = (_INTEGER_RE if signed else _NATURAL_RE).match(text)
    if m.end() < len(text):
        raise ParseError(f"unexpected character {text[m.end()]!r}{at}", position + m.end())
    if not m.group(1).lstrip("+-"):
        raise ParseError(f"expected {'an integer' if signed else 'a natural number'}{at}",
                         position + m.end(1))
    try:
        return int(m.group(1))
    except ValueError:
        raise ParseError(f"integer literal too long{at}", position + m.start(1)) from None


def read_items(text: str, sep: str | None = ",", position: int = 0) -> list[tuple[str, int]]:
    """The one splitter of outside text: each item of text, stripped of the
    ASCII whitespace around it, with the position where it stands (text
    starts at position of its input).  Items are split at every sep, or at
    runs of ASCII whitespace when sep is None; no item is dropped, so an empty
    item stands between its separators.  Blank text has no items."""
    if not text.strip(SPACE):
        return []
    pattern = r"\S+" if sep is None else "(?<![^{0}])[^{0}]*".format(re.escape(sep))
    return [(m[0].strip(SPACE), position + m.end() - len(m[0].lstrip(SPACE)))
            for m in re.finditer(pattern, text, re.ASCII)]


def read_ints(text: str, position: int = 0, where: str = "", signed: bool = False,
              sep: str | None = ",") -> list[int]:
    """The integers of text's items (read_items), each read by read_int where
    it stands, so an empty item is a ParseError."""
    return [read_int(item, at, where, signed) for item, at in read_items(text, sep, position)]


class Cursor:
    """The (kind, value, position) tokens of a text that starts at position
    of its input, read front to back and closed by ("end", None, its end)."""

    def __init__(self, pattern: re.Pattern, text: str, position: int = 0):
        if text is None or not text.strip(SPACE):
            raise ParseError("empty input", position)
        self.tokens = []
        for m in pattern.finditer(text):
            kind = m.lastgroup
            pos = position + m.start(kind)
            if kind == "bad":
                raise ParseError(f"unexpected character {m[kind]!r}", pos)
            self.tokens.append((kind, read_int(m[kind], pos) if kind == "int" else m[kind], pos))
        self.tokens.append(("end", None, position + len(text)))
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        self.i += 1
        return self.tokens[self.i - 1]

    def expect(self, sym: str) -> None:
        if self.peek()[:2] != ("sym", sym):
            self.fail(f"expected {sym!r}")
        self.i += 1

    def fail(self, message: str, position: int | None = None):
        """Raise a ParseError at position, by default the next token's."""
        raise ParseError(message, self.peek()[2] if position is None else position)


# expr   := ('+'|'-')? term (('+'|'-') term)*
# term   := integer | integer '*' factor ('*' factor)* | factor ('*' factor)*
# factor := var ('^' posint)?
#
# Integers are ASCII digits; no implicit multiplication; ASCII whitespace is
# ignored.

_POLY_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<var>[a-z][a-z0-9_]*)|(?P<sym>[+\-*^])|(?P<bad>\S))", re.ASCII)


def parse_poly(text: str) -> Poly:
    """Parse an expression string into normal reduced form."""
    cur = Cursor(_POLY_TOKEN_RE, text)
    items = []
    sign = cur.take()[1] if cur.peek()[1] in ("+", "-") else "+"
    while True:
        coeff, powers = _poly_term(cur)
        items.append((tuple(sorted(powers.items())), -coeff if sign == "-" else coeff))
        kind, sign, _ = cur.peek()
        if kind == "end":
            return Poly(items)
        if sign not in ("+", "-"):
            cur.fail(f"expected '+' or '-', got {sign!r}")
        cur.take()


def _poly_term(cur: Cursor) -> tuple[int, dict[str, int]]:
    kind, coeff, _ = cur.peek()
    if kind == "int":
        cur.take()
        if cur.peek()[1] != "*":
            return coeff, {}
        cur.take()
    elif kind == "var":
        coeff = 1
    else:
        cur.fail("expected term")
    powers: dict[str, int] = {}
    while True:  # one factor per pass
        kind, var, _ = cur.peek()
        if kind != "var":
            cur.fail("expected variable")
        cur.take()
        exp = 1
        if cur.peek()[1] == "^":
            cur.take()
            kind, exp, _ = cur.peek()
            if kind != "int":
                cur.fail("expected integer exponent")
            if exp <= 0:
                cur.fail("exponent must be >= 1")
            cur.take()
        powers[var] = powers.get(var, 0) + exp
        if cur.peek()[1] != "*":
            return coeff, powers
        cur.take()
