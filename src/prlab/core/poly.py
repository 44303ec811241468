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
from dataclasses import dataclass

# exponent vector: ((var, exp), ...) sorted by variable, exp >= 1; a var is a
# parser name or any sortable, hashable key such as omega's (atom, depth)
MonomialKey = tuple[tuple[object, int], ...]

_VAR_RE = re.compile(r"[a-z][a-z0-9_]*")


class PolyParseError(ValueError):
    """Syntax error in a polynomial expression, with a 0-based position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


class Poly:
    """Integer polynomial in named variables.

    Treat instances as immutable: all arithmetic returns fresh objects.
    """

    __slots__ = ("monomials", "constant")

    def __init__(self, monomials=None, constant: int = 0):
        self.monomials: dict[MonomialKey, int] = {}
        self.constant = int(constant)
        if monomials:
            items = monomials.items() if isinstance(monomials, dict) else monomials
            for key, coeff in items:
                self._add_key(key, int(coeff))

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

    def _add_powers(self, powers: dict[str, int], coeff: int) -> None:
        key = tuple(sorted((v, e) for v, e in powers.items() if e))
        self._add_key(key, coeff)

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.monomials and self.constant == 0

    def variables(self) -> tuple[str, ...]:
        seen = set()
        for key in self.monomials:
            for v, _ in key:
                seen.add(v)
        return tuple(sorted(seen))

    def coefficients(self) -> tuple[int, ...]:
        """Monomial coefficients in stored (first-appearance) order."""
        return tuple(self.monomials.values())

    def monomial_items(self) -> tuple[tuple[MonomialKey, int], ...]:
        return tuple(self.monomials.items())

    # -- arithmetic --------------------------------------------------------

    def __neg__(self) -> "Poly":
        return Poly({k: -c for k, c in self.monomials.items()}, -self.constant)

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


@dataclass
class PolyProps:
    degree: int
    partial_degrees: dict[str, int]
    max_partial_degree: int
    is_linear: bool
    is_homogeneous: bool
    constant_term: int


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
        is_linear=degree == 1,
        is_homogeneous=len(set(totals)) == 1,
        constant_term=P.constant,
    )


def eval_poly(P: Poly, assignment: dict[str, int]) -> int:
    return P.evaluate(assignment)


# -- parser ----------------------------------------------------------------
#
# expr   := ('+'|'-')? term (('+'|'-') term)*
# term   := integer | integer '*' factor ('*' factor)* | factor ('*' factor)*
# factor := var ('^' posint)?
#
# No implicit multiplication; whitespace is ignored.

_TOKEN_RE = re.compile(r"\s*(?:(?P<int>[0-9]+)|(?P<var>[a-z][a-z0-9_]*)|(?P<op>[+\-*^]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = pos + (len(text[pos:]) - len(stripped))
            raise PolyParseError(f"unexpected character {stripped[0]!r}", at)
        if m.group("int") is not None:
            tokens.append(("int", int(m.group("int")), m.start("int")))
        elif m.group("var") is not None:
            tokens.append(("var", m.group("var"), m.start("var")))
        else:
            tokens.append(("op", m.group("op"), m.start("op")))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message):
        raise PolyParseError(message, self.peek()[2])

    def parse(self) -> Poly:
        out = Poly()
        sign = 1
        kind, val, _ = self.peek()
        if kind == "op" and val in "+-":
            self.next()
            sign = -1 if val == "-" else 1
        elif kind == "end":
            self.fail("empty input")
        coeff, powers = self.term()
        out._add_powers(powers, sign * coeff)
        while True:
            kind, val, _ = self.peek()
            if kind == "end":
                break
            if kind != "op" or val not in "+-":
                self.fail(f"expected '+' or '-', got {val!r}")
            self.next()
            sign = -1 if val == "-" else 1
            coeff, powers = self.term()
            out._add_powers(powers, sign * coeff)
        return out

    def term(self):
        kind, val, _ = self.peek()
        coeff = 1
        powers: dict[str, int] = {}
        if kind == "int":
            self.next()
            coeff = val
            # bare integer, or integer '*' factor ('*' factor)*
            kind, val, _ = self.peek()
            if not (kind == "op" and val == "*"):
                return coeff, powers
            self.next()
            self.factor(powers)
        elif kind == "var":
            self.factor(powers)
        else:
            self.fail("expected term")
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val == "*":
                self.next()
                self.factor(powers)
            else:
                break
        return coeff, powers

    def factor(self, powers: dict[str, int]):
        kind, val, _ = self.peek()
        if kind != "var":
            self.fail("expected variable")
        self.next()
        exp = 1
        kind, val2, _ = self.peek()
        if kind == "op" and val2 == "^":
            self.next()
            kind, expval, pos = self.peek()
            if kind != "int":
                self.fail("expected integer exponent")
            if expval <= 0:
                raise PolyParseError("exponent must be >= 1", pos)
            self.next()
            exp = expval
        powers[val] = powers.get(val, 0) + exp


def parse_poly(text: str) -> Poly:
    """Parse an expression string into normal reduced form."""
    if text is None or not text.strip():
        raise PolyParseError("empty input", 0)
    return _Parser(text).parse()
