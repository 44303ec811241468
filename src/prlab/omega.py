"""Symbolic calculus for iterated-star terms over the naturals: canonical
polynomial forms with star-depth-tagged indeterminates, term heights, the
height-shifted sum and product (written heart and diamond), tensorized
tuples, the tensor-pair test, and the symbolic verifier for the two-table
coefficient construction with its per-depth ledger.

The canonical form of a term is a core.Poly whose variables are
(atom, depth) pairs.  Star maps fix the naturals and commute with + and *,
which is exactly what makes the canonical form well defined: S_k applied to
a term simply raises every indeterminate's depth tag by k.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .core.poly import Poly

# -- terms ------------------------------------------------------------------


class OmegaTerm:
    __slots__ = ()

    def __add__(self, other):
        return Sum(self, _coerce(other))

    def __radd__(self, other):
        return Sum(_coerce(other), self)

    def __mul__(self, other):
        return Prod(self, _coerce(other))

    def __rmul__(self, other):
        return Prod(_coerce(other), self)


def _coerce(x) -> "OmegaTerm":
    if isinstance(x, OmegaTerm):
        return x
    if isinstance(x, int) and x >= 0:
        return Nat(x)
    raise TypeError(f"cannot use {x!r} as a term")


_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")


@dataclass(frozen=True)
class Nat(OmegaTerm):
    value: int

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("naturals only")

    def __str__(self):
        return str(self.value)


@dataclass(frozen=True)
class Atom(OmegaTerm):
    name: str

    def __post_init__(self):
        if not _ATOM_RE.fullmatch(self.name) or self.name in ("heart", "diamond"):
            raise ValueError(f"bad atom name {self.name!r}")

    def __str__(self):
        return self.name


@dataclass(frozen=True)
class Star(OmegaTerm):
    body: OmegaTerm
    k: int = 1

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("star iteration count must be >= 1")

    def __str__(self):
        return f"S{self.k}({self.body})"


@dataclass(frozen=True)
class Sum(OmegaTerm):
    left: OmegaTerm
    right: OmegaTerm

    def __str__(self):
        return f"({self.left}+{self.right})"


@dataclass(frozen=True)
class Prod(OmegaTerm):
    left: OmegaTerm
    right: OmegaTerm

    def __str__(self):
        return f"({self.left}*{self.right})"


def star(t: OmegaTerm, k: int = 1) -> OmegaTerm:
    """S_k applied to a term, normalizing: S_0 is the identity, stars fix
    naturals and stack additively."""
    if k < 0:
        raise ValueError("negative star iteration")
    if k == 0 or isinstance(t, Nat):
        return t
    if isinstance(t, Star):
        return Star(t.body, t.k + k)
    return Star(t, k)


# -- canonical forms --------------------------------------------------------
#
# Negative coefficients are allowed as formal bookkeeping (needed only to test
# differences for zero); a form with any negative part does not denote a
# value of the star calculus.

def _shift(form: Poly, k: int) -> Poly:
    """Apply S_k: every indeterminate's depth rises by k, the constant part
    is fixed.  Raising every depth by k keeps each key sorted."""
    out = Poly(constant=form.constant)
    out.monomials = {
        tuple([((name, d + k), e) for (name, d), e in key]): c
        for key, c in form.monomials.items()
    }
    return out


def _depths(form: Poly) -> list[int]:
    return [d for key in form.monomials for (_, d), _ in key]


def form_text(form: Poly) -> str:
    """Monomials by total degree, then by key; depth 0 prints as the bare
    atom, depth k as Sk(atom)."""
    parts = []
    for key in sorted(form.monomials, key=lambda k: (sum(e for _, e in k), k)):
        c = form.monomials[key]
        body = "*".join(
            (n if d == 0 else f"S{d}({n})") + (f"^{e}" if e > 1 else "")
            for (n, d), e in key
        )
        text = body if c == 1 else f"-{body}" if c == -1 else f"{c}*{body}"
        parts.append(text if not parts or text.startswith("-") else "+" + text)
    if form.constant or not parts:
        text = str(form.constant)
        parts.append("+" + text if parts and form.constant > 0 else text)
    return "".join(parts)


def canonical(t: OmegaTerm) -> Poly:
    if isinstance(t, Nat):
        return Poly.const(t.value)
    if isinstance(t, Atom):
        return Poly({(((t.name, 0), 1),): 1})
    if isinstance(t, Star):
        return _shift(canonical(t.body), t.k)
    if isinstance(t, Sum):
        return canonical(t.left) + canonical(t.right)
    if isinstance(t, Prod):
        return canonical(t.left) * canonical(t.right)
    raise TypeError(f"not a term: {t!r}")


def height(t) -> int:
    """0 for pure naturals; otherwise one more than the deepest star tag in
    the canonical form."""
    form = t if isinstance(t, Poly) else canonical(t)
    return 1 + max(_depths(form)) if form.monomials else 0


def term_eq(s: OmegaTerm, t: OmegaTerm) -> bool:
    return canonical(s) == canonical(t)


# -- height-shifted operations ----------------------------------------------

def heart(a: OmegaTerm, b: OmegaTerm) -> OmegaTerm:
    """a + S_{h(a)}(b), the sum with the right summand lifted past the left
    one's height."""
    return Sum(a, star(b, height(a)))


def diamond(a: OmegaTerm, b: OmegaTerm) -> OmegaTerm:
    """a * S_{h(a)}(b)."""
    return Prod(a, star(b, height(a)))


def tensorized(terms) -> tuple[OmegaTerm, ...]:
    """(S_{H_1}(t_1), ..., S_{H_k}(t_k)) with H_i the sum of the heights of
    the earlier components."""
    terms = tuple(terms)
    if len(terms) < 2:
        raise ValueError("need at least two terms")
    out = []
    cum = 0
    for t in terms:
        out.append(star(t, cum))
        cum += height(t)
    return tuple(out)


def tensor_pair_R(a: OmegaTerm, b: OmegaTerm) -> bool:
    """True when b is a pure natural or every indeterminate of b sits at
    star depth at least h(a), so b arises by an h(a)-fold star of some
    term."""
    form = canonical(b)
    return not form.monomials or min(_depths(form)) >= height(a)


# -- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([+*(),])|(\S))")


class TermParseError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _tokenize_term(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            break
        if m.group(4):
            raise TermParseError(f"unexpected character {m.group(4)!r}", m.start(4))
        if m.group(1):
            tokens.append(("nat", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("ident", m.group(2), m.start(2)))
        else:
            tokens.append(("sym", m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _TermParser:
    def __init__(self, text):
        self.tokens = _tokenize_term(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, sym):
        kind, val, pos = self.take()
        if kind != "sym" or val != sym:
            raise TermParseError(f"expected {sym!r}", pos)

    def parse(self):
        t = self.expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise TermParseError(f"unexpected {val!r}", pos)
        return t

    def expr(self):
        t = self.product()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val == "+":
                self.take()
                t = Sum(t, self.product())
            else:
                return t

    def product(self):
        t = self.primary()
        while True:
            kind, val, _ = self.peek()
            if kind == "sym" and val == "*":
                self.take()
                t = Prod(t, self.primary())
            else:
                return t

    def primary(self):
        kind, val, pos = self.take()
        if kind == "nat":
            return Nat(val)
        if kind == "sym" and val == "(":
            t = self.expr()
            self.expect(")")
            return t
        if kind == "ident":
            m = re.fullmatch(r"S(\d+)", val)
            if m:
                self.expect("(")
                body = self.expr()
                self.expect(")")
                return star(body, int(m.group(1)))
            if val in ("heart", "diamond"):
                self.expect("(")
                a = self.expr()
                self.expect(",")
                b = self.expr()
                self.expect(")")
                return heart(a, b) if val == "heart" else diamond(a, b)
            if _ATOM_RE.fullmatch(val):
                return Atom(val)
            raise TermParseError(f"unknown identifier {val!r}", pos)
        raise TermParseError("expected a term", pos)


def parse_term(text: str) -> OmegaTerm:
    if not text.strip():
        raise TermParseError("empty input", 0)
    return _TermParser(text).parse()


# -- the two-table construction ---------------------------------------------

@dataclass
class LedgerLine:
    depth: int  # 1-based column position; star depth is depth - 1
    plus: tuple[int, ...]
    minus: tuple[int, ...]

    def text(self) -> str:
        body = " + ".join(str(x) for x in self.plus)
        body += "".join(f" - {x}" for x in self.minus)
        return f"c{self.depth} = {body} = {sum(self.plus) - sum(self.minus)}"


@dataclass
class TableConstructionResult:
    c: tuple[int, ...]
    d: tuple[int, ...]
    beta_rows: tuple[tuple[int, ...], ...]
    beta_generic: tuple[int, ...]
    gamma_rows: tuple[tuple[int, ...], ...]
    gamma_generic: tuple[int, ...]
    xi: tuple[tuple[int, ...], ...]
    eta: tuple[tuple[int, ...], ...]
    xi_terms: tuple[OmegaTerm, ...]
    eta_terms: tuple[OmegaTerm, ...]
    ledger: tuple[LedgerLine, ...]
    zero_check: bool
    distinct_check: bool


def _coefficient_table(coeffs):
    """One table: indexed rows 1..n plus the generic row, laid out in column
    triples (t, s): s=1 gives c_{t+1}; s=3 gives c_{t+1}+c_{t+2}; s=2 gives
    c_{t+1}+c_{t+2} on row t+1, zero on row t+2, c_{t+1} elsewhere.  A
    single coefficient degenerates to the one-column table (c_1)."""
    nn = len(coeffs)
    if nn == 1:
        return ((coeffs[0],),), (coeffs[0],)
    width = 3 * (nn - 1)
    rows = []
    for i in range(1, nn + 1):
        row = []
        for j in range(1, width + 1):
            t, s = divmod(j - 1, 3)
            s += 1
            if s == 1:
                row.append(coeffs[t])
            elif s == 2:
                if i == t + 1:
                    row.append(coeffs[t] + coeffs[t + 1])
                elif i == t + 2:
                    row.append(0)
                else:
                    row.append(coeffs[t])
            else:
                row.append(coeffs[t] + coeffs[t + 1])
        rows.append(tuple(row))
    generic = []
    for j in range(1, width + 1):
        t, s = divmod(j - 1, 3)
        generic.append(coeffs[t] + coeffs[t + 1] if s + 1 == 3 else coeffs[t])
    return tuple(rows), tuple(generic)


def vector_term(vec, atom: str = "a") -> OmegaTerm:
    """The term sum_k vec[k] * S_k(atom), positions indexed from depth 0."""
    out = None
    base = Atom(atom)
    for k, v in enumerate(vec):
        if v == 0:
            continue
        part = star(base, k) if v == 1 else Prod(Nat(v), star(base, k))
        out = part if out is None else Sum(out, part)
    return out if out is not None else Nat(0)


def verify_table_construction(c, d) -> TableConstructionResult:
    """Build the two coefficient tables for positive weights c and d with
    equal sums, assemble the row vectors xi_i (indexed beta row, generic
    gamma row) and eta_j (generic beta row, indexed gamma row), and verify
    that sum(c_i xi_i) - sum(d_j eta_j) vanishes at every star depth and
    that all vectors are pairwise distinct."""
    c, d = tuple(int(x) for x in c), tuple(int(x) for x in d)
    if not c or not d:
        raise ValueError("need at least one coefficient on each side")
    if any(x < 1 for x in c + d):
        raise ValueError("coefficients must be positive")
    if sum(c) != sum(d):
        raise ValueError("coefficient sums differ")
    if len(c) + len(d) < 3:
        raise ValueError("table shape too small")
    beta_rows, beta_generic = _coefficient_table(c)
    gamma_rows, gamma_generic = _coefficient_table(d)
    xi = tuple(row + gamma_generic for row in beta_rows)
    eta = tuple(beta_generic + row for row in gamma_rows)
    width = len(beta_generic) + len(gamma_generic)

    ledger = []
    zero = True
    for pos in range(width):
        plus = tuple(ci * v[pos] for ci, v in zip(c, xi))
        minus = tuple(dj * v[pos] for dj, v in zip(d, eta))
        ledger.append(LedgerLine(pos + 1, plus, minus))
        if sum(plus) != sum(minus):
            zero = False

    xi_terms = tuple(vector_term(v) for v in xi)
    eta_terms = tuple(vector_term(v) for v in eta)
    combo = Poly.zero()
    for ci, t in zip(c, xi_terms):
        combo = combo + ci * canonical(t)
    for dj, t in zip(d, eta_terms):
        combo = combo - dj * canonical(t)
    if combo.is_zero() != zero:
        raise RuntimeError("internal check failed: symbolic and ledger verdicts differ")

    vectors = xi + eta
    distinct = len(set(vectors)) == len(vectors)
    return TableConstructionResult(
        c=c,
        d=d,
        beta_rows=beta_rows,
        beta_generic=beta_generic,
        gamma_rows=gamma_rows,
        gamma_generic=gamma_generic,
        xi=xi,
        eta=eta,
        xi_terms=xi_terms,
        eta_terms=eta_terms,
        ledger=tuple(ledger),
        zero_check=zero,
        distinct_check=distinct,
    )
