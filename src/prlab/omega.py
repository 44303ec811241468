"""Symbolic calculus for iterated-star terms over the naturals: canonical
polynomial forms with star-depth-tagged indeterminates, term heights, the
height-shifted sum and product (written heart and diamond), tensorized
tuples, the tensor-pair test, and the symbolic verifier for the two-table
coefficient construction with its per-depth ledger.

Star maps fix the naturals and commute with + and *, which is exactly what
makes the canonical form well defined: S_k applied to a term simply raises
every indeterminate's depth tag by k.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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

class CanonicalForm:
    """Integer-coefficient polynomial over (atom, star-depth) indeterminates
    plus an integer constant.  Negative coefficients are allowed as formal
    bookkeeping (needed only to test differences for zero); a form with any
    negative part does not denote a value of the star calculus.
    """

    __slots__ = ("monomials", "constant")

    def __init__(self, monomials=None, constant=0):
        self.monomials: dict = dict(monomials or {})
        self.constant = constant

    @classmethod
    def const(cls, n: int) -> "CanonicalForm":
        return cls({}, n)

    @classmethod
    def indeterminate(cls, name: str, depth: int) -> "CanonicalForm":
        return cls({(((name, depth), 1),): 1}, 0)

    def is_constant(self) -> bool:
        return not self.monomials

    def has_negative(self) -> bool:
        return self.constant < 0 or any(c < 0 for c in self.monomials.values())

    def depths(self):
        return sorted(
            {d for key in self.monomials for (_, d), _ in key}
        )

    def max_depth(self):
        ds = self.depths()
        return ds[-1] if ds else None

    def min_depth(self):
        ds = self.depths()
        return ds[0] if ds else None

    def add(self, other: "CanonicalForm") -> "CanonicalForm":
        out = dict(self.monomials)
        for key, c in other.monomials.items():
            c2 = out.get(key, 0) + c
            if c2:
                out[key] = c2
            else:
                out.pop(key, None)
        return CanonicalForm(out, self.constant + other.constant)

    def neg(self) -> "CanonicalForm":
        return CanonicalForm(
            {k: -c for k, c in self.monomials.items()}, -self.constant
        )

    def sub(self, other: "CanonicalForm") -> "CanonicalForm":
        return self.add(other.neg())

    def mul(self, other: "CanonicalForm") -> "CanonicalForm":
        out = CanonicalForm.const(self.constant * other.constant)
        acc: dict = dict(out.monomials)
        constant = self.constant * other.constant

        def add_term(key, coeff):
            if not key:
                nonlocal constant
                constant += coeff
                return
            c2 = acc.get(key, 0) + coeff
            if c2:
                acc[key] = c2
            else:
                acc.pop(key, None)

        for key, c in self.monomials.items():
            if other.constant:
                add_term(key, c * other.constant)
        for key, c in other.monomials.items():
            if self.constant:
                add_term(key, c * self.constant)
        for k1, c1 in self.monomials.items():
            for k2, c2 in other.monomials.items():
                powers: dict = {}
                for ind, e in k1 + k2:
                    powers[ind] = powers.get(ind, 0) + e
                key = tuple(sorted(powers.items()))
                add_term(key, c1 * c2)
        return CanonicalForm(acc, constant)

    def shift(self, k: int) -> "CanonicalForm":
        """Apply S_k: every indeterminate's depth rises by k, the constant
        part is fixed."""
        if k == 0:
            return self
        out = {}
        for key, c in self.monomials.items():
            new_key = tuple(
                sorted((((name, d + k), e) for (name, d), e in key))
            )
            out[new_key] = c
        return CanonicalForm(out, self.constant)

    def __eq__(self, other):
        if not isinstance(other, CanonicalForm):
            return NotImplemented
        return self.monomials == other.monomials and self.constant == other.constant

    def __hash__(self):
        return hash((frozenset(self.monomials.items()), self.constant))

    @staticmethod
    def _indet_str(name, depth):
        return name if depth == 0 else f"S{depth}({name})"

    def __str__(self):
        parts = []
        for key in sorted(
            self.monomials, key=lambda k: (sum(e for _, e in k), k)
        ):
            c = self.monomials[key]
            body = "*".join(
                self._indet_str(n, d) + (f"^{e}" if e > 1 else "")
                for (n, d), e in key
            )
            if c == 1:
                text = body
            elif c == -1:
                text = f"-{body}"
            else:
                text = f"{c}*{body}"
            if parts and not text.startswith("-"):
                parts.append("+" + text)
            else:
                parts.append(text)
        if self.constant or not parts:
            text = str(self.constant)
            if parts and self.constant > 0:
                parts.append("+" + text)
            else:
                parts.append(text)
        return "".join(parts)

    def __repr__(self):
        return f"CanonicalForm({self})"


def canonical(t: OmegaTerm) -> CanonicalForm:
    if isinstance(t, Nat):
        return CanonicalForm.const(t.value)
    if isinstance(t, Atom):
        return CanonicalForm.indeterminate(t.name, 0)
    if isinstance(t, Star):
        return canonical(t.body).shift(t.k)
    if isinstance(t, Sum):
        return canonical(t.left).add(canonical(t.right))
    if isinstance(t, Prod):
        return canonical(t.left).mul(canonical(t.right))
    raise TypeError(f"not a term: {t!r}")


def height(t) -> int:
    """0 for pure naturals; otherwise one more than the deepest star tag in
    the canonical form."""
    form = t if isinstance(t, CanonicalForm) else canonical(t)
    if form.is_constant():
        return 0
    return 1 + form.max_depth()


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
    if form.is_constant():
        return True
    return form.min_depth() >= height(a)


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
    combo = CanonicalForm.const(0)
    for ci, t in zip(c, xi_terms):
        combo = combo.add(canonical(t).mul(CanonicalForm.const(ci)))
    for dj, t in zip(d, eta_terms):
        combo = combo.sub(canonical(t).mul(CanonicalForm.const(dj)))
    symbolic_zero = combo == CanonicalForm.const(0)
    if symbolic_zero != zero:
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


# -- random term generation (for property tests) ----------------------------

def random_term(rng, max_depth=3, atoms=("a", "b", "c"), max_nat=9) -> OmegaTerm:
    """A random star-calculus term: naturals drawn from 1..max_nat (zero is
    excluded so products never collapse), star budget limited by max_depth."""

    def build(size, stars):
        if size <= 1:
            if rng.random() < 0.4:
                return Nat(rng.randint(1, max_nat))
            return Atom(rng.choice(atoms))
        roll = rng.random()
        if roll < 0.25 and stars > 0:
            k = rng.randint(1, stars)
            return star(build(size - 1, stars - k), k)
        if roll < 0.45:
            return Nat(rng.randint(1, max_nat))
        if roll < 0.6:
            return Atom(rng.choice(atoms))
        left = build(size // 2, stars)
        right = build(size // 2, stars)
        return Sum(left, right) if roll < 0.8 else Prod(left, right)

    return build(rng.randint(1, 6), max_depth)


def random_term_of_height(rng, H, atoms=("a", "b", "c"), max_nat=9) -> OmegaTerm:
    """A random term whose height is exactly H."""
    if H == 0:
        return Nat(rng.randint(1, max_nat))
    t = random_term(rng, max_depth=H - 1, atoms=atoms, max_nat=max_nat)
    if height(t) == 0:
        t = Sum(t, Atom(rng.choice(atoms)))
    return star(t, H - height(t))
