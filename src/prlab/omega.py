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
from operator import index
from typing import NamedTuple

from .core.poly import Cursor, Poly, read_int

# -- terms ------------------------------------------------------------------


class OmegaTerm:
    __slots__ = ()

    def __str__(self):
        """Stars, sums and products print without recursion: the stack holds
        the pieces still to write, terms and literal strings, the next on top."""
        parts, stack = [], [self]
        while stack:
            t = stack.pop()
            if isinstance(t, Star):
                stack += (")", t.body, f"S{t.k}(")
            elif isinstance(t, (Sum, Prod)):
                stack += (")", t.right, "+" if isinstance(t, Sum) else "*", t.left, "(")
            else:
                parts.append(str(t))
        return "".join(parts)

    # printing is fully parenthesized, so distinct trees print differently
    def __eq__(self, other):
        if not isinstance(other, OmegaTerm):
            return NotImplemented
        return type(self) is type(other) and str(self) == str(other)

    def __hash__(self):
        return hash((type(self), str(self)))

    def __repr__(self):
        return f"{type(self).__name__}({self})"


_ATOM_RE = re.compile(r"[a-z][a-z0-9_]*")


class Nat(OmegaTerm):
    __slots__ = ("value",)

    def __init__(self, value: int):
        if value < 0:
            raise ValueError("naturals only")
        self.value = value

    def __str__(self):
        return str(self.value)


class Atom(OmegaTerm):
    __slots__ = ("name",)

    def __init__(self, name: str):
        if not _ATOM_RE.fullmatch(name) or name in ("heart", "diamond"):
            raise ValueError(f"bad atom name {name!r}")
        self.name = name

    def __str__(self):
        return self.name


class Star(OmegaTerm):
    __slots__ = ("body", "k")

    def __init__(self, body: OmegaTerm, k: int = 1):
        if k < 1:
            raise ValueError("star iteration count must be >= 1")
        self.body, self.k = body, k


class _Pair(OmegaTerm):
    __slots__ = ("left", "right")

    def __init__(self, left: OmegaTerm, right: OmegaTerm):
        self.left, self.right = left, right


class Sum(_Pair):
    __slots__ = ()


class Prod(_Pair):
    __slots__ = ()


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
    keys = sorted(form.monomials, key=lambda k: (sum(e for _, e in k), k))
    return str(Poly({tuple((n if d == 0 else f"S{d}({n})", e) for (n, d), e in key):
                     form.monomials[key] for key in keys}, form.constant))


def canonical(t: OmegaTerm) -> Poly:
    """The canonical form of a term, computed without recursion: a flat sum
    or product of n terms parses to a tree n levels deep."""
    nodes, todo = [], [t]
    while todo:  # each node, then its right, then its left subtree
        node = todo.pop()
        nodes.append(node)
        if isinstance(node, Star):
            todo.append(node.body)
        elif isinstance(node, (Sum, Prod)):
            todo += (node.left, node.right)
    forms: list[Poly] = []
    for node in reversed(nodes):  # every node after its subtrees, left before right
        if isinstance(node, Nat):
            forms.append(Poly.const(node.value))
        elif isinstance(node, Atom):
            forms.append(Poly({(((node.name, 0), 1),): 1}))
        elif isinstance(node, Star):
            forms[-1] = _shift(forms[-1], node.k)
        elif isinstance(node, (Sum, Prod)):
            right = forms.pop()
            forms[-1] = forms[-1] + right if isinstance(node, Sum) else forms[-1] * right
        else:
            raise TypeError(f"not a term: {node!r}")
    return forms[0]


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
#
# expr    := product ('+' product)*
# product := primary ('*' primary)*
# primary := nat | atom | '(' expr ')' | Sk '(' expr ')'
#          | ('heart' | 'diamond') '(' expr ',' expr ')'
#
# A nat is any run of the ASCII digits 0-9, as in polynomials; ASCII
# whitespace is ignored.

_TERM_TOKEN_RE = re.compile(
    r"\s*(?:(?P<int>[0-9]+)|(?P<name>[A-Za-z][A-Za-z0-9_]*)|(?P<sym>[+*(),])|(?P<bad>\S))",
    re.ASCII)

# Parentheses, stars, heart and diamond nest at most this deep; each level
# takes three parser frames, so deeper input would exhaust the interpreter's
# stack (1,000 frames by default) before it could be refused.
MAX_TERM_NESTING = 200


class _TermParser(Cursor):
    depth = 0  # expressions open around the next token

    def expr(self):
        if self.depth > MAX_TERM_NESTING:
            raise ValueError("input nested too deeply")
        self.depth += 1
        t = self.product()
        while self.peek()[1] == "+":
            self.take()
            t = Sum(t, self.product())
        self.depth -= 1
        return t

    def product(self):
        t = self.primary()
        while self.peek()[1] == "*":
            self.take()
            t = Prod(t, self.primary())
        return t

    def primary(self):
        kind, val, pos = self.take()
        if kind == "int":
            return Nat(val)
        if val == "(":
            t = self.expr()
            self.expect(")")
            return t
        if kind != "name":
            self.fail("expected a term", pos)
        m = re.fullmatch(r"S([0-9]+)", val)
        if m:
            self.expect("(")
            body = self.expr()
            self.expect(")")
            return star(body, read_int(m.group(1), pos + 1))
        if val in ("heart", "diamond"):
            self.expect("(")
            a = self.expr()
            self.expect(",")
            b = self.expr()
            self.expect(")")
            return heart(a, b) if val == "heart" else diamond(a, b)
        if not _ATOM_RE.fullmatch(val):
            self.fail(f"unknown identifier {val!r}", pos)
        return Atom(val)


def parse_term(text: str, position: int = 0) -> OmegaTerm:
    parser = _TermParser(_TERM_TOKEN_RE, text, position)
    t = parser.expr()
    kind, val, _ = parser.peek()
    if kind != "end":
        parser.fail(f"unexpected {val!r}")
    return t


# -- the two-table construction ---------------------------------------------

class LedgerLine(NamedTuple):
    depth: int  # 1-based column position; star depth is depth - 1
    plus: tuple[int, ...]
    minus: tuple[int, ...]

    def text(self) -> str:
        body = " + ".join(str(x) for x in self.plus)
        body += "".join(f" - {x}" for x in self.minus)
        return f"c{self.depth} = {body} = {sum(self.plus) - sum(self.minus)}"


class TableConstructionResult(NamedTuple):
    xi: tuple[tuple[int, ...], ...]
    eta: tuple[tuple[int, ...], ...]
    ledger: tuple[LedgerLine, ...]
    zero_check: bool
    distinct_check: bool


def _coefficient_table(coeffs):
    """One table: indexed rows 1..n plus the generic row, laid out in column
    triples (t, s): s=1 gives c_{t+1}; s=3 gives c_{t+1}+c_{t+2}; s=2 gives
    c_{t+1}+c_{t+2} on row t+1, zero on row t+2, c_{t+1} elsewhere.  The
    generic row is row 0, which no column singles out.  A single coefficient
    degenerates to the one-column table (c_1)."""
    nn = len(coeffs)
    if nn == 1:
        return ((coeffs[0],),), (coeffs[0],)

    def row(i):
        cells = []
        for t in range(nn - 1):
            pair = coeffs[t] + coeffs[t + 1]
            middle = pair if i == t + 1 else 0 if i == t + 2 else coeffs[t]
            cells += (coeffs[t], middle, pair)
        return tuple(cells)

    return tuple(row(i) for i in range(1, nn + 1)), row(0)


def vector_term(vec) -> OmegaTerm:
    """The term sum_k vec[k] * S_k(a), positions indexed from depth 0."""
    out = None
    base = Atom("a")
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
    c, d = tuple(map(index, c)), tuple(map(index, d))
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

    combo = Poly.zero()
    for ci, v in zip(c, xi):
        combo = combo + ci * canonical(vector_term(v))
    for dj, v in zip(d, eta):
        combo = combo - dj * canonical(vector_term(v))
    if combo.is_zero() != zero:
        raise RuntimeError("internal check failed: symbolic and ledger verdicts differ")

    vectors = xi + eta
    distinct = len(set(vectors)) == len(vectors)
    return TableConstructionResult(xi, eta, tuple(ledger), zero, distinct)
