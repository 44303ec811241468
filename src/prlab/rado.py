"""Regularity of linear systems: the columns condition, zero-sum subset
criteria for single equations (homogeneous and affine), parametric solution
families, and the super-modulo counterexample coloring.

Everything here is exact: integer subset sums, rational Gaussian elimination
for span membership, extended-Euclid coefficient certificates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

from .core import IntMatrix, Poly, poly_props

MAX_COLUMNS = 20
MAX_COEFFS = 20


# -- small prime helpers ----------------------------------------------------

def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _next_prime(n: int) -> int:
    n += 1
    while not _is_prime(n):
        n += 1
    return n


# -- exact rational span with coordinate tracking ---------------------------

class RationalSpan:
    """Incrementally built rational span of integer vectors.

    solve(v) returns coefficients over the added generators (in insertion
    order) expressing v exactly, or None if v is outside the span.  A vector
    stays integer until it is reduced against a pivot row.
    """

    def __init__(self):
        self.rows: list[tuple[int, list, dict[int, Fraction]]] = []
        self.n_added = 0

    def _reduce(self, vec):
        v = list(vec)
        coeffs: dict[int, Fraction] = {}
        for pivot, rvec, rrep in self.rows:
            if v[pivot]:
                f = Fraction(v[pivot]) / rvec[pivot]
                v = [a - f * b for a, b in zip(v, rvec)]
                for i, c in rrep.items():
                    coeffs[i] = coeffs.get(i, Fraction(0)) + f * c
        return v, coeffs

    def solve(self, vec):
        v, coeffs = self._reduce(vec)
        if any(v):
            return None
        return coeffs

    def add(self, vec) -> None:
        idx = self.n_added
        v, coeffs = self._reduce(vec)
        if any(v):
            rrep = {idx: Fraction(1)}
            for i, c in coeffs.items():
                rrep[i] = -c
            pivot = next(k for k, x in enumerate(v) if x)
            self.rows.append((pivot, v, rrep))
        self.n_added += 1


# -- columns condition ------------------------------------------------------

@dataclass
class ColumnsConditionCertificate:
    """Ordered block partition of the columns (1-based indices).

    The first block sums to the zero vector; for each later block, a rational
    coefficient vector over the concatenation of all earlier columns
    reproduces the block's column sum exactly.
    """

    blocks: tuple[tuple[int, ...], ...]
    combinations: tuple[tuple[Fraction, ...], ...]


@dataclass
class ColumnsConditionVerdict:
    satisfied: bool
    certificate: ColumnsConditionCertificate | None


def verify_columns_certificate(M: IntMatrix, cert: ColumnsConditionCertificate) -> bool:
    """Independent exact re-check of a certificate against the matrix."""
    seen = [c for block in cert.blocks for c in block]
    if sorted(seen) != list(range(1, M.cols + 1)):
        return False
    if len(cert.combinations) != len(cert.blocks) - 1:
        return False

    def colsum(block):
        out = [0] * M.rows
        for c in block:
            col = M.column(c - 1)
            out = [a + b for a, b in zip(out, col)]
        return out

    if any(colsum(cert.blocks[0])):
        return False
    earlier: list[tuple[int, ...]] = []
    for t, block in enumerate(cert.blocks):
        if t >= 1:
            combo = cert.combinations[t - 1]
            if len(combo) != len(earlier):
                return False
            target = colsum(block)
            acc = [Fraction(0)] * M.rows
            for coef, col in zip(combo, earlier):
                acc = [a + coef * x for a, x in zip(acc, col)]
            if any(a != b for a, b in zip(acc, target)):
                return False
        earlier.extend(M.column(c - 1) for c in block)
    return True


def columns_condition(M: IntMatrix) -> ColumnsConditionVerdict:
    """Ordered block partition of the columns whose first block sums to zero
    and whose later block sums lie in the rational span of all earlier
    columns.  Each block is the first remaining subset, smallest first and
    then lexicographic, whose sum lies in the span of the columns placed so
    far (an empty span holds only the zero vector).

    No choice is ever undone.  The span only grows, so a block that is valid
    now stays valid after any other valid block B is placed, once B's columns
    are removed from it: the removed part sums into B's span.  Hence if any
    partition completes the columns placed so far, one completes them after
    B too, and a step that finds no valid block proves there is none.
    """
    n = M.cols
    if n > MAX_COLUMNS:
        raise ValueError(f"too many columns for exhaustive search (max {MAX_COLUMNS})")
    cols = [M.column(j) for j in range(n)]
    span = RationalSpan()
    remaining = list(range(n))
    blocks, combos = [], []
    while remaining:
        candidates = chain.from_iterable(
            combinations(remaining, size) for size in range(1, len(remaining) + 1)
        )
        for block in candidates:
            sol = span.solve([sum(x) for x in zip(*(cols[c] for c in block))])
            if sol is not None:
                break
        else:
            return ColumnsConditionVerdict(False, None)
        blocks.append(tuple(c + 1 for c in block))
        combos.append(tuple(sol.get(i, Fraction(0)) for i in range(span.n_added)))
        for c in block:
            span.add(cols[c])
        remaining = [c for c in remaining if c not in block]
    cert = ColumnsConditionCertificate(tuple(blocks), tuple(combos[1:]))
    if not verify_columns_certificate(M, cert):
        raise RuntimeError("internal check failed: columns certificate does not re-verify")
    return ColumnsConditionVerdict(True, cert)


# -- single linear equations ------------------------------------------------

def _zero_sum_subset(coeffs) -> tuple[int, ...] | None:
    """Indices of the first (smallest, then lex) nonempty subset summing to 0."""
    idx = range(len(coeffs))
    for size in range(1, len(coeffs) + 1):
        for sub in combinations(idx, size):
            if sum(coeffs[i] for i in sub) == 0:
                return sub
    return None


def blocking_prime(coefficients) -> int | None:
    """Smallest prime dividing no nonzero subset sum, or None when some
    nonempty subset sums to zero (and no such prime is needed)."""
    coeffs = [int(c) for c in coefficients]
    if not coeffs:
        raise ValueError("empty coefficient list")
    if any(c == 0 for c in coeffs):
        raise ValueError("zero coefficient")
    if len(coeffs) > MAX_COEFFS:
        raise ValueError(f"more than {MAX_COEFFS} coefficients")
    sums: set[int] = set()
    for c in coeffs:
        sums |= {c} | {s + c for s in sums}
    if 0 in sums:
        return None
    p = 2
    while any(s % p == 0 for s in sums):
        p = _next_prime(p)
    return p


@dataclass
class LinearPrVerdict:
    pr: bool
    subset: tuple[str, ...] | None = None
    blocking_prime: int | None = None


def linear_pr(P: Poly) -> LinearPrVerdict:
    """Zero-sum-subset criterion for a homogeneous linear equation P = 0:
    regular iff some nonempty subset of the coefficients sums to zero;
    otherwise the verdict carries the smallest blocking prime."""
    props = poly_props(P)
    if not (props.is_linear and props.is_homogeneous and props.constant_term == 0):
        raise ValueError("polynomial must be homogeneous linear")
    variables = P.variables()
    if len(variables) < 2:
        raise ValueError("need at least two variables")
    coeffs = [P.monomials[((v, 1),)] for v in variables]
    sub = _zero_sum_subset(coeffs)
    if sub is not None:
        return LinearPrVerdict(True, subset=tuple(variables[i] for i in sub))
    return LinearPrVerdict(False, blocking_prime=blocking_prime(coeffs))


@dataclass
class AffinePrVerdict:
    pr: bool
    route: str | None = None  # "constant-solution" | "integer-shift-with-zero-sum-subset"
    k: int | None = None
    z: int | None = None
    subset: tuple[str, ...] | None = None
    notes: tuple[str, ...] = ("constant solutions are searched over k >= 1",)


def affine_pr(P: Poly) -> AffinePrVerdict:
    """Two-route criterion for a linear equation with nonzero constant c:
    either a constant solution x_i = k (k >= 1) with s*k + c = 0, or an
    integer z with s*z + c = 0 together with a zero-sum coefficient subset.
    """
    props = poly_props(P)
    if not props.is_linear:
        raise ValueError("polynomial must be linear")
    if props.constant_term == 0:
        raise ValueError("constant term is zero; use linear_pr")
    variables = P.variables()
    if not variables:
        raise ValueError("no variables")
    coeffs = [P.monomials[((v, 1),)] for v in variables]
    s = sum(coeffs)
    c = props.constant_term
    if s != 0 and (-c) % s == 0:
        k = (-c) // s
        if k >= 1:
            return AffinePrVerdict(True, route="constant-solution", k=k)
        z = k  # an integer solution of s*z + c = 0, just not a positive one
        sub = _zero_sum_subset(coeffs)
        if sub is not None:
            return AffinePrVerdict(
                True,
                route="integer-shift-with-zero-sum-subset",
                z=z,
                subset=tuple(variables[i] for i in sub),
            )
    return AffinePrVerdict(False)


# -- parametric solution families ------------------------------------------

def _egcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(|a|, |b|) >= 0."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def _bezout_list(nums) -> tuple[int, list[int]]:
    """Fold extended Euclid over the list: g > 0 and coefficients b with
    sum(n_i * b_i) = g."""
    g, coeffs = abs(nums[0]), [1 if nums[0] > 0 else -1]
    for c in nums[1:]:
        g2, x, y = _egcd(g, c)
        coeffs = [cf * x for cf in coeffs] + [y]
        g = g2
    return g, coeffs


def _round_nearest(num: int, den: int) -> int:
    return math.floor(Fraction(num, den) + Fraction(1, 2))


def _normalize_bezout(coeffs, bez):
    """One greedy pass shifting adjacent pairs along the kernel to shrink
    the largest multipliers."""
    bez = list(bez)
    for i in range(len(bez) - 1):
        a, b = coeffs[i], coeffs[i + 1]
        g = math.gcd(abs(a), abs(b))
        step_i, step_j = b // g, a // g
        if step_i == 0:
            continue
        t = _round_nearest(bez[i], step_i)
        bez[i] -= t * step_i
        bez[i + 1] += t * step_j
    return bez


@dataclass
class ParametricSolution:
    """Two-parameter solution family for a homogeneous linear equation.

    Variables in the zero-sum subset J receive a + zs_i * b, the others m * b;
    bezout holds the raw extended-Euclid multipliers (sum c_i*bezout_i = c) and
    zs = z * bezout the scaled ones actually used by the assignment.
    """

    k: int
    zs: tuple[int, ...]
    bezout: tuple[int, ...]
    m: int
    c: int
    d: int
    z: int
    j_vars: tuple[str, ...]
    other_vars: tuple[str, ...]

    def assignment(self, a: int, b: int) -> dict[str, int]:
        out = {v: a + z * b for v, z in zip(self.j_vars, self.zs)}
        out.update({v: self.m * b for v in self.other_vars})
        return out


def parametric_solution(P: Poly, J) -> ParametricSolution:
    props = poly_props(P)
    if not (props.is_linear and props.is_homogeneous and props.constant_term == 0):
        raise ValueError("polynomial must be homogeneous linear")
    variables = P.variables()
    j_vars = tuple(sorted(J))
    if not j_vars or any(v not in variables for v in j_vars):
        raise ValueError("subset must be a nonempty set of the polynomial's variables")
    other_vars = tuple(v for v in variables if v not in set(j_vars))
    cj = [P.monomials[((v, 1),)] for v in j_vars]
    if sum(cj) != 0:
        raise ValueError("subset does not sum to zero")
    c, bez = _bezout_list(cj)
    bez = _normalize_bezout(cj, bez)
    d = sum(P.monomials[((v, 1),)] for v in other_vars)
    g = math.gcd(c, abs(d)) if d else c
    m = c // g
    z = -d // g
    zs = tuple(z * b for b in bez)
    # symbolic check: coefficient of a and of b in sum(c_i * s_i) must vanish
    coef_a = sum(cj)
    coef_b = sum(ci * zi for ci, zi in zip(cj, zs)) + m * d
    if coef_a != 0 or coef_b != 0:
        raise RuntimeError("internal check failed: parametric family does not vanish")
    return ParametricSolution(
        k=len(j_vars),
        zs=zs,
        bezout=tuple(bez),
        m=m,
        c=c,
        d=d,
        z=z,
        j_vars=j_vars,
        other_vars=other_vars,
    )


# -- super-modulo coloring --------------------------------------------------

def smod(p: int, n: int) -> int:
    """Color of n under the super-modulo-p coloring: write n = a * p^k with
    p not dividing a, and return a mod p (a color in 1..p-1)."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be >= 1")
    while n % p == 0:
        n //= p
    return n % p
