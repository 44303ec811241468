"""Regularity of linear systems: the columns condition, zero-sum subset
criteria for single equations (homogeneous and affine), parametric solution
families, and the super-modulo counterexample coloring.

Everything here is exact: integer subset sums, fraction-free integer
elimination for span membership, extended-Euclid coefficient certificates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from operator import index
from typing import NamedTuple

from .core import IntMatrix, Poly, linear_coefficients

MAX_COEFFS = 20
# trial division decides primality up to here in well under a second
MAX_SMOD_MODULUS = 10**12


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


# -- columns condition ------------------------------------------------------

class ColumnsConditionCertificate(NamedTuple):
    """Ordered block partition of the columns (1-based indices).

    The first block sums to the zero vector; for each later block, a rational
    coefficient vector over the concatenation of all earlier columns
    reproduces the block's column sum exactly.
    """

    blocks: tuple[tuple[int, ...], ...]
    combinations: tuple[tuple[Fraction, ...], ...]


class ColumnsConditionVerdict(NamedTuple):
    satisfied: bool
    certificate: ColumnsConditionCertificate | None


def verify_columns_certificate(M: IntMatrix, cert: ColumnsConditionCertificate) -> bool:
    """Independent exact re-check of a certificate against the matrix.  The
    first block is the empty combination of no earlier columns, so one test
    covers every block: the combination minus the block's sum is zero."""
    seen = [c for block in cert.blocks for c in block]
    if sorted(seen) != list(range(1, M.cols + 1)):
        return False
    if len(cert.combinations) != len(cert.blocks) - 1:
        return False
    earlier: list[tuple[int, ...]] = []
    for block, combo in zip(cert.blocks, ((),) + cert.combinations):
        if len(combo) != len(earlier):
            return False
        cols = [M.column(c - 1) for c in block]
        acc = [-sum(col[r] for col in cols) for r in range(M.rows)]
        for coef, col in zip(combo, earlier):
            acc = [a + coef * x for a, x in zip(acc, col)]
        if any(acc):
            return False
        earlier.extend(cols)
    return True


def _remainder(rows, vec, n) -> tuple[int, list[int], list[int]]:
    """Fraction-free remainder of vec modulo the span of the pivot rows:
    (s, r, coords) with r = s*vec - sum(coords[g] * column g), zero at every
    pivot.  Each row (p, w, rep), w = sum(rep[g] * column g), clears r[p] by
    r -> w[p]*r - r[p]*w, scaling by w[p] even where r[p] is 0, so s, the
    product of the pivots, is the same for every vec: remainders add as the
    vectors do, and a sum lies in the span exactly when they sum to zero."""
    s, r, coords = 1, list(vec), [0] * n
    for p, w, rep in rows:
        f, a = w[p], r[p]
        s *= f
        r = [f * x - a * y for x, y in zip(r, w)]
        coords = [f * c + a * e for c, e in zip(coords, rep)]
    return s, r, coords


def columns_condition(M: IntMatrix) -> ColumnsConditionVerdict:
    """Ordered block partition of the columns whose first block sums to zero
    and whose later block sums lie in the rational span of all earlier
    columns.  Each block is the subset that _zero_sum_subset finds among the
    remaining columns' remainders modulo the span of the columns placed so
    far (an empty span holds only the zero vector): the first, smallest
    first and then lexicographic, whose sum lies in that span.

    No choice is ever undone.  The span only grows, so a block that is valid
    now stays valid after any other valid block B is placed, once B's columns
    are removed from it: the removed part sums into B's span.  Hence if any
    partition completes the columns placed so far, one completes them after
    B too, and a step where _zero_sum_subset finds no subset proves there is
    none.
    """
    n = M.cols
    if n > MAX_COEFFS:
        raise ValueError(f"too many columns for exhaustive search (max {MAX_COEFFS})")
    cols = [M.column(j) for j in range(n)]
    rows: list[tuple[int, list[int], list[int]]] = []  # (p, w, rep) as _remainder reads them
    remaining = list(range(n))
    blocks, combos = [], []
    while remaining:
        rems = [_remainder(rows, cols[c], n) for c in remaining]
        # every coordinate sum of a subset stays below half the base, so a
        # packed sum is zero exactly when the subset's remainders sum to zero
        base = 2 * sum(abs(x) for _, r, _ in rems for x in r) + 1
        sub = _zero_sum_subset([sum(x * base**i for i, x in enumerate(r)) for _, r, _ in rems])
        if sub is None:
            return ColumnsConditionVerdict(False, None)
        s = rems[0][0]
        combos.append(tuple(Fraction(sum(rems[i][2][g - 1] for i in sub), s)
                            for b in blocks for g in b))
        block = [remaining[i] for i in sub]
        blocks.append(tuple(c + 1 for c in block))
        for c in block:
            s, r, coords = _remainder(rows, cols[c], n)
            if any(r):
                rep = [s if g == c else -x for g, x in enumerate(coords)]
                # with the content left in, entries double in length per row
                k = math.gcd(*r, *rep)
                rows.append((next(p for p, x in enumerate(r) if x), [x // k for x in r],
                             [x // k for x in rep]))
        remaining = [c for c in remaining if c not in block]
    cert = ColumnsConditionCertificate(tuple(blocks), tuple(combos[1:]))
    if not verify_columns_certificate(M, cert):
        raise RuntimeError("internal check failed: columns certificate does not re-verify")
    return ColumnsConditionVerdict(True, cert)


# -- single linear equations ------------------------------------------------

def homogeneous_coefficients(P: Poly) -> tuple[int, ...]:
    """P's coefficients, in P.variables() order, when P is homogeneous linear."""
    coeffs = linear_coefficients(P)
    if coeffs is None or P.constant:
        raise ValueError("polynomial must be homogeneous linear")
    return coeffs


def _zero_sum_subset(coeffs) -> tuple[int, ...] | None:
    """Indices of the first nonempty subset, smallest first and then lex, that
    sums to zero: of an equation's coefficients, or of columns_condition's
    packed remainders."""
    if len(coeffs) > MAX_COEFFS:
        raise ValueError(f"more than {MAX_COEFFS} coefficients")
    idx = range(len(coeffs))
    for size in range(1, len(coeffs) + 1):
        # combinations of the indices and of the values come in step
        for sub, values in zip(combinations(idx, size), combinations(coeffs, size)):
            if sum(values) == 0:
                return sub
    return None


def _least_blocking_prime(coeffs) -> int:
    """Smallest prime dividing no nonempty subset sum of coefficients that
    have no zero-sum subset.  Sums of one sign's coefficients, divided by
    their gcd, cover each integer in [1, run] (greedily, each next one is at
    most run + 1), so every prime up to run divides a subset sum and is
    skipped.  For each prime p, bit s of a p-bit mask says some nonempty
    subset sums to s mod p; each coefficient adds itself and a rotation of
    the mask.  Every subset sum is nonzero and at most sum |c| in size, so
    the first prime above that bound always blocks."""
    g, runs = math.gcd(*coeffs), [0, 0]  # of the negative, positive coefficients
    for c in sorted(coeffs, key=abs):
        if abs(c) // g <= runs[c > 0] + 1:
            runs[c > 0] += abs(c) // g
    total, run = sum(map(abs, coeffs)), max(runs)
    p = _next_prime(run) if run > 1 else 2
    while p <= total:
        full, mask = (1 << p) - 1, 0
        for c in coeffs:
            r = c % p
            mask |= (mask << r | mask >> (p - r)) & full | 1 << r
            if mask & 1:
                break
        else:
            return p
        p = _next_prime(p)
    return p


def blocking_prime(coefficients) -> int | None:
    """Smallest prime dividing no nonzero subset sum, or None when some
    nonempty subset sums to zero (and no such prime is needed)."""
    coeffs = list(map(index, coefficients))
    if not coeffs:
        raise ValueError("empty coefficient list")
    if any(c == 0 for c in coeffs):
        raise ValueError("zero coefficient")
    if _zero_sum_subset(coeffs) is not None:
        return None
    return _least_blocking_prime(coeffs)


class LinearPrVerdict(NamedTuple):
    pr: bool
    subset: tuple[str, ...] | None = None
    blocking_prime: int | None = None


def linear_pr(P: Poly) -> LinearPrVerdict:
    """Zero-sum-subset criterion for a homogeneous linear equation P = 0:
    regular iff some nonempty subset of the coefficients sums to zero;
    otherwise the verdict carries the smallest blocking prime."""
    coeffs = homogeneous_coefficients(P)
    variables = P.variables()
    if len(variables) < 2:
        raise ValueError("need at least two variables")
    sub = _zero_sum_subset(coeffs)
    if sub is not None:
        return LinearPrVerdict(True, subset=tuple(variables[i] for i in sub))
    return LinearPrVerdict(False, blocking_prime=_least_blocking_prime(coeffs))


class AffinePrVerdict(NamedTuple):
    pr: bool
    route: str | None = None  # "constant-solution" | "integer-shift-with-zero-sum-subset"
    k: int | None = None
    z: int | None = None
    subset: tuple[str, ...] | None = None


def affine_pr(P: Poly) -> AffinePrVerdict:
    """Two-route criterion for a linear equation with nonzero constant c:
    either a constant solution x_i = k (k >= 1) with s*k + c = 0, or an
    integer z with s*z + c = 0 together with a zero-sum coefficient subset.
    """
    coeffs = linear_coefficients(P)
    if coeffs is None:
        raise ValueError("polynomial must be linear")
    c = P.constant
    if c == 0:
        raise ValueError("constant term is zero; use linear_pr")
    variables = P.variables()
    s = sum(coeffs)
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

def _bezout_list(nums) -> tuple[int, list[int]]:
    """Fold extended Euclid over the list: g > 0 and coefficients b with
    sum(n_i * b_i) = g."""
    g, coeffs = abs(nums[0]), [1 if nums[0] > 0 else -1]
    for c in nums[1:]:
        # remainders r with r = x*g + y*c, down to the last nonzero one
        (r0, x0, y0), (r1, x1, y1) = (g, 1, 0), (c, 0, 1)
        while r1:
            q = r0 // r1
            (r0, x0, y0), (r1, x1, y1) = (r1, x1, y1), (r0 - q * r1, x0 - q * x1, y0 - q * y1)
        if r0 < 0:
            r0, x0, y0 = -r0, -x0, -y0
        g, coeffs = r0, [cf * x0 for cf in coeffs] + [y0]
    return g, coeffs


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
        t = (2 * bez[i] + step_i) // (2 * step_i)  # bez[i] / step_i rounded half up
        bez[i] -= t * step_i
        bez[i + 1] += t * step_j
    return bez


class ParametricSolution(NamedTuple):
    """Two-parameter solution family for a homogeneous linear equation.

    Variables in the zero-sum subset J receive a + zs_i * b, the others m * b,
    where zs = z * (extended-Euclid multipliers b_i with sum c_i * b_i = c).
    """

    zs: tuple[int, ...]
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
    coeffs = homogeneous_coefficients(P)
    variables = P.variables()
    coeff = dict(zip(variables, coeffs))
    j_vars = tuple(sorted(set(J)))
    if not j_vars or any(v not in variables for v in j_vars):
        raise ValueError("subset must be a nonempty set of the polynomial's variables")
    other_vars = tuple(v for v in variables if v not in set(j_vars))
    cj = [coeff[v] for v in j_vars]
    if sum(cj) != 0:
        raise ValueError("subset does not sum to zero")
    c, bez = _bezout_list(cj)
    bez = _normalize_bezout(cj, bez)
    d = sum(coeff[v] for v in other_vars)
    g = math.gcd(c, abs(d)) if d else c
    m = c // g
    z = -d // g
    zs = tuple(z * b for b in bez)
    # symbolic check: coefficient of a and of b in sum(c_i * s_i) must vanish
    coef_a = sum(cj)
    coef_b = sum(ci * zi for ci, zi in zip(cj, zs)) + m * d
    if coef_a != 0 or coef_b != 0:
        raise RuntimeError("internal check failed: parametric family does not vanish")
    return ParametricSolution(zs=zs, m=m, c=c, d=d, z=z, j_vars=j_vars, other_vars=other_vars)


# -- super-modulo coloring --------------------------------------------------

def smod(p: int, n: int) -> int:
    """Color of n under the super-modulo-p coloring: write n = a * p^k with
    p not dividing a, and return a mod p (a color in 1..p-1)."""
    if p > MAX_SMOD_MODULUS:
        raise ValueError("p must be at most 10^12")
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be >= 1")
    while n % p == 0:
        n //= p
    return n % p
