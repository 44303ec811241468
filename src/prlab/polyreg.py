"""Structural criteria and transforms for partition regularity of nonlinear
polynomials: linearized reducts, exclusive-variable sets, a product
constructor that lifts a regular linear form to a certified nonlinear one,
sufficiency/necessity checks, reciprocals, and invariance flags.

Verdicts are conservative: a checker returns a definite status only when its
criterion applies, and "unknown" otherwise; unknown never means irregular.
"""

from __future__ import annotations

from itertools import product
from math import prod
from typing import NamedTuple

from .core import Poly, linear_coefficients, poly_props
from .rado import _zero_sum_subset, blocking_prime, homogeneous_coefficients

MAX_EXCLUSIVE_SETS = 10**5


class PrVerdict(NamedTuple):
    status: str  # "IPR_certified" | "PR_certified" | "not_PR_certified" | "unknown"
    method: str | None = None
    certificate: dict = {}  # one shared default, never mutated
    notes: tuple[str, ...] = ()


def _require_zero_constant(P: Poly):
    if P.is_zero():
        raise ValueError("zero polynomial")
    if P.constant != 0:
        raise ValueError("constant term must be zero")


def reduct(P: Poly) -> Poly:
    """Replace each monomial by a fresh variable: the linear form whose
    coefficients are P's monomial coefficients in stored order."""
    _require_zero_constant(P)
    keys = [((f"y{i}", 1),) for i in range(1, len(P.monomials) + 1)]
    return Poly(zip(keys, P.monomials.values()))


def _private_variables(P: Poly) -> list[tuple[str, ...]]:
    """For each monomial, its variables that occur in no other monomial."""
    _require_zero_constant(P)
    monomials = list(P.monomials)
    occurrences: dict[str, int] = {}
    for key in monomials:
        for v, _ in key:
            occurrences[v] = occurrences.get(v, 0) + 1
    return [tuple(v for v, _ in key if occurrences[v] == 1) for key in monomials]


def exclusive_sets(P: Poly):
    """All systems of representatives picking, for each monomial, a variable
    that occurs in no other monomial; empty tuple when some monomial has no
    private variable."""
    per_monomial = _private_variables(P)
    if any(not cands for cands in per_monomial):
        return ()
    if prod(map(len, per_monomial)) > MAX_EXCLUSIVE_SETS:
        raise ValueError(f"too many exclusive variable sets (max {MAX_EXCLUSIVE_SETS})")
    return tuple(product(*per_monomial))


def sufficient_ipr(P: Poly) -> PrVerdict:
    """Certify injective regularity when every variable appears to the first
    power, each monomial owns a private variable, and the linearized reduct
    has a zero-sum coefficient subset.  Anything else is unknown."""
    _require_zero_constant(P)
    props = poly_props(P)
    if props.max_partial_degree > 1:
        return PrVerdict("unknown", notes=("a variable occurs with power > 1",))
    per_monomial = _private_variables(P)
    if any(not cands for cands in per_monomial):
        return PrVerdict("unknown", notes=("no set of exclusive variables",))
    red = reduct(P)
    variables = red.variables()
    if len(variables) < 2:
        return PrVerdict("unknown", notes=("single monomial",))
    sub = _zero_sum_subset(linear_coefficients(red))
    if sub is None:
        return PrVerdict("unknown", notes=("reduct has no zero-sum coefficient subset",))
    return PrVerdict(
        "IPR_certified",
        method="exclusive-variables-with-regular-reduct",
        certificate={
            "exclusive_variables": tuple(cands[0] for cands in per_monomial),
            "reduct": str(red),
            "zero_sum_subset": tuple(variables[i] for i in sub),
        },
    )


def necessary_check(P: Poly) -> PrVerdict:
    """Rule out regularity when the polynomial is homogeneous and its reduct
    coefficients have no zero-sum subset; the certificate carries the
    smallest prime blocking every subset sum."""
    _require_zero_constant(P)
    if not poly_props(P).is_homogeneous:
        return PrVerdict("unknown", notes=("not homogeneous",))
    p = blocking_prime(P.monomials.values())
    if p is None:
        return PrVerdict("unknown", notes=("reduct has a zero-sum coefficient subset",))
    return PrVerdict(
        "not_PR_certified",
        method="homogeneous-reduct-blocking",
        certificate={"reduct": str(reduct(P)), "blocking_prime": p},
    )


class ConstructResult(NamedTuple):
    poly: Poly
    verdict: PrVerdict


def attach_products(L: Poly, subsets, n: int) -> ConstructResult:
    """Lift a regular linear form sum(a_i * x_i) to the certified nonlinear
    polynomial sum(a_i * x_i * prod_{j in F_i} y_j): each x_i stays exclusive
    to its monomial and the reduct keeps L's coefficients."""
    coeffs = homogeneous_coefficients(L)
    variables = L.variables()
    if len(variables) < 3:
        raise ValueError("need at least three variables")
    if len(subsets) != len(variables):
        raise ValueError("need one index subset per variable")
    if n < 0:
        raise ValueError("n must be >= 0")
    if _zero_sum_subset(coeffs) is None:
        raise ValueError("linear part has no zero-sum coefficient subset")
    # v is a fresh name y<j> when j is 1..n written without a leading zero:
    # such digit strings order as their values when the shorter comes first
    top = (len(str(n)), str(n))
    if any(v[:1] == "y" and v[1:].isascii() and v[1:].isdigit() and v[1] != "0"
           and (len(v) - 1, v[1:]) <= top for v in variables):
        raise ValueError("variable names collide with the fresh y variables")
    items = []
    for v, a, F in zip(variables, coeffs, subsets):
        F = sorted(set(F))
        if any(not 1 <= j <= n for j in F):
            raise ValueError(f"subset {F} not within 1..{n}")
        key = sorted([(v, 1)] + [(f"y{j}", 1) for j in F])
        items.append((tuple(key), a))
    out = Poly(items)
    verdict = sufficient_ipr(out)
    if verdict.status != "IPR_certified":
        raise RuntimeError(f"internal check failed: construction is {verdict.status}")
    return ConstructResult(out, verdict)


def reciprocal(P: Poly) -> Poly:
    """Multiply P(1/x_1, ..., 1/x_n) by (x_1 * ... * x_n)^d, d the degree of
    the homogeneous P: each monomial's exponent on each variable v becomes d
    minus the old exponent.  Regularity transfers both ways."""
    props = poly_props(P)
    if not props.is_homogeneous:
        raise ValueError("polynomial must be homogeneous")
    d = props.degree
    variables = P.variables()
    items = []
    for key, coeff in P.monomials.items():
        exps = dict(key)
        flipped = ((v, d - exps.get(v, 0)) for v in variables)
        items.append((tuple((v, e) for v, e in flipped if e), coeff))
    return Poly(items, P.constant)


def exp_sum_ipr(n_exps, m_exps) -> PrVerdict:
    """Difference of two power products prod(x_i^n_i) - prod(y_j^m_j):
    certified injectively regular when the exponent sums agree, unless each
    side is one power: x^a = y^a forces x = y."""
    n_exps, m_exps = tuple(n_exps), tuple(m_exps)
    if not n_exps or not m_exps:
        raise ValueError("need at least one exponent on each side")
    if any(e < 1 for e in n_exps + m_exps):
        raise ValueError("exponents must be positive")
    if sum(n_exps) != sum(m_exps):
        return PrVerdict(
            "unknown", notes=(f"exponent sums differ: {sum(n_exps)} vs {sum(m_exps)}",)
        )
    if len(n_exps) == len(m_exps) == 1:
        return PrVerdict("unknown", notes=("one power on each side: x^a = y^a forces x = y",))
    return PrVerdict(
        "IPR_certified",
        method="equal-exponent-sums",
        certificate={"sum": sum(n_exps)},
    )


class TransformResult(NamedTuple):
    poly: Poly
    pr_transfer_domain: str  # "Z" | "R+"


def transform(P: Poly, kind: str, z: int | None = None) -> TransformResult:
    """Variable-wise substitutions under which regularity transfers:
    negate_vars sends every variable to its negation (transfer over the
    integers), power sends every variable to its z-th power (transfer over
    the positive reals)."""
    if kind == "negate_vars":
        items = ((key, -coeff if sum(e for _, e in key) % 2 else coeff)
                 for key, coeff in P.monomials.items())
        return TransformResult(Poly(items, P.constant), "Z")
    if kind == "power":
        if z is None or z < 1:
            raise ValueError("power transform needs an integer z >= 1")
        items = ((tuple((v, e * z) for v, e in key), coeff) for key, coeff in P.monomials.items())
        return TransformResult(Poly(items, P.constant), "R+")
    raise ValueError(f"unknown transform kind {kind!r}")


class InvarianceFlags(NamedTuple):
    translation_invariant: bool
    dilation_invariant: bool
    additive: bool
    multiplicative: bool


def invariance(P: Poly) -> InvarianceFlags:
    """Exact rules on the exponents: a common shift t leaves P unchanged when
    the t-coefficient of P(x+t), the sum of the partial derivatives, is zero;
    scaling when P is homogeneous; P(x+y) = P(x) + P(y) when every monomial
    has degree 1 (at y = x a degree-d part comes back 2^d - 2 times); and the
    multiplicative shape is M1 - M2 with equal total degrees."""
    _require_zero_constant(P)
    props = poly_props(P)
    derivative_sum = Poly(
        (key[:i] + (((v, e - 1),) if e > 1 else ()) + key[i + 1:], e * coeff)
        for key, coeff in P.monomials.items()
        for i, (v, e) in enumerate(key)
    )
    items = P.monomials.items()
    multiplicative = (
        len(items) == 2
        and sorted(coeff for _, coeff in items) == [-1, 1]
        and len({sum(e for _, e in key) for key, _ in items}) == 1
    )
    return InvarianceFlags(
        translation_invariant=derivative_sum.is_zero(),
        dilation_invariant=props.is_homogeneous,
        additive=props.degree == 1,
        multiplicative=multiplicative,
    )
