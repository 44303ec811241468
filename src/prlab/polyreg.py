"""Structural criteria and transforms for partition regularity of nonlinear
polynomials: linearized reducts, exclusive-variable sets, a product
constructor that lifts a regular linear form to a certified nonlinear one,
sufficiency/necessity checks, reciprocals, and invariance flags.

Verdicts are conservative: a checker returns a definite status only when its
criterion applies, and "unknown" otherwise; unknown never means irregular.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

from .core import Poly, poly_props
from .rado import blocking_prime, linear_pr

MAX_EXCLUSIVE_MONOMIALS = 16


@dataclass
class PrVerdict:
    status: str  # "IPR_certified" | "PR_certified" | "not_PR_certified" | "unknown"
    method: str | None = None
    certificate: dict = field(default_factory=dict)
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
    out = Poly.zero()
    for i, (_, coeff) in enumerate(P.monomial_items(), start=1):
        out = out + Poly.const(coeff) * Poly.variable(f"y{i}")
    return out


def _private_variables(P: Poly) -> list[tuple[str, ...]]:
    """For each monomial, its variables that occur in no other monomial."""
    _require_zero_constant(P)
    monomials = [key for key, _ in P.monomial_items()]
    if len(monomials) > MAX_EXCLUSIVE_MONOMIALS:
        raise ValueError(f"too many monomials (max {MAX_EXCLUSIVE_MONOMIALS})")
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
    if len(red.variables()) < 2:
        return PrVerdict("unknown", notes=("single monomial",))
    lin = linear_pr(red)
    if not lin.pr:
        return PrVerdict("unknown", notes=("reduct has no zero-sum coefficient subset",))
    return PrVerdict(
        "IPR_certified",
        method="exclusive-variables-with-regular-reduct",
        certificate={
            "exclusive_variables": tuple(cands[0] for cands in per_monomial),
            "reduct": str(red),
            "zero_sum_subset": lin.subset,
        },
    )


def necessary_check(P: Poly) -> PrVerdict:
    """Rule out regularity when the polynomial is homogeneous and its reduct
    coefficients have no zero-sum subset; the certificate carries the
    smallest prime blocking every subset sum."""
    _require_zero_constant(P)
    props = poly_props(P)
    if not props.is_homogeneous:
        return PrVerdict("unknown", notes=("not homogeneous",))
    coeffs = P.coefficients()
    if len(coeffs) == 1:
        p = blocking_prime(coeffs)
        return PrVerdict(
            "not_PR_certified",
            method="homogeneous-reduct-blocking",
            certificate={"reduct": str(reduct(P)), "blocking_prime": p},
        )
    lin = linear_pr(reduct(P))
    if lin.pr:
        return PrVerdict("unknown", notes=("reduct has a zero-sum coefficient subset",))
    return PrVerdict(
        "not_PR_certified",
        method="homogeneous-reduct-blocking",
        certificate={"reduct": str(reduct(P)), "blocking_prime": lin.blocking_prime},
    )


@dataclass
class ConstructResult:
    poly: Poly
    verdict: PrVerdict


def attach_products(L: Poly, subsets, n: int) -> ConstructResult:
    """Lift a regular linear form sum(a_i * x_i) to the certified nonlinear
    polynomial sum(a_i * x_i * prod_{j in F_i} y_j): each x_i stays exclusive
    to its monomial and the reduct keeps L's coefficients."""
    props = poly_props(L)
    if not (props.is_linear and props.is_homogeneous and props.constant_term == 0):
        raise ValueError("linear part must be homogeneous linear")
    variables = L.variables()
    if len(variables) < 3:
        raise ValueError("need at least three variables")
    if len(subsets) != len(variables):
        raise ValueError("need one index subset per variable")
    if n < 0:
        raise ValueError("n must be >= 0")
    lin = linear_pr(L)
    if not lin.pr:
        raise ValueError("linear part has no zero-sum coefficient subset")
    fresh = [f"y{j}" for j in range(1, n + 1)]
    if any(v in fresh for v in variables):
        raise ValueError("variable names collide with the fresh y variables")
    out = Poly.zero()
    for v, F in zip(variables, subsets):
        F = sorted(set(F))
        if any(not 1 <= j <= n for j in F):
            raise ValueError(f"subset {F} not within 1..{n}")
        term = Poly.const(L.monomials[((v, 1),)]) * Poly.variable(v)
        for j in F:
            term = term * Poly.variable(f"y{j}")
        out = out + term
    verdict = sufficient_ipr(out)
    if verdict.status != "IPR_certified":
        raise RuntimeError(f"internal check failed: construction is {verdict.status}")
    return ConstructResult(out, verdict)


def reciprocal(P: Poly, d: int | None = None) -> Poly:
    """Multiply P(1/x_1, ..., 1/x_n) by (x_1 * ... * x_n)^d: each monomial's
    exponent on each variable v becomes d minus the old exponent.  Regularity
    transfers both ways."""
    props = poly_props(P)
    if not props.is_homogeneous:
        raise ValueError("polynomial must be homogeneous")
    if d is None:
        d = props.degree
    elif d != props.degree:
        raise ValueError("degree argument does not match the polynomial")
    variables = P.variables()
    out = Poly.const(P.constant)
    for key, coeff in P.monomial_items():
        exps = dict(key)
        term = Poly.const(coeff)
        for v in variables:
            e = d - exps.get(v, 0)
            if e:
                term = term * Poly.variable(v) ** e
        out = out + term
    return out


def exp_sum_ipr(n_exps, m_exps) -> PrVerdict:
    """Difference of two power products prod(x_i^n_i) - prod(y_j^m_j):
    certified injectively regular when the exponent sums agree."""
    n_exps, m_exps = tuple(n_exps), tuple(m_exps)
    if not n_exps or not m_exps:
        raise ValueError("need at least one exponent on each side")
    if any(e < 1 for e in n_exps + m_exps):
        raise ValueError("exponents must be positive")
    if sum(n_exps) == sum(m_exps):
        return PrVerdict(
            "IPR_certified",
            method="equal-exponent-sums",
            certificate={"sum": sum(n_exps)},
        )
    return PrVerdict(
        "unknown", notes=(f"exponent sums differ: {sum(n_exps)} vs {sum(m_exps)}",)
    )


@dataclass
class TransformResult:
    poly: Poly
    pr_transfer_domain: str  # "Z" | "R+"


def transform(P: Poly, kind: str, z: int | None = None) -> TransformResult:
    """Variable-wise substitutions under which regularity transfers:
    negate_vars sends every variable to its negation (transfer over the
    integers), power sends every variable to its z-th power (transfer over
    the positive reals)."""
    if kind == "negate_vars":
        out = Poly.zero()
        out.constant = P.constant
        for key, coeff in P.monomial_items():
            total = sum(e for _, e in key)
            out._add_key(key, coeff if total % 2 == 0 else -coeff)
        return TransformResult(out, "Z")
    if kind == "power":
        if z is None or z < 1:
            raise ValueError("power transform needs an integer z >= 1")
        out = Poly.zero()
        out.constant = P.constant
        for key, coeff in P.monomial_items():
            out._add_key(tuple((v, e * z) for v, e in key), coeff)
        return TransformResult(out, "R+")
    raise ValueError(f"unknown transform kind {kind!r}")


@dataclass
class InvarianceFlags:
    translation_invariant: bool
    dilation_invariant: bool
    additive: bool
    multiplicative: bool


def _fresh(P: Poly, base: str) -> str:
    used = set(P.variables())
    name = base
    while name in used:
        name += "0"
    return name


def invariance(P: Poly) -> InvarianceFlags:
    """Exact symbolic checks: invariance under adding a common shift to all
    variables, homogeneity (scaling), additivity P(x+y) = P(x) + P(y), and
    the two-monomial multiplicative shape M1 - M2 with equal total degrees."""
    _require_zero_constant(P)
    props = poly_props(P)
    t = Poly.variable(_fresh(P, "t"))
    shifted = P.substitute({v: Poly.variable(v) + t for v in P.variables()})
    translation = shifted == P

    a_vars = {v: Poly.variable(v + "_a") for v in P.variables()}
    b_vars = {v: Poly.variable(v + "_b") for v in P.variables()}
    both = {v: a_vars[v] + b_vars[v] for v in P.variables()}
    additive = P.substitute(both) == P.substitute(a_vars) + P.substitute(b_vars)

    items = P.monomial_items()
    multiplicative = (
        len(items) == 2
        and sorted(coeff for _, coeff in items) == [-1, 1]
        and len({sum(e for _, e in key) for key, _ in items}) == 1
    )
    return InvarianceFlags(
        translation_invariant=translation,
        dilation_invariant=props.is_homogeneous,
        additive=additive,
        multiplicative=multiplicative,
    )
