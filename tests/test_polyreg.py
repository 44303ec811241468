import random

import pytest

from prlab.core import Poly, parse_poly, poly_props
from prlab.polyreg import (
    attach_products,
    exclusive_sets,
    exp_sum_ipr,
    invariance,
    necessary_check,
    reciprocal,
    reduct,
    sufficient_ipr,
    transform,
)
from prlab.search import forcing_number, poly_system


def random_poly(rng, n_vars=4, n_monomials=4, max_exp=2):
    out = Poly.zero()
    for _ in range(rng.randint(1, n_monomials)):
        coeff = rng.choice([c for c in range(-5, 6) if c])
        term = Poly.const(coeff)
        for _ in range(rng.randint(1, 3)):
            v = f"x{rng.randint(1, n_vars)}"
            term = term * Poly.variable(v) ** rng.randint(1, max_exp)
        out = out + term
    return out


# -- reducts ----------------------------------------------------------------

def test_reduct_follows_written_monomial_order():
    assert reduct(parse_poly("x*y+4*y*z-2*t+y*w")) == parse_poly("y1+4*y2-2*y3+y4")
    assert reduct(parse_poly("y*z+x*z-x*y")) == parse_poly("y1+y2-y3")


def test_reduct_of_linear_form_is_a_renaming():
    red = reduct(parse_poly("3*a+2*b-4*c"))
    assert red == parse_poly("3*y1+2*y2-4*y3")


def test_reduct_rejects_constant_terms():
    with pytest.raises(ValueError):
        reduct(parse_poly("x*y+1"))
    with pytest.raises(ValueError):
        reduct(Poly.zero())


# -- exclusive variables ----------------------------------------------------

def test_exclusive_sets_of_three_monomial_example():
    got = exclusive_sets(parse_poly("x*y*z+y*t-w"))
    assert {frozenset(s) for s in got} == {
        frozenset({"x", "t", "w"}),
        frozenset({"z", "t", "w"}),
    }


def test_exclusive_sets_empty_when_all_variables_shared():
    assert exclusive_sets(parse_poly("x*y+y*z-x*z")) == ()


def test_exclusive_sets_of_linear_form():
    assert exclusive_sets(parse_poly("x+y-z")) == (("x", "y", "z"),)


def test_exclusive_sets_monomial_cap():
    many = "+".join(f"x{i}" for i in range(17))
    with pytest.raises(ValueError):
        exclusive_sets(parse_poly(many))


# -- sufficiency ------------------------------------------------------------

def test_sufficiency_certifies_the_product_construction_example():
    v = sufficient_ipr(parse_poly("x1*y1*y2+4*x2*y1*y2*y3-3*x3*y3-2*x4*y1"))
    assert v.status == "IPR_certified"
    assert v.certificate["exclusive_variables"] == ("x1", "x2", "x3", "x4")
    # 16 monomials with 3 private variables each: 3^16 systems of
    # representatives, of which the certificate needs only the first
    wide = "+".join(f"a{i}*b{i}*c{i}" for i in range(15)) + "-15*a15*b15*c15"
    v = sufficient_ipr(parse_poly(wide))
    assert v.status == "IPR_certified"
    assert v.certificate["exclusive_variables"] == tuple(f"a{i}" for i in range(16))


def test_sufficiency_never_certifies_squared_variable():
    assert sufficient_ipr(parse_poly("x+y-z^2")).status == "unknown"


def test_sufficiency_unknown_without_exclusive_set():
    assert sufficient_ipr(parse_poly("x*y+y*z-x*z")).status == "unknown"


def test_sufficiency_unknown_without_zero_sum_reduct():
    assert sufficient_ipr(parse_poly("x+y-3*z")).status == "unknown"


# -- necessity --------------------------------------------------------------

def test_necessity_blocks_homogeneous_quadratic():
    v = necessary_check(parse_poly("x^2+y^2-3*z^2"))
    assert v.status == "not_PR_certified"
    assert v.certificate["blocking_prime"] == 5


def test_necessity_needs_homogeneity():
    assert necessary_check(parse_poly("x+y-z^2")).status == "unknown"


def test_necessity_unknown_with_zero_sum_reduct():
    assert necessary_check(parse_poly("y*z+x*z-x*y")).status == "unknown"


def test_necessity_handles_single_monomial():
    v = necessary_check(parse_poly("x*y"))
    assert v.status == "not_PR_certified"
    assert v.certificate["blocking_prime"] == 2


def test_checkers_never_contradict_each_other():
    rng = random.Random(20260823)
    for _ in range(300):
        P = random_poly(rng)
        if P.is_zero() or P.constant != 0:
            continue
        statuses = {sufficient_ipr(P).status, necessary_check(P).status}
        assert not ({"IPR_certified", "not_PR_certified"} <= statuses), str(P)


# -- the product constructor ------------------------------------------------

def test_construction_reproduces_worked_example():
    got = attach_products(
        parse_poly("x1+4*x2-3*x3-2*x4"), [(1, 2), (1, 2, 3), (3,), (1,)], 3
    )
    assert got.poly == parse_poly("x1*y1*y2+4*x2*y1*y2*y3-3*x3*y3-2*x4*y1")
    assert got.verdict.status == "IPR_certified"


def test_construction_with_single_fresh_variable():
    got = attach_products(parse_poly("x1+x2-x3"), [(1,), (1,), ()], 1)
    assert got.poly == parse_poly("x1*y1+x2*y1-x3")


def test_construction_with_empty_subsets_is_identity():
    got = attach_products(parse_poly("x+y-z"), [(), (), ()], 0)
    assert got.poly == parse_poly("x+y-z")


def test_construction_preconditions():
    with pytest.raises(ValueError):
        attach_products(parse_poly("x+y-3*z"), [(), (), ()], 0)  # not regular
    with pytest.raises(ValueError):
        attach_products(parse_poly("x-y"), [(), ()], 0)  # too few variables
    with pytest.raises(ValueError):
        attach_products(parse_poly("x+y-z"), [(1,), (), ()], 0)  # bad subset
    with pytest.raises(ValueError):
        attach_products(parse_poly("y1+y2-y3"), [(1,), (), ()], 1)  # collision


def test_construction_keeps_the_linear_coefficients():
    rng = random.Random(7)
    for _ in range(40):
        k = rng.randint(3, 5)
        coeffs = [rng.choice([c for c in range(-9, 10) if c]) for _ in range(k - 1)]
        coeffs.append(-sum(coeffs))
        if coeffs[-1] == 0:
            continue
        text = "+".join(f"{c}*x{i}" for i, c in enumerate(coeffs)).replace("+-", "-")
        L = parse_poly(text)
        n = rng.randint(0, 3)
        subsets = [
            tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
            for _ in range(k)
        ]
        got = attach_products(L, subsets, n)
        assert sorted(got.poly.coefficients()) == sorted(L.coefficients())
        assert reduct(got.poly) == reduct(L)


# -- reciprocals ------------------------------------------------------------

def test_reciprocal_of_sum_equation():
    assert reciprocal(parse_poly("x+y-z")) == parse_poly("y*z+x*z-x*y")


def test_reciprocal_of_difference_of_squares():
    assert reciprocal(parse_poly("x^2-y^2"), 2) == parse_poly("y^2-x^2")


def test_reciprocal_rejects_nonhomogeneous():
    with pytest.raises(ValueError):
        reciprocal(parse_poly("x+y-z^2"))
    with pytest.raises(ValueError):
        reciprocal(parse_poly("x+y-z"), 2)


def test_double_reciprocal_is_a_monomial_multiple():
    """Applying the reciprocal twice multiplies by (x1...xn)^((n-2)d);
    for two-variable polynomials this is the identity."""
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(2, 4)
        d = rng.randint(1, 3)
        P = Poly.zero()
        for _ in range(rng.randint(1, 4)):
            coeff = rng.choice([c for c in range(-5, 6) if c])
            exps = [0] * n
            for _ in range(d):
                exps[rng.randrange(n)] += 1
            term = Poly.const(coeff)
            for i, e in enumerate(exps):
                if e:
                    term = term * Poly.variable(f"x{i + 1}") ** e
            P = P + term
        if P.is_zero() or len(P.variables()) < 2:
            continue
        nv = len(P.variables())
        twice = reciprocal(reciprocal(P))
        factor = Poly.const(1)
        for v in P.variables():
            if (nv - 2) * d:
                factor = factor * Poly.variable(v) ** ((nv - 2) * d)
        assert twice == factor * P, str(P)
        if nv == 2:
            assert twice == P


# -- exponent sums ----------------------------------------------------------

def test_exponent_sum_criterion():
    assert exp_sum_ipr([1, 2], [3]).status == "IPR_certified"
    assert exp_sum_ipr([1], [1]).status == "IPR_certified"
    assert exp_sum_ipr([2], [1]).status == "unknown"


def test_exponent_sum_validation():
    with pytest.raises(ValueError):
        exp_sum_ipr([], [1])
    with pytest.raises(ValueError):
        exp_sum_ipr([1, 0], [1])


# -- transforms -------------------------------------------------------------

def test_negation_flips_odd_degree_monomials():
    got = transform(parse_poly("x1*x2*x3+x4*x2*x3-x5*x6"), "negate_vars")
    assert got.poly == parse_poly("-x1*x2*x3-x4*x2*x3-x5*x6")
    assert got.pr_transfer_domain == "Z"


def test_power_transform_squares_each_variable():
    got = transform(parse_poly("x+y-z"), "power", z=2)
    assert got.poly == parse_poly("x^2+y^2-z^2")
    assert got.pr_transfer_domain == "R+"


def test_power_one_is_identity():
    assert transform(parse_poly("x+y-z"), "power", z=1).poly == parse_poly("x+y-z")


def test_transform_validation():
    with pytest.raises(ValueError):
        transform(parse_poly("x"), "power", z=0)
    with pytest.raises(ValueError):
        transform(parse_poly("x"), "reverse")


def test_negation_agrees_with_substitution():
    rng = random.Random(5)
    for _ in range(40):
        P = random_poly(rng)
        got = transform(P, "negate_vars").poly
        sub = P.substitute({v: -Poly.variable(v) for v in P.variables()})
        assert got == sub


# -- invariance flags -------------------------------------------------------

def test_invariance_of_schur_equation():
    flags = invariance(parse_poly("x+y-z"))
    # the common-shift identity fails because the coefficients sum to 1
    assert not flags.translation_invariant
    assert flags.dilation_invariant
    assert flags.additive
    assert not flags.multiplicative


def test_invariance_with_zero_coefficient_sum():
    flags = invariance(parse_poly("x+y-2*z"))
    assert flags.translation_invariant
    assert flags.additive


def test_invariance_of_quadratic():
    flags = invariance(parse_poly("x^2+y^2-z^2"))
    assert flags.dilation_invariant
    assert not (flags.translation_invariant or flags.additive or flags.multiplicative)


def test_invariance_of_monomial_difference():
    flags = invariance(parse_poly("x-y"))
    assert flags.translation_invariant and flags.additive
    assert flags.dilation_invariant and flags.multiplicative
    assert invariance(parse_poly("x*y-z^2")).multiplicative
    assert not invariance(parse_poly("x*y-z")).multiplicative
    assert not invariance(parse_poly("2*x*y-2*z^2")).multiplicative


def test_translation_invariance_matches_coefficient_sum_for_linear_forms():
    rng = random.Random(6)
    for _ in range(50):
        k = rng.randint(2, 5)
        coeffs = [rng.choice([c for c in range(-5, 6) if c]) for _ in range(k)]
        text = "+".join(f"{c}*x{i}" for i, c in enumerate(coeffs)).replace("+-", "-")
        flags = invariance(parse_poly(text))
        assert flags.translation_invariant == (sum(coeffs) == 0)
        assert flags.additive


# -- observed forcing for certified polynomials -----------------------------

def test_certified_small_instances_force_in_search():
    """For certified injectively-regular polynomials small enough to
    enumerate, two colors are forced at a small bound already."""
    for text, bound in (("x+y-z", 10), ("x*w+y*w-z*w", 10)):
        P = parse_poly(text)
        assert sufficient_ipr(P).status == "IPR_certified"
        n = forcing_number(poly_system(P), 2, bound)
        assert n is not None, text
