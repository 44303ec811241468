import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prlab.core import parse_matrix, parse_poly
from prlab.rado import (
    ColumnsConditionCertificate,
    affine_pr,
    blocking_prime,
    columns_condition,
    linear_pr,
    parametric_solution,
    smod,
    verify_columns_certificate,
)


def brute_zero_sum(coeffs):
    for size in range(1, len(coeffs) + 1):
        for sub in combinations(range(len(coeffs)), size):
            if sum(coeffs[i] for i in sub) == 0:
                return True
    return False


# -- columns condition ------------------------------------------------------

def test_single_row_schur_matrix_satisfies():
    v = columns_condition(parse_matrix("1 1 -1"))
    assert v.satisfied
    assert v.certificate.blocks == ((1, 3), (2,))
    assert v.certificate.combinations == ((Fraction(1), Fraction(0)),)


def test_all_positive_row_fails():
    v = columns_condition(parse_matrix("1 1"))
    assert not v.satisfied
    assert v.certificate is None


def test_two_row_matrix_with_zero_column_sums():
    # every column participates in a single zero-sum block
    v = columns_condition(parse_matrix("2 -1 -1\n-1 2 -1"))
    assert v.satisfied
    assert v.certificate.blocks == ((1, 2, 3),)
    assert v.certificate.combinations == ()


# pairs of +-1 columns and one column outside their span: a search that
# backtracks over block choices tries exponentially many orders here
OUTSIDE_PAIRS_13 = " ".join(["1 -1"] * 6) + " 0\n" + " ".join(["0"] * 12) + " 1"


def test_identity_matrix_fails():
    for text in ("1 0\n0 1", OUTSIDE_PAIRS_13):
        assert not columns_condition(parse_matrix(text)).satisfied


def test_multi_block_certificate_literal():
    v = columns_condition(parse_matrix("1 -2 -1 1 0 2\n1 -3 1 -3 3 0"))
    F = Fraction
    assert v.certificate.blocks == ((2, 5, 6), (1,), (3,), (4,))
    assert v.certificate.combinations == (
        (F(-1, 2), F(-1, 6), F(0)),
        (F(1, 2), F(5, 6), F(0), F(0)),
        (F(-1, 2), F(-3, 2), F(0), F(0), F(0)),
    )
    v = columns_condition(parse_matrix("-3 -1 2 3 1 1 1 0"))
    assert v.certificate.blocks == ((8,), (1, 4), (2,), (3,), (5,), (6,), (7,))
    assert v.certificate.combinations[:2] == ((F(0),), (F(0), F(1, 3), F(0)))


def _rank(vectors):
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def _ordered_partitions(items):
    if not items:
        yield ()
        return
    for size in range(1, len(items) + 1):
        for block in combinations(items, size):
            rest = [c for c in items if c not in block]
            for tail in _ordered_partitions(rest):
                yield (block,) + tail


def _brute_columns_condition(rows):
    cols = list(zip(*rows))

    def valid(partition):
        earlier = []
        for block in partition:
            s = [sum(x) for x in zip(*(cols[c] for c in block))]
            if _rank(earlier + [s]) != _rank(earlier):
                return False
            earlier += [cols[c] for c in block]
        return True

    return any(valid(p) for p in _ordered_partitions(list(range(len(cols)))))


@st.composite
def small_matrices(draw):
    n_rows = draw(st.integers(1, 3))
    n_cols = draw(st.integers(1, 5))
    return [draw(st.lists(st.integers(-3, 3), min_size=n_cols, max_size=n_cols))
            for _ in range(n_rows)]


@given(small_matrices())
@settings(deadline=None, max_examples=150)
def test_columns_condition_matches_brute_force_over_ordered_partitions(rows):
    M = parse_matrix("\n".join(" ".join(map(str, r)) for r in rows))
    v = columns_condition(M)
    assert v.satisfied == _brute_columns_condition(rows)
    if v.satisfied:
        assert verify_columns_certificate(M, v.certificate)


def test_certificates_reverify_independently():
    for text in ("1 1 -1", "2 -1 -1\n-1 2 -1", "1 -1 2 -2", "3 1 -2 -2"):
        M = parse_matrix(text)
        v = columns_condition(M)
        if v.satisfied:
            assert verify_columns_certificate(M, v.certificate)


def test_tampered_certificate_rejected():
    M = parse_matrix("1 1 -1")
    good = columns_condition(M).certificate
    bad = ColumnsConditionCertificate(((1, 2), (3,)), good.combinations)
    assert not verify_columns_certificate(M, bad)


def test_column_cap_enforced():
    M = parse_matrix(" ".join(["1"] * 21))
    with pytest.raises(ValueError):
        columns_condition(M)


def test_single_row_agreement_with_zero_sum_subset():
    """On 1-row matrices the block search agrees with plain subset search."""
    for n in (2, 3):
        for entries in product([-3, -2, -1, 1, 2, 3], repeat=n):
            M = parse_matrix(" ".join(map(str, entries)))
            assert columns_condition(M).satisfied == brute_zero_sum(entries)


# -- linear equations -------------------------------------------------------

def test_schur_equation_regular():
    v = linear_pr(parse_poly("x+y-z"))
    assert v.pr
    assert v.subset == ("x", "z")


def test_triple_equation_not_regular():
    v = linear_pr(parse_poly("x+y-3*z"))
    assert not v.pr
    assert v.blocking_prime == 5


def test_full_support_subset():
    v = linear_pr(parse_poly("2*x+3*y-5*z"))
    assert v.pr
    assert set(v.subset) == {"x", "y", "z"}


def test_linear_pr_rejects_nonlinear_and_single_variable():
    with pytest.raises(ValueError):
        linear_pr(parse_poly("x*y-z"))
    with pytest.raises(ValueError):
        linear_pr(parse_poly("x+y-z+1"))
    with pytest.raises(ValueError):
        linear_pr(parse_poly("3*x"))


@given(st.lists(st.integers(-9, 9).filter(lambda c: c != 0), min_size=2, max_size=7))
@settings(deadline=None, max_examples=150)
def test_verdict_matches_brute_force_subset_search(coeffs):
    poly = parse_poly(
        "+".join(f"{c}*x{i}" for i, c in enumerate(coeffs)).replace("+-", "-")
    )
    assert linear_pr(poly).pr == brute_zero_sum(coeffs)


# -- blocking primes --------------------------------------------------------

def test_blocking_prime_fixtures():
    assert blocking_prime([1, 1, -3]) == 5
    assert blocking_prime([1, -1]) is None
    assert blocking_prime([1, 1]) == 3
    # all of 2, 3, 5 divide some subset sum here; the answer lies past
    # 1 + max|sum|, so no a-priori prime cap is safe
    assert blocking_prime([1, 1, 1, 2]) == 7


def test_blocking_prime_input_validation():
    with pytest.raises(ValueError):
        blocking_prime([])
    with pytest.raises(ValueError):
        blocking_prime([1, 0, 2])
    with pytest.raises(ValueError):
        blocking_prime([1] * 21)


@given(st.lists(st.integers(-9, 9).filter(lambda c: c != 0), min_size=1, max_size=6))
@settings(deadline=None, max_examples=150)
def test_blocking_prime_divides_no_subset_sum(coeffs):
    p = blocking_prime(coeffs)
    sums = [
        sum(coeffs[i] for i in sub)
        for size in range(1, len(coeffs) + 1)
        for sub in combinations(range(len(coeffs)), size)
    ]
    if p is None:
        assert 0 in sums
    else:
        assert 0 not in sums
        assert all(s % p != 0 for s in sums)
        for q in range(2, p):
            divides_none = all(s % q != 0 for s in sums)
            is_prime = q > 1 and all(q % f for f in range(2, q))
            assert not (is_prime and divides_none)


# -- affine equations -------------------------------------------------------

def test_affine_constant_solution_route():
    v = affine_pr(parse_poly("x+y-z-3"))
    assert v.pr and v.route == "constant-solution" and v.k == 3


def test_affine_shift_route():
    v = affine_pr(parse_poly("x+y-z+3"))
    assert v.pr
    assert v.route == "integer-shift-with-zero-sum-subset"
    assert v.z == -3
    assert v.subset == ("x", "z")


def test_affine_negative_cases():
    assert not affine_pr(parse_poly("2*x+1")).pr
    assert not affine_pr(parse_poly("x-y+5")).pr
    assert not affine_pr(parse_poly("2*x+2*y-z+1")).pr


def test_affine_requires_nonzero_constant():
    with pytest.raises(ValueError):
        affine_pr(parse_poly("x+y-z"))


def test_affine_constant_route_demands_positive_k():
    # s*k + c = 0 forces k = -2 here, which is not a valid value,
    # and {1, 1} has no zero-sum subset either
    assert not affine_pr(parse_poly("x+y+4")).pr


# -- parametric families ----------------------------------------------------

def test_parametric_schur_family():
    ps = parametric_solution(parse_poly("x+y-z"), ["x", "z"])
    assert (ps.k, ps.c, ps.d, ps.m, ps.z) == (2, 1, 1, 1, -1)
    assert ps.j_vars == ("x", "z") and ps.other_vars == ("y",)
    # raw multipliers satisfy the gcd identity over the subset
    assert 1 * ps.bezout[0] + (-1) * ps.bezout[1] == ps.c
    poly = parse_poly("x+y-z")
    for a, b in product(range(-4, 5), repeat=2):
        assert poly.evaluate(ps.assignment(a, b)) == 0


def test_parametric_degenerate_full_subset():
    ps = parametric_solution(parse_poly("2*x+3*y-5*z"), ["x", "y", "z"])
    assert ps.m == 1
    assert ps.zs == (0, 0, 0)
    assert parse_poly("2*x+3*y-5*z").evaluate(ps.assignment(7, 11)) == 0


def test_parametric_rejects_non_zero_sum_subset():
    with pytest.raises(ValueError):
        parametric_solution(parse_poly("x+y-z"), ["x", "y"])
    with pytest.raises(ValueError):
        parametric_solution(parse_poly("x+y-z"), [])


def test_parametric_random_planted_families():
    rng = random.Random(20260823)
    for _ in range(60):
        k = rng.randint(2, 4)
        extra = rng.randint(0, 2)
        sub_coeffs = [rng.choice([c for c in range(-9, 10) if c]) for _ in range(k - 1)]
        sub_coeffs.append(-sum(sub_coeffs))
        if sub_coeffs[-1] == 0:
            sub_coeffs[-1] = rng.choice([-2, 2])
            sub_coeffs.append(-sum(sub_coeffs))
            k += 1
        coeffs = sub_coeffs + [
            rng.choice([c for c in range(-9, 10) if c]) for _ in range(extra)
        ]
        names = [f"x{i}" for i in range(len(coeffs))]
        text = "+".join(f"{c}*{v}" for c, v in zip(coeffs, names)).replace("+-", "-")
        poly = parse_poly(text)
        ps = parametric_solution(poly, names[:k])
        assert sum(c * b for c, b in zip(sorted_coeffs(poly, ps.j_vars), ps.bezout)) == ps.c
        assert ps.c * ps.z + ps.d * ps.m == 0
        for _ in range(20):
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            assert poly.evaluate(ps.assignment(a, b)) == 0


def sorted_coeffs(poly, names):
    return [poly.monomials[((v, 1),)] for v in names]


# -- super-modulo coloring --------------------------------------------------

def test_smod_fixtures():
    assert smod(5, 50) == 2
    assert smod(5, 125) == 1
    assert smod(3, 7) == 1
    assert smod(2, 12) == 1


def test_smod_validation():
    with pytest.raises(ValueError):
        smod(4, 10)
    with pytest.raises(ValueError):
        smod(5, 0)


def test_smod_classes_partition_initial_segment():
    N = 10**4
    for p in (2, 3, 5, 7):
        seen = {}
        for n in range(1, N + 1):
            c = smod(p, n)
            assert 1 <= c <= p - 1
            seen.setdefault(c, 0)
            seen[c] += 1
        assert sum(seen.values()) == N
        assert set(seen) == set(range(1, p))


def test_smod_blocks_the_triple_equation():
    """The prime reported against x+y-3z really blocks it on a long interval."""
    v = linear_pr(parse_poly("x+y-3*z"))
    p = v.blocking_prime
    colors = [None] + [smod(p, n) for n in range(1, 501)]
    for z in range(1, 167):
        for x in range(1, 3 * z):
            y = 3 * z - x
            if 1 <= y <= 500:
                assert not (colors[x] == colors[y] == colors[z])
