import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prlab.core import Poly, parse_matrix, parse_poly
from prlab.folkman import folkman_matrix
from prlab.rado import (
    ColumnsConditionCertificate,
    _bezout_list,
    _zero_sum_subset,
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
    # the last: all four columns sum to (3, -1), which a base of 3, taken from
    # the largest entry rather than the sum of all of them, would pack to 0
    for text in ("1 0\n0 1", OUTSIDE_PAIRS_13, "1 1 1 0\n0 0 0 -1"):
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
    v = columns_condition(parse_matrix("2 -2\n-1 1"))
    assert v.certificate == (((1, 2),), ())
    v = columns_condition(folkman_matrix(3))
    assert v.certificate.blocks == ((1, 4, 7, 8, 10), (2, 5, 9), (3, 6))
    assert v.certificate.combinations == tuple(tuple(map(F, c)) for c in (
        (1, 1, 0, 1, 0),
        (0, 0, 1, -1, 0, 1, 1, 0),
    ))
    v = columns_condition(folkman_matrix(4))
    assert v.certificate.blocks == (
        (1, 5, 9, 10, 11, 15, 16, 17, 19), (2, 6, 12, 13, 18), (3, 7, 14), (4, 8))
    assert v.certificate.combinations == tuple(tuple(map(F, c)) for c in (
        (1, 1, 0, 1, 1, 0, 0, 1, 0),
        (0, 0, 1, -1, 0, 0, 1, -1, 0, 1, 1, 0, 1, 0),
        (0, 0, 0, 1, -1, 1, -1, 0, 0, 0, 0, 1, -1, 0, 1, 1, 0),
    ))


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
@settings(max_examples=150)
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


# each breaks the certificate of the multi-block literal above in one place
PLANTED_BAD_CERTIFICATES = [
    lambda c: c._replace(blocks=c.blocks[:-1] + ((3,),)),
    lambda c: c._replace(blocks=c.blocks[:-1] + ((4, 4),)),
    lambda c: c._replace(combinations=c.combinations + ((Fraction(0),) * 6,)),
    lambda c: c._replace(combinations=(c.combinations[0], c.combinations[1][:-1], c.combinations[2])),
    lambda c: c._replace(combinations=c.combinations[:2] + (
        (c.combinations[2][0] + 1, *c.combinations[2][1:]),)),
    lambda c: c._replace(blocks=c.blocks[1:] + c.blocks[:1]),
    lambda c: c._replace(combinations=c.combinations[:-1]),
]


@pytest.mark.parametrize("tamper", PLANTED_BAD_CERTIFICATES, ids=[
    "column-missing", "column-repeated", "combination-too-many", "combination-wrong-length",
    "combination-misses-the-block-sum", "first-block-not-zero-sum",
    "combination-too-few"])
def test_planted_bad_certificates_are_rejected(tamper):
    M = parse_matrix("1 -2 -1 1 0 2\n1 -3 1 -3 3 0")
    good = columns_condition(M).certificate
    assert verify_columns_certificate(M, good) is True
    assert verify_columns_certificate(M, tamper(good)) is False


def test_column_cap_enforced():
    # the front check names columns, ahead of the subset scan's own cap
    M = parse_matrix(" ".join(["1"] * 21))
    with pytest.raises(ValueError, match=r"^too many columns for exhaustive search \(max 20\)$"):
        columns_condition(M)


def test_single_row_agreement_with_zero_sum_subset():
    """On 1-row matrices the block search agrees with plain subset search,
    and its first block is the subset that _zero_sum_subset finds."""
    for n in (2, 3, 4):
        for entries in product([-3, -2, -1, 1, 2, 3], repeat=n):
            v = columns_condition(parse_matrix(" ".join(map(str, entries))))
            assert v.satisfied == brute_zero_sum(entries)
            sub = _zero_sum_subset(entries)
            assert (v.certificate.blocks[0] if v.satisfied else None) == (
                None if sub is None else tuple(i + 1 for i in sub))


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


def test_coefficient_cap_comes_before_the_subset_scan():
    # x1 - x2 is a zero-sum subset, yet past the cap no scan runs at all
    many = parse_poly("x1-x2+" + "+".join(f"x{i}" for i in range(3, 22)))
    with pytest.raises(ValueError, match="^more than 20 coefficients$"):
        linear_pr(many)
    with pytest.raises(ValueError, match="^more than 20 coefficients$"):
        affine_pr(parse_poly("+".join(f"x{i}" for i in range(1, 22)) + "+21"))
    twenty = parse_poly("x1-x2+" + "+".join(f"x{i}" for i in range(3, 21)))
    assert linear_pr(twenty).subset == ("x1", "x2")


@given(st.lists(st.integers(-9, 9).filter(lambda c: c != 0), min_size=2, max_size=7))
@settings(max_examples=150)
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


def _oracle(coeffs):
    """Brute force over every nonempty subset: the least subset (by size,
    then lexicographic) that sums to zero, and the least prime dividing no
    subset sum when there is none."""
    subsets = [sub for size in range(1, len(coeffs) + 1)
               for sub in combinations(range(len(coeffs)), size)]
    sums = [sum(coeffs[i] for i in sub) for sub in subsets]
    if 0 in sums:
        return subsets[sums.index(0)], None
    p = 2
    while any(s % p == 0 for s in sums) or any(p % q == 0 for q in range(2, p)):
        p += 1
    return None, p


def test_blocking_prime_and_linear_pr_match_brute_force_on_seeded_lists():
    rng = random.Random(19)
    found = {True: 0, False: 0}  # lists with and without a zero-sum subset
    for _ in range(2_000):
        size = rng.randint(1, 12)
        bound = rng.choice((3, 20, 1_000))  # small bounds make zero sums common
        coeffs = [rng.choice((-1, 1)) * rng.randint(1, bound) for _ in range(size)]
        sub, p = _oracle(coeffs)
        found[sub is not None] += 1
        assert blocking_prime(coeffs) == p, coeffs
        if size >= 2:
            # zero-padded names keep the variables in coefficient order
            names = [f"x{i:02d}" for i in range(size)]
            v = linear_pr(Poly((((name, 1),), c) for name, c in zip(names, coeffs)))
            names = None if sub is None else tuple(names[i] for i in sub)
            assert (v.pr, v.subset, v.blocking_prime) == (sub is not None, names, p), coeffs
    assert min(found.values()) >= 500


def test_blocking_prime_input_validation():
    with pytest.raises(ValueError):
        blocking_prime([])
    with pytest.raises(ValueError):
        blocking_prime([1, 0, 2])
    with pytest.raises(ValueError):
        blocking_prime([1] * 21)


@given(st.lists(st.integers(-9, 9).filter(lambda c: c != 0), min_size=1, max_size=6))
@settings(max_examples=150)
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
    assert (len(ps.j_vars), ps.c, ps.d, ps.m, ps.z) == (2, 1, 1, 1, -1)
    assert ps.j_vars == ("x", "z") and ps.other_vars == ("y",)
    # the scaled multipliers satisfy z times the gcd identity over the subset
    assert 1 * ps.zs[0] + (-1) * ps.zs[1] == ps.z * ps.c
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


def test_parametric_subset_is_a_set():
    # y named twice once gave y two values and a family that misses 2x = y + z
    with pytest.raises(ValueError, match="does not sum to zero"):
        parametric_solution(parse_poly("2*x-y-z"), ["x", "y", "y"])
    assert parametric_solution(parse_poly("x+y-z"), ["x", "z", "x"]).j_vars == ("x", "z")


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
        assert sum(c * s for c, s in zip(sorted_coeffs(poly, ps.j_vars), ps.zs)) == ps.z * ps.c
        assert ps.c * ps.z + ps.d * ps.m == 0
        for _ in range(20):
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            assert poly.evaluate(ps.assignment(a, b)) == 0


def test_bezout_list_seeded():
    rng = random.Random(20261021)
    for t in range(2000):
        factor = rng.choice([2, 3, 6]) if t % 3 == 0 else 1  # a third share a factor
        pool = [c for c in range(-40, 41) if c and c % factor == 0]
        nums = [rng.choice(pool) for _ in range(rng.randint(1, 6))]
        g, bez = _bezout_list(nums)
        assert len(bez) == len(nums)
        assert sum(n * b for n, b in zip(nums, bez)) == g == math.gcd(*nums) > 0


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
