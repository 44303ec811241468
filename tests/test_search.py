import ast
import math
import os
import random
import subprocess
import sys
import time
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, strategies as st

import prlab
from prlab import search
from prlab.core import (
    Coloring, FiniteSet, IntMatrix, Poly, linear_coefficients, parse_matrix, parse_poly)
from prlab.rado import blocking_prime, smod
from prlab.search import (
    NodeBudget,
    SearchBudgetExceeded,
    _LinearRows,
    _check_good_coloring,
    _reach,
    _runs,
    ap_system,
    contains_ap,
    enumerate_solutions,
    forcing_number,
    good_coloring,
    is_mono_3ap,
    matrix_system,
    mono_witness,
    poly_system,
    solutions_by_max,
    vdw325_extract,
)

SCHUR = poly_system(parse_poly("x+y-z"))


# -- enumeration ------------------------------------------------------------

def test_every_solution_source_has_one_cap(monkeypatch):
    # progressions, linear rows and polynomial residuals are cut alike
    monkeypatch.setattr(search, "MAX_SOLUTIONS", 5)
    for system in (
        ap_system(3),
        SCHUR,
        matrix_system(parse_matrix("1 1 -1")),
        poly_system(parse_poly("x*y-z")),
    ):
        with pytest.raises(ValueError, match="solution count exceeds 5"):
            enumerate_solutions(system, 10)
    assert len(enumerate_solutions(ap_system(4), 7)) == 5  # at the cap, not past it
    # a witness takes the first solution only
    assert mono_witness(Coloring(1, [1] * 10), ap_system(3)) == (1, 2, 3)


def test_enumerate_schur_injective():
    s = poly_system(parse_poly("x+y-z"), injective=True)
    assert enumerate_solutions(s, 4) == [(1, 2, 3), (1, 3, 4), (2, 1, 3), (3, 1, 4)]


def test_enumerate_tiny_bounds():
    assert enumerate_solutions(SCHUR, 2) == [(1, 1, 2)]
    inj = poly_system(parse_poly("x+y-z"), injective=True)
    assert enumerate_solutions(inj, 2) == []


def test_enumerate_increasing_three_term_progressions():
    assert enumerate_solutions(ap_system(3), 5) == [
        (1, 2, 3),
        (1, 3, 5),
        (2, 3, 4),
        (3, 4, 5),
    ]


def test_enumerate_matches_brute_force():
    poly = parse_poly("x+2*y-3*z")
    got = enumerate_solutions(poly_system(poly), 7)
    want = [
        (x, y, z)
        for x in range(1, 8)
        for y in range(1, 8)
        for z in range(1, 8)
        if x + 2 * y - 3 * z == 0
    ]
    assert got == sorted(want)


def test_enumerate_quadratic_equation():
    poly = parse_poly("x^2+y^2-z^2")
    got = enumerate_solutions(poly_system(poly), 15)
    want = sorted(
        (x, y, z)
        for x in range(1, 16)
        for y in range(1, 16)
        for z in range(1, 16)
        if x * x + y * y == z * z
    )
    assert got == want
    assert (3, 4, 5) in got


def test_enumeration_caps():
    with pytest.raises(ValueError, match=r"too many variables \(max 6\)"):
        enumerate_solutions(poly_system(parse_poly("a*b+c+d+e+f-g")), 3)
    with pytest.raises(ValueError):
        enumerate_solutions(poly_system(parse_poly("x^3-y")), 3)
    with pytest.raises(ValueError):
        enumerate_solutions(SCHUR, 0)


def test_system_constructors_validate():
    with pytest.raises(ValueError):
        poly_system(parse_poly("x^2"))
    with pytest.raises(ValueError):
        ap_system(1)


def test_matrix_enumeration_agrees_with_poly():
    M = parse_matrix("1 1 -1")
    assert enumerate_solutions(matrix_system(M), 5) == enumerate_solutions(SCHUR, 5)


def test_linear_poly_and_matrix_are_one_system():
    # a linear equation is its row of coefficients, past six variables too:
    # given as a polynomial or as a one-row matrix it enumerates, searches,
    # sweeps and finds witnesses alike
    rng = random.Random(29)
    for case in range(48):
        k = 2 + case % 8
        coeffs = [rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(k)]
        if all(c > 0 for c in coeffs) or all(c < 0 for c in coeffs):
            coeffs[-1] = -coeffs[-1]
        P = Poly({((f"x{i}", 1),): c for i, c in enumerate(coeffs)})
        n = rng.randint(2, 13 - k)
        coloring = Coloring(1, [rng.randint(1, 3) for _ in range(n)])
        for injective in (False, True):
            systems = poly_system(P, injective), matrix_system(IntMatrix([coeffs]), injective)
            got = [(enumerate_solutions(system, n), good_coloring(system, n, 2),
                    forcing_number(system, 2, n), mono_witness(coloring, system))
                   for system in systems]
            assert got[0] == got[1], (coeffs, n, injective)


def test_two_row_system_enumeration():
    M = parse_matrix("1 1 -1 0\n0 1 1 -1")
    got = enumerate_solutions(matrix_system(M), 8)
    want = sorted(
        (a, b, a + b, b + a + b)
        for a in range(1, 9)
        for b in range(1, 9)
        if a + b <= 8 and a + 2 * b <= 8
    )
    assert got == want


def brute_solutions(holds, k, n, injective=False):
    return [
        xs
        for xs in product(range(1, n + 1), repeat=k)
        if holds(xs) and (not injective or len(set(xs)) == k)
    ]


def test_enumerate_matrix_with_zero_last_column_matches_brute_force():
    got = enumerate_solutions(matrix_system(parse_matrix("1 -1 0")), 6)
    assert got == brute_solutions(lambda v: v[0] == v[1], 3, 6)
    M = parse_matrix("1 1 -1 0\n0 0 0 0")
    for injective in (False, True):
        got = enumerate_solutions(matrix_system(M, injective=injective), 7)
        want = brute_solutions(lambda v: v[0] + v[1] == v[2], 4, 7, injective)
        assert got == want


def test_exact_linear_enumeration_matches_brute_force():
    # coefficients up to 40 over [1, n] exercise the doubled reachable-sum
    # masks; half the equations get a constant that a random point solves
    rng = random.Random(11)
    nonzero = [c for c in range(-40, 41) if c]
    for _ in range(40):
        k, n = rng.randint(2, 3), rng.randint(1, 30)
        coeffs = [rng.choice(nonzero) for _ in range(k)]
        point = [rng.randint(1, n) for _ in range(k)]
        if rng.random() < 0.5:
            constant = -sum(c * x for c, x in zip(coeffs, point))
        else:
            constant = rng.randint(-300, 300)
        P = Poly({(("xyz"[i], 1),): c for i, c in enumerate(coeffs)}, constant)
        holds = lambda v: sum(c * x for c, x in zip(coeffs, v)) + constant == 0
        for injective in (False, True):
            want = brute_solutions(holds, k, n, injective)
            assert enumerate_solutions(poly_system(P, injective), n) == want, (P, n)


def test_exact_matrix_enumeration_matches_brute_force():
    # one and two rows with zero entries, sometimes a whole zero column
    rng = random.Random(12)
    for _ in range(40):
        rows, cols = rng.randint(1, 2), rng.randint(2, 4)
        n = rng.randint(1, 30 if cols < 4 else 10)
        entries = [[rng.choice((0, 0, -3, -2, -1, 1, 2, 3)) for _ in range(cols)]
                   for _ in range(rows)]
        if rng.random() < 0.3:
            zero = rng.randrange(cols)
            for row in entries:
                row[zero] = 0
        M = parse_matrix("\n".join(" ".join(map(str, row)) for row in entries))
        holds = lambda v: all(sum(a * x for a, x in zip(row, v)) == 0 for row in entries)
        for injective in (False, True):
            want = brute_solutions(holds, cols, n, injective)
            assert enumerate_solutions(matrix_system(M, injective), n) == want, (entries, n)


SMOD_CLASSES = [
    [m for m in range(1, 2001) if smod(p, m) == c] for p in (5, 7, 11) for c in range(1, p)]


def test_runs_split_values_into_arithmetic_progressions():
    rng = random.Random(31)
    cases = [[0], [-3, 0, 2], [-3, -2, -1, 0, 1], list(range(-7, 40, 3))] + SMOD_CLASSES
    for _ in range(200):
        cases.append(sorted(rng.sample(range(-30, 80), rng.randint(1, 40))))
    for values in cases:
        runs = _runs(values)
        covered = [a + d * t for a, d, count in runs for t in range(count)]
        assert sorted(covered) == values, values  # every value in exactly one run
        assert len({d for _, d, _ in runs}) == 1 and runs[0][1] >= 1
        assert min(count for _, _, count in runs) >= 1
    for values in (range(-3, 9), range(1, 2001), list(range(0, 5))):
        assert _runs(values) == [(values[0], 1, len(values))]
    for values in SMOD_CLASSES:
        assert 4 * len(_runs(values)) <= len(values), len(values)


def test_reachable_sums_match_one_shift_per_value():
    # value lists with gaps, as color classes are, and lists and ranges without
    rng = random.Random(13)
    cases = []
    for _ in range(300):
        values = sorted(rng.sample(range(-20, 60), rng.randint(1, 30)))
        if rng.random() < 0.4:
            values = range(rng.randint(-5, 5), rng.randint(6, 40))
            values = list(values) if rng.random() < 0.5 else values
        cases.append((values, rng.choice([x for x in range(-9, 10) if x])))
    cases += [(values, rng.choice((-4, -3, -1, 1, 2, 5))) for values in SMOD_CLASSES]
    for values, c in cases:
        mask = rng.getrandbits(40) | 1
        low, want = min(c * values[0], c * values[-1]), 0
        for x in values:
            want |= mask << (c * x - low)
        assert _reach(mask, c, _runs(values)) == want, (values, c)


def test_solutions_indexed_by_maximum():
    idx = solutions_by_max(SCHUR, 4)
    assert idx[2] == [(1, 2)]
    # (1,2,3) and (2,1,3) collapse to one value set
    assert idx[3] == [(1, 2, 3)]
    assert idx[4] == [(1, 3, 4), (2, 4)]


# -- coloring search --------------------------------------------------------

def test_sum_equation_good_coloring_at_four():
    out = good_coloring(SCHUR, 4, 2)
    assert not out.forced
    assert out.coloring.values() == (1, 2, 2, 1)


def test_sum_equation_forced_at_five():
    assert good_coloring(SCHUR, 5, 2).forced


def test_single_color_forces_immediately():
    assert good_coloring(SCHUR, 2, 1).forced
    assert not good_coloring(SCHUR, 1, 1).forced


def test_forcing_numbers_two_and_three_colors():
    assert forcing_number(SCHUR, 2, 10) == 5
    assert forcing_number(ap_system(3), 2, 12) == 9
    assert forcing_number(SCHUR, 3, 20) == 14


def test_injective_forcing_numbers_are_weak_schur_numbers_plus_one():
    # WS(2) = 8 and WS(3) = 23 (Blanchard, Harary and Reis, Integers 6, 2006)
    weak = poly_system(parse_poly("x+y-z"), injective=True)
    assert forcing_number(weak, 2, 30) == 9
    assert forcing_number(weak, 3, 30) == 24


def test_forcing_number_exhaustion_returns_none():
    assert forcing_number(SCHUR, 3, 10) is None


def test_node_budget_raises():
    with pytest.raises(SearchBudgetExceeded):
        good_coloring(SCHUR, 13, 3, budget=NodeBudget(10))


def test_forcing_number_spends_one_budget_across_the_sweep():
    # each n alone fits in the budget (at most 79 nodes); the sweep up to 14,
    # 166 nodes, does not
    per_n = [good_coloring(SCHUR, n, 3).nodes for n in range(1, 15)]
    assert max(per_n) < 100 < sum(per_n)
    assert forcing_number(SCHUR, 3, 14) == 14
    with pytest.raises(SearchBudgetExceeded) as info:
        forcing_number(SCHUR, 3, 14, budget=NodeBudget(100))
    assert info.value.nodes == 101


def test_forcing_number_does_not_index_the_whole_bound_up_front():
    # an index of x + y = z over [1, 10^5] would exceed MAX_SOLUTIONS
    assert forcing_number(SCHUR, 2, 10**5) == 5


def test_zero_colors_are_rejected():
    for r in (0, -1):
        with pytest.raises(ValueError):
            good_coloring(SCHUR, 5, r)
        with pytest.raises(ValueError):
            forcing_number(SCHUR, r, 5)


def test_forcing_bound_below_one_is_rejected():
    for n_max in (0, -3):
        with pytest.raises(ValueError, match="bound must be >= 1"):
            forcing_number(SCHUR, 2, n_max)


def test_negative_node_budget_is_rejected():
    with pytest.raises(ValueError):
        good_coloring(SCHUR, 5, 2, budget=NodeBudget(-1))
    with pytest.raises(ValueError):
        forcing_number(SCHUR, 2, 5, budget=NodeBudget(-1))


def naive_least_good_coloring(system, n, r):
    index = solutions_by_max(system, n)
    value_sets = [vals for by_max in index.values() for vals in by_max]
    for assignment in product(range(1, r + 1), repeat=n):
        colors = (0,) + assignment
        if not any(len({colors[u] for u in vals}) == 1 for vals in value_sets):
            return assignment
    return None


def naive_good_coloring_exists(system, n, r):
    return naive_least_good_coloring(system, n, r) is not None


CORPUS = [
    (SCHUR, 2),
    (poly_system(parse_poly("x+y-z"), injective=True), 2),
    (ap_system(3), 2),
    (poly_system(parse_poly("x+y-2*z")), 2),
    (matrix_system(parse_matrix("1 1 -1 0\n0 1 1 -1")), 2),
    (SCHUR, 3),
    (ap_system(3), 3),
]


def test_backtracking_agrees_with_naive_enumeration():
    for system, r in CORPUS:
        for n in range(1, 9 if r == 2 else 7):
            got = good_coloring(system, n, r)
            assert got.forced == (not naive_good_coloring_exists(system, n, r)), (
                system,
                n,
                r,
            )


def test_search_returns_the_lexicographically_least_good_coloring():
    for system, r in CORPUS:
        for n in range(1, 9 if r == 2 else 7):
            got = good_coloring(system, n, r)
            want = naive_least_good_coloring(system, n, r)
            assert (got.coloring.values() if got.coloring else None) == want, (
                system,
                n,
                r,
            )


def brute_value_sets(holds, k, n, injective):
    """Value sets of the tuples in [1,n]^k on which holds is true, found by
    trying every tuple."""
    return {frozenset(t) for t in product(range(1, n + 1), repeat=k)
            if holds(*t) and (not injective or len(set(t)) == k)}


def brute_least_good_coloring(value_sets, n, r):
    """The first r-coloring of [1,n] in lexicographic order, over every
    coloring, with no monochromatic value set, or None."""
    for colors in product(range(1, r + 1), repeat=n):
        if all(len({colors[u - 1] for u in values}) > 1 for values in value_sets):
            return colors
    return None


BRUTE_CORPUS = [
    pytest.param(ap_system(3), lambda a, b, c: b - a == c - b > 0, 3, id="ap3"),
    pytest.param(ap_system(4), lambda a, b, c, d: b - a == c - b == d - c > 0, 4, id="ap4"),
    pytest.param(SCHUR, lambda x, y, z: x + y == z, 3, id="x+y-z"),
    pytest.param(poly_system(parse_poly("x+2*y-z")), lambda x, y, z: x + 2 * y == z, 3,
                 id="x+2*y-z"),
    pytest.param(poly_system(parse_poly("x+y-z"), injective=True), lambda x, y, z: x + y == z, 3,
                 id="x+y-z-injective"),
    pytest.param(matrix_system(parse_matrix("1 1 -1 0\n0 1 1 -1")),
                 lambda x, y, z, w: x + y == z and y + z == w, 4, id="matrix"),
]


@pytest.mark.parametrize("system, holds, k", BRUTE_CORPUS)
def test_good_coloring_matches_brute_force_over_every_coloring(system, holds, k):
    for n in range(1, 11):
        value_sets = brute_value_sets(holds, k, n, system.injective)
        for r in (1, 2, 3):
            got = good_coloring(system, n, r)
            want = brute_least_good_coloring(value_sets, n, r)
            assert got.forced == (want is None), (n, r)
            assert (got.coloring.values() if got.coloring else None) == want, (n, r)


def plain_least_good_coloring(value_sets, n, r):
    """The lexicographically least r-coloring of [1,n] with no monochromatic
    value set, or None, by plain backtracking in lexicographic order: a
    prefix is cut as soon as a value set inside it is monochromatic."""
    rest = {}  # rest[v]: the other elements of each value set whose largest is v
    for values in value_sets:
        top = max(values)
        rest.setdefault(top, []).append(frozenset(values) - {top})
    classes = [set() for _ in range(r + 1)]
    colors = []

    def extend(v):
        if v > n:
            return True
        for c in range(1, r + 1):
            if not any(others <= classes[c] for others in rest.get(v, ())):
                classes[c].add(v)
                colors.append(c)
                if extend(v + 1):
                    return True
                colors.pop()
                classes[c].discard(v)
        return False

    return tuple(colors) if extend(1) else None


# (n, r) where element order backs up past n nodes before its answer, so
# fail-first runs as well; in ap3, x+2*y-z and x+y-z-injective fail-first
# finds a coloring first and retires.  The matrix x+y=z, y+z=w of the corpus
# above first backs up that far at n = 102 (r = 3), beyond this oracle, so
# the matrix case is x+y=z, y=w.
RACE_CORPUS = [
    pytest.param(ap_system(3), 25, 3, id="ap3"),
    pytest.param(ap_system(4), 34, 2, id="ap4"),
    pytest.param(SCHUR, 13, 3, id="x+y-z"),
    pytest.param(poly_system(parse_poly("x+2*y-z")), 37, 3, id="x+2*y-z"),
    pytest.param(poly_system(parse_poly("x+y-z"), injective=True), 23, 3, id="x+y-z-injective"),
    pytest.param(matrix_system(parse_matrix("1 1 -1 0\n0 1 0 -1")), 13, 3, id="matrix"),
]


@pytest.mark.parametrize("system, n, r", RACE_CORPUS)
def test_race_returns_the_lexicographically_least_coloring(system, n, r):
    out = good_coloring(system, n, r)
    # past n nodes the walkers alternate, so fail-first ran beside element order
    assert not out.forced and out.nodes > n
    value_sets = [values for by_max in solutions_by_max(system, n).values() for values in by_max]
    assert out.coloring.values() == plain_least_good_coloring(value_sets, n, r)


def walk_alone(sets, n, r, fail_first):
    """One walker run to its end: its node count and its answer."""
    walker = search._colorings(sets, n, r, fail_first)
    nodes = 0
    while True:
        try:
            next(walker)
        except StopIteration as stop:
            return nodes, stop.value
        nodes += 1


# good and forced (n, r) around known values: van der Waerden W(3;2) = 9,
# W(3;3) = 27, W(4;2) = 35, Schur S(2) = 4, S(3) = 13, S(4) = 44, weak Schur
# WS(2) = 8, WS(3) = 23, and the Pythagorean and a*x + b*y = a*z equations
VALUE_SET_ORDER_CORPUS = [
    pytest.param(system, n, r, id=f"{name}-n{n}-r{r}")
    for name, system, cases in (
        ("ap3", ap_system(3), ((8, 2), (9, 2), (25, 3), (26, 3), (27, 3))),
        ("ap4", ap_system(4), ((34, 2), (35, 2))),
        ("x+y-z", SCHUR, ((4, 2), (5, 2), (13, 3), (14, 3), (44, 4))),
        ("x^2+y^2-z^2", poly_system(parse_poly("x^2+y^2-z^2")), ((5, 1), (60, 2), (100, 2))),
        ("x+y-z-injective", poly_system(parse_poly("x+y-z"), injective=True),
         ((8, 2), (9, 2), (23, 3), (24, 3))),
        ("2*x+3*y-2*z", poly_system(parse_poly("2*x+3*y-2*z")), ((20, 2), (40, 3))),
        ("x+2*y-z", poly_system(parse_poly("x+2*y-z")), ((37, 3),)),
        ("3*x+y-3*z", poly_system(parse_poly("3*x+y-3*z")), ((12, 2), (30, 3))),
    )
    for n, r in cases
]


@pytest.mark.parametrize("system, n, r", VALUE_SET_ORDER_CORPUS)
def test_walkers_do_not_depend_on_the_order_of_each_value_set_list(system, n, r):
    # unit propagation reaches one fixpoint, or a conflict, in any order of
    # sets[u], and fail-first breaks ties by the number of sets, so each
    # walker's nodes and answer, and hence the race's, stay put
    sets = search._value_sets(solutions_by_max(system, n), n)
    assert sets is not None
    rng = random.Random(1000 * n + r)
    for fail_first in (False, True):
        want = walk_alone(sets, n, r, fail_first)
        for _ in range(5):
            shuffled = [rng.sample(at_u, len(at_u)) for at_u in sets]
            assert walk_alone(shuffled, n, r, fail_first) == want, fail_first


def test_node_budget_counts_the_nodes_of_both_walkers(monkeypatch):
    steps = {False: 0, True: 0}  # nodes per walker, by fail_first
    walk = search._colorings

    def counted(sets, n, r, fail_first):
        walker = walk(sets, n, r, fail_first)
        while True:
            try:
                next(walker)
            except StopIteration as stop:
                return stop.value
            steps[fail_first] += 1
            yield

    system = poly_system(parse_poly("x+y-z"), injective=True)
    monkeypatch.setattr(search, "_colorings", counted)
    out = good_coloring(system, 23, 3)
    monkeypatch.undo()
    assert steps == {False: 47, True: 10}  # fail-first finds a coloring and retires
    assert out.nodes == 57 and out.coloring == good_coloring(system, 23, 3).coloring
    with pytest.raises(SearchBudgetExceeded) as info:
        good_coloring(system, 23, 3, budget=NodeBudget(56))
    assert info.value.nodes == 57


def test_van_der_waerden_three_three_needs_few_nodes():
    # W(3;3) = 27; plain backtracking with color(1) pinned takes 675,277 nodes,
    # forward checking at each set's largest element 30,284, unit propagation
    # in element order 4,405, and the race with fail-first 1,508
    out = good_coloring(ap_system(3), 27, 3)
    assert out.forced
    assert out.nodes < 2_000


def test_search_deeper_than_the_recursion_limit():
    # x + y = 3000 z has no solution in [1, 1200]
    out = good_coloring(matrix_system(parse_matrix("1 1 -3000")), 1200, 2)
    assert not out.forced
    assert out.coloring.values() == (1,) * 1200


def test_wide_linear_rows_answer_quickly():
    # exact reachable-sum masks for these rows would take about 10**11 bits,
    # or 2,000 shifts of 2-million-bit integers per column on the odd numbers
    ones, odd = Coloring(1, (1,) * 2000), Coloring(1, (1, 2) * 2000)
    start = time.perf_counter()
    for system in (
        poly_system(parse_poly("x+y-10000000000*z")),
        matrix_system(parse_matrix("1 1 -10000000000")),
    ):
        assert enumerate_solutions(system, 300) == []
        out = good_coloring(system, 10, 2)
        assert not out.forced and out.coloring.values() == (1,) * 10
        assert mono_witness(ones, system) is None
    assert mono_witness(odd, matrix_system(parse_matrix("1 1 -500"))) == (1, 499, 1)
    assert mono_witness(odd, poly_system(parse_poly("x+y-500*z"))) == (1, 499, 1)
    assert time.perf_counter() - start < 1.0


def test_forced_is_monotone_in_the_bound():
    for system, r in CORPUS:
        prev = False
        for n in range(1, 12):
            forced = good_coloring(system, n, r).forced
            assert not (prev and not forced), (system, n, r)
            prev = forced


# -- witnesses --------------------------------------------------------------

def test_witness_on_all_one_coloring():
    assert mono_witness(Coloring(1, (1, 1, 1)), SCHUR) == (1, 1, 2)


def test_witness_none_on_good_coloring():
    assert mono_witness(Coloring(1, (1, 2, 2, 1)), SCHUR) is None


def test_witness_respects_injectivity():
    inj = poly_system(parse_poly("x+y-z"), injective=True)
    assert mono_witness(Coloring(1, (1, 1)), inj) is None
    assert mono_witness(Coloring(1, (1, 1, 1)), inj) == (1, 2, 3)


def test_witness_is_lexicographically_least_monochromatic_solution():
    rng = random.Random(20260823)
    systems = [
        SCHUR,
        poly_system(parse_poly("x+y-z"), injective=True),
        poly_system(parse_poly("x+2*y-3*z")),
        ap_system(3),
        matrix_system(parse_matrix("1 1 -1 0\n0 1 1 -1")),
        poly_system(parse_poly("x^2+y^2-z^2")),
        poly_system(parse_poly("2*x-y+3*z-w+1"), injective=True),
        ap_system(4),
    ]
    for system in systems:
        for _ in range(25):
            n = rng.randint(3, 14)
            r = rng.randint(1, 3)
            coloring = Coloring(1, tuple(rng.randint(1, r) for _ in range(n)))
            classes = {c: set(v) for c, v in coloring.classes}
            mono = [
                sol
                for sol in enumerate_solutions(system, n)
                if any(set(sol) <= cls for cls in classes.values())
            ]
            got = mono_witness(coloring, system)
            assert got == (min(mono) if mono else None), (system, coloring)


def brute_witness(holds, k, coloring, injective=False):
    classes = [set(v) for _, v in coloring.classes]
    mono = [
        xs
        for xs in brute_solutions(holds, k, coloring.hi, injective)
        if any(set(xs) <= cls for cls in classes)
    ]
    return min(mono) if mono else None


def test_witness_with_cubic_last_variable_matches_brute_force():
    # z has partial degree 3, so the last variable is found by a scan
    rng = random.Random(3)
    cases = [
        ("x+y-z^3", lambda v: v[0] + v[1] == v[2] ** 3),
        ("2*x*y-z^3", lambda v: 2 * v[0] * v[1] == v[2] ** 3),
    ]
    for text, holds in cases:
        for injective in (False, True):
            system = poly_system(parse_poly(text), injective=injective)
            for _ in range(20):
                n = rng.randint(3, 16)
                r = rng.randint(1, 3)
                coloring = Coloring(1, tuple(rng.randint(1, r) for _ in range(n)))
                want = brute_witness(holds, 3, coloring, injective)
                assert mono_witness(coloring, system) == want, (text, coloring)


def test_injective_two_row_matrix_witness_matches_brute_force():
    rng = random.Random(5)
    system = matrix_system(parse_matrix("1 1 -1 0\n0 1 1 -1"), injective=True)
    holds = lambda v: v[0] + v[1] == v[2] and v[1] + v[2] == v[3]
    for _ in range(30):
        n = rng.randint(4, 14)
        r = rng.randint(1, 3)
        coloring = Coloring(1, tuple(rng.randint(1, r) for _ in range(n)))
        want = brute_witness(holds, 4, coloring, injective=True)
        assert mono_witness(coloring, system) == want, coloring
    assert mono_witness(Coloring(1, (1,) * 8), system) == (1, 2, 3, 5)


def test_blocking_coloring_admits_no_witness_on_long_interval():
    coloring = Coloring(1, [smod(5, n) for n in range(1, 2001)])
    for system in (
        poly_system(parse_poly("x+y-3*z")),
        poly_system(parse_poly("x+y+z-4*w")),
        matrix_system(parse_matrix("1 1 1 -4")),
    ):
        assert mono_witness(coloring, system) is None


def test_progression_witness_below_one():
    assert mono_witness(Coloring(-3, (1, 2, 1, 2, 1, 1, 1)), ap_system(3)) == (-3, -1, 1)


def test_nonlinear_witness_on_a_class_through_zero():
    # x^2 over [-2, 2] ranges over [0, 4], not [4, 4]
    assert mono_witness(Coloring(-2, [1] * 5), poly_system(parse_poly("x^2+y^2"))) == (0, 0)


def test_witness_matches_brute_force_on_seeded_nonlinear_equations_through_zero():
    # domains start at -2, -1 or 0, so a class may hold 0 between negatives
    # and positives, where a monomial's least or largest value is 0
    rng = random.Random(24)
    cases = found = 0
    while cases < 300:
        names = "xyz"[:rng.randint(2, 3)]
        monomials = {}
        for _ in range(rng.randint(2, 4)):
            key = tuple((v, e) for v in names if (e := rng.randint(0, 2)))
            monomials[key] = rng.choice((-2, -1, 1, 2))
        P = Poly(monomials, rng.choice((0, 0, rng.randint(-4, 4))))
        variables = P.variables()
        if len(variables) < 2 or linear_coefficients(P) is not None:
            continue
        cases += 1
        injective = rng.random() < 0.3
        coloring = Coloring(rng.randint(-2, 0), [rng.randint(1, 3) for _ in range(rng.randint(1, 8))])
        want = min((
            xs
            for _, cls in coloring.classes
            for xs in product(cls, repeat=len(variables))
            if P.evaluate(dict(zip(variables, xs))) == 0
            and (not injective or len(set(xs)) == len(xs))
        ), default=None)
        assert mono_witness(coloring, poly_system(P, injective)) == want, (str(P), coloring)
        found += want is not None
    assert 50 <= found <= 250


def test_witness_matches_brute_force_on_seeded_linear_systems():
    # one row with a constant or two homogeneous rows, up to four colors on a
    # domain that may start below one; the rows decide depth 0 when built
    rng = random.Random(20)
    found = 0
    for case in range(400):
        k = rng.randint(2, 4)
        if case % 2:
            rows = [[rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(k)]]
            constants = [rng.choice((0, rng.randint(-9, 9)))]
            P = Poly({(("wxyz"[i], 1),): c for i, c in enumerate(rows[0])}, constants[0])
            make = lambda injective: poly_system(P, injective)
        else:
            rows = [[rng.randint(-3, 3) for _ in range(k)] for _ in range(2)]
            constants = [0, 0]
            M = parse_matrix("\n".join(" ".join(map(str, r)) for r in rows))
            make = lambda injective: matrix_system(M, injective)
        injective = rng.random() < 0.3
        n = rng.randint(1, (14, 10, 7)[k - 2])
        coloring = Coloring(rng.randint(-2, 2), [rng.randint(1, 4) for _ in range(n)])
        want = min((
            xs
            for _, cls in coloring.classes
            for xs in product(cls, repeat=k)
            if all(sum(a * x for a, x in zip(r, xs)) + c == 0 for r, c in zip(rows, constants))
            and (not injective or len(set(xs)) == k)
        ), default=None)
        assert mono_witness(coloring, make(injective)) == want, (rows, constants, coloring)
        found += want is not None
    assert 100 <= found <= 300


def test_blocking_colorings_admit_no_witness_for_the_sweep_rows():
    # Rado: a row with no zero-sum subset has no monochromatic solution under
    # the super-modulo coloring of its least blocking prime
    entries = (-3, -2, -1, 1, 2, 3)
    colorings, rows = {}, 0
    for k in (2, 3, 4):
        for row in product(entries, repeat=k):
            if any(sum(sub) == 0 for size in range(1, k + 1) for sub in combinations(row, size)):
                continue
            p = blocking_prime(row)
            if p not in colorings:
                colorings[p] = Coloring(1, [smod(p, m) for m in range(1, 2001)])
            P = Poly({(("wxyz"[i], 1),): c for i, c in enumerate(row)})
            assert mono_witness(colorings[p], poly_system(P)) is None, row
            rows += 1
    assert rows == 428  # 234 of them with coefficients of one sign


def test_depth_zero_builds_no_mask_for_the_first_variable(monkeypatch):
    calls = []

    def counted(mask, c, runs):
        calls.append(c)
        return _reach(mask, c, runs)

    monkeypatch.setattr(search, "_reach", counted)
    coloring = Coloring(1, [smod(5, n) for n in range(1, 2001)])
    # positive coefficients never sum to zero over positive values: no masks
    for text in ("x+2*y+3*z", "x+y+z+4*w"):
        assert mono_witness(coloring, poly_system(parse_poly(text))) is None
    assert mono_witness(coloring, matrix_system(parse_matrix("1 1 -3\n1 2 3"))) is None
    assert calls == []
    # masks for z and y, then the first variable's shifts -1*x: three per class
    assert mono_witness(coloring, poly_system(parse_poly("x+y-3*z"))) is None
    assert calls == [-3, 1, -1] * len(coloring.classes)
    calls.clear()
    assert mono_witness(coloring, poly_system(parse_poly("x+y+z-4*w"))) is None
    assert calls == [1, 1, 1, 4] * len(coloring.classes)  # w is the first variable


# -- the compiled polynomial residual ---------------------------------------

@st.composite
def small_polys(draw, last_degree=2):
    """A random P in two or three variables with partial degree <= 2 (the
    last variable up to last_degree) and coefficients in -3..3, with optional
    constant and cross terms; returned with a direct evaluator over
    P.variables()."""
    names = "xyz"[: draw(st.integers(2, 3))]
    degrees = [2] * (len(names) - 1) + [last_degree]
    exponents = st.tuples(*(st.integers(0, d) for d in degrees))
    terms = draw(
        st.dictionaries(exponents, st.integers(-3, 3).filter(bool), min_size=1, max_size=5)
    )
    P = Poly({tuple((v, e) for v, e in zip(names, ex) if e): c for ex, c in terms.items()})
    variables = P.variables()
    assume(len(variables) >= 2)

    def holds(xs):
        at = dict(zip(variables, xs))
        return 0 == sum(
            c * math.prod(at.get(v, 1) ** e for v, e in zip(names, ex))
            for ex, c in terms.items()
        )

    return P, holds


@given(small_polys(), st.integers(1, 7))
def test_compiled_enumeration_matches_brute_force(case, n):
    P, holds = case
    for injective in (False, True):
        got = enumerate_solutions(poly_system(P, injective=injective), n)
        assert got == brute_solutions(holds, len(P.variables()), n, injective), P


@given(
    st.one_of(small_polys(), small_polys(last_degree=3)),
    st.lists(st.integers(1, 3), min_size=1, max_size=8),
)
def test_compiled_witness_matches_brute_force(case, colors):
    P, holds = case
    coloring = Coloring(1, colors)
    for injective in (False, True):
        want = brute_witness(holds, len(P.variables()), coloring, injective)
        assert mono_witness(coloring, poly_system(P, injective=injective)) == want, P


def test_vanishing_last_coefficients_admit_every_value():
    # once x = y, every coefficient of z vanishes and every z is a solution
    got = enumerate_solutions(poly_system(parse_poly("x*z-y*z")), 6)
    assert got == brute_solutions(lambda v: v[0] == v[1], 3, 6)
    # (x-1)*z^2 + (y-1) = 0 holds for every z once x = y = 1
    P = parse_poly("x*z^2-z^2+y-1")
    holds = lambda v: (v[0] - 1) * v[2] ** 2 + v[1] - 1 == 0
    for colors in ((1,) * 5, (2, 1, 2, 2, 1), (1, 2, 2, 1, 1)):
        coloring = Coloring(1, colors)
        for injective in (False, True):
            want = brute_witness(holds, 3, coloring, injective)
            assert mono_witness(coloring, poly_system(P, injective=injective)) == want
    assert mono_witness(Coloring(1, (1,) * 5), poly_system(P)) == (1, 1, 1)


# Every path of last_pairs, which solves the last two variables together:
# (text, holds) for a polynomial, (rows, constants) for linear rows.
LAST_PAIRS_CASES = [
    # z's coefficients are constant: one table for the whole walk
    ("x^2+y^2-z^2", lambda v: v[0] ** 2 + v[1] ** 2 == v[2] ** 2),
    ("x*y-2*z+1", lambda v: v[0] * v[1] - 2 * v[2] + 1 == 0),
    # z's coefficient changes with x: a new table for every x
    ("x^2-y^2+x*z-3*z", lambda v: v[0] ** 2 - v[1] ** 2 + v[0] * v[2] - 3 * v[2] == 0),
    # z's coefficients change with y: each y's quadratic is solved
    ("x^2-y*z", lambda v: v[0] ** 2 == v[1] * v[2]),
    ("x+y^2*z^2-y*z-2", lambda v: v[0] + v[1] ** 2 * v[2] ** 2 - v[1] * v[2] - 2 == 0),
    ("x-y^2*z+y*z^2", lambda v: v[0] - v[1] ** 2 * v[2] + v[1] * v[2] ** 2 == 0),
    # at x = 1 both of z's coefficients vanish: every z solves once y = 1
    ("x*z^2-z^2+x*z-z+y-1", lambda v: (v[0] - 1) * (v[2] ** 2 + v[2]) + v[1] - 1 == 0),
    # z of degree 3, then y of degree 3: each y is folded in and z scanned or solved
    ("x+y-z^3", lambda v: v[0] + v[1] == v[2] ** 3),
    ("x+y^3-z^2-z", lambda v: v[0] + v[1] ** 3 == v[2] ** 2 + v[2]),
    # one row, with and without a constant, and with a zero last coefficient
    (([1, 2, -3],), (1,)),
    (([2, -1],), (0,)),
    (([1, -2, 0],), (0,)),
    # several rows, with a zero last coefficient in one of them, or two
    # rows that each fix z
    (([1, 1, -1, 0], [0, 1, 1, -1]), (0, 0)),
    (([1, 1, -2], [2, -1, -1]), (0, 0)),
    (([1, 2, -1], [1, 0, -1]), (0, 0)),
    (([1, -1, 0], [0, 2, -1]), (0, 0)),
    (([1, -1, 2], [2, 0, 0]), (-1, -2)),
]


@pytest.mark.parametrize("case, holds", LAST_PAIRS_CASES,
                         ids=[str(c) if isinstance(c, str) else f"rows{i}"
                              for i, (c, _) in enumerate(LAST_PAIRS_CASES)])
def test_last_pairs_match_brute_force_on_color_classes(case, holds):
    # every solution over each class of seeded colorings whose domains start
    # at -2..2, so classes have gaps and may hold zero and negatives
    rng = random.Random(f"last pairs {case}")
    if isinstance(case, str):
        P = parse_poly(case)
        make = lambda injective: poly_system(P, injective)
        k = len(P.variables())
    else:
        rows, constants = case, holds
        holds = lambda v: all(sum(a * x for a, x in zip(r, v)) + c == 0
                              for r, c in zip(rows, constants))
        make = lambda injective: search.SolutionSystem(len(rows[0]), injective, rows, constants)
        k = len(rows[0])
    found = 0
    for _ in range(30):
        injective = rng.random() < 0.3
        coloring = Coloring(rng.randint(-2, 2), [rng.randint(1, 3) for _ in range(rng.randint(1, 12))])
        for _, cls in coloring.classes:
            want = [xs for xs in product(cls, repeat=k)
                    if holds(xs) and (not injective or len(set(xs)) == k)]
            assert list(search._solutions(make(injective), cls)) == want, (case, cls, injective)
            found += len(want)
    assert found


def test_one_table_at_a_time():
    # every x of x^2-y^2+x*z-3*z gives z its own coefficient, so a table per
    # coefficient pair would hold about 180 MB at n = 1,000; one table at a
    # time adds almost nothing to the peak resident memory of a fresh run
    script = (
        "import resource\n"
        "from prlab.core import parse_poly\n"
        "from prlab.search import enumerate_solutions, poly_system\n"
        "system = poly_system(parse_poly('x^2-y^2+x*z-3*z'))\n"
        "peak = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
        "before = peak()\n"
        "count = len(enumerate_solutions(system, 1000))\n"
        "print(count, peak() - before)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(prlab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout.split()
    scale = 1 if sys.platform == "darwin" else 1024  # ru_maxrss is in bytes there, KiB here
    assert int(out[0]) == 4363
    assert int(out[1]) * scale < 20 * 2**20


# -- the linear walker's second-last variable -------------------------------

@st.composite
def linear_systems(draw):
    """A linear row with a constant, or a matrix of one to three rows, over
    k = 2..5 variables; returned with a system maker, a direct test, k and a
    bound n small enough for a brute force over n**k tuples."""
    k = draw(st.integers(2, 5))
    if draw(st.booleans()):
        coeffs = draw(st.lists(st.integers(-5, 5).filter(bool), min_size=k, max_size=k))
        constant = draw(st.integers(-12, 12))
        P = Poly({(("vwxyz"[i], 1),): c for i, c in enumerate(coeffs)}, constant)
        rows, constants, make = [coeffs], [constant], lambda inj: poly_system(P, inj)
    else:
        row = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
        rows = draw(st.lists(row, min_size=1, max_size=3))
        M = parse_matrix("\n".join(" ".join(map(str, r)) for r in rows))
        constants, make = [0] * len(rows), lambda inj: matrix_system(M, inj)

    def holds(v):
        return all(sum(a * x for a, x in zip(r, v)) + c == 0 for r, c in zip(rows, constants))

    return make, holds, k, draw(st.integers(1, (12, 12, 8, 6)[k - 2]))


@given(linear_systems(), st.booleans(), st.integers(0, 1), st.data())
def test_linear_walk_matches_brute_force(case, injective, lo, data):
    make, holds, k, n = case
    system = make(injective)
    assert enumerate_solutions(system, n) == brute_solutions(holds, k, n, injective)
    coloring = Coloring(lo, data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)))
    mono = [
        xs
        for _, cls in coloring.classes
        for xs in product(cls, repeat=k)
        if holds(xs) and (not injective or len(set(xs)) == k)
    ]
    assert mono_witness(coloring, system) == min(mono, default=None)


def lin_candidates(rows, constants, values):
    # the owed tuple by hand: start is None when the rows have no solution
    owed = tuple(-c for c in constants)
    return _LinearRows(rows, constants, values)._second_last(owed, values)


def test_second_last_candidates_are_the_values_the_last_completes():
    # y stays exactly when an integer z in [values[0], values[-1]] solves the
    # first row whose last coefficient is nonzero
    rng = random.Random(14)
    coeffs = (0, -6, -4, -3, -2, -1, 1, 2, 3, 4, 6)  # gcd(a, b) > 1, a = 0, b < 0
    for _ in range(600):
        k = rng.randint(2, 4)
        rows = [[rng.choice(coeffs) for _ in range(k)] for _ in range(rng.randint(1, 3))]
        if rng.random() < 0.3:
            rows[0][-1] = 0
        constants = [rng.randint(-20, 20) for _ in rows]
        values = range(rng.randint(-3, 3), rng.randint(4, 25))
        if rng.random() < 0.5:  # a color class: ascending, with gaps
            values = sorted(rng.sample(values, rng.randint(1, len(values))))
        lin = _LinearRows(rows, constants, values)
        owed = tuple(-c for c in constants)
        for depth in range(k - 2):
            x = rng.choice(values)
            owed = tuple(need - row[depth] * x for need, row in zip(owed, rows))
        lead = [(need, row) for need, row in zip(owed, rows) if row[-1]]
        if not lead:
            want = list(values)
        else:
            need, (*_, a, b) = lead[0]
            zs = range(values[0], values[-1] + 1)
            want = [y for y in values if any(a * y + b * z == need for z in zs)]
        assert list(lin._second_last(owed, values)) == want, (rows, constants, values)
    # 4y + 6z = 20 over 1..9: y = 2 (y = 5 needs z = 0); 21 is odd
    assert list(lin_candidates([[4, 6]], [-20], range(1, 10))) == [2]
    assert lin_candidates([[4, 6]], [-21], range(1, 10)) == ()
    assert lin_candidates([[0, 3]], [-6], [1, 2, 5]) == [1, 2, 5]
    assert lin_candidates([[0, 3]], [-7], [1, 2, 5]) == ()
    assert lin_candidates([[0, 0], [-2, 0]], [0, 4], [1, 2, 5]) == [1, 2, 5]
    assert lin_candidates([[1, -1]], [3], [1, 2, 4, 5, 7]) == [1, 2, 4]


@pytest.mark.parametrize("mask_bits", [search.MAX_MASK_BITS, 0], ids=["masks", "intervals"])
def test_linear_pruning_is_exact(monkeypatch, mask_bits):
    # with its masks, assign refuses a value exactly when the variables after
    # it cannot complete one row, and start is None exactly when the row has
    # no solution; with several rows, or intervals alone, a refusal is sound
    monkeypatch.setattr(search, "MAX_MASK_BITS", mask_bits)
    rng = random.Random(27)
    coeffs = (-3, -2, -1, 0, 1, 2, 3, 4, 6)
    checked = 0
    for _ in range(700):
        k = rng.randint(2, 4)
        rows = [[rng.choice(coeffs) for _ in range(k)] for _ in range(rng.choice((1, 1, 2, 3)))]
        constants = [rng.randint(-24, 24) for _ in rows]
        values = range(rng.randint(-2, 5), rng.randint(6, 13))
        if rng.random() < 0.5:  # a color class: ascending, with gaps
            values = sorted(rng.sample(values, rng.randint(1, len(values))))
        exact = len(rows) == 1 and mask_bits
        # paid[d]: the sums of every row over the variables d and later
        paid = [{(0,) * len(rows)}]
        for d in reversed(range(k)):
            paid.insert(0, {tuple(s + row[d] * x for s, row in zip(sums, rows))
                            for sums in paid[0] for x in values})
        lin = _LinearRows(rows, constants, values)
        owed = tuple(-c for c in constants)
        assert lin.start is None or lin.start == owed
        if exact:
            assert (lin.start is None) == (owed not in paid[0]), (rows, constants, values)
        elif lin.start is None:
            assert owed not in paid[0], (rows, constants, values)
        for depth in range(k - 1):
            for x in values:
                child = tuple(need - row[depth] * x for need, row in zip(owed, rows))
                got = lin.assign(owed, depth, x)
                assert got is None or got == child
                if exact or got is None:
                    assert (got is None) == (child not in paid[depth + 1]), (rows, owed, depth, x)
                checked += 1
            x = rng.choice(values)
            owed = tuple(need - row[depth] * x for need, row in zip(owed, rows))
    assert checked > 8000, checked


# -- explicit result checks -------------------------------------------------

def test_package_has_no_assert_statements():
    # python -O strips assert statements, and cli.main does not map an
    # AssertionError to exit 3, so every result check must raise otherwise
    root = Path(prlab.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Raise) and ast.unparse(node).startswith("raise AssertionError")
    ]
    assert found == []


def test_good_coloring_check_rejects_a_monochromatic_solution():
    index = solutions_by_max(SCHUR, 4)
    _check_good_coloring(Coloring(1, (1, 2, 2, 1)), index)
    with pytest.raises(RuntimeError, match="internal check failed"):
        _check_good_coloring(Coloring(1, (1, 1, 2, 2)), index)  # 1 + 1 = 2


# -- the 325 extractor ------------------------------------------------------

def test_extractor_on_constant_coloring():
    coloring = Coloring(0, tuple([1] * 325))
    assert vdw325_extract(coloring) == (0, 1, 2)


def test_extractor_on_parity_coloring():
    coloring = Coloring(0, [n % 2 + 1 for n in range(325)])
    triple = vdw325_extract(coloring)
    assert triple == (0, 2, 4)
    assert is_mono_3ap(coloring, triple)


def test_extractor_on_random_colorings():
    rng = random.Random(9)
    for _ in range(1500):
        coloring = Coloring(0, tuple(rng.randint(1, 2) for _ in range(325)))
        triple = vdw325_extract(coloring)
        assert is_mono_3ap(coloring, triple)


def test_extractor_domain_validation():
    with pytest.raises(ValueError):
        vdw325_extract(Coloring(1, tuple([1] * 325)))
    with pytest.raises(ValueError):
        vdw325_extract(Coloring(0, tuple([3] * 325)))


def test_mono_3ap_predicate():
    coloring = Coloring(0, (1, 1, 1, 2, 2))
    assert is_mono_3ap(coloring, (0, 1, 2))
    assert not is_mono_3ap(coloring, (0, 1, 3))  # not a progression
    assert not is_mono_3ap(coloring, (1, 2, 3))  # bichromatic


# -- progressions inside finite sets ----------------------------------------

def test_contains_ap_fixtures():
    assert contains_ap(FiniteSet((1, 2, 3)), 3) == (1, 1)
    assert contains_ap(FiniteSet((1, 2, 4, 8)), 3) is None
    assert contains_ap(FiniteSet((5, 9)), 1) == (5, 1)
    assert contains_ap(FiniteSet(()), 2) is None
    assert contains_ap(FiniteSet((2, 5, 8, 11)), 4) == (2, 3)
    assert contains_ap(FiniteSet((1, 50, 99, 148)), 4) == (1, 49)
    assert contains_ap(FiniteSet((3, 10, 11, 17, 24)), 3) == (3, 7)


def test_contains_ap_prefers_small_start_then_small_step():
    assert contains_ap(FiniteSet((1, 3, 5, 2, 4)), 3) == (1, 1)
    assert contains_ap(FiniteSet((1, 4, 7, 2)), 3) == (1, 3)
