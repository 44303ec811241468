import math
import random
from fractions import Fraction
from itertools import product

import pytest

from prlab.core.sets import FiniteSet, PeriodicSet
from prlab.embed import (
    FAMILY_KINDS,
    FamilySpec,
    a_maximal_probe,
    bd,
    classify,
    family,
    fe_periodic,
    fe_shift,
    fmap_witness,
    wellstructured_probe,
)
from prlab.search import NodeBudget, SearchBudgetExceeded


# -- oracles shared with the acceptance suite --------------------------------

def window_embeds(A: PeriodicSet, B: PeriodicSet) -> bool:
    """Brute-force check that one large finite chunk of A shifts into B,
    scanning every shift up to a bound that provably suffices for eventually
    periodic sets."""
    p = math.lcm(A.period, B.period)
    chunk = [x for x in range(4 * p + A.threshold + B.threshold + 1) if x in A]
    if not chunk:
        return True
    limit = 4 * p + B.threshold
    return any(
        all(B.membership(n + x) for x in chunk) for n in range(limit + 1)
    )


def periodic_corpus():
    """Small eventually periodic sets: every residue pattern for periods up
    to three, plus prefix-bearing, larger-period, and finite examples."""
    sets = []
    for p in (1, 2, 3):
        for bits in range(2**p):
            sets.append(PeriodicSet(p, {r for r in range(p) if bits >> r & 1}))
    sets += [
        PeriodicSet(2, {1}, 1, {0}),
        PeriodicSet(2, {0}, 4, {1, 3}),
        PeriodicSet(3, {0, 2}, 5, {1}),
        PeriodicSet(4, {1, 3}, 2, set()),
        PeriodicSet(4, {0}),
        PeriodicSet(5, {2, 4}, 6, {0, 3}),
        PeriodicSet(6, {0, 1, 5}, 3, {2}),
        PeriodicSet(7, {1, 2, 4}),
        PeriodicSet(8, {0, 3, 4, 6}, 8, {1, 5, 7}),
        PeriodicSet(8, set(), 8, {0, 2, 7}),
        PeriodicSet(1, set(), 4, {1, 2, 3}),
    ]
    return sets


# -- fe on finite sets -------------------------------------------------------

def test_fe_shift_fixtures():
    assert fe_shift(FiniteSet((1, 3)), FiniteSet((2, 5))) is None
    assert fe_shift(FiniteSet((2, 5)), FiniteSet((1, 3))) is None
    assert fe_shift(FiniteSet((2, 5)), FiniteSet((1, 2, 5, 9))) == 0
    assert fe_shift(FiniteSet((1,)), FiniteSet((7,))) == 6
    assert fe_shift(FiniteSet((0, 1)), FiniteSet((3, 4, 7, 8))) == 3


def test_fe_shift_empty_pattern_shifts_by_zero():
    for empty in (FiniteSet(), PeriodicSet(3, set(), 2, ())):
        for B in (FiniteSet(), FiniteSet((1,)), PeriodicSet(2, {0}), PeriodicSet(1, set())):
            assert fe_shift(empty, B) == 0


def test_fe_shift_returns_least_witness():
    rng = random.Random(5)
    for _ in range(200):
        F = FiniteSet(rng.sample(range(12), rng.randint(1, 4)))
        B = FiniteSet(rng.sample(range(30), rng.randint(4, 14)))
        got = fe_shift(F, B)
        wanted = next(
            (
                n
                for n in range(31)
                if all((x + n) in B for x in F.elements)
            ),
            None,
        )
        assert got == wanted


def test_fe_shift_witnesses_compose():
    rng = random.Random(8)
    composed = 0
    for _ in range(400):
        F = FiniteSet(rng.sample(range(10), rng.randint(1, 3)))
        B = FiniteSet(rng.sample(range(25), rng.randint(8, 16)))
        C = FiniteSet(rng.sample(range(45), rng.randint(16, 30)))
        n = fe_shift(F, B)
        if n is None:
            continue
        m = fe_shift(FiniteSet(x + n for x in F), C)
        if m is None:
            continue
        composed += 1
        assert all((x + n + m) in C for x in F.elements)
        direct = fe_shift(F, C)
        assert direct is not None and direct <= n + m
    assert composed > 20


# -- fe on finite and eventually periodic sets alike -------------------------

def least_shift(A, B):
    """Brute-force least n with n + A inside B: a chunk of A that holds each
    of its tail residues past both thresholds, and every shift up to a bound
    that the least one never exceeds.  A finite set has period 1 and its
    maximum + 1 as threshold."""
    def shape(X):
        return (X.period, X.threshold) if isinstance(X, PeriodicSet) else (1, len(X) and X.max() + 1)

    (pa, ta), (pb, tb) = shape(A), shape(B)
    p = math.lcm(pa, pb)
    chunk = [x for x in range(4 * p + ta + tb + 1) if x in A]
    return next((n for n in range(4 * p + tb + 1) if all(n + x in B for x in chunk)), None)


def random_set(rng, periodic: bool):
    """A finite set (maybe empty), or a periodic set with period up to 6 and
    threshold up to 5, maybe without residues or prefix."""
    if not periodic:
        return FiniteSet(rng.sample(range(16), rng.randint(0, 8)))
    p, t = rng.randint(1, 6), rng.randint(0, 5)
    return PeriodicSet(p, {r for r in range(p) if rng.random() < 0.6}, t,
                       {x for x in range(t) if rng.random() < 0.5})


def fe_shift_corpus(pairs: int, seed: int):
    """Seeded (A, B) pairs, a quarter in each finite/periodic combination."""
    rng = random.Random(seed)
    forms = list(product((False, True), repeat=2))
    return [tuple(random_set(rng, f) for f in forms[i % 4]) for i in range(pairs)]


def test_fe_shift_is_the_least_shift_for_every_pair_of_forms():
    answers = set()
    for A, B in fe_shift_corpus(20000, 33):
        want = least_shift(A, B)
        assert fe_shift(A, B) == want, (A, B)
        assert fe_periodic(A, B) is (want is not None)
        answers.add((type(A), type(B), want is None))
    assert len(answers) == 8  # each combination of forms meets "yes" and "no"


# -- fe on eventually periodic sets ------------------------------------------

def test_fe_periodic_parity_fixtures():
    odds, evens = PeriodicSet(2, {1}), PeriodicSet(2, {0})
    assert fe_periodic(odds, evens)
    assert fe_periodic(evens, odds)
    assert not fe_periodic(PeriodicSet(1, {0}), odds)
    assert fe_periodic(PeriodicSet(4, {0}), evens)


def test_fe_periodic_prefix_blocks_embedding():
    # {0} together with the odds: the chunk {0, 1} needs two consecutive
    # members downstream, which the evens never supply.
    A = PeriodicSet(2, {1}, 1, {0})
    assert not fe_periodic(A, PeriodicSet(2, {0}))
    assert fe_periodic(A, A)
    assert fe_periodic(A, PeriodicSet(1, {0}))


def test_fe_periodic_finite_cases():
    gap2 = PeriodicSet(1, set(), 4, (1, 3))
    gap3 = PeriodicSet(1, set(), 6, (2, 5))
    assert not fe_periodic(gap2, gap3)
    assert not fe_periodic(gap3, gap2)
    assert fe_periodic(gap2, PeriodicSet(2, {1}))
    assert fe_periodic(gap2, PeriodicSet(2, {0}))
    assert not fe_periodic(gap3, PeriodicSet(2, {0}))
    assert fe_periodic(PeriodicSet(1, set()), PeriodicSet(1, set(), 1, {0}))


def test_fe_periodic_expands_at_most_a_million_residues():
    naturals = PeriodicSet(1, {0})
    assert not fe_periodic(naturals, PeriodicSet(10**6, {0}))
    with pytest.raises(ValueError, match="more than 10\\^6 residues"):
        fe_periodic(naturals, PeriodicSet(10**6 + 1, {0}))
    # each residue expands to one per period of the lcm, 500001 of them here
    assert not fe_periodic(PeriodicSet(2, {0}), PeriodicSet(500001, {0}))
    with pytest.raises(ValueError, match="more than 10\\^6 residues"):
        fe_periodic(PeriodicSet(2, {0, 1}), PeriodicSet(500001, {0}))


def test_fe_periodic_agrees_with_window_oracle():
    sets = periodic_corpus()
    for A in sets:
        for B in sets:
            assert fe_periodic(A, B) == window_embeds(A, B), (A, B)


def test_fe_periodic_reflexive_on_corpus():
    for A in periodic_corpus():
        assert fe_periodic(A, A)


# -- classification and density ----------------------------------------------

def test_classify_fixtures():
    evens = classify(PeriodicSet(2, {0}))
    assert (evens.thick, evens.syndetic, evens.piecewise_syndetic, evens.finite) == (
        False,
        True,
        True,
        False,
    )
    full = classify(PeriodicSet(1, {0}))
    assert full.thick and full.syndetic and full.piecewise_syndetic
    fin = classify(PeriodicSet(1, set(), 4, {1, 2, 3}))
    assert fin.finite and not (fin.thick or fin.syndetic or fin.piecewise_syndetic)


def test_classify_matches_run_and_gap_scan():
    for A in periodic_corpus():
        p, t = A.period, A.threshold
        flags = classify(A)
        thick_scan = any(
            all(A.membership(x + i) for i in range(2 * p))
            for x in range(t, t + 8 * p)
        )
        syndetic_scan = all(
            any(A.membership(x + i) for i in range(2 * p))
            for x in range(t, t + 8 * p)
        )
        assert flags.thick == thick_scan
        assert flags.syndetic == syndetic_scan


def test_thickness_equals_receiving_everything():
    naturals = PeriodicSet(1, {0})
    for A in periodic_corpus():
        assert classify(A).thick == fe_periodic(naturals, A)


def test_bd_fixtures():
    assert bd(PeriodicSet(2, {0})) == Fraction(1, 2)
    assert bd(PeriodicSet(5, {0, 1, 2})) == Fraction(3, 5)
    assert bd(PeriodicSet(1, set(), 4, {1, 2, 3})) == 0
    assert bd(PeriodicSet(1, {0})) == 1


def test_bd_counts_periodic_windows_exactly():
    for A in periodic_corpus():
        p, t = A.period, A.threshold
        expected = 4 * len(A.residues)
        for s in (0, 1, 2):
            count = sum(1 for x in range(t + s, t + s + 4 * p) if A.membership(x))
            assert count == expected


def test_bd_monotone_under_fe():
    sets = periodic_corpus()
    for A in sets:
        for B in sets:
            if fe_periodic(A, B):
                assert bd(A) <= bd(B), (A, B)


# -- generated families ------------------------------------------------------

def test_family_validation():
    with pytest.raises(ValueError, match="unknown family kind"):
        FamilySpec("squares", ((1, 2),))
    with pytest.raises(ValueError, match="one parameter"):
        FamilySpec("homothety", ((1, 2), (1, 2)))
    with pytest.raises(ValueError, match="a, b"):
        FamilySpec("affinity", ((1, 2),))
    with pytest.raises(ValueError, match="degree"):
        FamilySpec("polynomial", ((0, 2),))
    with pytest.raises(ValueError, match="empty parameter range"):
        FamilySpec("translation", ((3, 1),))


def test_family_specs_compare_by_kind_and_normalised_bounds():
    with pytest.raises(TypeError):
        FamilySpec("affinity", [[1, 4], ["0", 4]])
    fam = FamilySpec("affinity", [[1, 4], [0, 4]])
    assert fam.bounds == ((1, 4), (0, 4))
    assert fam == family("affinity") and hash(fam) == hash(family("affinity"))
    assert fam != FamilySpec("affinity", ((1, 4), (0, 5)))
    assert FamilySpec("homothety", ((1, 4),)) != FamilySpec("power", ((1, 4),))
    assert len({fam, family("affinity", {"a": (1, 4)})}) == 1


def test_family_application_rules():
    assert family("translation").apply((4,), 3) == 7
    assert family("proper_translation").apply((1,), 3) == 4
    assert family("homothety").apply((5,), 3) == 15
    assert family("power").apply((3,), 2) == 8
    assert family("exponential").apply((2,), 5) == 32
    assert family("affinity").apply((2, 3), 4) == 11
    assert FamilySpec("polynomial", ((0, 2), (0, 2), (1, 2))).apply((1, 0, 2), 3) == 19


def test_polynomial_family_degree_is_capped():
    # the degree is the largest index named, and every lower coefficient
    # gets a bound pair
    assert len(family("polynomial", {"a64": (0, 1)}).bounds) == 65
    with pytest.raises(ValueError, match="^polynomial bounds reach at most a64$"):
        family("polynomial", {"a1": (1, 2), "a65": (0, 1)})


def test_family_parameter_iteration_filters_invalid():
    fam = FamilySpec("exponential", ((0, 3),))
    assert list(fam.iter_params()) == [(2,), (3,)]
    poly = FamilySpec("polynomial", ((0, 1), (0, 1)))
    assert list(poly.iter_params()) == [(0, 1), (1, 1)]


# The family rules written out one kind at a time: validity as a filter, the
# map in closed form, and the composition widening of the closure probe.
LEAST_M = {"translation": 0, "proper_translation": 1, "homothety": 1, "power": 1,
           "exponential": 2}


def valid_params(kind, t):
    if kind in LEAST_M:
        return t[0] >= LEAST_M[kind]
    if kind == "affinity":
        return t[0] >= 1 and t[1] >= 0
    return all(a >= 0 for a in t) and t[-1] >= 1


def closed_form(kind, t, n):
    return {
        "translation": lambda: n + t[0],
        "proper_translation": lambda: n + t[0],
        "homothety": lambda: n * t[0],
        "power": lambda: n ** t[0],
        "exponential": lambda: t[0] ** n,
        "affinity": lambda: t[0] * n + t[1],
        "polynomial": lambda: sum(a * n**i for i, a in enumerate(t)),
    }[kind]()


def composition_widening(kind, b):
    if kind in ("translation", "proper_translation"):
        return ((b[0][0], 2 * b[0][1]),)
    if kind in ("homothety", "power", "exponential"):
        return ((b[0][0], b[0][1] ** 2),)
    if kind == "affinity":
        (alo, ahi), (blo, bhi) = b
        return ((alo, ahi**2), (blo, ahi * bhi + bhi))
    return b


def test_family_table_matches_the_written_rules():
    rng = random.Random(23)
    for _ in range(150):
        kind = rng.choice(FAMILY_KINDS)
        arity = {"affinity": 2, "polynomial": rng.randint(2, 4)}.get(kind, 1)
        top = 1 if kind == "polynomial" else 3
        bounds = []
        for _ in range(arity):
            lo = rng.randint(-3, top)
            bounds.append((lo, rng.randint(max(lo, 0), top)))
        fam = FamilySpec(kind, bounds)
        raw = product(*(range(lo, hi + 1) for lo, hi in bounds))
        params = list(fam.iter_params())
        assert params == [t for t in raw if valid_params(kind, t)], (kind, bounds)
        for t in params:
            assert [fam.apply(t, n) for n in range(6)] == [
                closed_form(kind, t, n) for n in range(6)
            ]
        report = wellstructured_probe(fam)
        assert report.h_bounds == composition_widening(kind, tuple(bounds)), (kind, bounds)


def test_fmap_affinity_fixture():
    F = FiniteSet((1, 2, 3))
    B = FiniteSet((5, 7, 9, 11))
    got = fmap_witness(F, B, FamilySpec("affinity", ((1, 10), (0, 20))))
    assert got.params == (2, 3)
    assert got.found()


def test_fmap_none_is_flagged_as_bounded():
    got = fmap_witness(
        FiniteSet((1, 2)), FiniteSet((4,)), FamilySpec("affinity", ((1, 3), (0, 3)))
    )
    assert got.params is None
    assert not got.found()
    with pytest.raises(ValueError):
        fmap_witness(FiniteSet(), FiniteSet((1,)), family("affinity"))


def test_fmap_into_periodic_target():
    got = fmap_witness(
        FiniteSet((1, 2, 3)), PeriodicSet(2, {1}), FamilySpec("affinity", ((1, 4), (0, 4)))
    )
    assert got.found()
    a, b = got.params
    assert all((a * x + b) % 2 == 1 for x in (1, 2, 3))


def test_fmap_translations_reduce_to_fe_shift():
    rng = random.Random(13)
    for _ in range(150):
        F = FiniteSet(rng.sample(range(10), rng.randint(1, 4)))
        B = FiniteSet(rng.sample(range(24), rng.randint(5, 12)))
        fam = FamilySpec("translation", ((0, 30),))
        got = fmap_witness(F, B, fam)
        shift = fe_shift(F, B)
        if shift is None:
            assert not got.found()
        else:
            assert got.params == (shift,)


def test_initial_segment_maps_into_any_long_progression():
    rng = random.Random(17)
    for _ in range(60):
        L = rng.randint(2, 5)
        start, step = rng.randint(0, 20), rng.randint(1, 6)
        ap = {start + i * step for i in range(L)}
        noise = set(rng.sample(range(60), rng.randint(0, 6)))
        A = FiniteSet(ap | noise)
        fam = FamilySpec("affinity", ((1, 10), (0, 30)))
        assert fmap_witness(FiniteSet(range(L)), A, fam).found()


# -- progression probe -------------------------------------------------------

def test_a_maximal_probe_fixtures():
    assert a_maximal_probe(PeriodicSet(1, {0}), 7)
    assert a_maximal_probe(PeriodicSet(2, {0}), 5)
    assert not a_maximal_probe(FiniteSet(2**k for k in range(9)), 3)
    assert a_maximal_probe(FiniteSet((4,)), 1)
    with pytest.raises(ValueError):
        a_maximal_probe(FiniteSet((1,)), 0)


def test_a_maximal_probe_on_periodic_tails():
    assert a_maximal_probe(PeriodicSet(5, {2}), 6)
    assert not a_maximal_probe(PeriodicSet(1, set(), 4, {0, 1, 3}), 3)
    assert a_maximal_probe(PeriodicSet(1, set(), 5, {0, 2, 4}), 3)


def test_probe_equals_affinity_mappability():
    rng = random.Random(19)
    fam = FamilySpec("affinity", ((1, 40), (0, 40)))
    for _ in range(100):
        A = FiniteSet(
            x for x in range(rng.randint(5, 40)) if rng.random() < rng.uniform(0.1, 0.7)
        )
        L = rng.randint(1, 6)
        probe = a_maximal_probe(A, L) if A else False
        mapped = fmap_witness(FiniteSet(range(L)), A, fam).found()
        assert probe == mapped, (A, L)


# -- family closure probe ----------------------------------------------------

def test_probe_affinity_and_translations_are_clean():
    for kind in ("affinity", "translation", "homothety", "power"):
        report = wellstructured_probe(family(kind))
        assert report.transitivity_counterexample is None, kind
        assert report.reflexivity_counterexample is None, kind


def test_probe_expands_h_bounds_for_composition():
    report = wellstructured_probe(FamilySpec("affinity", ((1, 3), (0, 2))))
    assert report.h_bounds == ((1, 9), (0, 8))


def test_probe_exponentials_fail_transitivity():
    report = wellstructured_probe(family("exponential"))
    cex = report.transitivity_counterexample
    assert cex is not None
    f, g, F = cex
    fam = family("exponential")
    image = FiniteSet(fam.apply(g, fam.apply(f, x)) for x in F.elements)
    widened = FamilySpec("exponential", report.h_bounds)
    assert not fmap_witness(F, image, widened).found()


def test_probe_proper_translations_fail_reflexivity():
    report = wellstructured_probe(family("proper_translation"))
    assert report.transitivity_counterexample is None
    assert report.reflexivity_counterexample == FiniteSet((1, 2))


def test_probe_polynomials_report_without_claiming_closure():
    report = wellstructured_probe(family("polynomial"))
    assert report.h_bounds == family("polynomial").bounds
    assert report.reflexivity_counterexample is not None


def test_probe_budget_counts_every_parameter_tuple_tried():
    # translations m, m' in 0..12 compose to m + m', which the h-scan over
    # 0..24 reaches on its (m + m' + 1)-th tuple, once per probe sample;
    # each sample then maps into itself at the first tuple, m = 0
    fam = family("translation")
    need = 3 * sum(m + k + 1 for m in range(13) for k in range(13)) + 3
    assert wellstructured_probe(fam, NodeBudget(need)) == wellstructured_probe(fam)
    for budget in (0, 1, need - 1):
        with pytest.raises(SearchBudgetExceeded) as exc:
            wellstructured_probe(fam, NodeBudget(budget))
        assert exc.value.nodes == budget + 1
    with pytest.raises(ValueError, match="node budget must be >= 0"):
        wellstructured_probe(fam, NodeBudget(-1))
