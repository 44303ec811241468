import math
import random
from fractions import Fraction

import pytest

from prlab.core.sets import FiniteSet, PeriodicSet
from prlab.embed import (
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


# -- oracles shared with the acceptance suite --------------------------------

def window_embeds(A: PeriodicSet, B: PeriodicSet) -> bool:
    """Brute-force check that one large finite chunk of A shifts into B,
    scanning every shift up to a bound that provably suffices for eventually
    periodic sets."""
    p = math.lcm(A.period, B.period)
    chunk = A.elements_upto(4 * p + A.threshold + B.threshold)
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


def test_fe_shift_requires_pattern():
    with pytest.raises(ValueError):
        fe_shift(FiniteSet(), FiniteSet((1,)))


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
        m = fe_shift(F.shift(n), C)
        if m is None:
            continue
        composed += 1
        assert all((x + n + m) in C for x in F.elements)
        direct = fe_shift(F, C)
        assert direct is not None and direct <= n + m
    assert composed > 20


# -- fe on eventually periodic sets ------------------------------------------

def test_fe_periodic_parity_fixtures():
    odds, evens = PeriodicSet.odds(), PeriodicSet.evens()
    assert fe_periodic(odds, evens)
    assert fe_periodic(evens, odds)
    assert not fe_periodic(PeriodicSet.naturals(), odds)
    assert fe_periodic(PeriodicSet.multiples(4), evens)


def test_fe_periodic_prefix_blocks_embedding():
    # {0} together with the odds: the chunk {0, 1} needs two consecutive
    # members downstream, which the evens never supply.
    A = PeriodicSet(2, {1}, 1, {0})
    assert not fe_periodic(A, PeriodicSet.evens())
    assert fe_periodic(A, A)
    assert fe_periodic(A, PeriodicSet.naturals())


def test_fe_periodic_finite_cases():
    gap2 = PeriodicSet.from_finite(FiniteSet((1, 3)))
    gap3 = PeriodicSet.from_finite(FiniteSet((2, 5)))
    assert not fe_periodic(gap2, gap3)
    assert not fe_periodic(gap3, gap2)
    assert fe_periodic(gap2, PeriodicSet.odds())
    assert fe_periodic(gap2, PeriodicSet.evens())
    assert not fe_periodic(gap3, PeriodicSet.evens())
    assert fe_periodic(PeriodicSet(1, set()), PeriodicSet(1, set(), 1, {0}))


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
    evens = classify(PeriodicSet.evens())
    assert (evens.thick, evens.syndetic, evens.piecewise_syndetic, evens.finite) == (
        False,
        True,
        True,
        False,
    )
    full = classify(PeriodicSet.naturals())
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
    naturals = PeriodicSet.naturals()
    for A in periodic_corpus():
        assert classify(A).thick == fe_periodic(naturals, A)


def test_bd_fixtures():
    assert bd(PeriodicSet.evens()) == Fraction(1, 2)
    assert bd(PeriodicSet(5, {0, 1, 2})) == Fraction(3, 5)
    assert bd(PeriodicSet(1, set(), 4, {1, 2, 3})) == 0
    assert bd(PeriodicSet.naturals()) == 1


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


def test_family_application_rules():
    assert family("translation").apply((4,), 3) == 7
    assert family("proper_translation").apply((1,), 3) == 4
    assert family("homothety").apply((5,), 3) == 15
    assert family("power").apply((3,), 2) == 8
    assert family("exponential").apply((2,), 5) == 32
    assert family("affinity").apply((2, 3), 4) == 11
    assert FamilySpec("polynomial", ((0, 2), (0, 2), (1, 2))).apply((1, 0, 2), 3) == 19


def test_family_parameter_iteration_filters_invalid():
    fam = FamilySpec("exponential", ((0, 3),))
    assert list(fam.iter_params()) == [(2,), (3,)]
    poly = FamilySpec("polynomial", ((0, 1), (0, 1)))
    assert list(poly.iter_params()) == [(0, 1), (1, 1)]


def test_fmap_affinity_fixture():
    F = FiniteSet((1, 2, 3))
    B = FiniteSet((5, 7, 9, 11))
    got = fmap_witness(F, B, FamilySpec("affinity", ((1, 10), (0, 20))))
    assert got.params == (2, 3)
    assert got.status == "witness"
    assert got.found()


def test_fmap_none_is_flagged_as_bounded():
    got = fmap_witness(
        FiniteSet((1, 2)), FiniteSet((4,)), FamilySpec("affinity", ((1, 3), (0, 3)))
    )
    assert got.params is None
    assert got.status == "none-within-bounds"
    assert not got.found()
    with pytest.raises(ValueError):
        fmap_witness(FiniteSet(), FiniteSet((1,)), family("affinity"))


def test_fmap_into_periodic_target():
    got = fmap_witness(
        FiniteSet((1, 2, 3)), PeriodicSet.odds(), FamilySpec("affinity", ((1, 4), (0, 4)))
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
    assert a_maximal_probe(PeriodicSet.naturals(), 7)
    assert a_maximal_probe(PeriodicSet.evens(), 5)
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
        assert report.clean(), kind


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
