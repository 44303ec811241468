"""Acceptance gate: twelve end-to-end checks over the public surface.

Each test prints one PASS line on success; a failure shows up as a normal
pytest failure for that criterion.  Stated runtime limits are asserted with
wall-clock measurements.
"""

import contextlib
import io
import random
import time
from itertools import product

import test_embed
import test_omega
from prlab.cli import main
from prlab.core import Coloring, FiniteSet, IntMatrix, PeriodicSet, Poly
from prlab.core.poly import parse_poly
from prlab.embed import a_maximal_probe, bd, classify, family, fe_periodic, fe_shift, fmap_witness
from prlab.folkman import folkman_matrix
from prlab.polyreg import exclusive_sets, reciprocal, reduct, sufficient_ipr
from prlab.rado import (
    blocking_prime,
    columns_condition,
    linear_pr,
    parametric_solution,
    smod,
)
from prlab.search import (
    forcing_number,
    good_coloring,
    mono_witness,
    poly_system,
    ap_system,
    vdw325_extract,
)


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def _passed(no, label):
    print(f"ACCEPTANCE {no:02d} {label}: PASS")


def test_01_two_color_sum_equation_forcing():
    t0 = time.monotonic()
    code, out = _run_cli(
        ["search", "forcing-number", "--poly", "x+y-z", "-r", "2", "--max", "10"]
    )
    assert code == 0
    assert "forcing number: 5" in out

    outcome = good_coloring(poly_system(parse_poly("x+y-z")), 4, 2)
    assert not outcome.forced
    assert outcome.coloring.classes == ((1, (1, 4)), (2, (2, 3)))

    # oracle: all 2^4 colorings, good ones are exactly {1,4}/{2,3} either way
    triples = [(x, y, x + y) for x in range(1, 5) for y in range(x, 5) if x + y <= 4]
    good = {
        colors
        for colors in product((1, 2), repeat=4)
        if not any(colors[x - 1] == colors[y - 1] == colors[z - 1] for x, y, z in triples)
    }
    assert good == {(1, 2, 2, 1), (2, 1, 1, 2)}

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _passed(1, "two-color sum-equation forcing number is 5")


def test_02_three_color_sum_equation_forcing():
    t0 = time.monotonic()
    system = poly_system(parse_poly("x+y-z"))
    assert forcing_number(system, 3, 14) == 14
    assert not good_coloring(system, 13, 3).forced  # a good 3-coloring of [1,13]

    def naive_good_exists(n):
        triples = [
            (x, y, x + y) for x in range(1, n + 1) for y in range(x, n + 1) if x + y <= n
        ]
        for colors in product((1, 2, 3), repeat=n):
            if not any(
                colors[x - 1] == colors[y - 1] == colors[z - 1] for x, y, z in triples
            ):
                return True
        return False

    for n in range(1, 13):
        assert naive_good_exists(n) == (not good_coloring(system, n, 3).forced)

    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    _passed(2, "three-color sum-equation forcing number is 14")


def test_03_two_color_progression_forcing():
    t0 = time.monotonic()
    assert forcing_number(ap_system(3), 2, 12) == 9

    def naive_good_exists(n):
        aps = [
            (a, a + d, a + 2 * d)
            for a in range(1, n + 1)
            for d in range(1, (n - a) // 2 + 1)
        ]
        for colors in product((1, 2), repeat=n):
            if not any(
                colors[x - 1] == colors[y - 1] == colors[z - 1] for x, y, z in aps
            ):
                return True
        return False

    assert naive_good_exists(8)
    assert not naive_good_exists(9)  # all 2^9 colorings checked

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _passed(3, "two-color 3-progression forcing number is 9")


def test_04_progression_extractor_on_random_colorings():
    t0 = time.monotonic()
    rng = random.Random(20260823)
    for _ in range(10_000):
        bits = rng.getrandbits(325)
        values = [1 + ((bits >> i) & 1) for i in range(325)]
        triple = vdw325_extract(Coloring(0, values))
        x, y, z = triple
        assert 0 <= x < y < z <= 324
        assert y - x == z - y
        assert values[x] == values[y] == values[z]
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    _passed(4, "extractor yields a monochromatic progression on 10^4 random colorings")


def test_05_single_equation_regularity_sweep():
    t0 = time.monotonic()
    entries = (-3, -2, -1, 1, 2, 3)
    irregular = []
    for n in range(1, 5):
        for row in product(entries, repeat=n):
            zero_sum = any(
                sum(row[i] for i in range(n) if (m >> i) & 1) == 0
                for m in range(1, 2**n)
            )
            cc = columns_condition(IntMatrix([row])).satisfied
            if n == 1:
                # a single nonzero coefficient: never regular, always blocked
                assert cc is False and zero_sum is False
                p = blocking_prime(row)
                assert p is not None
                irregular.append((row, p, None))
                continue
            P = Poly({((f"x{i + 1}", 1),): c for i, c in enumerate(row)})
            verdict = linear_pr(P)
            assert cc == verdict.pr == zero_sum, row
            if not verdict.pr:
                assert verdict.blocking_prime is not None
                irregular.append((row, verdict.blocking_prime, P))

    colorings = {}
    for row, p, P in irregular:
        if p not in colorings:
            colorings[p] = Coloring(1, [smod(p, m) for m in range(1, 2001)])
        if P is None:
            continue  # c*x = 0 has no solution with x >= 1 at all
        assert mono_witness(colorings[p], poly_system(P)) is None, (row, p)

    assert len(irregular) == 434
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"took {elapsed:.2f}s"
    _passed(5, "regularity criteria agree on all 1554 single equations; blocked cases have no witness")


def test_06_parametric_families_vanish():
    rng = random.Random(3513)
    a_var, b_var = Poly.variable("a"), Poly.variable("b")
    for _ in range(200):
        n = rng.randint(2, 6)
        k = rng.randint(2, n)
        while True:
            subset_coeffs = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(k - 1)]
            last = -sum(subset_coeffs)
            if last != 0 and abs(last) <= 9:
                subset_coeffs.append(last)
                break
        coeffs = subset_coeffs + [
            rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n - k)
        ]
        names = [f"x{i + 1}" for i in range(n)]
        P = Poly({((v, 1),): c for v, c in zip(names, coeffs)})
        J = names[:k]
        ps = parametric_solution(P, J)

        symbolic = Poly.zero()
        assignments = {v: a_var + z * b_var for v, z in zip(ps.j_vars, ps.zs)}
        assignments.update({v: ps.m * b_var for v in ps.other_vars})
        for v, c in zip(names, coeffs):
            symbolic = symbolic + c * assignments[v]
        assert symbolic.is_zero()

        for _ in range(100):
            a, b = rng.randint(-50, 50), rng.randint(-50, 50)
            assert P.evaluate(ps.assignment(a, b)) == 0
    _passed(6, "200 planted parametric families vanish symbolically and numerically")


def test_07_coefficient_ledger_reproduction():
    code, out = _run_cli(
        ["omega", "verify354", "--c", "3,2,4", "--d", "1,8", "--ledger"]
    )
    assert code == 0
    lines = out.splitlines()
    ledger = [ln for ln in lines if ln.startswith("c")]
    assert ledger == list(test_omega.LEDGER_ANCHORS)
    assert "zero check: pass" in lines
    assert "distinct check: pass" in lines
    _passed(7, "weight tables reproduce the nine frozen coefficient identities")


def test_08_term_identity_suite():
    t0 = time.monotonic()
    assert len(test_omega.IDENTITY_CHECKS) == 13
    for label, check in test_omega.IDENTITY_CHECKS:
        rng = random.Random(hash(label) % (2**32))
        for _ in range(1000):
            check(rng)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"took {elapsed:.2f}s"
    _passed(8, "13 term identities hold on 1000 random instances each")


def test_09_membership_matrix_anchor():
    want = (
        (1, 0, 0, -1, 0, 0, 0, 0, 0, 0),
        (0, 1, 0, 0, -1, 0, 0, 0, 0, 0),
        (0, 0, 1, 0, 0, -1, 0, 0, 0, 0),
        (1, 1, 0, 0, 0, 0, -1, 0, 0, 0),
        (1, 0, 1, 0, 0, 0, 0, -1, 0, 0),
        (0, 1, 1, 0, 0, 0, 0, 0, -1, 0),
        (1, 1, 1, 0, 0, 0, 0, 0, 0, -1),
    )
    M = folkman_matrix(3)
    assert M.entries == want
    assert columns_condition(M).satisfied
    _passed(9, "three-generator membership matrix matches the 7x10 anchor and is regular")


def test_10_nonlinear_fixture_battery():
    assert reciprocal(parse_poly("x+y-z")) == parse_poly("y*z+x*z-x*y")
    assert {frozenset(s) for s in exclusive_sets(parse_poly("x*y*z + y*t - w"))} == {
        frozenset({"x", "t", "w"}),
        frozenset({"z", "t", "w"}),
    }
    assert exclusive_sets(parse_poly("x*y + y*z - x*z")) == ()
    assert reduct(parse_poly("x*y + 4*y*z - 2*t + y*w")) == parse_poly("y1+4*y2-2*y3+y4")
    assert sufficient_ipr(parse_poly("x*y + 4*y*z - 2*t + y*w")).status == "IPR_certified"
    assert sufficient_ipr(parse_poly("x+y-z^2")).status == "unknown"
    _passed(10, "nonlinear fixtures: reciprocal, exclusive sets, reduct, certification")


def _box_sets():
    """Every periodic description with period <= 3, threshold <= 2."""
    out = []
    for p in (1, 2, 3):
        for rbits in range(2**p):
            residues = {r for r in range(p) if (rbits >> r) & 1}
            for t in (0, 1, 2):
                for pbits in range(2**t):
                    prefix = {x for x in range(t) if (pbits >> x) & 1}
                    out.append(PeriodicSet(p, residues, t, prefix))
    return out


def _pure_periodic_sets():
    """Every residue pattern at periods 4 and 5, no prefix."""
    return [
        PeriodicSet(p, {r for r in range(p) if (rbits >> r) & 1})
        for p in (4, 5)
        for rbits in range(2**p)
    ]


def test_11_embeddability_rule_and_oracle():
    assert fe_shift(FiniteSet((1, 3)), FiniteSet((2, 5))) is None
    assert fe_shift(FiniteSet((2, 5)), FiniteSet((1, 3))) is None
    assert fe_periodic(PeriodicSet(2, {1}), PeriodicSet(2, {0}))
    assert fe_periodic(PeriodicSet(2, {0}), PeriodicSet(2, {1}))

    groups = [_box_sets(), _pure_periodic_sets(), list(test_embed.periodic_corpus())]
    naturals = PeriodicSet(1, {0})
    pairs = 0
    for sets in groups:
        densities = [bd(A) for A in sets]
        for i, A in enumerate(sets):
            assert classify(A).thick == fe_periodic(naturals, A)
            for j, B in enumerate(sets):
                embeds = fe_periodic(A, B)
                assert embeds == test_embed.window_embeds(A, B), (A.to_text(), B.to_text())
                if embeds:
                    assert densities[i] <= densities[j]
                pairs += 1
    assert pairs > 12_000
    _passed(11, "embeddability rule matches the window oracle; thickness and density laws hold")


def test_12_progression_probe_matches_affinity_search():
    rng = random.Random(492)
    fam = family("affinity", ((1, 40), (0, 40)))
    for _ in range(100):
        L = rng.randint(1, 6)
        A = FiniteSet(x for x in range(40) if rng.random() < rng.choice((0.15, 0.4, 0.7)))
        if not A:
            A = FiniteSet((rng.randrange(40),))
        probe = a_maximal_probe(A, L)
        witness = fmap_witness(FiniteSet(range(L)), A, fam)
        assert probe == witness.found(), (A.elements, L)
    _passed(12, "progression probe agrees with bounded affinity mapping on 100 random sets")
