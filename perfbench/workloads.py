"""Seeded inputs and jobs for the four benchmark workloads.

`build(name, seed, workdir)` derives every input from the seed and returns
the job list of one pass. A job's `spec` describes its input completely, so
the digest over all specs identifies the inputs of a run. `run(ctx)` is the
timed call into prlab; `answer` turns its result into a comparable value
outside the timed region, and `check` judges that value with the
independent oracle, returning an error text or None.

Each workload mixes a few fixed anchors with seeded slots. In the workloads
whose figures are set by a few long jobs (coloring_search, enumerate_index)
a slot fixes its equation up to a common factor of the coefficients, and the
seed picks that factor, the variable names (in the same alphabetical roles)
and the term and job order: the inputs change with the seed, the work per
pass does not. Where many short jobs average out (certify_batch, cli_mix)
the seed also picks coefficients and colorings.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from prlab import embed, folkman, omega, polyreg, rado, search
from prlab.core import Coloring, FiniteSet, IntMatrix, PeriodicSet, parse_poly

from . import oracle

NAMES = ("x", "y", "z", "u", "v", "w", "s", "t")


@dataclass
class Job:
    kind: str
    spec: tuple
    run: Callable[[dict], Any]
    answer: Callable[[Any], Any]
    check: Callable[[Any], str | None]
    argv: list[str] | None = field(default=None)


def _expect(want):
    return lambda got: None if got == want else f"got {got!r}, expected {want!r}"


def _shuffled_eq(rng, coeffs):
    """A linear equation over seeded names, terms in seeded order. The names
    are sorted so that the i-th coefficient always belongs to the i-th
    variable in prlab's (alphabetical) order, which fixes the order the
    enumeration visits them in, and with it the cost."""
    terms = [(c, ((v, 1),)) for c, v in zip(coeffs, sorted(rng.sample(NAMES, len(coeffs))))]
    rng.shuffle(terms)
    return tuple(terms)


def _outcome(result):
    return ("forced",) if result.forced else ("good", result.coloring.values())


def _good_check(sols_fn, n, r):
    def check(ans):
        if ans[0] != "good":
            return f"expected a good {r}-coloring of [1,{n}], got {ans[0]}"
        if ans[1][0] != 1:
            return "color(1) is not pinned to 1"
        return oracle.good_coloring_error(ans[1], sols_fn(), n, r)
    return check


def _rado_groups(max_coeff: int = 7):
    """Rado number -> coprime (a, b) pairs sharing it, for a*x + b*y = a*z."""
    groups: dict[int, list[tuple[int, int]]] = {}
    for a in range(1, max_coeff + 1):
        for b in range(1, max_coeff + 1):
            if math.gcd(a, b) == 1:
                groups.setdefault(oracle.rado2(a, b), []).append((a, b))
    return groups


def _rado_eq(rng, R, groups, slot=0):
    """The slot-th pair with Rado number R, its coefficients times a seeded
    factor, over seeded names. The pairs of one group differ in cost by up
    to 1.7x (backtracking nodes at n = R), so the slot, not the seed, picks
    the pair."""
    a, b = groups[R][slot % len(groups[R])]
    k = rng.randint(1, 3)
    return _shuffled_eq(rng, (k * a, k * b, -k * a))


# -- coloring_search ----------------------------------------------------------

# (kind, Rado number) of the seeded slots: a forcing sweep, or one search
# at n = R - 1 (a good coloring exists) or at n = R (forced). The slots form
# strata of near-equal cost (about 1-5 ms, 8 ms, 30 ms, then 0.1 s and up),
# sized so that the per-pass median job lands inside the 8 ms stratum and the
# tail job inside the 30 ms one, not on a boundary where the seed would move
# it from one stratum to the next.
BATCH_SLOTS = (
    [("good", R) for R in (5, 9, 11, 13, 19)] + [("forced", R) for R in (5, 9, 11, 13, 19)]
    + [("sweep", 5)] * 2
    + [("good", 25)] * 4 + [("forced", 25)] * 4 + [("sweep", 9)] * 2 + [("sweep", 11)] * 2
    + [("sweep", 13)]
    + [("good", 49)] * 3 + [("forced", 49)] * 3 + [("sweep", 19)] * 2 + [("sweep", 16)]
    + [("sweep", 25), ("sweep", 31)]
)


def _coloring_search(rng):
    jobs = []
    ap3, ap4 = search.ap_system(3), search.ap_system(4)
    schur_eq = oracle.linear((1, 1, -1), ("x", "y", "z"))
    schur = search.poly_system(parse_poly(oracle.eq_text(schur_eq)))
    jobs.append(Job("single-n", ("good_coloring", "ap3", 27, 3),
                    lambda ctx: search.good_coloring(ap3, 27, 3), _outcome, _expect(("forced",))))
    jobs.append(Job("single-n", ("good_coloring", "ap4", 35, 2),
                    lambda ctx: search.good_coloring(ap4, 35, 2), _outcome, _expect(("forced",))))
    jobs.append(Job("forcing-sweep", ("forcing_number", schur_eq, 3, 20),
                    lambda ctx: search.forcing_number(schur, 3, 20), lambda n: n, _expect(14)))
    jobs.append(Job("single-n", ("good_coloring", schur_eq, 42, 4),
                    lambda ctx: search.good_coloring(schur, 42, 4), _outcome,
                    _good_check(lambda: oracle.eq_solutions(schur_eq, 42), 42, 4)))

    groups = _rado_groups()
    seen: dict = {}
    for kind, R in BATCH_SLOTS:
        slot = seen[kind, R] = seen.get((kind, R), -1) + 1
        eq = _rado_eq(rng, R, groups, slot)
        system = search.poly_system(parse_poly(oracle.eq_text(eq)))
        if kind == "sweep":
            n_max = R + rng.randint(0, 4)
            jobs.append(Job("forcing-sweep", ("forcing_number", eq, 2, n_max),
                            lambda ctx, s=system, m=n_max: search.forcing_number(s, 2, m),
                            lambda n: n, _expect(R)))
            continue
        n = R - 1 if kind == "good" else R
        check = (_good_check(lambda e=eq, n=n: oracle.eq_solutions(e, n), n, 2)
                 if kind == "good" else _expect(("forced",)))
        jobs.append(Job("single-n", ("good_coloring", eq, n, 2),
                        lambda ctx, s=system, n=n: search.good_coloring(s, n, 2), _outcome, check))
    rng.shuffle(jobs)
    return jobs


# -- enumerate_index ----------------------------------------------------------

POLY_TEMPLATES = 3  # a*x^2 + b*y^2 - c*z^2, a*x^2 - b*y*z, a*x*y - b*z
# Seeded equations: a ladder of interval ends, each with its own fixed
# coefficients, then two plateaus of one equation. The seed scales each
# equation's coefficients and picks its names. The plateaus hold the
# per-pass median job (13 jobs at about 65 ms) and the tail job (7 at about
# 115 ms); above them sit the matrix and fixed jobs.
LADDER_SLOTS = tuple(range(22, 48, 2))
_ladder_rng = random.Random("enumerate_index ladder")
LADDER_COEFFS = tuple(tuple(_ladder_rng.randint(1, 5) for _ in range(3)) for _ in LADDER_SLOTS)
PLATEAUS = (
    (13, ((1, ((0, 2),)), (1, ((1, 2),)), (-1, ((2, 2),))), 64),
    (7, ((1, ((0, 2),)), (-1, ((1, 1), (2, 1)))), 100),
)
MATRIX_ROWS = ((2, 3), (3, 2), (2, 4), (4, 3))  # (a, b) of the row (a, b, -1)
MATRIX_WORK = 200_000  # walker steps, about n^3 / (2ab) for the row (a, b, -1)


def _template_eq(rng, template: int, coeffs=None):
    """One equation of partial degree <= 2 from a template, over seeded
    names in alphabetical roles, with the given coefficients times a seeded
    factor, or with seeded coefficients."""
    x, y, z = sorted(rng.sample(NAMES, 3))
    if coeffs is None:
        a, b, c = (rng.randint(1, 5) for _ in range(3))
    else:
        k = rng.randint(1, 4)
        a, b, c = (k * v for v in coeffs)
    if template == 0:
        return ((a, ((x, 2),)), (b, ((y, 2),)), (-c, ((z, 2),)))
    if template == 1:
        return ((a, ((x, 2),)), (-b, tuple(sorted(((y, 1), (z, 1))))))
    return ((a, tuple(sorted(((x, 1), (y, 1))))), (-b, ((z, 1),)))


def _enum_job(kind, eq_or_rows, n, system, sols_fn):
    return Job(kind, ("enumerate_solutions", eq_or_rows, n),
               lambda ctx: search.enumerate_solutions(system, n),
               tuple, lambda got: None if got == tuple(sols_fn()) else "solution list differs")


def _enumerate_index(rng):
    jobs = []
    pyth = ((1, (("x", 2),)), (1, (("y", 2),)), (-1, (("z", 2),)))
    lin = oracle.linear((1, 2, -1), ("x", "y", "z"))
    for eq, n in ((pyth, 150), (lin, 200)):
        system = search.poly_system(parse_poly(oracle.eq_text(eq)))
        jobs.append(_enum_job("enumerate-poly", eq, n, system, lambda e=eq, n=n: oracle.eq_solutions(e, n)))
    pyth_system = search.poly_system(parse_poly(oracle.eq_text(pyth)))
    jobs.append(Job("single-n", ("good_coloring", pyth, 150, 2),
                    lambda ctx: search.good_coloring(pyth_system, 150, 2), _outcome,
                    _good_check(lambda: oracle.eq_solutions(pyth, 150), 150, 2)))
    slots = [(_template_eq(rng, i % POLY_TEMPLATES, coeffs), n)
             for i, (n, coeffs) in enumerate(zip(LADDER_SLOTS, LADDER_COEFFS))]
    for count, shape, n in PLATEAUS:
        for _ in range(count):
            names, k = sorted(rng.sample(NAMES, 3)), rng.randint(1, 4)
            eq = tuple((k * c, tuple(sorted((names[v], e) for v, e in mono))) for c, mono in shape)
            slots.append((eq, n))
    for eq, n in slots:
        system = search.poly_system(parse_poly(oracle.eq_text(eq)))
        jobs.append(_enum_job("enumerate-poly", eq, n, system, lambda e=eq, n=n: oracle.eq_solutions(e, n)))
    for a, b in MATRIX_ROWS:
        k = rng.randint(1, 3)
        rows = ((k * a, k * b, -k),)
        n = round((2 * a * b * MATRIX_WORK) ** (1 / 3))
        system = search.matrix_system(IntMatrix(rows))
        jobs.append(_enum_job("enumerate-matrix", rows, n, system, lambda r=rows, n=n: oracle.matrix_solutions(r, n)))
    rng.shuffle(jobs)
    return jobs


# -- certify_batch ------------------------------------------------------------

SWEEP_ENTRIES = (-3, -2, -1, 1, 2, 3)
SMOD_RANGE = 2000


def sweep_rows():
    """The 1,554 single equations with 1..4 coefficients from SWEEP_ENTRIES."""
    from itertools import product
    return [row for k in range(1, 5) for row in product(SWEEP_ENTRIES, repeat=k)]


def _sweep_jobs():
    rows = sweep_rows()
    primes = sorted({oracle.least_blocking_prime(r) for r in rows if not oracle.has_zero_sum(r)})
    jobs = []
    for p in primes:
        want = tuple(oracle.smod(p, m) for m in range(1, SMOD_RANGE + 1))

        def run(ctx, p=p):
            ctx[p] = Coloring(1, [rado.smod(p, m) for m in range(1, SMOD_RANGE + 1)])
            return ctx[p]
        jobs.append(Job("smod-coloring", ("smod", p, SMOD_RANGE), run,
                        lambda c: c.values(), _expect(want)))
    for row in rows:
        names = [f"x{i + 1}" for i in range(len(row))]
        P = parse_poly(oracle.eq_text(oracle.linear(row, names))) if len(row) > 1 else None
        M = IntMatrix([row])

        def run(ctx, row=row, P=P, M=M):
            cc = rado.columns_condition(M).satisfied
            if P is None:
                return cc, None, rado.blocking_prime(row), None
            v = rado.linear_pr(P)
            if v.pr:
                return cc, True, None, None
            w = search.mono_witness(ctx[v.blocking_prime], search.poly_system(P))
            return cc, False, v.blocking_prime, w

        def check(ans, row=row):
            cc, pr, p, w = ans
            zs = oracle.has_zero_sum(row)
            if cc != zs or (len(row) > 1 and pr != zs):
                return f"{row}: verdicts {cc}/{pr}, zero-sum subset {zs}"
            if not zs and p != oracle.least_blocking_prime(row):
                return f"{row}: blocking prime {p}"
            if w is not None:
                return f"{row}: witness {w} under the blocking coloring"
            return None
        jobs.append(Job("sweep-linear", ("sweep", row), run, lambda a: a, check))
    return jobs


def _random_colors(rng, n, r):
    return tuple(rng.choices(range(1, r + 1), k=n))


def _witness_jobs(rng):
    jobs = []

    def add(kind, spec, system, colors, sols_fn):
        coloring = Coloring(1, colors)
        jobs.append(Job(kind, ("mono_witness", spec, colors),
                        lambda ctx: search.mono_witness(coloring, system), lambda w: w,
                        lambda w: _expect(oracle.least_mono(colors, sols_fn()))(w)))

    for i in range(16):
        eq = _template_eq(rng, i % POLY_TEMPLATES)
        n = rng.randint(14, 18)
        colors = _random_colors(rng, n, 2)
        add("witness-nonlinear", eq, search.poly_system(parse_poly(oracle.eq_text(eq))), colors,
            lambda e=eq, n=n: oracle.eq_solutions(e, n))
    for _ in range(16):
        a, b = rng.randint(1, 3), rng.randint(1, 3)
        rows = ((a, b, -(a + b)),) if rng.random() < 0.5 else ((a, b, -(a + b)), (1, -2, 1))
        n = rng.randint(24, 32)
        colors = _random_colors(rng, n, 2)
        add("witness-matrix", rows, search.matrix_system(IntMatrix(rows), injective=True), colors,
            lambda r=rows, n=n: oracle.matrix_solutions(r, n, injective=True))
    for _ in range(16):
        coeffs = [rng.choice((1, 2, 3)), rng.choice((1, 2, 3))]
        eq = _shuffled_eq(rng, coeffs + [-rng.choice((1, 2, 3))])
        n = rng.randint(40, 60)
        colors = _random_colors(rng, n, 3)
        add("witness-linear", eq, search.poly_system(parse_poly(oracle.eq_text(eq))), colors,
            lambda e=eq, n=n: oracle.eq_solutions(e, n))
    return jobs


def _extract_jobs(rng, count=100):
    jobs = []
    for _ in range(count):
        colors = _random_colors(rng, 325, 2)
        coloring = Coloring(0, colors)
        jobs.append(Job("extract", ("vdw325_extract", colors),
                        lambda ctx, c=coloring: search.vdw325_extract(c), tuple,
                        lambda t, v=colors: None if oracle.is_mono_3ap(v, t) else f"{t} is not a monochromatic progression"))
    return jobs


def _parametric_jobs(rng, count=40):
    jobs = []
    for _ in range(count):
        n = rng.randint(2, 6)
        k = rng.randint(2, n)
        while True:
            sub = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(k - 1)]
            last = -sum(sub)
            if last != 0 and abs(last) <= 9:
                break
        coeffs = sub + [last] + [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(n - k)]
        names = [f"x{i + 1}" for i in range(n)]
        eq = oracle.linear(coeffs, names)
        P = parse_poly(oracle.eq_text(eq))
        J = names[:k]

        def check(ans, eq=eq, J=J):
            j_vars, zs, m, others = ans
            if tuple(j_vars) != tuple(sorted(J)):
                return f"family over {j_vars}, expected {sorted(J)}"
            for a, b in ((0, 1), (3, -2), (7, 5)):
                asg = {v: a + z * b for v, z in zip(j_vars, zs)}
                asg.update({v: m * b for v in others})
                if oracle.eq_eval(eq, asg) != 0:
                    return f"family does not vanish at a={a}, b={b}"
            return None
        jobs.append(Job("parametric", ("parametric_solution", eq, tuple(J)),
                        lambda ctx, P=P, J=J: rado.parametric_solution(P, J),
                        lambda ps: (ps.j_vars, ps.zs, ps.m, ps.other_vars), check))
    return jobs


def _folkman_jobs(rng):
    jobs = []
    for _ in range(12):
        elems = tuple(sorted(rng.sample(range(1, 60), rng.randint(6, 10))))
        S = FiniteSet(elems)
        jobs.append(Job("folkman", ("fs", elems), lambda ctx, S=S: folkman.fs(S),
                        lambda s: s.elements, _expect(tuple(oracle.finite_sums(elems)))))
    for n in (2, 3, 4):
        jobs.append(Job("folkman", ("folkman_matrix", n), lambda ctx, n=n: folkman.folkman_matrix(n),
                        lambda M: M.entries, _expect(oracle.folkman_rows(n))))
    M3 = IntMatrix(oracle.folkman_rows(3))
    jobs.append(Job("folkman", ("columns_condition", "folkman_rows(3)"),
                    lambda ctx: rado.columns_condition(M3).satisfied, lambda s: s, _expect(True)))
    for i in range(12):
        elems = tuple(sorted(rng.sample(range(1, 12), rng.randint(2, 4))))
        total = sum(elems)
        colors = (tuple([1] * total) if i % 3 == 0 else _random_colors(rng, total, 2))
        coloring, S = Coloring(1, colors), FiniteSet(elems)
        jobs.append(Job("folkman", ("weakly_monochromatic", colors, elems),
                        lambda ctx, c=coloring, S=S: folkman.weakly_monochromatic(c, S),
                        bool, _expect(oracle.weakly_mono(colors, elems))))
    return jobs


def _polyreg_expect(eq):
    """Statuses of sufficient_ipr and necessary_check from first principles."""
    coeffs = [c for c, _ in eq]
    occurrences: dict[str, int] = {}
    for _, mono in eq:
        for v, _ in mono:
            occurrences[v] = occurrences.get(v, 0) + 1
    private = all(any(occurrences[v] == 1 for v, _ in mono) for _, mono in eq)
    powers_one = all(e == 1 for _, mono in eq for _, e in mono)
    suff = ("IPR_certified" if powers_one and private and len(eq) >= 2 and oracle.has_zero_sum(coeffs)
            else "unknown")
    degrees = {sum(e for _, e in mono) for _, mono in eq}
    if len(degrees) == 1 and not oracle.has_zero_sum(coeffs):
        nec = ("not_PR_certified", oracle.least_blocking_prime(coeffs))
    else:
        nec = ("unknown", None)
    return suff, nec


def _polyreg_jobs(rng):
    jobs = []
    for i in range(24):
        if i % 2 == 0:
            eq = _shuffled_eq(rng, [rng.choice((-1, 1)) * rng.randint(1, 5) for _ in range(rng.randint(2, 4))])
        else:
            names = rng.sample(NAMES, 5)
            eq = ((rng.randint(1, 4), tuple(sorted(((names[0], 1), (names[1], 1))))),
                  (rng.randint(1, 4), tuple(sorted(((names[1], 1), (names[2], 1))))),
                  (-rng.randint(1, 6), ((names[3], rng.choice((1, 2))),)))
        P = parse_poly(oracle.eq_text(eq))
        suff, nec = _polyreg_expect(eq)

        def run(ctx, P=P):
            return polyreg.sufficient_ipr(P), polyreg.necessary_check(P)
        jobs.append(Job("polyreg", ("check", eq), run,
                        lambda v: (v[0].status, (v[1].status, v[1].certificate.get("blocking_prime"))),
                        _expect((suff, nec))))
    for _ in range(12):
        d = rng.randint(1, 3)
        names = rng.sample(NAMES, 3)
        terms = {}
        for _ in range(rng.randint(2, 4)):
            exps = [0, 0, 0]
            for _ in range(d):
                exps[rng.randrange(3)] += 1
            mono = tuple((v, e) for v, e in zip(names, exps) if e)
            terms[tuple(sorted(mono))] = rng.choice((-1, 1)) * rng.randint(1, 6)
        eq = tuple((c, m) for m, c in terms.items())
        P = parse_poly(oracle.eq_text(eq))
        variables = sorted({v for _, m in eq for v, _ in m})
        want = tuple((c, tuple((v, d - dict(m).get(v, 0)) for v in variables if d - dict(m).get(v, 0)))
                     for c, m in eq)
        points = [{v: rng.randint(1, 9) for v in variables} for _ in range(3)]

        def check(got, want=want, points=points):
            for asg in points:
                if oracle.eq_eval(got, asg) != oracle.eq_eval(want, asg):
                    return f"reciprocal differs at {asg}"
            return None
        jobs.append(Job("polyreg", ("reciprocal", eq), lambda ctx, P=P: polyreg.reciprocal(P),
                        lambda Q: tuple((c, key) for key, c in Q.monomials.items()) + ((Q.constant, ()),),
                        check))
    return jobs


def random_term_text(rng, size):
    """A random star-calculus term in prlab's text syntax."""
    if size <= 1:
        return rng.choice(("a", "b", "c", str(rng.randint(1, 9))))
    kind = rng.random()
    if kind < 0.25:
        return f"S{rng.randint(1, 3)}({random_term_text(rng, size - 1)})"
    left = rng.randint(1, size - 1)
    op = "+" if kind < 0.6 else "*"
    return f"({random_term_text(rng, left)}) {op} ({random_term_text(rng, size - left)})"


def _equal_pair(rng):
    """Two spellings of one term, by an identity of the star calculus, or a
    pair that differs (flag False)."""
    A, B, C = (random_term_text(rng, rng.randint(2, 5)) for _ in range(3))
    k, j = rng.randint(1, 3), rng.randint(1, 3)
    pairs = (
        (f"({A}) + ({B})", f"({B}) + ({A})", True),
        (f"({A}) * ({B})", f"({B}) * ({A})", True),
        (f"({A}) * (({B}) + ({C}))", f"({A}) * ({B}) + ({A}) * ({C})", True),
        (f"S{k}(({A}) * ({B}) + ({C}))", f"S{k}({A}) * S{k}({B}) + S{k}({C})", True),
        (f"S{k}(S{j}({A}))", f"S{k + j}({A})", True),
        (f"({A}) + 1", f"{A}", False),
        (f"({A}) + ({A})", f"{A}", False),
        (f"S{k}(a) * ({A})", f"a * ({A})", False),
    )
    return pairs[rng.randrange(len(pairs))]


def _omega_jobs(rng):
    jobs = []
    for _ in range(32):
        left, right, equal = _equal_pair(rng)
        s, t = omega.parse_term(left), omega.parse_term(right)
        jobs.append(Job("omega", ("term_eq", left, right), lambda ctx, s=s, t=t: omega.term_eq(s, t),
                        bool, _expect(equal)))

    def ledger_answer(res):
        return res.zero_check, res.distinct_check, tuple(line.text() for line in res.ledger)
    jobs.append(Job("omega", ("verify_table_construction", (3, 2, 4), (1, 8)),
                    lambda ctx: omega.verify_table_construction((3, 2, 4), (1, 8)), ledger_answer,
                    _expect((True, True, oracle.LEDGER_ANCHORS))))
    for _ in range(8):
        c = [rng.randint(1, 9) for _ in range(rng.randint(2, 4))]
        d = [rng.randint(1, 9) for _ in range(rng.randint(1, 3))]
        diff = sum(c) - sum(d)
        if diff > 0:
            d.append(diff)
        elif diff < 0:
            c.append(-diff)
        c, d = tuple(c), tuple(d)
        jobs.append(Job("omega", ("verify_table_construction", c, d),
                        lambda ctx, c=c, d=d: omega.verify_table_construction(c, d),
                        lambda r: r.zero_check, _expect(True)))
    return jobs


def random_periodic(rng):
    period = rng.randint(1, 6)
    residues = frozenset(r for r in range(period) if rng.random() < 0.6)
    threshold = rng.randint(0, 4)
    prefix = frozenset(x for x in range(threshold) if rng.random() < 0.5)
    return period, residues, threshold, prefix


def _embed_jobs(rng):
    jobs = []
    for _ in range(24):
        A, B = random_periodic(rng), random_periodic(rng)
        pa, pb = PeriodicSet(*A), PeriodicSet(*B)
        jobs.append(Job("embed", ("fe_periodic", A, B), lambda ctx, a=pa, b=pb: embed.fe_periodic(a, b),
                        bool, _expect(oracle.periodic_embeds(A, B))))
    for _ in range(12):
        A = random_periodic(rng)
        pa = PeriodicSet(*A)
        jobs.append(Job("embed", ("classify", A), lambda ctx, a=pa: embed.classify(a),
                        lambda f: (f.thick, f.syndetic), _expect(oracle.periodic_flags(A))))
        jobs.append(Job("embed", ("bd", A), lambda ctx, a=pa: embed.bd(a), Fraction,
                        _expect(oracle.periodic_density(A))))
    for _ in range(12):
        F = tuple(sorted(rng.sample(range(0, 8), rng.randint(2, 3))))
        B = tuple(sorted(rng.sample(range(0, 40), 18)))
        fam = embed.family("affinity", ((1, 4), (0, 12)))
        fs, bs = FiniteSet(F), FiniteSet(B)
        jobs.append(Job("embed", ("fmap_witness", F, B, "affinity", (1, 4), (0, 12)),
                        lambda ctx, f=fs, b=bs, fam=fam: embed.fmap_witness(f, b, fam),
                        lambda r: r.params, _expect(oracle.affinity_witness(F, set(B), (1, 4), (0, 12)))))
    return jobs


def _certify_batch(rng):
    extra = (_witness_jobs(rng) + _extract_jobs(rng) + _parametric_jobs(rng) + _folkman_jobs(rng)
             + _polyreg_jobs(rng) + _omega_jobs(rng) + _embed_jobs(rng))
    rng.shuffle(extra)
    # the blocking colorings must exist before the sweep rows that use them
    return _sweep_jobs() + extra


# -- cli_mix ------------------------------------------------------------------

ENVELOPE_KEYS = {"verdict", "certificate", "provenance", "timing_ms", "bounds"}


def envelope(out: str):
    """The single five-key JSON object on stdout, or an error text."""
    lines = out.splitlines()
    if len(lines) != 1:
        return None, f"{len(lines)} stdout lines, expected one envelope"
    try:
        env = json.loads(lines[0])
    except ValueError:
        return None, "stdout is not JSON"
    if not isinstance(env, dict) or set(env) != ENVELOPE_KEYS:
        return None, f"envelope keys {sorted(env) if isinstance(env, dict) else type(env)}"
    return env, None


def cli_check(code_want, verdict_check=None):
    """Check (exit code, stdout) of one `prlab ... --json` call."""
    def check(ans):
        code, out = ans
        if code != code_want:
            return f"exit {code}, expected {code_want}"
        env, err = envelope(out)
        if err:
            return err
        return verdict_check(env) if verdict_check else None
    return check


def _breach_check(ok_envelope):
    """A known exit-contract breach: acceptable are exit 3 (refused input),
    or exit 0/2 with a correct envelope; exit 1 or a traceback is not."""
    def check(ans):
        code, out = ans
        if code == 3:
            return None
        if code not in (0, 2):
            return f"exit {code}" + ("" if out.strip() else " without an envelope")
        env, err = envelope(out)
        return err or ok_envelope(code, env)
    return check


def _write(workdir: Path, name: str, text: str) -> str:
    path = workdir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _cli_mix(rng, workdir: Path):
    workdir.mkdir(parents=True, exist_ok=True)
    groups = _rado_groups()
    jobs = []

    def add(kind, argv, check):
        argv = list(argv) + ["--json"]
        jobs.append(Job(kind, tuple(argv), None, tuple, check, argv=argv))

    def linear_eq(k):
        return _shuffled_eq(rng, [rng.choice((-1, 1)) * rng.randint(1, 6) for _ in range(k)])

    # top-level verbs
    for k in (3, 4):
        eq = linear_eq(k)
        coeffs = [c for c, _ in eq]
        p = oracle.least_blocking_prime(coeffs)
        add("check", ["check-linear", oracle.eq_text(eq)],
            cli_check(0) if p is None else
            cli_check(1, lambda env, p=p: _expect(p)(env["certificate"]["blocking_prime"])))
    a, b, c, const = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 9)
    s = a + b - c
    # a positive constant solution, or an integer one plus a zero-sum subset
    affine_pr = (s != 0 and (-const) % s == 0
                 and (-const // s >= 1 or oracle.has_zero_sum((a, b, -c))))
    add("check", ["check-affine", f"{a}*x + {b}*y - {c}*z + {const}"], cli_check(0 if affine_pr else 1))
    row = [rng.choice((-1, 1)) * rng.randint(1, 4) for _ in range(rng.randint(3, 5))]
    add("check", ["check-matrix", _write(workdir, "row.txt", " ".join(map(str, row)) + "\n")],
        cli_check(0 if oracle.has_zero_sum(row) else 1))
    p, m = rng.choice((3, 5, 7, 11)), rng.randint(1, 5000)
    add("check", ["smod", str(p), str(m)], cli_check(0, lambda env: _expect(oracle.smod(p, m))(env["verdict"])))
    coeffs = [rng.randint(1, 7)] + [rng.choice((-1, 1)) * rng.randint(1, 7) for _ in range(2)]
    bp = oracle.least_blocking_prime(coeffs)
    add("check", ["blocking-prime", ",".join(map(str, coeffs))],
        cli_check(1) if bp is None else cli_check(0, lambda env: _expect(bp)(env["verdict"])))
    x = rng.randint(1, 9)
    par_eq = oracle.linear((x, -x, rng.randint(1, 9)), ("x", "y", "z"))

    def par_check(env, eq=par_eq):
        cert = env["certificate"]
        asg = {v: 3 + z * 2 for v, z in zip(cert["j_vars"], cert["zs"])}
        asg.update({v: cert["m"] * 2 for v in ("x", "y", "z") if v not in asg})
        return None if oracle.eq_eval(eq, asg) == 0 else "family does not vanish"
    add("check", ["parametric", oracle.eq_text(par_eq), "--subset", "x,y"], cli_check(0, par_check))

    # search and vdw verbs
    for R in (11, 13, 16):
        eq = _rado_eq(rng, R, groups)
        text = oracle.eq_text(eq)
        add("search", ["search", "good-coloring", "--poly", text, "-n", str(R - 1), "-r", "2"],
            cli_check(0, lambda env, e=eq, n=R - 1: _good_check(lambda: oracle.eq_solutions(e, n), n, 2)(
                ("good", tuple(env["certificate"]["colors"])))))
        add("search", ["search", "good-coloring", "--poly", text, "-n", str(R), "-r", "2"],
            cli_check(1, lambda env: _expect("forced")(env["verdict"])))
        add("search", ["search", "forcing-number", "--poly", text, "-r", "2", "--max", str(R + 3)],
            cli_check(0, lambda env, R=R: _expect(R)(env["verdict"])))
    add("search", ["search", "good-coloring", "--ap", "3", "-n", "8", "-r", "2"],
        cli_check(0, lambda env: _good_check(lambda: oracle.ap_solutions(3, 8), 8, 2)(
            ("good", tuple(env["certificate"]["colors"])))))
    add("search", ["search", "forcing-number", "--ap", "3", "-r", "2", "--max", "12"],
        cli_check(0, lambda env: _expect(9)(env["verdict"])))
    for _ in range(2):
        eq = _template_eq(rng, rng.randrange(POLY_TEMPLATES))
        n = rng.randint(20, 30)
        colors = _random_colors(rng, n, 2)
        want = oracle.least_mono(colors, oracle.eq_solutions(eq, n))
        path = _write(workdir, f"witness{len(jobs)}.txt", " ".join(map(str, colors)) + "\n")
        add("search", ["search", "witness", "--poly", oracle.eq_text(eq), "--coloring", path],
            cli_check(1) if want is None else
            cli_check(0, lambda env, w=want: _expect(list(w))(env["certificate"]["values"])))
    vcolors = _random_colors(rng, 325, 2)
    path = _write(workdir, "vdw.txt", " ".join(map(str, vcolors)) + "\n")
    add("vdw", ["vdw", "extract325", "--coloring", path],
        cli_check(0, lambda env: None if oracle.is_mono_3ap(vcolors, env["certificate"]["triple"])
                  else "not a monochromatic progression"))

    # folkman verbs
    elems = sorted(rng.sample(range(1, 40), rng.randint(4, 7)))
    add("folkman", ["folkman", "fs", ",".join(map(str, elems))],
        cli_check(0, lambda env: _expect(oracle.finite_sums(elems))(env["verdict"])))
    fn = rng.randint(2, 3)
    add("folkman", ["folkman", "matrix", str(fn), "--check"],
        cli_check(0, lambda env: _expect([list(r) for r in oracle.folkman_rows(fn)])(env["certificate"]["entries"])))
    welems = sorted(rng.sample(range(1, 8), 3))
    wcolors = _random_colors(rng, sum(welems), 2)
    path = _write(workdir, "weak.txt", " ".join(map(str, wcolors)) + "\n")
    add("folkman", ["folkman", "weak-mono", "--coloring", path, "--set", ",".join(map(str, welems))],
        cli_check(0 if oracle.weakly_mono(wcolors, welems) else 1))

    # poly verbs
    names = rng.sample(NAMES, 5)
    nl = f"{rng.randint(1, 4)}*{names[0]}*{names[1]} + {rng.randint(1, 4)}*{names[1]}*{names[2]} - {names[3]}"
    add("poly", ["poly", "reduct", nl], cli_check(0))
    add("poly", ["poly", "exclusive", nl], cli_check(0))
    for _ in range(2):
        eq = linear_eq(rng.randint(3, 4))
        suff, (nec, _) = _polyreg_expect(eq)
        code = 0 if suff == "IPR_certified" else 1 if nec == "not_PR_certified" else 2
        add("poly", ["poly", "check", oracle.eq_text(eq)], cli_check(code))
    add("poly", ["poly", "construct3513", "--linear", "x+y-z", "--subsets", "1|1,2|2", "-n", "2"],
        cli_check(0, lambda env: _expect("IPR_certified")(env["certificate"]["status"])))
    add("poly", ["poly", "reciprocal", f"{rng.randint(1, 5)}*x^2 + y*z - {rng.randint(1, 5)}*z^2"], cli_check(0))
    add("poly", ["poly", "transform", oracle.eq_text(linear_eq(3)), "--power", str(rng.randint(2, 3))],
        cli_check(0))
    add("poly", ["poly", "invariance", nl], cli_check(0))

    # omega verbs
    left, right, equal = _equal_pair(rng)
    add("omega", ["omega", "eq", left, right], cli_check(0 if equal else 1))
    add("omega", ["omega", "eval", random_term_text(rng, 6)], cli_check(0))
    add("omega", ["omega", "tensorized", f"{random_term_text(rng, 3)};{random_term_text(rng, 3)}"],
        cli_check(0))
    h = rng.randint(1, 3)
    add("omega", ["omega", "rpair", f"S{h - 1}(a)", f"S{h + rng.randint(0, 1)}(b) + {rng.randint(1, 9)}"],
        cli_check(0))
    add("omega", ["omega", "verify354", "--c", "3,2,4", "--d", "1,8", "--ledger"],
        cli_check(0, lambda env: _expect(list(oracle.LEDGER_ANCHORS))(env["certificate"]["ledger"])))

    # embed verbs
    A, B = random_periodic(rng), random_periodic(rng)
    add("embed", ["embed", "fe", "--periodic", PeriodicSet(*A).to_text(),
                  "--in-periodic", PeriodicSet(*B).to_text()],
        cli_check(0 if oracle.periodic_embeds(A, B) else 1))
    A = random_periodic(rng)
    add("embed", ["embed", "classify", PeriodicSet(*A).to_text()],
        cli_check(0, lambda env: _expect(oracle.periodic_flags(A))(
            (env["verdict"]["thick"], env["verdict"]["syndetic"]))))
    add("embed", ["embed", "bd", PeriodicSet(*A).to_text()],
        cli_check(0, lambda env: _expect(str(oracle.periodic_density(A)))(env["verdict"])))
    F = sorted(rng.sample(range(0, 6), 2))
    Bf = sorted(rng.sample(range(0, 30), 14))
    want = oracle.affinity_witness(F, set(Bf), (1, 4), (0, 10))
    add("embed", ["embed", "fmap", "--set", ",".join(map(str, F)), "--in", ",".join(map(str, Bf)),
                  "--family", "affinity", "--bounds", "a=1..4,b=0..10"],
        cli_check(2) if want is None else
        cli_check(0, lambda env: _expect(list(want))(env["certificate"]["params"])))

    # the known exit-contract breaches: they count as failures while they stand
    path = _write(workdir, "deep.txt", "1 1 -3000\n")
    add("breach", ["search", "good-coloring", "--matrix", path, "-n", "1200", "-r", "2"],
        _breach_check(lambda code, env: None if code == 2 or env["certificate"]["colors"] == [1] * 1200
                      else "x + y = 3000 z has no solution in [1, 1200]: the all-ones coloring is least"))
    add("breach", ["omega", "eval", "(" * 2000 + "a" + ")" * 2000],
        _breach_check(lambda code, env: None if code == 2 or env["verdict"]["canonical"] == "a"
                      else f"canonical form {env['verdict']}"))
    eq = _rado_eq(rng, 13, groups)
    for budget in ("0", "-5"):
        add("breach", ["search", "good-coloring", "--poly", oracle.eq_text(eq), "-n", "12", "-r", "2",
                       "--max-nodes", budget],
            _breach_check(lambda code, env, b=int(budget): None if b >= 0 and code == 2
                          and env["bounds"]["max_nodes"] == b
                          else f"budget {b}: exit {code}, bounds {env['bounds']}"))
    rng.shuffle(jobs)
    return jobs


def build(name: str, seed: int, workdir: Path) -> list[Job]:
    rng = random.Random(f"{name}:{seed}")
    if name == "coloring_search":
        return _coloring_search(rng)
    if name == "enumerate_index":
        return _enumerate_index(rng)
    if name == "certify_batch":
        return _certify_batch(rng)
    if name == "cli_mix":
        return _cli_mix(rng, workdir)
    raise ValueError(f"unknown workload {name!r}")
