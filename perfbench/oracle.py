"""Independent checks for every verdict the benchmark collects.

Nothing here calls prlab. Equations are held in the benchmark's own form, a
tuple of terms `(coeff, ((var, exp), ...))` with a zero constant, and
rendered to prlab's text syntax with `eq_text`. Solutions, colorings,
subset sums and primes are recomputed from scratch.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

# -- equations in the benchmark's own form -----------------------------------


def eq_vars(eq) -> tuple[str, ...]:
    return tuple(sorted({v for _, mono in eq for v, _ in mono}))


def eq_eval(eq, asg) -> int:
    total = 0
    for coeff, mono in eq:
        term = coeff
        for v, e in mono:
            term *= asg[v] ** e
        total += term
    return total


def eq_text(eq) -> str:
    """prlab's syntax; a positive term goes first, so the text never starts
    with '-' (argparse would take it for an option)."""
    first = next((i for i, (c, _) in enumerate(eq) if c > 0), 0)
    parts = []
    for coeff, mono in (eq[first],) + eq[:first] + eq[first + 1:]:
        factors = [v if e == 1 else f"{v}^{e}" for v, e in mono]
        body = "*".join(factors)
        mag = abs(coeff)
        piece = body if mag == 1 else f"{mag}*{body}"
        parts.append(("- " if coeff < 0 else "+ ") + piece)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def linear(coeffs, names) -> tuple:
    return tuple((c, ((v, 1),)) for c, v in zip(coeffs, names))


def _int_roots(a: int, b: int, c: int, n: int):
    """Integer t in [1, n] with a*t^2 + b*t + c = 0."""
    if a == 0 and b == 0:
        return range(1, n + 1) if c == 0 else ()
    if a == 0:
        q, r = divmod(-c, b)
        return (q,) if r == 0 and 1 <= q <= n else ()
    disc = b * b - 4 * a * c
    if disc < 0:
        return ()
    s = math.isqrt(disc)
    if s * s != disc:
        return ()
    out = set()
    for num in (-b - s, -b + s):
        q, r = divmod(num, 2 * a)
        if r == 0 and 1 <= q <= n:
            out.add(q)
    return sorted(out)


def eq_solutions(eq, n: int, injective: bool = False):
    """All solutions in [1, n], as tuples over `eq_vars` order, sorted. The
    last variable is solved from the quadratic read off three evaluations,
    so partial degree must be at most 2."""
    names = eq_vars(eq)
    head, last = names[:-1], names[-1]
    out = []
    for vals in product(range(1, n + 1), repeat=len(head)):
        asg = dict(zip(head, vals))
        f = []
        for t in (0, 1, 2):
            asg[last] = t
            f.append(eq_eval(eq, asg))
        a2 = f[2] - 2 * f[1] + f[0]  # twice the leading coefficient
        b = f[1] - f[0] - a2 // 2
        for t in _int_roots(a2 // 2, b, f[0], n):
            sol = vals + (t,)
            if not injective or len(set(sol)) == len(sol):
                out.append(sol)
    return sorted(out)


def matrix_solutions(rows, n: int, injective: bool = False):
    """All x in [1, n]^k with rows . x = 0; the last column must be nonzero
    in the first row, which fixes the last coordinate."""
    k = len(rows[0])
    lead = rows[0][-1]
    out = []
    for vals in product(range(1, n + 1), repeat=k - 1):
        q, r = divmod(-sum(a * x for a, x in zip(rows[0], vals)), lead)
        if r or not 1 <= q <= n:
            continue
        sol = vals + (q,)
        if all(sum(a * x for a, x in zip(row, sol)) == 0 for row in rows[1:]):
            if not injective or len(set(sol)) == len(sol):
                out.append(sol)
    return out


def ap_solutions(k: int, n: int):
    return [tuple(a + t * d for t in range(k))
            for a in range(1, n + 1) for d in range(1, (n - a) // (k - 1) + 1)]


# -- colorings -----------------------------------------------------------------


def mono(colors, sol, lo: int = 1) -> bool:
    return len({colors[x - lo] for x in sol}) == 1


def good_coloring_error(colors, sols, n: int, r: int):
    """Why `colors` (for 1..n) is not a good r-coloring, or None."""
    if len(colors) != n:
        return f"coloring has {len(colors)} values, expected {n}"
    if any(not 1 <= c <= r for c in colors):
        return "color out of range"
    for sol in sols:
        if mono(colors, sol):
            return f"monochromatic solution {sol}"
    return None


def least_mono(colors, sols):
    for sol in sols:
        if mono(colors, sol):
            return sol
    return None


def forced(sols, n: int, r: int) -> bool:
    """Plain backtracking over colorings of 1..n: True when every r-coloring
    has a monochromatic solution. Used by the self-test on small cases."""
    by_max: dict[int, list] = {}
    for sol in sols:
        by_max.setdefault(max(sol), []).append(sol)
    colors = [0] * (n + 1)

    def extend(v: int) -> bool:
        if v > n:
            return True
        for c in range(1, r + 1):
            colors[v] = c
            if all(len({colors[x] for x in s}) > 1 for s in by_max.get(v, ())):
                if extend(v + 1):
                    return True
        colors[v] = 0
        return False

    return not extend(1)


def rado2(a: int, b: int) -> int:
    """2-color Rado number of a*x + b*y = a*z for coprime a, b >= 1. The
    closed forms were checked against `forced` for small a and b (see the
    self-test)."""
    if a == 1:
        return b * b + 3 * b + 1
    if b < a:
        return a * a
    return b * b + b + 1


# -- subset sums and primes ---------------------------------------------------------


def subset_sums(values):
    return [sum(s) for k in range(1, len(values) + 1) for s in combinations(values, k)]


def has_zero_sum(coeffs) -> bool:
    return 0 in subset_sums(coeffs)


def is_prime(p: int) -> bool:
    return p >= 2 and all(p % f for f in range(2, math.isqrt(p) + 1))


def least_blocking_prime(coeffs):
    sums = subset_sums(coeffs)
    if 0 in sums:
        return None
    p = 2
    while any(s % p == 0 for s in sums):
        p += 1
        while not is_prime(p):
            p += 1
    return p


def smod(p: int, n: int) -> int:
    while n % p == 0:
        n //= p
    return n % p


# -- progressions, finite sums, periodic sets ------------------------------------


def is_mono_3ap(values, triple, lo: int = 0) -> bool:
    x, y, z = triple
    return (lo <= x < y < z <= lo + len(values) - 1 and y - x == z - y
            and values[x - lo] == values[y - lo] == values[z - lo])


def finite_sums(elems) -> list[int]:
    return sorted(set(subset_sums(elems)))


def weakly_mono(colors, elems) -> bool:
    """Every nonempty subset sum has the color of its largest summand;
    `colors` covers 1..len(colors)."""
    elems = sorted(elems)
    for k in range(1, len(elems) + 1):
        for sub in combinations(elems, k):
            if colors[sum(sub) - 1] != colors[sub[-1] - 1]:
                return False
    return True


def folkman_rows(n: int):
    subsets = [s for k in range(1, n + 1) for s in combinations(range(1, n + 1), k)]
    m = len(subsets)
    return tuple(
        tuple([1 if j in s else 0 for j in range(1, n + 1)] + [-1 if j == i else 0 for j in range(m)])
        for i, s in enumerate(subsets)
    )


def periodic_member(spec, x: int) -> bool:
    period, residues, threshold, prefix = spec
    if x < threshold:
        return x in prefix
    return x % period in residues


def periodic_embeds(A, B) -> bool:
    """Does every finite subset of A shift into B? One chunk of A that spans
    the thresholds plus several common periods, tried at every shift up to
    B's threshold plus several periods."""
    p = math.lcm(A[0], B[0])
    chunk = [x for x in range(A[2] + B[2] + 4 * p + 1) if periodic_member(A, x)]
    return any(all(periodic_member(B, n + x) for x in chunk)
               for n in range(B[2] + 4 * p + 1))


def periodic_density(spec) -> Fraction:
    period, _, threshold, _ = spec
    hits = sum(periodic_member(spec, x) for x in range(threshold, threshold + period))
    return Fraction(hits, period)


def periodic_flags(spec):
    """(thick, syndetic) from one window of two periods past the threshold."""
    period, _, threshold, _ = spec
    window = [periodic_member(spec, x) for x in range(threshold, threshold + 2 * period)]
    return all(window), any(window)


def affinity_witness(F, B, a_range, b_range):
    """Lexicographically least (a, b), a >= 1, b >= 0, with a*F + b inside B."""
    for a in range(max(a_range[0], 1), a_range[1] + 1):
        for b in range(max(b_range[0], 0), b_range[1] + 1):
            if all(a * x + b in B for x in F):
                return (a, b)
    return None


# -- the coefficient ledger for c = (3, 2, 4), d = (1, 8) ---------------------------

LEDGER_ANCHORS = (
    "c1 = 9 + 6 + 12 - 3 - 24 = 0",
    "c2 = 15 + 0 + 12 - 3 - 24 = 0",
    "c3 = 15 + 10 + 20 - 5 - 40 = 0",
    "c4 = 6 + 4 + 8 - 2 - 16 = 0",
    "c5 = 6 + 12 + 0 - 2 - 16 = 0",
    "c6 = 18 + 12 + 24 - 6 - 48 = 0",
    "c7 = 3 + 2 + 4 - 1 - 8 = 0",
    "c8 = 3 + 2 + 4 - 9 - 0 = 0",
    "c9 = 27 + 18 + 36 - 9 - 72 = 0",
)
