"""Finite coloring searches: exhaustive solution enumeration, backtracking
good-coloring search, forcing numbers, monochromatic witnesses, and the
case-analysis extractor that pulls a monochromatic 3-term progression out of
any 2-coloring of [0, 324].
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import Counter
from itertools import islice
from operator import sub
from typing import NamedTuple

from .core import Coloring, FiniteSet, IntMatrix, Poly, linear_coefficients, poly_props

MAX_POLY_VARS = 6
MAX_POLY_PARTIAL_DEGREE = 2
MAX_SOLUTIONS = 10**7
MAX_MASK_BITS = 1 << 22  # one row's reachable-sum masks together
DEFAULT_NODE_BUDGET = 10**8


class SearchBudgetExceeded(RuntimeError):
    def __init__(self, nodes: int):
        super().__init__(f"search exceeded the node budget after {nodes} nodes")
        self.nodes = nodes


class NodeBudget:
    """One search's node budget: limit nodes in all (the default when none
    is given), used of them so far."""

    __slots__ = ("limit", "used")

    def __init__(self, limit: int | None = None, default: int = DEFAULT_NODE_BUDGET):
        if limit is not None and limit < 0:
            raise ValueError("node budget must be >= 0")
        self.limit, self.used = default if limit is None else limit, 0

    def spend(self) -> int:
        """Count one node and return the count; past the limit raise
        SearchBudgetExceeded."""
        self.used += 1
        if self.used > self.limit:
            raise SearchBudgetExceeded(self.used)
        return self.used


class SolutionSystem(NamedTuple):
    """What the colorings must avoid, read once when built: k variables over
    positive integers, pairwise distinct when injective, solving the linear
    rows (rows · x + constants = 0), the nonlinear equation poly = 0, or,
    with neither, forming an increasing k-term arithmetic progression."""

    k: int
    injective: bool = False
    rows: tuple | None = None
    constants: tuple | None = None
    poly: Poly | None = None


def poly_system(P: Poly, injective: bool = False) -> SolutionSystem:
    k = len(P.variables())
    if k < 2:
        raise ValueError("system needs at least two variables")
    coeffs = linear_coefficients(P)
    if coeffs is None:
        return SolutionSystem(k, injective, poly=P)
    return SolutionSystem(k, injective, (coeffs,), (P.constant,))


def matrix_system(M: IntMatrix, injective: bool = False) -> SolutionSystem:
    if M.cols < 2:
        raise ValueError("system needs at least two variables")
    return SolutionSystem(M.cols, injective, M.entries, (0,) * M.rows)


def ap_system(k: int) -> SolutionSystem:
    """Increasing k-term arithmetic progressions (common difference >= 1);
    the values are automatically distinct."""
    if k < 2:
        raise ValueError("progression length must be >= 2")
    return SolutionSystem(k, True)


# -- solution enumeration ---------------------------------------------------

def _monomial_range(exps, lo: int, hi: int):
    """Exact [min, max] of a power product with the given exponents over a
    product of integer boxes [lo, hi] (the same box for every variable)."""
    vlo, vhi = 1, 1
    for e in exps:
        if e == 0:
            continue
        ends = [lo**e, hi**e]
        if lo <= 0 <= hi:
            ends.append(0)
        nlo, nhi = min(ends), max(ends)
        cands = [vlo * nlo, vlo * nhi, vhi * nlo, vhi * nhi]
        vlo, vhi = min(cands), max(cands)
    return vlo, vhi


def _quadratic_roots(c0: int, c1: int, c2: int, lo: int, hi: int):
    """Integer roots of c2*x^2 + c1*x + c0 in [lo, hi], ascending; every
    value of [lo, hi] when all three coefficients vanish."""
    if c2 == 0:
        if c1 == 0:
            return range(lo, hi + 1) if c0 == 0 else ()
        q, r = divmod(-c0, c1)
        return (q,) if r == 0 and lo <= q <= hi else ()
    disc = c1 * c1 - 4 * c2 * c0
    s = math.isqrt(disc) if disc >= 0 else -1  # -1 squares to no negative disc
    if s * s != disc:
        return ()
    roots = (divmod(-c1 + sign * s, 2 * c2) for sign in (-1, 1))
    return sorted({q for q, r in roots if r == 0 and lo <= q <= hi})


class _PolyResidual:
    """P = 0 with its variables assigned in the given order.  The state maps
    each exponent tuple over the unassigned variables to its integer
    coefficient (the constant term is the all-zero tuple); the [min, max]
    of every such monomial over the box [lo, hi] is tabulated once."""

    def __init__(self, P: Poly, order, lo: int, hi: int):
        k = len(order)
        start = {(0,) * k: P.constant}
        for key, coeff in P.monomials.items():
            start[tuple(dict(key).get(v, 0) for v in order)] = coeff
        self.ranges = {
            key[d:]: _monomial_range(key[d:], lo, hi)
            for key in start for d in range(k)
        }
        self.scan = max(key[-1] for key in start) > 2
        self.lo, self.hi = lo, hi
        self.table: tuple = (None, None)  # (c1, c2) and its table of z
        self.start = start if self._feasible(start) else None

    def _feasible(self, state) -> bool:
        lo = hi = 0
        for key, c in state.items():
            mlo, mhi = self.ranges[key]
            lo += c * (mlo if c > 0 else mhi)
            hi += c * (mhi if c > 0 else mlo)
        return lo <= 0 <= hi

    def assign(self, state, depth: int, x: int):
        """Fold c * x**e0 into each key with its first exponent dropped."""
        out: dict[tuple[int, ...], int] = {}
        for key, c in state.items():
            rest = key[1:]
            out[rest] = out.get(rest, 0) + c * x ** key[0]
        return out if self._feasible(out) else None

    def last_pairs(self, state, values):
        """The (y, z) over values that solve the state, ascending in y and
        then z; values is the same list on every call.  Up to degree 2 in y
        and z the state is c0(y) + c1(y)·z + c2(y)·z².  When c1 and c2 do not
        depend on y, each y is one lookup of c0(y) in a table of the z over
        values by -(c1·z + c2·z²), and only the last table is kept: the
        earlier variables can give each (c1, c2) its own."""
        if self.scan or any(i > 2 for i, _ in state):  # fold y in, then solve or scan z
            for y in values:
                rest = self.assign(state, 0, y)
                if rest is None:
                    continue
                if self.scan:
                    zs = (z for z in values if sum(c * z**e for (e,), c in rest.items()) == 0)
                else:
                    zs = _quadratic_roots(*(rest.get((e,), 0) for e in range(3)), self.lo, self.hi)
                yield from ((y, z) for z in zs)
            return
        c = [0] * 9  # c[3 * j + i]: the coefficient of y^i z^j
        for (i, j), v in state.items():
            c[3 * j + i] = v
        a0, a1, a2, b0, b1, b2, d0, d1, d2 = c
        if b1 or b2 or d1 or d2:
            lo, hi = self.lo, self.hi
            for y in values:
                c0, c1, c2 = a0 + (a1 + a2 * y) * y, b0 + (b1 + b2 * y) * y, d0 + (d1 + d2 * y) * y
                for z in _quadratic_roots(c0, c1, c2, lo, hi):
                    yield y, z
            return
        if self.table[0] != (b0, d0):
            table: dict[int, list[int]] = {}
            for z in values:
                table.setdefault(-(b0 + d0 * z) * z, []).append(z)
            self.table = ((b0, d0), table)
        get = self.table[1].get
        for y in values:
            zs = get(a0 + (a1 + a2 * y) * y)
            if zs:  # most y have none
                for z in zs:
                    yield y, z


def _runs(values):
    """The ascending value list as arithmetic runs (first, d, count): d is 1
    when the list has no gaps (a range is one run), else the most common gap
    between neighbours, and each value extends the run ending d below it."""
    if values[-1] - values[0] == len(values) - 1:  # no gaps
        return [(values[0], 1, len(values))]
    d = Counter(map(sub, values[1:], values)).most_common(1)[0][0]
    ends: dict[int, list[int]] = {}  # an open run's last value: [first, count]
    for x in values:
        ends[x] = run = ends.pop(x - d, None) or [x, 0]
        run[1] += 1
    return [(first, d, count) for first, count in ends.values()]


def _reach(mask: int, c: int, runs) -> int:
    """The OR of mask << (c*x - m) over the values of the runs, where m is
    the least c*x: the sums reachable once c*x joins those in mask.  Each run
    takes about log2(count) doubling shifts of |c|·d, then one to its least c*x."""
    starts = [c * a if c > 0 else c * (a + d * (count - 1)) for a, d, count in runs]
    low, acc = min(starts), 0
    for start, (_, d, count) in zip(starts, runs):
        part, span, step = mask, 1, abs(c) * d  # part covers the shifts step·s for s < span
        while span < count:
            grow = span if 2 * span <= count else count - span
            part, span = part | part << (step * grow), span + grow
        acc |= part << (start - low)
    return acc


class _LinearRows:
    """Rows c·x + constant = 0 with the variables assigned left to right from
    an ascending value list: a linear equation is one row, A x = 0 has one row
    per matrix row.  The state is what each row's unassigned variables still
    owe; variables j and later reach sums in [lows[j], highs[j]].  When a row's
    masks fit in MAX_MASK_BITS, masks[j] for j >= 1 has bit s - lows[j] set for
    every reachable s, which makes the pruning of assign exact.  _reach builds
    them over the values split once into runs whose step is the commonest gap.

    Depth 0 is decided here: start is None when it fails.  A start outside
    some row's depth-0 interval needs no masks at all.  Otherwise masks[0],
    the largest, is never built: its bit for the start is one AND of
    masks[1] with the shifts -c0·x of the first variable."""

    def __init__(self, rows, constants, values):
        self.rows = rows
        start = tuple(-b for b in constants)
        vmin, vmax = values[0], values[-1]
        self.tables = []
        for row in rows:
            lows, highs = [0] * (len(row) + 1), [0] * (len(row) + 1)
            for j in reversed(range(len(row))):
                ends = (row[j] * vmin, row[j] * vmax)
                lows[j], highs[j] = lows[j + 1] + min(ends), highs[j + 1] + max(ends)
            self.tables.append([lows, highs, None])
        reachable = all(
            lows[0] <= need <= highs[0] for need, (lows, highs, _) in zip(start, self.tables))
        runs = None  # the values' _runs, split once some row's masks fit
        for need, row, table in zip(start, rows, self.tables):
            if not reachable:
                break
            if len(row) * sum(map(abs, row)) * (vmax - vmin) > MAX_MASK_BITS:
                continue
            runs = runs or _runs(values)
            lows, masks = table[0], [None] * len(row) + [1]
            for j in reversed(range(1, len(row))):
                masks[j] = _reach(masks[j + 1], row[j], runs)
            shift = need - lows[1] + min(-row[0] * vmin, -row[0] * vmax)
            hits = masks[1] >> shift if shift >= 0 else masks[1] << -shift
            reachable = bool(hits & _reach(1, -row[0], runs))
            table[2] = masks
        self.start = start if reachable else None

    def assign(self, owed, depth: int, x: int):
        owed = tuple(need - row[depth] * x for need, row in zip(owed, self.rows))
        depth += 1
        for need, (lows, highs, masks) in zip(owed, self.tables):
            low = lows[depth]
            if not low <= need <= highs[depth]:
                return None
            if masks and not masks[depth] >> (need - low) & 1:
                return None
        return owed

    def _second_last(self, owed, values):
        """The values of the second-last variable y worth trying, ascending.
        The first row a·y + b·z = need with b != 0 keeps the y that leave z an
        integer in [values[0], values[-1]]: one residue class of y, a·y ≡ need
        (mod |b|), within an interval of y."""
        for need, row in zip(owed, self.rows):
            a, b = row[-2:]
            if b:
                break
        else:
            return values
        if a < 0:  # the same row negated
            a, b, need = -a, -b, -need
        ends = (need - b * values[0], need - b * values[-1])
        lo, hi = min(ends), max(ends)  # the range of a·y
        g = math.gcd(a, b)
        if need % g:
            return ()
        if a == 0:
            return values if lo <= 0 <= hi else ()
        m = abs(b) // g
        y0 = need // g * pow(a // g, -1, m) % m
        ylo, yhi = max(values[0], -(-lo // a)), min(values[-1], hi // a)
        start = ylo + (y0 - ylo) % m
        if isinstance(values, range):
            return range(start, yhi + 1, m)
        span = values[bisect_left(values, start):bisect_right(values, yhi)]
        return span if m == 1 else [y for y in span if (y - y0) % m == 0]

    def last_pairs(self, owed, values):
        """The (y, z) that solve every row over the y of _second_last, ascending
        in y and then z.  One row a·y + b·z = need, b != 0: z = (need - a·y) // b,
        exact in y's residue class.  Several: a row with b != 0 fixes z, one with
        b = 0 must owe nothing, and every z solves when no row fixes it."""
        ys = self._second_last(owed, values)
        if len(self.rows) == 1 and self.rows[0][-1]:
            (need,), (a, b) = owed, self.rows[0][-2:]
            for y in ys:
                yield y, (need - a * y) // b
            return
        for y in ys:
            z = None
            for need, row in zip(owed, self.rows):
                need -= row[-2] * y
                if row[-1]:
                    q, need = divmod(need, row[-1])
                    if z not in (None, q):
                        break
                    z = q
                if need:
                    break
            else:
                yield from ((y, v) for v in (values if z is None else (z,)))


def _walk(constraint, k: int, values, injective: bool):
    """Depth-first walk over assignments of k >= 2 variables from the
    ascending value list, yielding every solution of the constraint in
    lexicographic order.  Above the last two levels the constraint's assign
    gives each value's child state, or None when it has no completion; its
    last_pairs picks the second-last variable's values and solves the last
    two together.  One stack holds a (state, value iterator) per depth."""
    members = set(values)
    assign, last_pairs = constraint.assign, constraint.last_pairs
    start, last = constraint.start, k - 2
    prefix: list[int] = []  # the values taken at the depths below the top
    stack = [] if start is None else [(start, iter(values))]
    while stack:
        state, xs = stack[-1]
        depth = len(prefix)
        if depth == last:
            for y, z in last_pairs(state, values):
                if z in members and not (injective and (y == z or y in prefix or z in prefix)):
                    yield (*prefix, y, z)
            xs = ()  # every value is spent: back up
        for x in xs:
            if injective and x in prefix:
                continue
            child = assign(state, depth, x)
            if child is not None:
                prefix.append(x)
                stack.append((child, iter(values)))
                break
        else:
            stack.pop()
            del prefix[-1:]


def _solutions(system: SolutionSystem, values, order=None):
    """One lazy stream of the solutions of the system with every value in the
    ascending list, in lexicographic order; a nonlinear equation's variables
    are walked in the given order (by default their names' order), and its
    solutions come in that order."""
    k = system.k
    if system.rows is not None:
        constraint = _LinearRows(system.rows, system.constants, values)
    elif system.poly is not None:
        P = system.poly
        constraint = _PolyResidual(P, order or P.variables(), values[0], values[-1])
    else:
        return (tuple(a + t * d for t in range(k)) for a, d in _progressions(values, k))
    return _walk(constraint, k, values, system.injective)


def enumerate_solutions(system: SolutionSystem, n: int):
    """All assignments in [1,n]^vars satisfying the system, sorted
    lexicographically; distinct-valued when the system is injective.  A
    nonlinear equation's variables are walked highest partial degree first,
    and its solutions sorted back into name order."""
    if n < 1:
        raise ValueError("bound must be >= 1")
    P, order = system.poly, None
    if P is not None:
        props = poly_props(P)
        if system.k > MAX_POLY_VARS:
            raise ValueError(f"too many variables (max {MAX_POLY_VARS})")
        if props.max_partial_degree > MAX_POLY_PARTIAL_DEGREE:
            raise ValueError(f"partial degree exceeds enumeration bound {MAX_POLY_PARTIAL_DEGREE}")
        order = sorted(P.variables(), key=lambda v: (-props.partial_degrees[v], v))
    sols = _solutions(system, range(1, n + 1), order)
    if order is not None:
        slots = [order.index(v) for v in P.variables()]
        sols = (tuple(sol[i] for i in slots) for sol in sols)
    sols = list(islice(sols, MAX_SOLUTIONS + 1))
    if len(sols) > MAX_SOLUTIONS:
        raise ValueError(f"solution count exceeds {MAX_SOLUTIONS}")
    return sols if order is None else sorted(sols)


def solutions_by_max(system: SolutionSystem, n: int):
    """Distinct value sets of solutions, indexed by their maximum element.
    The search colors from the per-element bitmasks that _value_sets builds
    from these sets; the maxima serve only forcing_number, which keeps at
    each n of its sweep the sets whose maximum is at most n."""
    index: dict[int, list[tuple[int, ...]]] = {}
    for values in dict.fromkeys(tuple(sorted(set(sol))) for sol in enumerate_solutions(system, n)):
        index.setdefault(values[-1], []).append(values)
    return index


# -- backtracking coloring search -------------------------------------------

class SearchOutcome(NamedTuple):
    forced: bool
    coloring: Coloring | None
    nodes: int


def _check_good_coloring(coloring: Coloring, index) -> None:
    """Raise unless no solution of the by-maximum index is monochromatic."""
    colors = (0,) * coloring.lo + coloring.values()  # colors[u] is u's color
    for by_max in index.values():
        for values in by_max:
            first = colors[values[0]]
            for u in values:
                if colors[u] != first:
                    break
            else:
                raise RuntimeError(f"internal check failed: {values} is monochromatic")


def _value_sets(index, n: int):
    """sets[u]: the bitmasks of the value sets of the by-maximum index that
    contain u, bit 0 marking a set of two.  None when some value set has one
    element, which no coloring avoids."""
    sets: list[list[int]] = [[] for _ in range(n + 1)]
    for by_max in index.values():
        for values in by_max:
            if len(values) == 1:
                return None
            whole = 0 if len(values) > 2 else 1
            for u in values:
                whole |= 1 << u
            for u in values:
                sets[u].append(whole)
    return sets


def _colorings(sets, n: int, r: int, fail_first: bool):
    """Depth-first walk over the r-colorings of [1,n] that leave no value set
    of sets one color; yields once per node and returns the colors of 1..n
    of the first good coloring it reaches, or None when there is none.

    A node is one color tried at a branching element.  Element order
    branches on the least uncolored element and tries colors in increasing
    order, so its answer is the lexicographically least good coloring.
    Fail-first branches on the uncolored element with the fewest colors
    left, ties going to the element in the most value sets.  Either order
    tries the colors already used that remain in the element's domain, then
    the least unused color: unused colors are interchangeable, because
    propagation removes a color only where that color is used, and the
    lex-least good coloring gives each element a used color or the least
    unused one.

    Unit propagation: each element keeps a domain, a bitmask of the colors
    it may still take; an element with one color left is colored, in
    classes[c] with the elements of color c and in the bitmask done.  When
    every element of a value set but one has color c, c leaves the last
    element's domain, wherever it sits in the set; an empty domain or a set
    of one color backs up.  This removes only colors that no good
    completion of the current state can use.  Every domain change goes on
    one trail that backing up over its branching element unwinds."""
    colors_all = (1 << (r + 1)) - 2  # bits 1..r
    domain = [colors_all] * (n + 1)
    # classes[c]: bitmask of the elements with color c, and bit 0, so that no
    # set of two is skipped as having no other element of a color
    classes = [1] * (r + 1)
    done, every = 1, (1 << (n + 1)) - 1  # bit 0 and the colored elements
    trail: list[tuple[int, int]] = []  # (element, its domain before the change)
    stack: list[tuple[int, int, int]] = []  # (element, colors left to try, trail mark)
    order = sorted(range(1, n + 1), key=lambda u: -len(sets[u])) if fail_first else ()
    while True:
        if done == every:
            return tuple(d.bit_length() - 1 for d in domain[1:])
        if fail_first:
            fewest = r + 1
            for u in order:
                if not done >> u & 1:
                    k = domain[u].bit_count()
                    if k < fewest:
                        v, fewest = u, k
                        if k <= 2:  # the fewest an uncolored element has when r > 1
                            break
        else:
            v = (~done & (done + 1)).bit_length() - 1  # the least uncolored element
        used = 0
        for c in range(1, r + 1):
            if classes[c] != 1:
                used |= 1 << c
        fresh = colors_all & ~used
        stack.append((v, domain[v] & (used | fresh & -fresh), len(trail)))
        while True:  # try the next color at the top branching element
            if not stack:
                return None
            v, left, mark = stack[-1]
            for u, old in reversed(trail[mark:]):  # retract the last color tried
                d = domain[u]
                if not d & (d - 1):  # u had one color left
                    classes[d.bit_length() - 1] ^= 1 << u
                    done ^= 1 << u
                domain[u] = old
            del trail[mark:]
            if not left:  # every color at v tried: back up
                stack.pop()
                continue
            color = left & -left
            stack[-1] = (v, left ^ color, mark)
            yield
            trail.append((v, domain[v]))
            domain[v] = color
            classes[color.bit_length() - 1] |= 1 << v
            done |= 1 << v
            queue, ok = [v], True
            while ok and queue:
                w = queue.pop()
                k = domain[w].bit_length() - 1
                bit, free = 1 << k, ~classes[k]
                others = classes[k] ^ 1 << w
                for whole in sets[w]:
                    if not whole & others:  # no other element of the set has color k
                        continue
                    m = whole & free  # the elements of the set without color k
                    if m & (m - 1):
                        continue
                    if not m:  # the set has color k throughout
                        ok = False
                        break
                    u = m.bit_length() - 1
                    d = domain[u]
                    if not d & bit:
                        continue
                    if d == bit:  # u has no color left
                        ok = False
                        break
                    trail.append((u, d))
                    d ^= bit
                    domain[u] = d
                    if not d & (d - 1):
                        classes[d.bit_length() - 1] |= m
                        done |= m
                        queue.append(u)
            if ok:
                break


def _search(index, n: int, r: int, budget: NodeBudget) -> SearchOutcome:
    """Complete search for the lexicographically least good r-coloring of
    [1,n] avoiding every value set of the by-maximum index (all of whose
    maxima are <= n), by a race of two walkers over one set build.

    Element order runs alone for its first n nodes, which a descent that
    never backs up does not exceed.  Then fail-first joins, and the two
    take one node each in turn.  Element order's answer is final.  A
    fail-first None is final as well: no good coloring exists.  A good
    coloring found by fail-first only retires it, since it need not be the
    least.  Every node of either walker is spent from the one budget."""
    sets = _value_sets(index, n)
    if sets is None:
        return SearchOutcome(True, None, 0)
    lex = _colorings(sets, n, r, False)
    race = [lex]
    start = budget.used
    while True:
        for walker in race:
            try:
                next(walker)
            except StopIteration as stop:
                nodes = budget.used - start
                if stop.value is None:
                    return SearchOutcome(True, None, nodes)
                if walker is lex:
                    coloring = Coloring(1, stop.value)
                    _check_good_coloring(coloring, index)
                    return SearchOutcome(False, coloring, nodes)
                race = [lex]  # fail-first found a coloring, maybe not the least
                break
            if budget.spend() - start == n:
                race = [lex, _colorings(sets, n, r, True)]


def good_coloring(
    system: SolutionSystem, n: int, r: int, budget: NodeBudget | None = None
) -> SearchOutcome:
    """Complete search for an r-coloring of [1,n] with no monochromatic
    solution; a returned coloring is the lexicographically least one.  An
    element-order walk, which colors elements and tries colors in increasing
    order, races a fail-first walk after its first n nodes (see _search).
    Colors are interchangeable, so a branching element tries the used colors
    left in its domain and then only the least unused color; the least good
    coloring gives every element such a color."""
    if r < 1:
        raise ValueError("need at least one color")
    if n < 1:
        raise ValueError("bound must be >= 1")
    return _search(solutions_by_max(system, n), n, r, budget or NodeBudget())


def forcing_number(
    system: SolutionSystem, r: int, n_max: int, budget: NodeBudget | None = None
):
    """Least n <= n_max at which every r-coloring of [1,n] contains a
    monochromatic solution, or None if no such n is found.  Each n is one
    race of the element-order and fail-first walks (see _search), so a
    forced n ends as soon as either walk exhausts its tree; both try at a
    branching element the used colors left and the least unused color.  The
    node budget is one total across both walks and every n of the sweep.
    One by-maximum index serves every n up to the bound it was built for;
    past that bound it is rebuilt at twice the current n (capped at n_max),
    never at n_max up front."""
    if r < 1:
        raise ValueError("need at least one color")
    if n_max < 1:
        raise ValueError("bound must be >= 1")
    budget = budget or NodeBudget()
    index, built = {}, 0
    for n in range(1, n_max + 1):
        if n > built:
            built = min(n_max, 2 * n)
            index = solutions_by_max(system, built)
        upto = {m: sets for m, sets in index.items() if m <= n}
        if _search(upto, n, r, budget).forced:
            return n
    return None


# -- monochromatic witnesses ------------------------------------------------

def mono_witness(coloring: Coloring, system: SolutionSystem):
    """Lexicographically least monochromatic solution whose values all lie in
    one color class of the coloring, or None."""
    found = (next(_solutions(system, values), None) for _, values in coloring.classes)
    return min((w for w in found if w is not None), default=None)


# -- the 325 extractor ------------------------------------------------------

def is_mono_3ap(coloring: Coloring, triple) -> bool:
    x, y, z = triple
    if not (y - x == z - y and y - x >= 1):
        return False
    return coloring.color(x) == coloring.color(y) == coloring.color(z)


def vdw325_extract(coloring: Coloring):
    """Pull a monochromatic increasing 3-term progression out of any
    2-coloring of [0, 324] by pure case analysis on length-5 blocks.

    Among the first 33 blocks two share their full color pattern; inside the
    earlier one, two of the first three cells share a color, which yields a
    progression that either closes inside the block, or propagates along the
    repeat at block distance j - i, where the third block index 2j - i still
    fits inside the 65 available blocks.
    """
    if coloring.lo != 0 or coloring.hi != 324:
        raise ValueError("coloring domain must be [0, 324]")
    if any(c not in (1, 2) for c in coloring.values()):
        raise ValueError("coloring must use colors 1 and 2")
    c = coloring.color
    base = [5 * (i - 1) for i in range(66)]  # base[i] for 1-based block i
    patterns = [None] + [
        tuple(c(base[i] + t) for t in range(5)) for i in range(1, 66)
    ]
    pair = next(
        ((i, j) for j in range(2, 34) for i in range(1, j) if patterns[i] == patterns[j]),
        None,
    )
    if pair is None:  # 33 blocks, 32 possible patterns
        raise RuntimeError("internal check failed: no two blocks share a pattern")
    i, j = pair
    for a, b in ((0, 1), (0, 2), (1, 2)):
        if c(base[i] + a) == c(base[i] + b):
            break
    X = c(base[i] + a)
    e = 2 * b - a
    if c(base[i] + e) == X:
        triple = (base[i] + a, base[i] + b, base[i] + e)
    else:
        Y = c(base[i] + e)
        k = 2 * j - i
        if c(base[k] + e) == Y:
            triple = (base[i] + e, base[j] + e, base[k] + e)
        else:
            triple = (base[i] + a, base[j] + b, base[k] + e)
    if not is_mono_3ap(coloring, triple):
        raise RuntimeError(f"internal check failed: {triple} is no monochromatic progression")
    return triple


# -- arithmetic progressions in finite sets ---------------------------------

def _progressions(elems, k: int):
    """Every (a, d) in lexicographic order with a, a+d, ..., a+(k-1)d all in
    the ascending list and d >= 1, for k >= 2."""
    present, last = set(elems), elems[-1]
    for i, a in enumerate(elems):
        for b in elems[i + 1:]:
            d = b - a
            if a + (k - 1) * d > last:
                break
            if all(a + t * d in present for t in range(2, k)):
                yield a, d


def contains_ap(A: FiniteSet, k: int):
    """First (a, d) in lexicographic order with a, a+d, ..., a+(k-1)d all in
    A and d >= 1; a single point counts as a length-1 progression."""
    if k < 1:
        raise ValueError("length must be >= 1")
    if not A:
        return None
    if k == 1:
        return (A.min(), 1)
    return next(_progressions(A.elements, k), None)
