"""Finite embeddability between finite and eventually periodic sets of
naturals, structural classification (thick / syndetic / piecewise syndetic),
exact Banach density, and bounded searches over generated function families
(translations, homotheties, powers, exponentials, affinities, polynomials):
witness mapping, progression probes, and a counterexample probe for the
closure properties a well-structured family needs.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import product as cartesian
from operator import index
from typing import Callable, NamedTuple

from .core.poly import read_int
from .core.sets import FiniteSet, PeriodicSet
from .search import NodeBudget, contains_ap


# -- finite embeddability ---------------------------------------------------

# One periodic set may expand to at most this many residues mod the common
# period; coprime periods near 10^9 would build sets of about 10^9.
MAX_EXPANDED_RESIDUES = 10**6


def _expanded_residues(A: PeriodicSet, p: int):
    if len(A.residues) * (p // A.period) > MAX_EXPANDED_RESIDUES:
        raise ValueError("a periodic set expands to more than 10^6 residues mod the lcm of the periods")
    return {r + k * A.period for r in A.residues for k in range(p // A.period)}


def fe_shift(A, B):
    """Least n >= 0 with n + A a subset of B, or None; A and B are finite or
    eventually periodic.  Every finite subset of A shifts into B exactly
    when such an n exists, and an empty A shifts by 0.

    A shift n must send A's least element a into B: either n + a is a
    prefix member of B, or n >= max(0, t_B - a).  In the second case all of
    A lands at or above B's threshold, where only n mod p (the lcm of the
    periods) matters, so the least such n in each class that sends a onto
    one of B's residues stands for its class.  These at most |B.prefix| +
    |residues of B mod p| shifts are tried in ascending order, each checked
    whole: A's tail residues rotate into B's, every prefix member of A lands
    in B, and so does every tail member of A that lands below B's threshold.
    """
    # a finite set is a periodic set with no residues past its maximum
    A, B = (X if isinstance(X, PeriodicSet)
            else PeriodicSet(1, (), X.max() + 1 if X else 0, X.elements) for X in (A, B))
    p = math.lcm(A.period, B.period)
    ra = _expanded_residues(A, p)
    rb = _expanded_residues(B, p)
    starts = [A.threshold + (r - A.threshold) % A.period for r in A.residues]
    a = min(A.prefix.union(starts), default=None)
    if a is None:
        return 0
    low = max(0, B.threshold - a)
    shifts = {q - a for q in B.prefix if q >= a} | {low + (b - a - low) % p for b in rb}

    def sends(n: int) -> bool:
        return (all((x + n) % p in rb for x in ra)
                and all(n + q in B for q in A.prefix)
                and all(n + x in B for x0 in starts for x in range(x0, B.threshold - n, A.period)))

    return next((n for n in sorted(shifts) if sends(n)), None)


def fe_periodic(A, B) -> bool:
    """Whether every finite subset of A shifts into B."""
    return fe_shift(A, B) is not None


# -- classification and density ---------------------------------------------

class SetFlags(NamedTuple):
    thick: bool
    syndetic: bool
    piecewise_syndetic: bool
    finite: bool


def classify(A: PeriodicSet) -> SetFlags:
    """Structural flags readable straight off the residue set: a periodic
    tail has unbounded runs only when every residue is present, and has
    bounded gaps exactly when some residue is present."""
    infinite = bool(A.residues)
    return SetFlags(
        thick=len(A.residues) == A.period,
        syndetic=infinite,
        piecewise_syndetic=infinite,
        finite=not infinite,
    )


def bd(A: PeriodicSet) -> Fraction:
    """Banach density: the best windows of length k*period eventually contain
    exactly k elements per residue, so the density is exact."""
    return Fraction(len(A.residues), A.period)


# -- generated function families --------------------------------------------

class _Rule(NamedTuple):
    """One family kind.  params maps the number of bound pairs to each
    parameter's name and least valid value, or to None when the kind takes
    another number; every validity rule is such a lower bound."""

    params: Callable[[int], tuple[tuple[str, int], ...] | None]
    arity_error: str
    defaults: tuple[tuple[int, int], ...]
    map: Callable[[tuple, int], int]
    widen: Callable[[tuple], tuple]  # bounds wide enough for a composite


# Composition widening: a family closed under composition has the exact
# composite of two in-bounds members inside the widened bounds.  Shifts add,
# scale-like parameters multiply, and an affinity composite has slope a2*a1
# and offset a2*b1 + b2.  Polynomial composition raises the degree, so no
# widening inside the family is possible there.

def _one(least: int, default: tuple[int, int], fn, grow) -> _Rule:
    return _Rule(lambda k: (("m", least),) if k == 1 else None, "{kind} takes one parameter",
                 (default,), fn, lambda b: ((b[0][0], grow(b[0][1])),))


def _affine_composite(b):
    (alo, ahi), (blo, bhi) = b
    return ((alo, ahi * ahi), (blo, ahi * bhi + bhi))


_FAMILIES = {
    "translation": _one(0, (0, 12), lambda p, n: n + p[0], lambda hi: 2 * hi),
    "proper_translation": _one(1, (1, 8), lambda p, n: n + p[0], lambda hi: 2 * hi),
    "homothety": _one(1, (1, 8), lambda p, n: n * p[0], lambda hi: hi * hi),
    "power": _one(1, (1, 4), lambda p, n: n ** p[0], lambda hi: hi * hi),
    "exponential": _one(2, (2, 4), lambda p, n: p[0] ** n, lambda hi: hi * hi),
    "affinity": _Rule(lambda k: (("a", 1), ("b", 0)) if k == 2 else None,
                      "affinity takes parameters a, b", ((1, 4), (0, 4)),
                      lambda p, n: p[0] * n + p[1], _affine_composite),
    "polynomial": _Rule(
        lambda k: tuple((f"a{i}", 1 if i == k - 1 else 0) for i in range(k)) if k >= 2 else None,
        "polynomial needs degree >= 1 (at least two coefficients)", ((0, 2), (0, 2), (1, 2)),
        lambda p, n: sum(a * n**i for i, a in enumerate(p)), lambda b: b),
}
FAMILY_KINDS = tuple(_FAMILIES)
MAX_POLY_DEGREE = 64


class FamilySpec:
    """A family of total maps on the naturals given by one generating rule
    and inclusive integer bounds, one (lo, hi) pair per parameter.  For
    polynomials the parameters are the coefficients a0..ad and the degree is
    implied by the number of bound pairs."""

    __slots__ = ("kind", "bounds")

    def __init__(self, kind: str, bounds):
        rule = _FAMILIES.get(kind)
        if rule is None:
            raise ValueError(f"unknown family kind {kind!r}")
        self.kind = kind
        self.bounds = tuple((index(lo), index(hi)) for lo, hi in bounds)
        if rule.params(len(self.bounds)) is None:
            raise ValueError(rule.arity_error.format(kind=kind))
        if any(lo > hi for lo, hi in self.bounds):
            raise ValueError("empty parameter range")

    def __eq__(self, other):
        if not isinstance(other, FamilySpec):
            return NotImplemented
        return (self.kind, self.bounds) == (other.kind, other.bounds)

    def __hash__(self):
        return hash((self.kind, self.bounds))

    def __repr__(self):
        return f"FamilySpec({self.kind!r}, {self.bounds})"

    def _params(self) -> tuple[tuple[str, int], ...]:
        return _FAMILIES[self.kind].params(len(self.bounds))

    def param_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self._params())

    def iter_params(self):
        """All valid parameter tuples inside the bounds, lexicographically:
        each range starts at its parameter's least valid value."""
        return cartesian(*(
            range(max(lo, least), hi + 1)
            for (lo, hi), (_, least) in zip(self.bounds, self._params())
        ))

    def apply(self, params, n: int) -> int:
        return _FAMILIES[self.kind].map(params, n)

    def describe(self, params) -> str:
        return ", ".join(f"{k}={v}" for k, v in zip(self.param_names(), params))


def family(kind: str, bounds=None) -> FamilySpec:
    """The family of the given kind.  bounds is one (lo, hi) pair per
    parameter, or a mapping from parameter names to pairs over the defaults.
    Named polynomial bounds a0..ad set the degree d (at most
    MAX_POLY_DEGREE) by the largest index, and every coefficient left unnamed
    is fixed at (0, 0)."""
    rule = _FAMILIES.get(kind)
    if rule is None:
        raise ValueError(f"unknown family {kind!r}; known kinds: {', '.join(FAMILY_KINDS)}")
    if bounds is not None and not isinstance(bounds, dict):
        return FamilySpec(kind, tuple(bounds))
    bounds = bounds or {}
    if kind == "polynomial" and bounds:
        bad = next((name for name in bounds if not re.fullmatch(r"a(0|[1-9][0-9]*)", name)), None)
        if bad is not None:
            raise ValueError(f"polynomial bounds use a0..ad, got {bad!r}")
        degree = max(read_int(name[1:], 1, "a bound name") for name in bounds)
        if degree < 1:
            raise ValueError("polynomial bounds must reach at least a1")
        if degree > MAX_POLY_DEGREE:
            raise ValueError(f"polynomial bounds reach at most a{MAX_POLY_DEGREE}")
        return FamilySpec(kind, tuple(bounds.get(f"a{i}", (0, 0)) for i in range(degree + 1)))
    names = [name for name, _ in rule.params(len(rule.defaults))]
    for name in bounds:
        if name not in names:
            raise ValueError(f"unknown parameter {name!r} for family {kind}")
    return FamilySpec(kind, tuple(bounds.get(nm, b) for nm, b in zip(names, rule.defaults)))


class FmapResult(NamedTuple):
    """Outcome of a bounded family-map search.  A missing witness is only
    "none within the declared bounds", never a definitive negative."""

    params: tuple | None

    def found(self) -> bool:
        return self.params is not None


def fmap_witness(F: FiniteSet, B, fam: FamilySpec, budget: NodeBudget | None = None) -> FmapResult:
    """First parameter tuple (lexicographically) whose map sends every
    element of F into B.  B may be a finite set or a periodic set; only
    membership is used.  Each parameter tuple tried spends one node of the
    budget (DEFAULT_PROBE_BUDGET nodes when none is given)."""
    if not F:
        raise ValueError("pattern must be nonempty")
    budget = budget or NodeBudget(DEFAULT_PROBE_BUDGET)
    elems = F.elements
    for params in fam.iter_params():
        budget.spend()
        if all(fam.apply(params, x) in B for x in elems):
            return FmapResult(tuple(params))
    return FmapResult(None)


def a_maximal_probe(A, L: int) -> bool:
    """Whether A contains an increasing arithmetic progression of length L.
    A periodic set with a residue has one of every length, its residue class
    past the threshold; one without is its finite prefix."""
    if L < 1:
        raise ValueError("progression length must be >= 1")
    if isinstance(A, PeriodicSet):
        if A.residues:
            return True
        A = FiniteSet(A.prefix)
    return contains_ap(A, L) is not None


# -- closure probe for generated families ------------------------------------

DEFAULT_PROBE_SAMPLES = (
    FiniteSet((1, 2)),
    FiniteSet((0, 1, 2)),
    FiniteSet((2, 5, 8)),
)
# The default node budget of `fmap_witness`, the probe and `embed fmap`:
# about 7 s of the probe's scanning on a 2-vCPU host.
DEFAULT_PROBE_BUDGET = 10**7


class FamilyProbeReport(NamedTuple):
    h_bounds: tuple[tuple[int, int], ...]
    transitivity_counterexample: tuple | None  # (f_params, g_params, FiniteSet)
    reflexivity_counterexample: FiniteSet | None
    pairs_checked: int


def wellstructured_probe(fam: FamilySpec, budget: NodeBudget | None = None) -> FamilyProbeReport:
    """Search for violations of the two closure properties a well-structured
    family needs: for members f, g there should be a member h with h(F)
    inside (g o f)(F), and for every F some member should map F into itself.
    The h-search runs over composition-widened bounds; a clean report only
    means nothing was found within them, never that the family is closed.

    A node is one parameter tuple tried by any of the probe's scans; past
    the node budget (DEFAULT_PROBE_BUDGET when none is given) it raises
    SearchBudgetExceeded."""
    budget = budget or NodeBudget(DEFAULT_PROBE_BUDGET)

    def maps_into(F, B, spec):
        return fmap_witness(F, B, spec, budget).found()

    h_fam = fam  # widening reverses a range only when the family has no member
    if next(fam.iter_params(), None) is not None:
        h_fam = FamilySpec(fam.kind, _FAMILIES[fam.kind].widen(fam.bounds))
    transitivity, pairs = None, 0
    for pairs, (f, g) in enumerate(cartesian(fam.iter_params(), repeat=2), start=1):
        images = ((F, FiniteSet(fam.apply(g, fam.apply(f, x)) for x in F.elements))
                  for F in DEFAULT_PROBE_SAMPLES)
        F = next((F for F, image in images if not maps_into(F, image, h_fam)), None)
        if F is not None:
            transitivity = (f, g, F)
            break
    reflexivity = next((F for F in DEFAULT_PROBE_SAMPLES if not maps_into(F, F, fam)), None)
    return FamilyProbeReport(
        h_bounds=h_fam.bounds,
        transitivity_counterexample=transitivity,
        reflexivity_counterexample=reflexivity,
        pairs_checked=pairs,
    )
