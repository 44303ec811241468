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

def fe_shift(F: FiniteSet, B: FiniteSet):
    """Least n >= 0 with n + F a subset of B, or None.  None is definitive
    because B is finite: any witness must place min(F) on an element of B."""
    if not F:
        raise ValueError("pattern must be nonempty")
    base = F.min()
    for b in B.elements:
        n = b - base
        if n < 0:
            continue
        if all((x + n) in B for x in F.elements):
            return n
    return None


def _expanded_residues(A: PeriodicSet, p: int):
    return {r + k * A.period for r in A.residues for k in range(p // A.period)}


def fe_periodic(A: PeriodicSet, B: PeriodicSet) -> bool:
    """Whether every finite subset of A shifts into B.

    The verdict splits on where the witnessing shifts live.  Arbitrarily
    large shifts work exactly when some residue rotation maps every residue
    A's members occupy (tail residues plus prefix members reduced mod the
    common period) into B's residue set.  Otherwise only a shift n below B's
    threshold can work, and it must pass three checks: A's tail residues
    rotate into B's residues, every prefix member of A lands in B under n,
    and the tail members that land below B's threshold are checked
    explicitly.  Shifts at or above B's threshold are covered by the rotation
    case, so the two cases together are a complete decision.  A finite A has
    no tail residues, so the same two cases decide it: its members fit one
    rotation or one shift below B's threshold.
    """
    p = math.lcm(A.period, B.period)
    ra = _expanded_residues(A, p)
    rb = _expanded_residues(B, p)
    occupied = ra | {q % p for q in A.prefix}

    # a rotation that works sends the least occupied residue onto one of B's
    a0 = min(occupied, default=None)
    if a0 is None or any(all((x + b - a0) % p in rb for x in occupied) for b in rb):
        return True

    for n in range(B.threshold):
        if not all((x + n) % p in rb for x in ra):
            continue
        if not all(B.membership(n + q) for q in A.prefix):
            continue
        boundary = range(A.threshold, max(A.threshold, B.threshold - n))
        if all(
            B.membership(n + x)
            for x in boundary
            if (x % A.period) in A.residues
        ):
            return True
    return False


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
    membership is used.  With a budget, each parameter tuple tried spends
    one node of it."""
    if not F:
        raise ValueError("pattern must be nonempty")
    elems = F.elements
    for params in fam.iter_params():
        if budget is not None:
            budget.spend()
        if all(fam.apply(params, x) in B for x in elems):
            return FmapResult(tuple(params))
    return FmapResult(None)


def a_maximal_probe(A, L: int) -> bool:
    """Whether A contains an increasing arithmetic progression of length L,
    scanning an explicit window.  For a periodic set with any residue at all
    the window provably suffices: the residue class itself is a progression
    with the period as step."""
    if L < 1:
        raise ValueError("progression length must be >= 1")
    if isinstance(A, FiniteSet):
        window = A
    else:
        span = A.threshold + (L + 1) * A.period
        window = FiniteSet(A.elements_upto(span))
    return contains_ap(window, L) is not None


# -- closure probe for generated families ------------------------------------

DEFAULT_PROBE_SAMPLES = (
    FiniteSet((1, 2)),
    FiniteSet((0, 1, 2)),
    FiniteSet((2, 5, 8)),
)
# The default node budget of the probe and of `embed fmap`: about 7 s of the
# probe's scanning on a 2-vCPU host.
DEFAULT_PROBE_BUDGET = 10**7


class FamilyProbeReport(NamedTuple):
    h_bounds: tuple[tuple[int, int], ...]
    transitivity_counterexample: tuple | None  # (f_params, g_params, FiniteSet)
    reflexivity_counterexample: FiniteSet | None
    pairs_checked: int


def wellstructured_probe(fam: FamilySpec, max_nodes: int | None = None) -> FamilyProbeReport:
    """Search for violations of the two closure properties a well-structured
    family needs: for members f, g there should be a member h with h(F)
    inside (g o f)(F), and for every F some member should map F into itself.
    The h-search runs over composition-widened bounds; a clean report only
    means nothing was found within them, never that the family is closed.

    A node is one parameter tuple tried by any of the probe's scans; past
    the node budget (DEFAULT_PROBE_BUDGET when none is given) it raises
    SearchBudgetExceeded."""
    budget = NodeBudget(max_nodes, DEFAULT_PROBE_BUDGET)

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
