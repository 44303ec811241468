"""Finite embeddability between finite and eventually periodic sets of
naturals, structural classification (thick / syndetic / piecewise syndetic),
exact Banach density, and bounded searches over generated function families
(translations, homotheties, powers, exponentials, affinities, polynomials):
witness mapping, progression probes, and a counterexample probe for the
closure properties a well-structured family needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product as cartesian

from .core.sets import FiniteSet, PeriodicSet
from .search import contains_ap

__all__ = [
    "fe_shift",
    "fe_periodic",
    "SetFlags",
    "classify",
    "bd",
    "FamilySpec",
    "family",
    "DEFAULT_FAMILY_BOUNDS",
    "FmapResult",
    "fmap_witness",
    "a_maximal_probe",
    "FamilyProbeReport",
    "wellstructured_probe",
    "DEFAULT_PROBE_SAMPLES",
]


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

    For infinite A the verdict splits on where the witnessing shifts live.
    Arbitrarily large shifts work exactly when some residue rotation maps
    every residue A's members occupy (tail residues plus prefix members
    reduced mod the common period) into B's residue set.  Otherwise only a
    shift n below B's threshold can work, and it must pass three checks: A's
    tail residues rotate into B's residues, every prefix member of A lands in
    B under n, and the tail members that land below B's threshold are checked
    explicitly.  Shifts at or above B's threshold are covered by the rotation
    case, so the two cases together are a complete decision.

    Finite A reduces to shifting the element set; shifts at or beyond B's
    threshold act periodically, so scanning n < threshold + period decides
    exactly.
    """
    if A.is_finite():
        members = sorted(A.prefix)
        if not members:
            return True
        return any(
            all(B.membership(n + x) for x in members)
            for n in range(B.threshold + B.period)
        )

    p = math.lcm(A.period, B.period)
    ra = _expanded_residues(A, p)
    rb = _expanded_residues(B, p)
    occupied = ra | {q % p for q in A.prefix}

    for r in range(p):
        if all((x + r) % p in rb for x in occupied):
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

@dataclass(frozen=True)
class SetFlags:
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

_SINGLE_PARAM_KINDS = (
    "translation",
    "proper_translation",
    "homothety",
    "power",
    "exponential",
)
FAMILY_KINDS = _SINGLE_PARAM_KINDS + ("affinity", "polynomial")

DEFAULT_FAMILY_BOUNDS = {
    "translation": ((0, 12),),
    "proper_translation": ((1, 8),),
    "homothety": ((1, 8),),
    "power": ((1, 4),),
    "exponential": ((2, 4),),
    "affinity": ((1, 4), (0, 4)),
    "polynomial": ((0, 2), (0, 2), (1, 2)),
}


@dataclass(frozen=True)
class FamilySpec:
    """A family of total maps on the naturals given by one generating rule
    and inclusive integer bounds, one (lo, hi) pair per parameter.  For
    polynomials the parameters are the coefficients a0..ad and the degree is
    implied by the number of bound pairs."""

    kind: str
    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.kind not in FAMILY_KINDS:
            raise ValueError(f"unknown family kind {self.kind!r}")
        object.__setattr__(
            self, "bounds", tuple((int(lo), int(hi)) for lo, hi in self.bounds)
        )
        arity = len(self.bounds)
        if self.kind in _SINGLE_PARAM_KINDS and arity != 1:
            raise ValueError(f"{self.kind} takes one parameter")
        if self.kind == "affinity" and arity != 2:
            raise ValueError("affinity takes parameters a, b")
        if self.kind == "polynomial" and arity < 2:
            raise ValueError("polynomial needs degree >= 1 (at least two coefficients)")
        if any(lo > hi for lo, hi in self.bounds):
            raise ValueError("empty parameter range")

    def param_names(self) -> tuple[str, ...]:
        if self.kind == "affinity":
            return ("a", "b")
        if self.kind == "polynomial":
            return tuple(f"a{i}" for i in range(len(self.bounds)))
        return ("m",)

    def _valid(self, params) -> bool:
        if self.kind == "translation":
            return params[0] >= 0
        if self.kind in ("proper_translation", "homothety", "power"):
            return params[0] >= 1
        if self.kind == "exponential":
            return params[0] >= 2
        if self.kind == "affinity":
            return params[0] >= 1 and params[1] >= 0
        return all(a >= 0 for a in params) and params[-1] >= 1

    def iter_params(self):
        """All valid parameter tuples inside the bounds, lexicographically."""
        ranges = [range(lo, hi + 1) for lo, hi in self.bounds]
        for params in cartesian(*ranges):
            if self._valid(params):
                yield params

    def apply(self, params, n: int) -> int:
        if self.kind in ("translation", "proper_translation"):
            return n + params[0]
        if self.kind == "homothety":
            return n * params[0]
        if self.kind == "power":
            return n ** params[0]
        if self.kind == "exponential":
            return params[0] ** n
        if self.kind == "affinity":
            return params[0] * n + params[1]
        return sum(a * n**i for i, a in enumerate(params))

    def describe(self, params) -> str:
        return ", ".join(f"{k}={v}" for k, v in zip(self.param_names(), params))


def family(kind: str, bounds=None) -> FamilySpec:
    return FamilySpec(kind, tuple(bounds) if bounds is not None else DEFAULT_FAMILY_BOUNDS[kind])


@dataclass(frozen=True)
class FmapResult:
    """Outcome of a bounded family-map search.  A missing witness is only
    "none within the declared bounds", never a definitive negative."""

    params: tuple | None
    status: str  # "witness" | "none-within-bounds"

    def found(self) -> bool:
        return self.params is not None


def fmap_witness(F: FiniteSet, B, fam: FamilySpec) -> FmapResult:
    """First parameter tuple (lexicographically) whose map sends every
    element of F into B.  B may be a finite set or a periodic set; only
    membership is used."""
    if not F:
        raise ValueError("pattern must be nonempty")
    elems = F.elements
    for params in fam.iter_params():
        if all(fam.apply(params, x) in B for x in elems):
            return FmapResult(tuple(params), "witness")
    return FmapResult(None, "none-within-bounds")


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


@dataclass
class FamilyProbeReport:
    family: FamilySpec
    h_bounds: tuple[tuple[int, int], ...]
    transitivity_counterexample: tuple | None  # (f_params, g_params, FiniteSet)
    reflexivity_counterexample: FiniteSet | None
    pairs_checked: int

    def clean(self) -> bool:
        return (
            self.transitivity_counterexample is None
            and self.reflexivity_counterexample is None
        )


def _composition_bounds(fam: FamilySpec) -> tuple[tuple[int, int], ...]:
    """Bounds wide enough to contain the exact composition of two in-bounds
    members whenever the family is closed under composition: shifts add,
    scale-like parameters multiply, and an affinity composite has slope a2*a1
    and offset a2*b1 + b2.  Polynomial composition raises the degree, so no
    widening inside the family is possible there."""
    b = fam.bounds
    if fam.kind in ("translation", "proper_translation"):
        lo, hi = b[0]
        return ((lo, 2 * hi),)
    if fam.kind in ("homothety", "power", "exponential"):
        lo, hi = b[0]
        return ((lo, hi * hi),)
    if fam.kind == "affinity":
        (alo, ahi), (blo, bhi) = b
        return ((alo, ahi * ahi), (blo, ahi * bhi + bhi))
    return b


def wellstructured_probe(fam: FamilySpec, samples=DEFAULT_PROBE_SAMPLES) -> FamilyProbeReport:
    """Search for violations of the two closure properties a well-structured
    family needs: for members f, g there should be a member h with h(F)
    inside (g o f)(F), and for every F some member should map F into itself.
    The h-search runs over composition-widened bounds; a clean report only
    means nothing was found within them, never that the family is closed."""
    samples = tuple(samples)
    h_fam = FamilySpec(fam.kind, _composition_bounds(fam))
    params_list = list(fam.iter_params())

    transitivity = None
    pairs = 0
    for f in params_list:
        for g in params_list:
            pairs += 1
            for F in samples:
                image = FiniteSet(
                    fam.apply(g, fam.apply(f, x)) for x in F.elements
                )
                if not fmap_witness(F, image, h_fam).found():
                    transitivity = (f, g, F)
                    break
            if transitivity:
                break
        if transitivity:
            break

    reflexivity = None
    for F in samples:
        if not fmap_witness(F, F, fam).found():
            reflexivity = F
            break

    return FamilyProbeReport(
        family=fam,
        h_bounds=h_fam.bounds,
        transitivity_counterexample=transitivity,
        reflexivity_counterexample=reflexivity,
        pairs_checked=pairs,
    )
