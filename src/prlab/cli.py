"""Single command-line entry point for every operation in the package.

Exit status contract: 0 for a definite positive verdict, 1 for a definite
negative, 2 for an unknown or bounds-limited verdict, 3 for usage or input
errors.  With --json, exactly one envelope object is printed on standard
output with the fixed keys verdict / certificate / provenance / timing_ms /
bounds.

The verb table VERBS is the single list of verbs.  Each row gives the verb
path, help text, provenance, argument specs and handler; a handler returns
(exit code, text lines, verdict[, certificate[, bounds]]).  build_parser
and main are loops over the table, and main alone adds the provenance and
builds the envelope.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from . import embed as embed_mod
from . import folkman as folkman_mod
from . import omega as omega_mod
from . import polyreg
from . import rado
from . import search as search_mod
from .core.coloring import Coloring
from .core.matrix import parse_matrix
from .core.poly import parse_poly
from .core.sets import parse_finite, parse_periodic


class CliUsageError(ValueError):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


# -- small helpers -----------------------------------------------------------

def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _int_list(text: str) -> list[int]:
    toks = [t for t in text.replace(",", " ").split() if t]
    if not toks:
        raise CliUsageError("expected a comma-separated list of integers")
    try:
        return [int(t) for t in toks]
    except ValueError:
        raise CliUsageError(f"bad integer list {text!r}") from None


def _jsonable(x):
    if x is None or isinstance(x, (bool, int, float, str)):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (set, frozenset)):
        return [_jsonable(v) for v in sorted(x)]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return str(x)


def _parse_set_or_periodic(text: str):
    if "p=" in text or "residues" in text:
        return parse_periodic(text)
    return parse_finite(text)


_BOUND_RE = re.compile(r"([A-Za-z][A-Za-z0-9]*)=(-?\d+)\.\.(-?\d+)")


def _parse_bounds(text: str) -> dict[str, tuple[int, int]]:
    out = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        m = _BOUND_RE.fullmatch(part)
        if m is None:
            raise CliUsageError(f"bad bounds fragment {part!r}; expected name=lo..hi")
        out[m.group(1)] = (int(m.group(2)), int(m.group(3)))
    return out


def _family_spec(kind: str, bounds_text: str | None) -> embed_mod.FamilySpec:
    if kind not in embed_mod.FAMILY_KINDS:
        known = ", ".join(embed_mod.FAMILY_KINDS)
        raise CliUsageError(f"unknown family {kind!r}; known kinds: {known}")
    overrides = _parse_bounds(bounds_text) if bounds_text else {}
    if kind == "polynomial" and overrides:
        degree = -1
        for name in overrides:
            m = re.fullmatch(r"a(\d+)", name)
            if m is None:
                raise CliUsageError(f"polynomial bounds use a0..ad, got {name!r}")
            degree = max(degree, int(m.group(1)))
        if degree < 1:
            raise CliUsageError("polynomial bounds must reach at least a1")
        bounds = tuple(overrides.get(f"a{i}", (0, 0)) for i in range(degree + 1))
        return embed_mod.FamilySpec(kind, bounds)
    spec = embed_mod.family(kind)
    if not overrides:
        return spec
    names = spec.param_names()
    for name in overrides:
        if name not in names:
            raise CliUsageError(f"unknown parameter {name!r} for family {kind}")
    bounds = tuple(overrides.get(nm, b) for nm, b in zip(names, spec.bounds))
    return embed_mod.FamilySpec(kind, bounds)


def _bounds_payload(fam: embed_mod.FamilySpec) -> dict:
    return {
        "family": fam.kind,
        **{nm: list(b) for nm, b in zip(fam.param_names(), fam.bounds)},
    }


# -- shared renderers --------------------------------------------------------

def _yes_no(ok, yes: str, no: str):
    return (0 if ok else 1), [yes if ok else no], bool(ok)


def _flag_list(flags, labels):
    """One `label: yes|no` line per flag; the JSON keys are the labels with
    spaces replaced by underscores, which are also the attribute names."""
    keys = [label.replace(" ", "_") for label in labels]
    values = [getattr(flags, key) for key in keys]
    lines = [f"{label}: {'yes' if val else 'no'}" for label, val in zip(labels, values)]
    return 0, lines, dict(zip(keys, values))


def _budget_exceeded(exc: search_mod.SearchBudgetExceeded, bounds: dict):
    lines = [f"search exhausted the node budget after {exc.nodes} nodes"]
    return 2, lines, "budget-exceeded", None, bounds


def _as_text(value):
    return 0, [str(value)], str(value)


def _status_json(code: int, v: polyreg.PrVerdict):
    payload = _verdict_payload(v)
    return code, [json.dumps(payload)], v.status, payload


def _verdict_payload(v: polyreg.PrVerdict) -> dict:
    return {
        "status": v.status,
        "method": v.method,
        "certificate": _jsonable(v.certificate),
        "notes": list(v.notes),
    }


# -- matrix / linear / affine verbs ------------------------------------------

def _check_matrix(args):
    verdict = rado.columns_condition(parse_matrix(_read_text(args.file)))
    if not verdict.satisfied:
        return 1, ["columns condition: not satisfied"], "columns-condition-failed"
    cert = verdict.certificate
    lines = ["columns condition: satisfied"]
    for i, (block, combo) in enumerate(
        zip(cert.blocks, (None,) + cert.combinations), start=1
    ):
        extra = "" if combo is None else f"  via {tuple(str(c) for c in combo)}"
        lines.append(f"block {i}: columns {list(block)}{extra}")
    combinations = [[str(c) for c in combo] for combo in cert.combinations]
    return 0, lines, "columns-condition-satisfied", {
        "blocks": cert.blocks, "combinations": combinations,
    }


def _check_linear(args):
    verdict = rado.linear_pr(parse_poly(args.expr))
    if verdict.pr:
        lines = ["partition regular: yes", f"zero-sum subset: {list(verdict.subset)}"]
        return 0, lines, "partition-regular", {"zero_sum_subset": verdict.subset}
    lines = ["partition regular: no", f"blocking prime: {verdict.blocking_prime}"]
    return 1, lines, "not-partition-regular", {"blocking_prime": verdict.blocking_prime}


def _check_affine(args):
    verdict = rado.affine_pr(parse_poly(args.expr))
    if not verdict.pr:
        return 1, ["partition regular: no"], "not-partition-regular"
    lines = ["partition regular: yes", f"route: {verdict.route}"]
    cert = {"route": verdict.route}
    if verdict.k is not None:
        lines.append(f"constant solution: every variable = {verdict.k}")
        cert["k"] = verdict.k
    if verdict.subset is not None:
        lines.append(f"shift z = {verdict.z}, zero-sum subset {list(verdict.subset)}")
        cert["z"] = verdict.z
        cert["zero_sum_subset"] = verdict.subset
    return 0, lines, "partition-regular", cert


def _smod(args):
    color = rado.smod(args.p, args.n)
    return 0, [f"smod({args.p}) color of {args.n}: {color}"], color


def _blocking_prime(args):
    p = rado.blocking_prime(_int_list(args.coeffs))
    if p is None:
        lines = ["no blocking prime: some subset of the coefficients sums to zero"]
        return 1, lines, "no-blocking-prime"
    return 0, [f"blocking prime: {p}"], p


def _parametric(args):
    P = parse_poly(args.expr)
    tokens = [t.strip() for t in args.subset.split(",") if t.strip()]
    names = P.variables()
    if tokens and all(re.fullmatch(r"\d+", t) for t in tokens):
        idx = [int(t) for t in tokens]
        if any(not 1 <= i <= len(names) for i in idx):
            raise CliUsageError(f"subset indices must lie in 1..{len(names)}")
        subset = [names[i - 1] for i in idx]
    else:
        subset = tokens
    ps = rado.parametric_solution(P, subset)
    lines = [f"family over parameters (a, b), c = {ps.c}, m = {ps.m}, z = {ps.z}:"]
    for v, zv in zip(ps.j_vars, ps.zs):
        lines.append(f"  {v} = a + {zv}*b" if zv else f"  {v} = a")
    for v in ps.other_vars:
        lines.append(f"  {v} = {ps.m}*b")
    cert = {key: getattr(ps, key) for key in ("j_vars", "zs", "m", "c", "d", "z")}
    return 0, lines, "parametric-family", cert


# -- search verbs ------------------------------------------------------------

def _system_from_args(args, injective: bool = False):
    given = [x for x in (args.poly, args.matrix, args.ap) if x is not None]
    if len(given) != 1:
        raise CliUsageError("give exactly one of --poly, --matrix, --ap")
    if args.poly is not None:
        return search_mod.poly_system(parse_poly(args.poly), injective=injective)
    if args.matrix is not None:
        M = parse_matrix(_read_text(args.matrix))
        return search_mod.matrix_system(M, injective=injective)
    return search_mod.ap_system(args.ap)


def _system_bounds(args, **extra):
    out = {"max_nodes": search_mod.node_budget(args.max_nodes)}
    out.update(extra)
    return out


def _good_coloring(args):
    system = _system_from_args(args, injective=args.injective)
    bounds = _system_bounds(args, n=args.n, r=args.r)
    try:
        outcome = search_mod.good_coloring(
            system, args.n, args.r, max_nodes=args.max_nodes
        )
    except search_mod.SearchBudgetExceeded as exc:
        return _budget_exceeded(exc, bounds)
    if outcome.forced:
        lines = [f"forced: every {args.r}-coloring of [1,{args.n}] has a monochromatic solution"]
        return 1, lines, "forced", None, bounds
    values = outcome.coloring.values()
    lines = [f"good coloring found: {' '.join(str(v) for v in values)}"]
    for color, members in sorted(outcome.coloring.color_classes().items()):
        lines.append(f"  color {color}: {members}")
    return 0, lines, "good-coloring", {"colors": values}, bounds


def _forcing_number(args):
    system = _system_from_args(args)
    bounds = _system_bounds(args, r=args.r, max=args.max)
    try:
        n = search_mod.forcing_number(system, args.r, args.max, max_nodes=args.max_nodes)
    except search_mod.SearchBudgetExceeded as exc:
        return _budget_exceeded(exc, bounds)
    if n is None:
        return 2, [f"no forcing number up to {args.max}"], "not-forced-within-bound", None, bounds
    return 0, [f"forcing number: {n}"], n, None, bounds


def _witness(args):
    system = _system_from_args(args, injective=args.injective)
    coloring = Coloring.from_text(_read_text(args.coloring))
    w = search_mod.mono_witness(coloring, system)
    if w is None:
        return 1, ["no monochromatic solution: the coloring is good"], "no-witness"
    return 0, [f"monochromatic solution: {list(w)}"], "witness", {"values": w}


def _vdw_extract(args):
    coloring = Coloring.from_text(_read_text(args.coloring), lo=0)
    triple = search_mod.vdw325_extract(coloring)
    x, y, z = triple
    color = coloring.color(x)
    lines = [f"monochromatic progression: {x}, {y}, {z} (color {color})"]
    return 0, lines, "progression", {"triple": triple, "color": color}


# -- folkman verbs -----------------------------------------------------------

def _folkman_fs(args):
    S = parse_finite(args.set)
    sums = folkman_mod.fs(S)
    return 0, [f"FS({S}) = {sums}"], sums.elements


def _folkman_matrix(args):
    M = folkman_mod.folkman_matrix(args.n)
    lines, cert, code = str(M).splitlines(), {"entries": M.entries}, 0
    if args.check:
        satisfied = rado.columns_condition(M).satisfied
        lines.append(f"columns condition: {'satisfied' if satisfied else 'failed'}")
        cert["columns_condition"] = satisfied
        code = 0 if satisfied else 1
    return code, lines, "matrix", cert


def _folkman_weak_mono(args):
    coloring = Coloring.from_text(_read_text(args.coloring))
    ok = folkman_mod.weakly_monochromatic(coloring, parse_finite(args.set))
    return _yes_no(ok, "weakly monochromatic: yes", "weakly monochromatic: no")


# -- poly verbs --------------------------------------------------------------

def _poly_exclusive(args):
    sets = polyreg.exclusive_sets(parse_poly(args.expr))
    payload = sorted(sorted(s) for s in sets)
    if not payload:
        return 0, ["no exclusive variable sets"], payload
    lines = ["exclusive variable sets:"] + ["  {" + ", ".join(s) + "}" for s in payload]
    return 0, lines, payload


def _poly_check(args):
    P = parse_poly(args.expr)
    suff = polyreg.sufficient_ipr(P)
    if suff.status == "IPR_certified":
        return _status_json(0, suff)
    nec = polyreg.necessary_check(P)
    if nec.status == "not_PR_certified":
        return _status_json(1, nec)
    notes = tuple(dict.fromkeys(suff.notes + nec.notes))
    return _status_json(2, polyreg.PrVerdict("unknown", notes=notes))


def _poly_construct(args):
    L = parse_poly(args.linear)
    subsets = [tuple(_int_list(chunk)) for chunk in args.subsets.split("|")]
    result = polyreg.attach_products(L, subsets, args.n)
    lines = [str(result.poly), f"status: {result.verdict.status}"]
    return 0, lines, str(result.poly), _verdict_payload(result.verdict)


def _poly_transform(args):
    if args.negate == (args.power is not None):
        raise CliUsageError("give exactly one of --negate, --power")
    P = parse_poly(args.expr)
    if args.negate:
        result = polyreg.transform(P, "negate_vars")
    else:
        result = polyreg.transform(P, "power", z=args.power)
    lines = [str(result.poly), f"regularity transfers over: {result.pr_transfer_domain}"]
    return 0, lines, str(result.poly), {"pr_transfer_domain": result.pr_transfer_domain}


def _poly_expsum(args):
    verdict = polyreg.exp_sum_ipr(_int_list(args.left), _int_list(args.right))
    return _status_json(0 if verdict.status == "IPR_certified" else 2, verdict)


# -- omega verbs -------------------------------------------------------------

def _omega_eval(args):
    form = omega_mod.canonical(omega_mod.parse_term(args.term))
    h = omega_mod.height(form)
    text = omega_mod.form_text(form)
    return 0, [f"canonical: {text}", f"height: {h}"], {"canonical": text, "height": h}


def _omega_pair(args):
    return omega_mod.parse_term(args.left), omega_mod.parse_term(args.right)


def _omega_tensorized(args):
    terms = [omega_mod.parse_term(chunk) for chunk in args.terms.split(";")]
    out = [str(t) for t in omega_mod.tensorized(terms)]
    return 0, out, out


def _omega_verify354(args):
    result = omega_mod.verify_table_construction(_int_list(args.c), _int_list(args.d))
    ok = result.zero_check and result.distinct_check
    ledger = [line.text() for line in result.ledger]
    lines = [f"xi_{i}  = {list(v)}" for i, v in enumerate(result.xi, start=1)]
    lines += [f"eta_{j} = {list(v)}" for j, v in enumerate(result.eta, start=1)]
    if args.ledger:
        lines.extend(ledger)
    lines.append(f"zero check: {'pass' if result.zero_check else 'fail'}")
    lines.append(f"distinct check: {'pass' if result.distinct_check else 'fail'}")
    cert = {
        "xi": result.xi,
        "eta": result.eta,
        "ledger": ledger,
        "zero_check": result.zero_check,
        "distinct_check": result.distinct_check,
    }
    return (0 if ok else 1), lines, "balanced" if ok else "unbalanced", cert


# -- embed verbs -------------------------------------------------------------

def _embed_fe(args):
    finite_pair = args.finite is not None or args.target is not None
    periodic_pair = args.periodic is not None or args.target_periodic is not None
    if finite_pair == periodic_pair:
        raise CliUsageError(
            "give either --finite with --in, or --periodic with --in-periodic"
        )
    if finite_pair:
        if args.finite is None or args.target is None:
            raise CliUsageError("--finite and --in go together")
        n = embed_mod.fe_shift(parse_finite(args.finite), parse_finite(args.target))
        if n is None:
            return 1, ["not embeddable"], "not-embeddable"
        return 0, [f"embeds with shift {n}"], "embeddable", {"shift": n}
    if args.periodic is None or args.target_periodic is None:
        raise CliUsageError("--periodic and --in-periodic go together")
    A = parse_periodic(args.periodic)
    B = parse_periodic(args.target_periodic)
    ok = embed_mod.fe_periodic(A, B)
    return _yes_no(ok, "finitely embeddable", "not finitely embeddable")


def _embed_bd(args):
    density = embed_mod.bd(parse_periodic(args.spec))
    return 0, [f"banach density: {density}"], density


def _embed_fmap(args):
    F = parse_finite(args.set)
    B = _parse_set_or_periodic(args.target)
    fam = _family_spec(args.family, args.bounds)
    got = embed_mod.fmap_witness(F, B, fam)
    bounds = _bounds_payload(fam)
    if not got.found():
        return 2, ["no witness within the declared bounds"], "none-within-bounds", None, bounds
    return 0, [f"witness: {fam.describe(got.params)}"], "witness", {"params": got.params}, bounds


def _embed_apmax(args):
    ok = embed_mod.a_maximal_probe(_parse_set_or_periodic(args.spec), args.len)
    return _yes_no(ok, f"contains a {args.len}-term progression", f"no {args.len}-term progression")


def _embed_probe_family(args):
    fam = _family_spec(args.family, args.bounds)
    report = embed_mod.wellstructured_probe(fam)
    lines = []
    cert = {"h_bounds": report.h_bounds, "pairs_checked": report.pairs_checked}
    if report.transitivity_counterexample is not None:
        f, g, F = report.transitivity_counterexample
        lines.append(
            f"transitivity counterexample: f=({fam.describe(f)}), "
            f"g=({fam.describe(g)}), F={F}"
        )
        cert["transitivity_counterexample"] = {"f": f, "g": g, "F": F.elements}
    if report.reflexivity_counterexample is not None:
        lines.append(
            f"reflexivity counterexample: F={report.reflexivity_counterexample}"
        )
        cert["reflexivity_counterexample"] = report.reflexivity_counterexample.elements
    bounds = _bounds_payload(fam)
    if not lines:
        lines = ["no counterexample found within bounds"]
        return 2, lines, "no-counterexample-within-bounds", cert, bounds
    return 0, lines, "counterexample", cert, bounds


# -- the verb table ----------------------------------------------------------

def _arg(*names, **kwargs):
    return names, kwargs


class Verb(NamedTuple):
    path: str  # "verb" or "group action"
    help: str
    provenance: str | Callable  # a function of the parsed args where the method depends on them
    args: tuple  # _arg specs, after the common --json
    handler: Callable  # args -> (code, lines, verdict[, certificate[, bounds]])


class _Reply(NamedTuple):
    code: int
    lines: list
    verdict: object
    certificate: object = None
    bounds: object = None


_SYSTEM = (
    _arg("--poly", help="polynomial equation P = 0"),
    _arg("--matrix", help="file with a homogeneous system, one row per line"),
    _arg("--ap", type=int, help="length of the arithmetic progression"),
)
_MAX_NODES = _arg("--max-nodes", type=int, help="total search node budget (>= 0)")
_EXPR = (_arg("expr"),)
_SPEC = (_arg("spec"),)
_PAIR = (_arg("left"), _arg("right"))

_GROUPS = {
    "search": "coloring searches",
    "vdw": "progression extraction",
    "folkman": "finite sums and the membership matrix",
    "poly": "nonlinear partition regularity tools",
    "omega": "star-calculus terms",
    "embed": "embeddability, density, families",
}

VERBS = (
    Verb("check-matrix", "columns condition for an integer matrix",
         "ordered-block-partition-search",
         (_arg("file", help="matrix file, one row per line"),), _check_matrix),
    Verb("check-linear", "partition regularity of a homogeneous linear equation",
         "zero-sum-subset-criterion", _EXPR, _check_linear),
    Verb("check-affine", "partition regularity of a linear equation with constant term",
         "affine-two-route-criterion", _EXPR, _check_affine),
    Verb("smod", "super-modulo color of one number", "strip-prime-powers-then-reduce",
         (_arg("p", type=int), _arg("n", type=int)), _smod),
    Verb("blocking-prime", "least prime whose super-modulo coloring blocks the coefficients",
         "subset-sum-scan-over-primes", (_arg("coeffs"),), _blocking_prime),
    Verb("parametric", "two-parameter solution family over a zero-sum subset",
         "bezout-multipliers-on-zero-sum-subset",
         (_arg("expr"), _arg("--subset", required=True,
                             help="variable names or 1-based positions, comma-separated")),
         _parametric),
    Verb("search good-coloring", "find a coloring with no monochromatic solution",
         "backtracking-coloring-search",
         _SYSTEM + (_arg("-n", type=int, required=True, help="interval end"),
                    _arg("-r", type=int, required=True, help="number of colors"),
                    _arg("--injective", action="store_true",
                         help="only count solutions with distinct values"), _MAX_NODES),
         _good_coloring),
    Verb("search forcing-number", "least n at which every coloring is forced",
         "incremental-forcing-search",
         _SYSTEM + (_arg("-r", type=int, required=True),
                    _arg("--max", type=int, required=True, help="largest n to try"), _MAX_NODES),
         _forcing_number),
    Verb("search witness", "least monochromatic solution under a given coloring",
         "per-class-least-witness-search",
         _SYSTEM + (_arg("--coloring", required=True,
                         help="file with one line of 1-based colors for [1,n]"),
                    _arg("--injective", action="store_true")),
         _witness),
    Verb("vdw extract325", "monochromatic 3-term progression from a 2-coloring of [0,324]",
         "block-pattern-case-analysis",
         (_arg("--coloring", required=True, help="file with one line of 325 colors (1 or 2)"),),
         _vdw_extract),
    Verb("folkman fs", "all nonempty subset sums", "incremental-subset-sums",
         (_arg("set", help="comma-separated elements"),), _folkman_fs),
    Verb("folkman matrix", "membership matrix for n generators",
         "membership-columns-with-negated-identity",
         (_arg("n", type=int),
          _arg("--check", action="store_true", help="also verify the columns condition")),
         _folkman_matrix),
    Verb("folkman weak-mono", "does the coloring make the subset sums weakly monochromatic",
         "prefix-sum-color-walk",
         (_arg("--coloring", required=True), _arg("--set", required=True)), _folkman_weak_mono),
    Verb("poly reduct", "replace each monomial by a fresh variable", "fresh-variable-per-monomial",
         _EXPR, lambda a: _as_text(polyreg.reduct(parse_poly(a.expr)))),
    Verb("poly exclusive", "systems of variables private to each monomial",
         "per-monomial-private-variables", _EXPR, _poly_exclusive),
    Verb("poly check", "sufficiency and necessity checks", "sufficiency-then-necessity-checks",
         _EXPR, _poly_check),
    Verb("poly construct3513", "attach fresh-variable products to a regular linear form",
         "regular-linear-form-with-attached-products",
         (_arg("--linear", required=True),
          _arg("--subsets", required=True, help='pipe-separated index lists, e.g. "1,2|1,2,3|3|1"'),
          _arg("-n", type=int, required=True, help="number of fresh variables")),
         _poly_construct),
    Verb("poly reciprocal", "reverse the exponent pattern of a homogeneous polynomial",
         "degree-complement-exponent-flip", (_arg("expr"), _arg("--degree", type=int)),
         lambda a: _as_text(polyreg.reciprocal(parse_poly(a.expr), d=a.degree))),
    Verb("poly transform", "regularity-preserving substitutions", "variable-wise-substitution",
         (_arg("expr"), _arg("--negate", action="store_true", help="negate every variable"),
          _arg("--power", type=int, help="raise every variable to this power")),
         _poly_transform),
    Verb("poly expsum", "difference of power products, compared by exponent sums",
         "exponent-sum-comparison",
         (_arg("--left", required=True), _arg("--right", required=True)), _poly_expsum),
    Verb("poly invariance", "structural invariance flags", "symbolic-substitution-identities",
         _EXPR, lambda a: _flag_list(
             polyreg.invariance(parse_poly(a.expr)),
             ("translation invariant", "dilation invariant", "additive", "multiplicative"))),
    Verb("omega eval", "canonical form and height", "star-depth-normal-form",
         (_arg("term"),), _omega_eval),
    Verb("omega eq", "term equality", "star-depth-normal-form", _PAIR,
         lambda a: _yes_no(omega_mod.term_eq(*_omega_pair(a)), "equal", "different")),
    Verb("omega tensorized", "height-shifted tuple", "cumulative-height-shifts",
         (_arg("terms", help="semicolon-separated terms"),), _omega_tensorized),
    Verb("omega rpair", "tensor-pair test", "minimum-star-depth-threshold", _PAIR,
         lambda a: _yes_no(omega_mod.tensor_pair_R(*_omega_pair(a)),
                           "tensor pair", "not a tensor pair")),
    Verb("omega verify354", "two-table coefficient construction",
         "two-table-coefficient-construction",
         (_arg("--c", required=True, help="comma-separated positive weights"),
          _arg("--d", required=True, help="comma-separated positive weights"),
          _arg("--ledger", action="store_true", help="print the per-depth coefficient identities")),
         _omega_verify354),
    Verb("embed fe", "finite embeddability",
         lambda a: "least-shift-scan" if a.finite is not None
         else "residue-rotation-with-boundary-checks",
         (_arg("--finite", help="finite pattern, comma-separated"),
          _arg("--in", dest="target", help="finite target, comma-separated"),
          _arg("--periodic", help="periodic pattern, p=..; residues={..} form"),
          _arg("--in-periodic", dest="target_periodic", help="periodic target")),
         _embed_fe),
    Verb("embed classify", "thick / syndetic / piecewise syndetic / finite",
         "residue-set-analysis", _SPEC,
         lambda a: _flag_list(embed_mod.classify(parse_periodic(a.spec)),
                              ("thick", "syndetic", "piecewise syndetic", "finite"))),
    Verb("embed bd", "exact Banach density", "residue-count-over-period", _SPEC, _embed_bd),
    Verb("embed fmap", "family-map witness search", "bounded-family-parameter-scan",
         (_arg("--set", required=True, help="finite pattern"),
          _arg("--in", dest="target", required=True, help="target set (finite or periodic)"),
          _arg("--family", required=True),
          _arg("--bounds", help="e.g. a=1..10,b=0..20")),
         _embed_fmap),
    Verb("embed apmax", "progression probe", "windowed-progression-scan",
         (_arg("spec", help="finite set or periodic spec"), _arg("--len", type=int, required=True)),
         _embed_apmax),
    Verb("embed probe-family", "closure counterexample probe", "bounded-closure-probe",
         (_arg("--family", required=True), _arg("--bounds")), _embed_probe_family),
)


def build_parser() -> _ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON envelope")
    root = _ArgumentParser(prog="prlab", description="partition regularity laboratory")
    subparsers = {"": root.add_subparsers(dest="verb", metavar="verb")}
    for verb in VERBS:
        group, _, name = verb.path.rpartition(" ")
        if group not in subparsers:
            parent = subparsers[""].add_parser(group, help=_GROUPS[group])
            subparsers[group] = parent.add_subparsers(dest="action", metavar="action")
        p = subparsers[group].add_parser(name, help=verb.help, parents=[common])
        for names, kwargs in verb.args:
            p.add_argument(*names, **kwargs)
        p.set_defaults(row=verb)
    return root


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        verb = getattr(args, "row", None)
        if verb is None:
            parser.print_usage(sys.stderr)
            return 3
        start = time.perf_counter()
        reply = _Reply(*verb.handler(args))
    except RecursionError:  # a RuntimeError subclass, so it must come first
        print("error: input nested too deeply", file=sys.stderr)
        return 3
    except (ValueError, OSError, RuntimeError) as exc:  # usage, input, failed internal check
        print(f"error: {exc}", file=sys.stderr)
        return 3
    timing = round((time.perf_counter() - start) * 1000, 3)
    if args.json:
        provenance = verb.provenance(args) if callable(verb.provenance) else verb.provenance
        envelope = {
            "verdict": _jsonable(reply.verdict),
            "certificate": _jsonable(reply.certificate),
            "provenance": provenance,
            "timing_ms": timing,
            "bounds": _jsonable(reply.bounds),
        }
        print(json.dumps(envelope))
    else:
        for line in reply.lines:
            print(line)
    return reply.code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
