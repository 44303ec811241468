"""Single command-line entry point for every operation in the package.

Exit status contract: 0 for a definite positive verdict, 1 for a definite
negative, 2 for an unknown or bounds-limited verdict, 3 for usage or input
errors.  With --json, exactly one envelope object is printed on standard
output with the fixed keys verdict / certificate / provenance / timing_ms /
bounds.

The verb table VERBS is the single list of verbs.  Each row gives the verb
path, help text, provenance, argument specs and handler; a handler returns
(exit code, text lines, verdict[, certificate[, bounds]]).  An argument spec
with one_of="<name>" belongs to that either-or group, of which argparse
requires exactly one flag.  build_parser and main are loops over the table,
and main alone adds the provenance and builds the envelope.

One invocation pays only for the verb it runs: main builds the parser of
the verb that argv names (the whole table only for help listings and
unknown names, which need no library code), and each handler imports the
library module it calls when it is called.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from typing import Callable, NamedTuple

from .core.coloring import Coloring
from .core.matrix import parse_matrix
from .core.poly import ParseError, parse_poly, read_int, read_ints, read_items
from .core.sets import parse_finite, parse_periodic


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


# -- small helpers -----------------------------------------------------------

def _read_text(path: str) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _int_arg(text: str) -> int:
    """argparse's type for an integer argument."""
    try:
        return read_int(text, signed=True)
    except ParseError as exc:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}: {exc}") from None


def _no_json_form(x):
    """json.dumps's hook for a value with no JSON form: a set becomes its
    sorted list, anything else its str."""
    return sorted(x) if isinstance(x, (set, frozenset)) else str(x)


def _parse_set_or_periodic(text: str):
    if "p=" in text or "residues" in text:
        return parse_periodic(text)
    return parse_finite(text)


_BOUND_RE = re.compile(r"([A-Za-z][A-Za-z0-9]*)=(.*?)\.\.(.*)", re.DOTALL)


def _parse_bounds(text: str) -> dict[str, tuple[int, int]]:
    """Comma-separated name=lo..hi fragments, each name at most once."""
    out = {}
    for part, at in read_items(text):
        m = _BOUND_RE.fullmatch(part)
        if m is None:
            raise ParseError(f"bad bounds fragment {part!r}; expected name=lo..hi", at)
        if m[1] in out:
            raise ParseError(f"bounds name {m[1]!r} given twice", at)
        out[m[1]] = tuple(read_int(m[g], at + m.start(g), "--bounds", signed=True) for g in (2, 3))
    return out


# -- shared renderers --------------------------------------------------------

def _yes_no(ok, yes: str, no: str):
    return (0 if ok else 1), [yes if ok else no], bool(ok)


def _flag_list(flags):
    """One `label: yes|no` line per field of the flags tuple, labelled by
    its name with spaces for underscores; the JSON keys are the names."""
    lines = [f"{key.replace('_', ' ')}: {'yes' if val else 'no'}"
             for key, val in zip(flags._fields, flags)]
    return 0, lines, flags._asdict()


def _budget_exceeded(exc, bounds: dict):
    lines = [f"search exhausted the node budget after {exc.nodes} nodes"]
    return 2, lines, "budget-exceeded", None, bounds


def _as_text(value):
    return 0, [str(value)], str(value)


def _status_json(code: int, v):
    payload = v._asdict()
    return code, [json.dumps(payload, default=_no_json_form)], v.status, payload


# -- matrix / linear / affine verbs ------------------------------------------

def _check_matrix(args):
    from . import rado
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
    return 0, lines, "columns-condition-satisfied", cert._asdict()


def _check_linear(args):
    from . import rado
    verdict = rado.linear_pr(parse_poly(args.expr))
    if verdict.pr:
        lines = ["partition regular: yes", f"zero-sum subset: {list(verdict.subset)}"]
        return 0, lines, "partition-regular", {"zero_sum_subset": verdict.subset}
    lines = ["partition regular: no", f"blocking prime: {verdict.blocking_prime}"]
    return 1, lines, "not-partition-regular", {"blocking_prime": verdict.blocking_prime}


def _check_affine(args):
    from . import rado
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
    from . import rado
    color = rado.smod(args.p, args.n)
    return 0, [f"smod({args.p}) color of {args.n}: {color}"], color


def _blocking_prime(args):
    from . import rado
    p = rado.blocking_prime(read_ints(args.coeffs, where="coeffs", signed=True))
    if p is None:
        lines = ["no blocking prime: some subset of the coefficients sums to zero"]
        return 1, lines, "no-blocking-prime"
    return 0, [f"blocking prime: {p}"], p


def _parametric(args):
    from . import rado
    P = parse_poly(args.expr)
    rado.homogeneous_coefficients(P)  # a bad expression is reported before --subset is read
    names, subset = P.variables(), []
    for item, at in read_items(args.subset):  # a variable's name or its 1-based position
        if item not in names:
            i = read_int(item, at, "--subset", signed=True)
            if not 1 <= i <= len(names):
                raise ParseError(f"subset indices must lie in 1..{len(names)}", at)
            item = names[i - 1]
        subset.append(item)
    ps = rado.parametric_solution(P, subset)
    lines = [f"family over parameters (a, b), c = {ps.c}, m = {ps.m}, z = {ps.z}:"]
    for v, zv in zip(ps.j_vars, ps.zs):
        lines.append(f"  {v} = a + {zv}*b" if zv else f"  {v} = a")
    for v in ps.other_vars:
        lines.append(f"  {v} = {ps.m}*b")
    cert = {key: getattr(ps, key) for key in ("j_vars", "zs", "m", "c", "d", "z")}
    return 0, lines, "parametric-family", cert


# -- search verbs ------------------------------------------------------------

def _system_from_args(args):
    from . import search
    if args.poly is not None:
        return search.poly_system(parse_poly(args.poly), injective=args.injective)
    if args.matrix is not None:
        M = parse_matrix(_read_text(args.matrix))
        return search.matrix_system(M, injective=args.injective)
    return search.ap_system(args.ap)


def _good_coloring(args):
    from . import search
    system = _system_from_args(args)
    budget = search.NodeBudget(args.max_nodes)
    bounds = {"max_nodes": budget.limit, "n": args.n, "r": args.r}
    try:
        outcome = search.good_coloring(system, args.n, args.r, budget)
    except search.SearchBudgetExceeded as exc:
        return _budget_exceeded(exc, bounds)
    if outcome.forced:
        lines = [f"forced: every {args.r}-coloring of [1,{args.n}] has a monochromatic solution"]
        return 1, lines, "forced", None, bounds
    values = outcome.coloring.values()
    lines = [f"good coloring found: {' '.join(str(v) for v in values)}"]
    for color, members in sorted(outcome.coloring.classes):
        lines.append(f"  color {color}: {list(members)}")
    return 0, lines, "good-coloring", {"colors": values}, bounds


def _forcing_number(args):
    from . import search
    system = _system_from_args(args)
    budget = search.NodeBudget(args.max_nodes)
    bounds = {"max_nodes": budget.limit, "r": args.r, "max": args.max}
    try:
        n = search.forcing_number(system, args.r, args.max, budget)
    except search.SearchBudgetExceeded as exc:
        return _budget_exceeded(exc, bounds)
    if n is None:
        return 2, [f"no forcing number up to {args.max}"], "not-forced-within-bound", None, bounds
    return 0, [f"forcing number: {n}"], n, None, bounds


def _witness(args):
    from . import search
    system = _system_from_args(args)
    coloring = Coloring.from_text(_read_text(args.coloring))
    w = search.mono_witness(coloring, system)
    if w is None:
        return 1, ["no monochromatic solution: the coloring is good"], "no-witness"
    return 0, [f"monochromatic solution: {list(w)}"], "witness", {"values": w}


def _vdw_extract(args):
    from . import search
    coloring = Coloring.from_text(_read_text(args.coloring), lo=0)
    triple = search.vdw325_extract(coloring)
    x, y, z = triple
    color = coloring.color(x)
    lines = [f"monochromatic progression: {x}, {y}, {z} (color {color})"]
    return 0, lines, "progression", {"triple": triple, "color": color}


# -- folkman verbs -----------------------------------------------------------

def _folkman_fs(args):
    from . import folkman
    S = parse_finite(args.set)
    sums = folkman.fs(S)
    return 0, [f"FS({S}) = {sums}"], sums.elements


def _folkman_matrix(args):
    from . import folkman
    M = folkman.folkman_matrix(args.n)
    lines, cert, code = str(M).splitlines(), {"entries": M.entries}, 0
    if args.check:
        from . import rado
        satisfied = rado.columns_condition(M).satisfied
        lines.append(f"columns condition: {'satisfied' if satisfied else 'failed'}")
        cert["columns_condition"] = satisfied
        code = 0 if satisfied else 1
    return code, lines, "matrix", cert


def _folkman_weak_mono(args):
    from . import folkman
    coloring = Coloring.from_text(_read_text(args.coloring))
    ok = folkman.weakly_monochromatic(coloring, parse_finite(args.set))
    return _yes_no(ok, "weakly monochromatic: yes", "weakly monochromatic: no")


# -- poly verbs --------------------------------------------------------------

def _poly_reduct(args):
    from . import polyreg
    return _as_text(polyreg.reduct(parse_poly(args.expr)))


def _poly_exclusive(args):
    from . import polyreg
    sets = polyreg.exclusive_sets(parse_poly(args.expr))
    payload = sorted(sorted(s) for s in sets)
    if not payload:
        return 0, ["no exclusive variable sets"], payload
    lines = ["exclusive variable sets:"] + ["  {" + ", ".join(s) + "}" for s in payload]
    return 0, lines, payload


def _poly_check(args):
    from . import polyreg
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
    from . import polyreg
    L = parse_poly(args.linear)
    subsets = [tuple(read_ints(chunk, at, "--subsets", signed=True))
               for chunk, at in read_items(args.subsets, "|")]
    result = polyreg.attach_products(L, subsets, args.n)
    lines = [str(result.poly), f"status: {result.verdict.status}"]
    return 0, lines, str(result.poly), result.verdict._asdict()


def _poly_reciprocal(args):
    from . import polyreg
    return _as_text(polyreg.reciprocal(parse_poly(args.expr)))


def _poly_transform(args):
    from . import polyreg
    P = parse_poly(args.expr)
    if args.negate:
        result = polyreg.transform(P, "negate_vars")
    else:
        result = polyreg.transform(P, "power", z=args.power)
    lines = [str(result.poly), f"regularity transfers over: {result.pr_transfer_domain}"]
    return 0, lines, str(result.poly), {"pr_transfer_domain": result.pr_transfer_domain}


def _poly_expsum(args):
    from . import polyreg
    left = read_ints(args.left, where="--left", signed=True)
    right = read_ints(args.right, where="--right", signed=True)
    verdict = polyreg.exp_sum_ipr(left, right)
    return _status_json(0 if verdict.status == "IPR_certified" else 2, verdict)


def _poly_invariance(args):
    from . import polyreg
    return _flag_list(polyreg.invariance(parse_poly(args.expr)))


# -- omega verbs -------------------------------------------------------------

def _omega_eval(args):
    from . import omega
    form = omega.canonical(omega.parse_term(args.term))
    h = omega.height(form)
    text = omega.form_text(form)
    return 0, [f"canonical: {text}", f"height: {h}"], {"canonical": text, "height": h}


def _omega_pair(args):
    from . import omega
    return omega.parse_term(args.left), omega.parse_term(args.right)


def _omega_eq(args):
    from . import omega
    return _yes_no(omega.term_eq(*_omega_pair(args)), "equal", "different")


def _omega_rpair(args):
    from . import omega
    return _yes_no(omega.tensor_pair_R(*_omega_pair(args)), "tensor pair", "not a tensor pair")


def _omega_tensorized(args):
    from . import omega
    terms = [omega.parse_term(term, at) for term, at in read_items(args.terms, ";")]
    out = [str(t) for t in omega.tensorized(terms)]
    return 0, out, out


def _omega_verify354(args):
    from . import omega
    c = read_ints(args.c, where="--c", signed=True)
    d = read_ints(args.d, where="--d", signed=True)
    result = omega.verify_table_construction(c, d)
    ok = result.zero_check and result.distinct_check
    ledger = [line.text() for line in result.ledger]
    lines = [f"xi_{i}  = {list(v)}" for i, v in enumerate(result.xi, start=1)]
    lines += [f"eta_{j} = {list(v)}" for j, v in enumerate(result.eta, start=1)]
    if args.ledger:
        lines.extend(ledger)
    lines.append(f"zero check: {'pass' if result.zero_check else 'fail'}")
    lines.append(f"distinct check: {'pass' if result.distinct_check else 'fail'}")
    cert = {**result._asdict(), "ledger": ledger}
    return (0 if ok else 1), lines, "balanced" if ok else "unbalanced", cert


# -- embed verbs -------------------------------------------------------------

def _embed_fe(args):
    from . import embed
    A = parse_periodic(args.periodic) if args.finite is None else parse_finite(args.finite)
    B = parse_periodic(args.target_periodic) if args.target is None else parse_finite(args.target)
    n = embed.fe_shift(A, B)
    if n is None:
        return 1, ["not embeddable"], "not-embeddable"
    return 0, [f"embeds with shift {n}"], "embeddable", {"shift": n}


def _embed_classify(args):
    from . import embed
    return _flag_list(embed.classify(parse_periodic(args.spec)))


def _embed_bd(args):
    from . import embed
    density = embed.bd(parse_periodic(args.spec))
    return 0, [f"banach density: {density}"], density


def _family_scan(args):
    """The family, node budget and bounds payload of a family-scan verb."""
    from . import embed, search
    fam = embed.family(args.family, _parse_bounds(args.bounds or ""))
    budget = search.NodeBudget(args.max_nodes, embed.DEFAULT_PROBE_BUDGET)
    params = dict(zip(fam.param_names(), fam.bounds))
    return fam, budget, {"family": fam.kind, **params, "max_nodes": budget.limit}


def _embed_fmap(args):
    from . import embed, search
    F = parse_finite(args.set)
    B = _parse_set_or_periodic(args.target)
    fam, budget, bounds = _family_scan(args)
    try:
        got = embed.fmap_witness(F, B, fam, budget)
    except search.SearchBudgetExceeded as exc:
        return _budget_exceeded(exc, bounds)
    if not got.found():
        return 2, ["no witness within the declared bounds"], "none-within-bounds", None, bounds
    return 0, [f"witness: {fam.describe(got.params)}"], "witness", {"params": got.params}, bounds


def _embed_apmax(args):
    from . import embed
    ok = embed.a_maximal_probe(_parse_set_or_periodic(args.spec), args.len)
    return _yes_no(ok, f"contains a {args.len}-term progression", f"no {args.len}-term progression")


def _embed_probe_family(args):
    from . import embed, search
    fam, budget, bounds = _family_scan(args)
    try:
        report = embed.wellstructured_probe(fam, budget)
    except search.SearchBudgetExceeded as exc:
        return _budget_exceeded(exc, bounds)
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
    provenance: str
    args: tuple  # _arg specs, after the common --json
    handler: Callable  # args -> (code, lines, verdict[, certificate[, bounds]])


class _Reply(NamedTuple):
    code: int
    lines: list
    verdict: object
    certificate: object = None
    bounds: object = None


_SYSTEM = (
    _arg("--poly", one_of="system", help="polynomial equation P = 0"),
    _arg("--matrix", one_of="system", help="file with a homogeneous system, one row per line"),
    _arg("--ap", one_of="system", type=_int_arg, help="length of the arithmetic progression"),
)
_MAX_NODES = _arg("--max-nodes", type=_int_arg, help="total search node budget (>= 0)")
_INJECTIVE = _arg("--injective", action="store_true", help="only count solutions with distinct values")
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
         (_arg("p", type=_int_arg), _arg("n", type=_int_arg)), _smod),
    Verb("blocking-prime", "least prime whose super-modulo coloring blocks the coefficients",
         "subset-sum-scan-over-primes", (_arg("coeffs"),), _blocking_prime),
    Verb("parametric", "two-parameter solution family over a zero-sum subset",
         "bezout-multipliers-on-zero-sum-subset",
         (_arg("expr"), _arg("--subset", required=True,
                             help="variable names or 1-based positions, comma-separated")),
         _parametric),
    Verb("search good-coloring", "find a coloring with no monochromatic solution",
         "backtracking-coloring-search",
         _SYSTEM + (_arg("-n", type=_int_arg, required=True, help="interval end"),
                    _arg("-r", type=_int_arg, required=True, help="number of colors"),
                    _INJECTIVE, _MAX_NODES),
         _good_coloring),
    Verb("search forcing-number", "least n at which every coloring is forced",
         "incremental-forcing-search",
         _SYSTEM + (_arg("-r", type=_int_arg, required=True),
                    _arg("--max", type=_int_arg, required=True, help="largest n to try"),
                    _INJECTIVE, _MAX_NODES),
         _forcing_number),
    Verb("search witness", "least monochromatic solution under a given coloring",
         "per-class-least-witness-search",
         _SYSTEM + (_arg("--coloring", required=True,
                         help="file with one line of 1-based colors for [1,n]"),
                    _INJECTIVE),
         _witness),
    Verb("vdw extract325", "monochromatic 3-term progression from a 2-coloring of [0,324]",
         "block-pattern-case-analysis",
         (_arg("--coloring", required=True, help="file with one line of 325 colors (1 or 2)"),),
         _vdw_extract),
    Verb("folkman fs", "all nonempty subset sums", "incremental-subset-sums",
         (_arg("set", help="comma-separated elements"),), _folkman_fs),
    Verb("folkman matrix", "membership matrix for n generators",
         "membership-columns-with-negated-identity",
         (_arg("n", type=_int_arg),
          _arg("--check", action="store_true", help="also verify the columns condition")),
         _folkman_matrix),
    Verb("folkman weak-mono", "does the coloring make the subset sums weakly monochromatic",
         "prefix-sum-color-walk",
         (_arg("--coloring", required=True), _arg("--set", required=True)), _folkman_weak_mono),
    Verb("poly reduct", "replace each monomial by a fresh variable", "fresh-variable-per-monomial",
         _EXPR, _poly_reduct),
    Verb("poly exclusive", "systems of variables private to each monomial",
         "per-monomial-private-variables", _EXPR, _poly_exclusive),
    Verb("poly check", "sufficiency and necessity checks", "sufficiency-then-necessity-checks",
         _EXPR, _poly_check),
    Verb("poly construct3513", "attach fresh-variable products to a regular linear form",
         "regular-linear-form-with-attached-products",
         (_arg("--linear", required=True),
          _arg("--subsets", required=True, help='pipe-separated index lists, e.g. "1,2|1,2,3|3|1"'),
          _arg("-n", type=_int_arg, required=True, help="number of fresh variables")),
         _poly_construct),
    Verb("poly reciprocal", "reverse the exponent pattern of a homogeneous polynomial",
         "degree-complement-exponent-flip", _EXPR, _poly_reciprocal),
    Verb("poly transform", "regularity-preserving substitutions", "variable-wise-substitution",
         (_arg("expr"),
          _arg("--negate", one_of="transform", action="store_true", help="negate every variable"),
          _arg("--power", one_of="transform", type=_int_arg,
               help="raise every variable to this power")),
         _poly_transform),
    Verb("poly expsum", "difference of power products, compared by exponent sums",
         "exponent-sum-comparison",
         (_arg("--left", required=True), _arg("--right", required=True)), _poly_expsum),
    Verb("poly invariance", "structural invariance flags", "exponent-rules",
         _EXPR, _poly_invariance),
    Verb("omega eval", "canonical form and height", "star-depth-normal-form",
         (_arg("term"),), _omega_eval),
    Verb("omega eq", "term equality", "star-depth-normal-form", _PAIR, _omega_eq),
    Verb("omega tensorized", "height-shifted tuple", "cumulative-height-shifts",
         (_arg("terms", help="semicolon-separated terms"),), _omega_tensorized),
    Verb("omega rpair", "tensor-pair test", "minimum-star-depth-threshold", _PAIR, _omega_rpair),
    Verb("omega verify354", "two-table coefficient construction",
         "two-table-coefficient-construction",
         (_arg("--c", required=True, help="comma-separated positive weights"),
          _arg("--d", required=True, help="comma-separated positive weights"),
          _arg("--ledger", action="store_true", help="print the per-depth coefficient identities")),
         _omega_verify354),
    Verb("embed fe", "finite embeddability", "least-shift-scan",
         (_arg("--finite", one_of="pattern", help="finite pattern, comma-separated"),
          _arg("--periodic", one_of="pattern", help="periodic pattern, p=..; residues={..} form"),
          _arg("--in", one_of="target", dest="target", help="finite target, comma-separated"),
          _arg("--in-periodic", one_of="target", dest="target_periodic", help="periodic target")),
         _embed_fe),
    Verb("embed classify", "thick / syndetic / piecewise syndetic / finite",
         "residue-set-analysis", _SPEC, _embed_classify),
    Verb("embed bd", "exact Banach density", "residue-count-over-period", _SPEC, _embed_bd),
    Verb("embed fmap", "family-map witness search", "bounded-family-parameter-scan",
         (_arg("--set", required=True, help="finite pattern"),
          _arg("--in", dest="target", required=True, help="target set (finite or periodic)"),
          _arg("--family", required=True),
          _arg("--bounds", help="e.g. a=1..10,b=0..20"), _MAX_NODES),
         _embed_fmap),
    Verb("embed apmax", "progression probe", "residue-class-or-finite-progression-scan",
         (_arg("spec", help="finite set or periodic spec"),
          _arg("--len", type=_int_arg, required=True)),
         _embed_apmax),
    Verb("embed probe-family", "closure counterexample probe", "bounded-closure-probe",
         (_arg("--family", required=True), _arg("--bounds"), _MAX_NODES), _embed_probe_family),
)


def build_parser(rows=VERBS) -> _ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON envelope")
    root = _ArgumentParser(prog="prlab", description="partition regularity laboratory")
    subparsers = {"": root.add_subparsers(dest="verb", metavar="verb")}
    for verb in rows:
        group, _, name = verb.path.rpartition(" ")
        if group not in subparsers:
            parent = subparsers[""].add_parser(group, help=_GROUPS[group])
            subparsers[group] = parent.add_subparsers(dest="action", metavar="action")
        p = subparsers[group].add_parser(name, help=verb.help, parents=[common])
        either = {}  # one required, mutually exclusive group per one_of name
        for names, kwargs in verb.args:
            kwargs = dict(kwargs)
            one_of = kwargs.pop("one_of", None)
            if one_of is not None and one_of not in either:
                either[one_of] = p.add_mutually_exclusive_group(required=True)
            (p if one_of is None else either[one_of]).add_argument(*names, **kwargs)
        p.set_defaults(row=verb)
    return root


def _named_verb(argv: list) -> Verb | None:
    """The row whose path argv begins with: a top-level verb, or a group and
    one of its actions."""
    for verb in VERBS:
        words = verb.path.split()
        if argv[:len(words)] == words:
            return verb
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    verb = _named_verb(argv)
    # one verb's parser parses that verb's argv exactly as the whole table would
    parser = build_parser(VERBS if verb is None else (verb,))
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
        envelope = {
            "verdict": reply.verdict,
            "certificate": reply.certificate,
            "provenance": verb.provenance,
            "timing_ms": timing,
            "bounds": reply.bounds,
        }
        print(json.dumps(envelope, default=_no_json_form))
    else:
        for line in reply.lines:
            print(line)
    return reply.code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
