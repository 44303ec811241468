"""Single command-line entry point for every operation in the package.

Exit status contract: 0 for a definite positive verdict, 1 for a definite
negative, 2 for an unknown or bounds-limited verdict, 3 for usage or input
errors.  With --json, exactly one envelope object is printed on standard
output with the fixed keys verdict / certificate / provenance / timing_ms /
bounds.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from . import embed as embed_mod
from . import folkman as folkman_mod
from . import omega as omega_mod
from . import polyreg
from . import rado
from . import search as search_mod
from .core.coloring import Coloring
from .core.matrix import parse_matrix
from .core.poly import parse_poly
from .core.sets import FiniteSet, PeriodicSet, parse_finite, parse_periodic


class CliUsageError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        raise CliUsageError(message)


# -- small helpers -----------------------------------------------------------

def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise CliUsageError(str(exc)) from None


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


# -- matrix / linear / affine verbs ------------------------------------------

def _cmd_check_matrix(args):
    M = parse_matrix(_read_text(args.file))
    verdict = rado.columns_condition(M)
    if verdict.satisfied:
        cert = verdict.certificate
        lines = ["columns condition: satisfied"]
        for i, (block, combo) in enumerate(
            zip(cert.blocks, (None,) + cert.combinations), start=1
        ):
            extra = "" if combo is None else f"  via {tuple(str(c) for c in combo)}"
            lines.append(f"block {i}: columns {list(block)}{extra}")
        payload = {
            "blocks": cert.blocks,
            "combinations": [[str(c) for c in combo] for combo in cert.combinations],
        }
        return 0, lines, {
            "verdict": "columns-condition-satisfied",
            "certificate": payload,
            "provenance": "ordered-block-partition-search",
        }
    return 1, ["columns condition: not satisfied"], {
        "verdict": "columns-condition-failed",
        "provenance": "ordered-block-partition-search",
    }


def _cmd_check_linear(args):
    verdict = rado.linear_pr(parse_poly(args.expr))
    if verdict.pr:
        lines = [
            "partition regular: yes",
            f"zero-sum subset: {list(verdict.subset)}",
        ]
        return 0, lines, {
            "verdict": "partition-regular",
            "certificate": {"zero_sum_subset": verdict.subset},
            "provenance": "zero-sum-subset-criterion",
        }
    lines = [
        "partition regular: no",
        f"blocking prime: {verdict.blocking_prime}",
    ]
    return 1, lines, {
        "verdict": "not-partition-regular",
        "certificate": {"blocking_prime": verdict.blocking_prime},
        "provenance": "zero-sum-subset-criterion",
    }


def _cmd_check_affine(args):
    verdict = rado.affine_pr(parse_poly(args.expr))
    if verdict.pr:
        lines = ["partition regular: yes", f"route: {verdict.route}"]
        cert = {"route": verdict.route}
        if verdict.k is not None:
            lines.append(f"constant solution: every variable = {verdict.k}")
            cert["k"] = verdict.k
        if verdict.subset is not None:
            lines.append(f"shift z = {verdict.z}, zero-sum subset {list(verdict.subset)}")
            cert["z"] = verdict.z
            cert["zero_sum_subset"] = verdict.subset
        return 0, lines, {
            "verdict": "partition-regular",
            "certificate": cert,
            "provenance": "affine-two-route-criterion",
        }
    return 1, ["partition regular: no"], {
        "verdict": "not-partition-regular",
        "provenance": "affine-two-route-criterion",
    }


def _cmd_smod(args):
    color = rado.smod(args.p, args.n)
    lines = [f"smod({args.p}) color of {args.n}: {color}"]
    return 0, lines, {
        "verdict": color,
        "provenance": "strip-prime-powers-then-reduce",
    }


def _cmd_blocking_prime(args):
    coeffs = _int_list(args.coeffs)
    p = rado.blocking_prime(coeffs)
    if p is None:
        lines = ["no blocking prime: some subset of the coefficients sums to zero"]
        return 1, lines, {
            "verdict": "no-blocking-prime",
            "provenance": "subset-sum-scan-over-primes",
        }
    return 0, [f"blocking prime: {p}"], {
        "verdict": p,
        "provenance": "subset-sum-scan-over-primes",
    }


def _cmd_parametric(args):
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
    cert = {
        "j_vars": ps.j_vars,
        "zs": ps.zs,
        "m": ps.m,
        "c": ps.c,
        "d": ps.d,
        "z": ps.z,
    }
    return 0, lines, {
        "verdict": "parametric-family",
        "certificate": cert,
        "provenance": "bezout-multipliers-on-zero-sum-subset",
    }


# -- search verbs ------------------------------------------------------------

def _add_system_flags(p):
    p.add_argument("--poly", help="polynomial equation P = 0")
    p.add_argument("--matrix", help="file with a homogeneous system, one row per line")
    p.add_argument("--ap", type=int, help="length of the arithmetic progression")


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


def _cmd_good_coloring(args):
    system = _system_from_args(args, injective=args.injective)
    bounds = _system_bounds(args, n=args.n, r=args.r)
    try:
        outcome = search_mod.good_coloring(
            system, args.n, args.r, max_nodes=args.max_nodes
        )
    except search_mod.SearchBudgetExceeded as exc:
        return 2, [f"search exhausted the node budget after {exc.nodes} nodes"], {
            "verdict": "budget-exceeded",
            "provenance": "backtracking-coloring-search",
            "bounds": bounds,
        }
    if outcome.forced:
        lines = [f"forced: every {args.r}-coloring of [1,{args.n}] has a monochromatic solution"]
        return 1, lines, {
            "verdict": "forced",
            "provenance": "backtracking-coloring-search",
            "bounds": bounds,
        }
    values = outcome.coloring.values()
    lines = [f"good coloring found: {' '.join(str(v) for v in values)}"]
    for color, members in sorted(outcome.coloring.color_classes().items()):
        lines.append(f"  color {color}: {members}")
    return 0, lines, {
        "verdict": "good-coloring",
        "certificate": {"colors": values},
        "provenance": "backtracking-coloring-search",
        "bounds": bounds,
    }


def _cmd_forcing_number(args):
    system = _system_from_args(args)
    bounds = _system_bounds(args, r=args.r, max=args.max)
    try:
        n = search_mod.forcing_number(system, args.r, args.max, max_nodes=args.max_nodes)
    except search_mod.SearchBudgetExceeded as exc:
        return 2, [f"search exhausted the node budget after {exc.nodes} nodes"], {
            "verdict": "budget-exceeded",
            "provenance": "incremental-forcing-search",
            "bounds": bounds,
        }
    if n is None:
        lines = [f"no forcing number up to {args.max}"]
        return 2, lines, {
            "verdict": "not-forced-within-bound",
            "provenance": "incremental-forcing-search",
            "bounds": bounds,
        }
    return 0, [f"forcing number: {n}"], {
        "verdict": n,
        "provenance": "incremental-forcing-search",
        "bounds": bounds,
    }


def _cmd_witness(args):
    system = _system_from_args(args, injective=args.injective)
    coloring = Coloring.from_text(_read_text(args.coloring))
    w = search_mod.mono_witness(coloring, system)
    if w is None:
        return 1, ["no monochromatic solution: the coloring is good"], {
            "verdict": "no-witness",
            "provenance": "per-class-least-witness-search",
        }
    return 0, [f"monochromatic solution: {list(w)}"], {
        "verdict": "witness",
        "certificate": {"values": w},
        "provenance": "per-class-least-witness-search",
    }


def _cmd_vdw_extract(args):
    coloring = Coloring.from_text(_read_text(args.coloring), lo=0)
    triple = search_mod.vdw325_extract(coloring)
    x, y, z = triple
    color = coloring.color(x)
    lines = [f"monochromatic progression: {x}, {y}, {z} (color {color})"]
    return 0, lines, {
        "verdict": "progression",
        "certificate": {"triple": triple, "color": color},
        "provenance": "block-pattern-case-analysis",
    }


# -- folkman verbs -----------------------------------------------------------

def _cmd_folkman_fs(args):
    S = parse_finite(args.set)
    sums = folkman_mod.fs(S)
    lines = [f"FS({S}) = {sums}"]
    return 0, lines, {
        "verdict": sums.elements,
        "provenance": "incremental-subset-sums",
    }


def _cmd_folkman_matrix(args):
    M = folkman_mod.folkman_matrix(args.n)
    lines = str(M).splitlines()
    env = {
        "verdict": "matrix",
        "certificate": {"entries": M.entries},
        "provenance": "membership-columns-with-negated-identity",
    }
    if args.check:
        verdict = rado.columns_condition(M)
        lines.append(f"columns condition: {'satisfied' if verdict.satisfied else 'failed'}")
        env["certificate"]["columns_condition"] = verdict.satisfied
        if not verdict.satisfied:
            return 1, lines, env
    return 0, lines, env


def _cmd_folkman_weak_mono(args):
    coloring = Coloring.from_text(_read_text(args.coloring))
    S = parse_finite(args.set)
    ok = folkman_mod.weakly_monochromatic(coloring, S)
    lines = [f"weakly monochromatic: {'yes' if ok else 'no'}"]
    return (0 if ok else 1), lines, {
        "verdict": bool(ok),
        "provenance": "prefix-sum-color-walk",
    }


# -- poly verbs --------------------------------------------------------------

def _verdict_payload(v: polyreg.PrVerdict) -> dict:
    return {
        "status": v.status,
        "method": v.method,
        "certificate": _jsonable(v.certificate),
        "notes": list(v.notes),
    }


def _cmd_poly_reduct(args):
    out = polyreg.reduct(parse_poly(args.expr))
    return 0, [str(out)], {
        "verdict": str(out),
        "provenance": "fresh-variable-per-monomial",
    }


def _cmd_poly_exclusive(args):
    sets = polyreg.exclusive_sets(parse_poly(args.expr))
    payload = sorted(sorted(s) for s in sets)
    if payload:
        lines = ["exclusive variable sets:"] + [
            "  {" + ", ".join(s) + "}" for s in payload
        ]
    else:
        lines = ["no exclusive variable sets"]
    return 0, lines, {
        "verdict": payload,
        "provenance": "per-monomial-private-variables",
    }


def _cmd_poly_check(args):
    P = parse_poly(args.expr)
    suff = polyreg.sufficient_ipr(P)
    if suff.status == "IPR_certified":
        verdict, code = suff, 0
    else:
        nec = polyreg.necessary_check(P)
        if nec.status == "not_PR_certified":
            verdict, code = nec, 1
        else:
            notes = tuple(dict.fromkeys(suff.notes + nec.notes))
            verdict = polyreg.PrVerdict("unknown", notes=notes)
            code = 2
    payload = _verdict_payload(verdict)
    return code, [json.dumps(payload)], {
        "verdict": verdict.status,
        "certificate": payload,
        "provenance": "sufficiency-then-necessity-checks",
    }


def _cmd_poly_construct(args):
    L = parse_poly(args.linear)
    subsets = []
    for chunk in args.subsets.split("|"):
        subsets.append(tuple(_int_list(chunk)))
    result = polyreg.attach_products(L, subsets, args.n)
    lines = [str(result.poly), f"status: {result.verdict.status}"]
    return 0, lines, {
        "verdict": str(result.poly),
        "certificate": _verdict_payload(result.verdict),
        "provenance": "regular-linear-form-with-attached-products",
    }


def _cmd_poly_reciprocal(args):
    out = polyreg.reciprocal(parse_poly(args.expr), d=args.degree)
    return 0, [str(out)], {
        "verdict": str(out),
        "provenance": "degree-complement-exponent-flip",
    }


def _cmd_poly_transform(args):
    if args.negate == (args.power is not None):
        raise CliUsageError("give exactly one of --negate, --power")
    P = parse_poly(args.expr)
    if args.negate:
        result = polyreg.transform(P, "negate_vars")
    else:
        result = polyreg.transform(P, "power", z=args.power)
    lines = [str(result.poly), f"regularity transfers over: {result.pr_transfer_domain}"]
    return 0, lines, {
        "verdict": str(result.poly),
        "certificate": {"pr_transfer_domain": result.pr_transfer_domain},
        "provenance": "variable-wise-substitution",
    }


def _cmd_poly_expsum(args):
    verdict = polyreg.exp_sum_ipr(_int_list(args.left), _int_list(args.right))
    payload = _verdict_payload(verdict)
    code = 0 if verdict.status == "IPR_certified" else 2
    return code, [json.dumps(payload)], {
        "verdict": verdict.status,
        "certificate": payload,
        "provenance": "exponent-sum-comparison",
    }


def _cmd_poly_invariance(args):
    flags = polyreg.invariance(parse_poly(args.expr))
    pairs = (
        ("translation invariant", flags.translation_invariant),
        ("dilation invariant", flags.dilation_invariant),
        ("additive", flags.additive),
        ("multiplicative", flags.multiplicative),
    )
    lines = [f"{name}: {'yes' if val else 'no'}" for name, val in pairs]
    return 0, lines, {
        "verdict": {
            "translation_invariant": flags.translation_invariant,
            "dilation_invariant": flags.dilation_invariant,
            "additive": flags.additive,
            "multiplicative": flags.multiplicative,
        },
        "provenance": "symbolic-substitution-identities",
    }


# -- omega verbs -------------------------------------------------------------

def _cmd_omega_eval(args):
    t = omega_mod.parse_term(args.term)
    form = omega_mod.canonical(t)
    h = omega_mod.height(form)
    lines = [f"canonical: {form}", f"height: {h}"]
    return 0, lines, {
        "verdict": {"canonical": str(form), "height": h},
        "provenance": "star-depth-normal-form",
    }


def _cmd_omega_eq(args):
    s = omega_mod.parse_term(args.left)
    t = omega_mod.parse_term(args.right)
    equal = omega_mod.term_eq(s, t)
    lines = ["equal" if equal else "different"]
    return (0 if equal else 1), lines, {
        "verdict": bool(equal),
        "provenance": "star-depth-normal-form",
    }


def _cmd_omega_tensorized(args):
    terms = [omega_mod.parse_term(chunk) for chunk in args.terms.split(";")]
    out = omega_mod.tensorized(terms)
    lines = [str(t) for t in out]
    return 0, lines, {
        "verdict": [str(t) for t in out],
        "provenance": "cumulative-height-shifts",
    }


def _cmd_omega_rpair(args):
    a = omega_mod.parse_term(args.left)
    b = omega_mod.parse_term(args.right)
    ok = omega_mod.tensor_pair_R(a, b)
    lines = ["tensor pair" if ok else "not a tensor pair"]
    return (0 if ok else 1), lines, {
        "verdict": bool(ok),
        "provenance": "minimum-star-depth-threshold",
    }


def _cmd_omega_verify354(args):
    result = omega_mod.verify_table_construction(_int_list(args.c), _int_list(args.d))
    ok = result.zero_check and result.distinct_check
    lines = []
    for i, v in enumerate(result.xi, start=1):
        lines.append(f"xi_{i}  = {list(v)}")
    for j, v in enumerate(result.eta, start=1):
        lines.append(f"eta_{j} = {list(v)}")
    if args.ledger:
        lines.extend(line.text() for line in result.ledger)
    lines.append(f"zero check: {'pass' if result.zero_check else 'fail'}")
    lines.append(f"distinct check: {'pass' if result.distinct_check else 'fail'}")
    cert = {
        "xi": result.xi,
        "eta": result.eta,
        "ledger": [line.text() for line in result.ledger],
        "zero_check": result.zero_check,
        "distinct_check": result.distinct_check,
    }
    return (0 if ok else 1), lines, {
        "verdict": "balanced" if ok else "unbalanced",
        "certificate": cert,
        "provenance": "two-table-coefficient-construction",
    }


# -- embed verbs -------------------------------------------------------------

def _cmd_embed_fe(args):
    finite_pair = args.finite is not None or args.target is not None
    periodic_pair = args.periodic is not None or args.target_periodic is not None
    if finite_pair == periodic_pair:
        raise CliUsageError(
            "give either --finite with --in, or --periodic with --in-periodic"
        )
    if finite_pair:
        if args.finite is None or args.target is None:
            raise CliUsageError("--finite and --in go together")
        F = parse_finite(args.finite)
        B = parse_finite(args.target)
        n = embed_mod.fe_shift(F, B)
        if n is None:
            return 1, ["not embeddable"], {
                "verdict": "not-embeddable",
                "provenance": "least-shift-scan",
            }
        return 0, [f"embeds with shift {n}"], {
            "verdict": "embeddable",
            "certificate": {"shift": n},
            "provenance": "least-shift-scan",
        }
    if args.periodic is None or args.target_periodic is None:
        raise CliUsageError("--periodic and --in-periodic go together")
    A = parse_periodic(args.periodic)
    B = parse_periodic(args.target_periodic)
    ok = embed_mod.fe_periodic(A, B)
    lines = ["finitely embeddable" if ok else "not finitely embeddable"]
    return (0 if ok else 1), lines, {
        "verdict": bool(ok),
        "provenance": "residue-rotation-with-boundary-checks",
    }


def _cmd_embed_classify(args):
    flags = embed_mod.classify(parse_periodic(args.spec))
    pairs = (
        ("thick", flags.thick),
        ("syndetic", flags.syndetic),
        ("piecewise syndetic", flags.piecewise_syndetic),
        ("finite", flags.finite),
    )
    lines = [f"{name}: {'yes' if val else 'no'}" for name, val in pairs]
    return 0, lines, {
        "verdict": {
            "thick": flags.thick,
            "syndetic": flags.syndetic,
            "piecewise_syndetic": flags.piecewise_syndetic,
            "finite": flags.finite,
        },
        "provenance": "residue-set-analysis",
    }


def _cmd_embed_bd(args):
    density = embed_mod.bd(parse_periodic(args.spec))
    return 0, [f"banach density: {density}"], {
        "verdict": density,
        "provenance": "residue-count-over-period",
    }


def _cmd_embed_fmap(args):
    F = parse_finite(args.set)
    B = _parse_set_or_periodic(args.target)
    fam = _family_spec(args.family, args.bounds)
    got = embed_mod.fmap_witness(F, B, fam)
    bounds = _bounds_payload(fam)
    if not got.found():
        return 2, ["no witness within the declared bounds"], {
            "verdict": "none-within-bounds",
            "provenance": "bounded-family-parameter-scan",
            "bounds": bounds,
        }
    return 0, [f"witness: {fam.describe(got.params)}"], {
        "verdict": "witness",
        "certificate": {"params": got.params},
        "provenance": "bounded-family-parameter-scan",
        "bounds": bounds,
    }


def _cmd_embed_apmax(args):
    A = _parse_set_or_periodic(args.spec)
    ok = embed_mod.a_maximal_probe(A, args.len)
    lines = [
        f"contains a {args.len}-term progression" if ok else f"no {args.len}-term progression"
    ]
    return (0 if ok else 1), lines, {
        "verdict": bool(ok),
        "provenance": "windowed-progression-scan",
    }


def _cmd_embed_probe_family(args):
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
        return 2, ["no counterexample found within bounds"], {
            "verdict": "no-counterexample-within-bounds",
            "certificate": cert,
            "provenance": "bounded-closure-probe",
            "bounds": bounds,
        }
    return 0, lines, {
        "verdict": "counterexample",
        "certificate": cert,
        "provenance": "bounded-closure-probe",
        "bounds": bounds,
    }


# -- parser assembly ---------------------------------------------------------

def build_parser() -> _ArgumentParser:
    common = _ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON envelope")
    common.add_argument("--threads", type=int, default=1, help="worker count (results are identical for any value)")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized verbs")
    common.add_argument("--max-nodes", type=int, default=None, dest="max_nodes", help="total search node budget (>= 0)")

    root = _ArgumentParser(prog="prlab", description="partition regularity laboratory")
    sub = root.add_subparsers(dest="verb", metavar="verb")

    p = sub.add_parser("check-matrix", parents=[common], help="columns condition for an integer matrix")
    p.add_argument("file", help="matrix file, one row per line")
    p.set_defaults(handler=_cmd_check_matrix)

    p = sub.add_parser("check-linear", parents=[common], help="partition regularity of a homogeneous linear equation")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_check_linear)

    p = sub.add_parser("check-affine", parents=[common], help="partition regularity of a linear equation with constant term")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_check_affine)

    p = sub.add_parser("smod", parents=[common], help="super-modulo color of one number")
    p.add_argument("p", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler=_cmd_smod)

    p = sub.add_parser("blocking-prime", parents=[common], help="least prime whose super-modulo coloring blocks the coefficients")
    p.add_argument("coeffs")
    p.set_defaults(handler=_cmd_blocking_prime)

    p = sub.add_parser("parametric", parents=[common], help="two-parameter solution family over a zero-sum subset")
    p.add_argument("expr")
    p.add_argument("--subset", required=True, help="variable names or 1-based positions, comma-separated")
    p.set_defaults(handler=_cmd_parametric)

    ps = sub.add_parser("search", help="coloring searches")
    search_sub = ps.add_subparsers(dest="action", metavar="action")

    p = search_sub.add_parser("good-coloring", parents=[common], help="find a coloring with no monochromatic solution")
    _add_system_flags(p)
    p.add_argument("-n", type=int, required=True, help="interval end")
    p.add_argument("-r", type=int, required=True, help="number of colors")
    p.add_argument("--injective", action="store_true", help="only count solutions with distinct values")
    p.set_defaults(handler=_cmd_good_coloring)

    p = search_sub.add_parser("forcing-number", parents=[common], help="least n at which every coloring is forced")
    _add_system_flags(p)
    p.add_argument("-r", type=int, required=True)
    p.add_argument("--max", type=int, required=True, help="largest n to try")
    p.set_defaults(handler=_cmd_forcing_number)

    p = search_sub.add_parser("witness", parents=[common], help="least monochromatic solution under a given coloring")
    _add_system_flags(p)
    p.add_argument("--coloring", required=True, help="file with one line of 1-based colors for [1,n]")
    p.add_argument("--injective", action="store_true")
    p.set_defaults(handler=_cmd_witness)

    pv = sub.add_parser("vdw", help="progression extraction")
    vdw_sub = pv.add_subparsers(dest="action", metavar="action")
    p = vdw_sub.add_parser("extract325", parents=[common], help="monochromatic 3-term progression from a 2-coloring of [0,324]")
    p.add_argument("--coloring", required=True, help="file with one line of 325 colors (1 or 2)")
    p.set_defaults(handler=_cmd_vdw_extract)

    pf = sub.add_parser("folkman", help="finite sums and the membership matrix")
    folkman_sub = pf.add_subparsers(dest="action", metavar="action")

    p = folkman_sub.add_parser("fs", parents=[common], help="all nonempty subset sums")
    p.add_argument("set", help="comma-separated elements")
    p.set_defaults(handler=_cmd_folkman_fs)

    p = folkman_sub.add_parser("matrix", parents=[common], help="membership matrix for n generators")
    p.add_argument("n", type=int)
    p.add_argument("--check", action="store_true", help="also verify the columns condition")
    p.set_defaults(handler=_cmd_folkman_matrix)

    p = folkman_sub.add_parser("weak-mono", parents=[common], help="does the coloring make the subset sums weakly monochromatic")
    p.add_argument("--coloring", required=True)
    p.add_argument("--set", required=True)
    p.set_defaults(handler=_cmd_folkman_weak_mono)

    pp = sub.add_parser("poly", help="nonlinear partition regularity tools")
    poly_sub = pp.add_subparsers(dest="action", metavar="action")

    p = poly_sub.add_parser("reduct", parents=[common], help="replace each monomial by a fresh variable")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_poly_reduct)

    p = poly_sub.add_parser("exclusive", parents=[common], help="systems of variables private to each monomial")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_poly_exclusive)

    p = poly_sub.add_parser("check", parents=[common], help="sufficiency and necessity checks")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_poly_check)

    p = poly_sub.add_parser("construct3513", parents=[common], help="attach fresh-variable products to a regular linear form")
    p.add_argument("--linear", required=True)
    p.add_argument("--subsets", required=True, help='pipe-separated index lists, e.g. "1,2|1,2,3|3|1"')
    p.add_argument("-n", type=int, required=True, help="number of fresh variables")
    p.set_defaults(handler=_cmd_poly_construct)

    p = poly_sub.add_parser("reciprocal", parents=[common], help="reverse the exponent pattern of a homogeneous polynomial")
    p.add_argument("expr")
    p.add_argument("--degree", type=int, default=None)
    p.set_defaults(handler=_cmd_poly_reciprocal)

    p = poly_sub.add_parser("transform", parents=[common], help="regularity-preserving substitutions")
    p.add_argument("expr")
    p.add_argument("--negate", action="store_true", help="negate every variable")
    p.add_argument("--power", type=int, default=None, help="raise every variable to this power")
    p.set_defaults(handler=_cmd_poly_transform)

    p = poly_sub.add_parser("expsum", parents=[common], help="difference of power products, compared by exponent sums")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.set_defaults(handler=_cmd_poly_expsum)

    p = poly_sub.add_parser("invariance", parents=[common], help="structural invariance flags")
    p.add_argument("expr")
    p.set_defaults(handler=_cmd_poly_invariance)

    po = sub.add_parser("omega", help="star-calculus terms")
    omega_sub = po.add_subparsers(dest="action", metavar="action")

    p = omega_sub.add_parser("eval", parents=[common], help="canonical form and height")
    p.add_argument("term")
    p.set_defaults(handler=_cmd_omega_eval)

    p = omega_sub.add_parser("eq", parents=[common], help="term equality")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_omega_eq)

    p = omega_sub.add_parser("tensorized", parents=[common], help="height-shifted tuple")
    p.add_argument("terms", help="semicolon-separated terms")
    p.set_defaults(handler=_cmd_omega_tensorized)

    p = omega_sub.add_parser("rpair", parents=[common], help="tensor-pair test")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_omega_rpair)

    p = omega_sub.add_parser("verify354", parents=[common], help="two-table coefficient construction")
    p.add_argument("--c", required=True, help="comma-separated positive weights")
    p.add_argument("--d", required=True, help="comma-separated positive weights")
    p.add_argument("--ledger", action="store_true", help="print the per-depth coefficient identities")
    p.set_defaults(handler=_cmd_omega_verify354)

    pe = sub.add_parser("embed", help="embeddability, density, families")
    embed_sub = pe.add_subparsers(dest="action", metavar="action")

    p = embed_sub.add_parser("fe", parents=[common], help="finite embeddability")
    p.add_argument("--finite", help="finite pattern, comma-separated")
    p.add_argument("--in", dest="target", help="finite target, comma-separated")
    p.add_argument("--periodic", help="periodic pattern, p=..; residues={..} form")
    p.add_argument("--in-periodic", dest="target_periodic", help="periodic target")
    p.set_defaults(handler=_cmd_embed_fe)

    p = embed_sub.add_parser("classify", parents=[common], help="thick / syndetic / piecewise syndetic / finite")
    p.add_argument("spec")
    p.set_defaults(handler=_cmd_embed_classify)

    p = embed_sub.add_parser("bd", parents=[common], help="exact Banach density")
    p.add_argument("spec")
    p.set_defaults(handler=_cmd_embed_bd)

    p = embed_sub.add_parser("fmap", parents=[common], help="family-map witness search")
    p.add_argument("--set", required=True, help="finite pattern")
    p.add_argument("--in", dest="target", required=True, help="target set (finite or periodic)")
    p.add_argument("--family", required=True)
    p.add_argument("--bounds", default=None, help="e.g. a=1..10,b=0..20")
    p.set_defaults(handler=_cmd_embed_fmap)

    p = embed_sub.add_parser("apmax", parents=[common], help="progression probe")
    p.add_argument("spec", help="finite set or periodic spec")
    p.add_argument("--len", type=int, required=True)
    p.set_defaults(handler=_cmd_embed_apmax)

    p = embed_sub.add_parser("probe-family", parents=[common], help="closure counterexample probe")
    p.add_argument("--family", required=True)
    p.add_argument("--bounds", default=None)
    p.set_defaults(handler=_cmd_embed_probe_family)

    return root


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_usage(sys.stderr)
        return 3
    start = time.perf_counter()
    try:
        code, lines, env = handler(args)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except RecursionError:  # a RuntimeError subclass, so it must come first
        print("error: input nested too deeply", file=sys.stderr)
        return 3
    except (ValueError, OSError, RuntimeError) as exc:  # RuntimeError: failed internal check
        print(f"error: {exc}", file=sys.stderr)
        return 3
    timing = round((time.perf_counter() - start) * 1000, 3)
    if getattr(args, "json", False):
        envelope = {
            "verdict": _jsonable(env.get("verdict")),
            "certificate": _jsonable(env.get("certificate")),
            "provenance": env.get("provenance"),
            "timing_ms": timing,
            "bounds": _jsonable(env.get("bounds")),
        }
        print(json.dumps(envelope))
    else:
        for line in lines:
            print(line)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
