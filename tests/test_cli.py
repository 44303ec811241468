import contextlib
import io
import json

import pytest

import test_omega
from prlab import rado, search
from prlab.cli import main
from prlab.core.coloring import Coloring
from prlab.core.poly import parse_poly
from prlab.search import mono_witness, poly_system


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv + ["--json"])
    assert err == ""
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 1, "json mode must print exactly one envelope"
    return code, json.loads(lines[0])


ENVELOPE_KEYS = {"verdict", "certificate", "provenance", "timing_ms", "bounds"}


# -- exit-code contract ------------------------------------------------------

def test_regular_equation_exits_zero():
    code, out, _ = run(["check-linear", "x+y-z"])
    assert code == 0
    assert "partition regular: yes" in out


def test_irregular_equation_exits_one_with_blocking_prime():
    code, out, _ = run(["check-linear", "x+y-3*z"])
    assert code == 1
    assert "blocking prime: 5" in out


def test_undecided_polynomial_exits_two():
    code, out, _ = run(["poly", "check", "x+y-z^2"])
    assert code == 2
    payload = json.loads(out)
    assert payload["status"] == "unknown"


def test_usage_errors_exit_three():
    for argv in (
        ["no-such-verb"],
        ["check-linear"],
        ["poly"],
        ["search"],
        [],
        ["smod", "four", "10"],
        ["embed", "fe", "--finite", "1,2"],
        ["search", "good-coloring", "-n", "5", "-r", "2"],
        ["search", "good-coloring", "--poly", "x+y-z", "--ap", "3", "-n", "5", "-r", "2"],
    ):
        code, _, err = run(argv)
        assert code == 3, argv
        assert err != "", argv


def test_parse_errors_exit_three():
    for argv in (
        ["check-linear", "x+++y"],
        ["omega", "eval", "heart(a"],
        ["embed", "bd", "p=0; residues={0}"],
        ["blocking-prime", "1,beta"],
    ):
        code, _, err = run(argv)
        assert code == 3, argv
        assert "error:" in err


def test_missing_file_exits_three(tmp_path):
    code, _, err = run(["check-matrix", str(tmp_path / "nope.txt")])
    assert code == 3
    assert "error:" in err


# -- json envelope -----------------------------------------------------------

def test_envelope_has_exactly_the_five_keys():
    for argv in (
        ["check-linear", "x+y-z"],
        ["check-linear", "x+y-3*z"],
        ["smod", "3", "17"],
        ["poly", "check", "x+y-z^2"],
        ["omega", "eval", "heart(a,b)"],
        ["embed", "bd", "p=2; residues={0}"],
    ):
        _, env = run_json(argv)
        assert set(env) == ENVELOPE_KEYS, argv
        assert isinstance(env["timing_ms"], (int, float))
        assert isinstance(env["provenance"], str) and env["provenance"]


def test_bounded_verdicts_carry_their_bounds():
    code, env = run_json(
        ["search", "forcing-number", "--poly", "x+y-z", "-r", "4", "--max", "6"]
    )
    assert code == 2
    assert env["verdict"] == "not-forced-within-bound"
    assert env["bounds"]["max"] == 6
    assert env["bounds"]["max_nodes"] > 0

    code, env = run_json(
        ["embed", "fmap", "--set", "1,5", "--in", "2,3", "--family",
         "translation", "--bounds", "m=0..4"]
    )
    assert code == 2
    assert env["verdict"] == "none-within-bounds"
    assert env["bounds"]["m"] == [0, 4]


def test_budget_exhaustion_exits_two():
    code, env = run_json(
        ["search", "good-coloring", "--poly", "x+y-z", "-n", "30", "-r", "3",
         "--max-nodes", "5"]
    )
    assert code == 2
    assert env["verdict"] == "budget-exceeded"
    assert env["bounds"]["max_nodes"] == 5


def test_zero_node_budget_is_reported_as_zero():
    code, env = run_json(
        ["search", "good-coloring", "--poly", "x+y-z", "-n", "12", "-r", "2",
         "--max-nodes", "0"]
    )
    assert code == 2
    assert env["verdict"] == "budget-exceeded"
    assert env["bounds"]["max_nodes"] == 0


def test_negative_node_budget_exits_three():
    for verb in (["good-coloring", "-n", "12"], ["forcing-number", "--max", "12"]):
        code, out, err = run(
            ["search", *verb, "--poly", "x+y-z", "-r", "2", "--max-nodes", "-5"]
        )
        assert code == 3, verb
        assert out == ""
        assert err.startswith("error:")


def test_zero_colors_exit_three():
    for verb in (["good-coloring", "-n", "5"], ["forcing-number", "--max", "5"]):
        code, out, err = run(["search", *verb, "--poly", "x+y-z", "-r", "0"])
        assert code == 3, verb
        assert out == ""
        assert err == "error: need at least one color\n"


def test_forcing_number_budget_is_total_across_the_sweep():
    # each n alone stays under 300 nodes; the sweep up to 14 takes more
    code, env = run_json(
        ["search", "forcing-number", "--poly", "x+y-z", "-r", "3", "--max", "14",
         "--max-nodes", "300"]
    )
    assert code == 2
    assert env["verdict"] == "budget-exceeded"
    assert env["bounds"]["max_nodes"] == 300


def test_deep_coloring_search_returns_all_ones(tmp_path):
    # x + y = 3000 z has no solution in [1, 1200]
    path = tmp_path / "deep.txt"
    path.write_text("1 1 -3000\n")
    code, env = run_json(
        ["search", "good-coloring", "--matrix", str(path), "-n", "1200", "-r", "2"]
    )
    assert code == 0
    assert env["verdict"] == "good-coloring"
    assert env["certificate"]["colors"] == [1] * 1200


def test_internal_check_failure_exits_three(monkeypatch, tmp_path):
    def fail(coloring, index):
        raise RuntimeError("internal check failed: planted")

    monkeypatch.setattr(search, "_check_good_coloring", fail)
    for extra in ([], ["--json"]):
        code, out, err = run(
            ["search", "good-coloring", "--poly", "x+y-z", "-n", "4", "-r", "2", *extra]
        )
        assert code == 3, extra
        assert out == ""
        assert err == "error: internal check failed: planted\n"

    # a columns certificate that fails its re-check
    monkeypatch.setattr(rado, "verify_columns_certificate", lambda M, cert: False)
    path = tmp_path / "m.txt"
    path.write_text("1 1 -1\n")
    code, out, err = run(["check-matrix", str(path)])
    assert code == 3
    assert out == ""
    assert err.startswith("error: internal check failed: ")


def test_deeply_nested_omega_term_exits_three():
    code, out, err = run(["omega", "eval", "(" * 2000 + "a" + ")" * 2000])
    assert code == 3
    assert out == ""
    assert err == "error: input nested too deeply\n"


def test_retired_threads_and_seed_flags_exit_three():
    # --max-nodes too: only the two search verbs take it
    for flag in (["--threads", "4"], ["--seed", "7"], ["--max-nodes", "-5"]):
        code, out, err = run(["check-linear", "x+y-z", *flag])
        assert code == 3, flag
        assert out == ""
        assert err == f"error: unrecognized arguments: {' '.join(flag)}\n"


def test_forcing_number_bound_below_one_exits_three():
    for bound in ("0", "-3"):
        code, out, err = run(
            ["search", "forcing-number", "--ap", "3", "-r", "2", "--max", bound]
        )
        assert code == 3, bound
        assert out == ""
        assert err == "error: bound must be >= 1\n"


# -- matrix and linear verbs -------------------------------------------------

def test_check_matrix_certificate_round_trip(tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("1 1 -1\n")
    code, env = run_json(["check-matrix", str(f)])
    assert code == 0
    assert env["verdict"] == "columns-condition-satisfied"
    assert env["certificate"]["blocks"][0] == [1, 3]

    g = tmp_path / "bad.txt"
    g.write_text("2 3\n")
    code, env = run_json(["check-matrix", str(g)])
    assert code == 1
    assert env["verdict"] == "columns-condition-failed"


def test_affine_verdicts():
    code, out, _ = run(["check-affine", "x+y-z+3"])
    assert code == 0
    code, out, _ = run(["check-affine", "x+y-3*z+1"])
    assert code == 0
    code, _, _ = run(["check-affine", "x-y+1"])
    assert code == 1


def test_smod_color_value():
    code, out, _ = run(["smod", "5", "50"])
    assert code == 0
    assert "2" in out
    _, env = run_json(["smod", "5", "50"])
    assert env["verdict"] == 2


def test_blocking_prime_verdicts():
    code, out, _ = run(["blocking-prime", "1,1,-3"])
    assert code == 0 and "5" in out
    code, out, _ = run(["blocking-prime", "1,2,-3"])
    assert code == 1


def test_parametric_family_is_reported():
    code, env = run_json(["parametric", "2*x+3*y-5*z", "--subset", "1,2,3"])
    assert code == 0
    cert = env["certificate"]
    assert cert["j_vars"] == ["x", "y", "z"]
    # full zero-sum subset collapses to the constant solution
    assert cert["zs"] == [0, 0, 0]

    code, out, _ = run(["parametric", "x-y+3*z", "--subset", "x,y"])
    assert code == 0
    assert "*b" in out


# -- search verbs ------------------------------------------------------------

def test_good_coloring_output_is_verified_good():
    code, out, _ = run(["search", "good-coloring", "--poly", "x+y-z", "-n", "4", "-r", "2"])
    assert code == 0
    values = [int(t) for t in out.splitlines()[0].split(":")[1].split()]
    coloring = Coloring(1, values)
    assert mono_witness(coloring, poly_system(parse_poly("x+y-z"))) is None


def test_forced_interval_exits_one():
    code, out, _ = run(["search", "good-coloring", "--poly", "x+y-z", "-n", "5", "-r", "2"])
    assert code == 1
    assert "forced" in out


def test_forcing_numbers_via_cli():
    code, out, _ = run(["search", "forcing-number", "--poly", "x+y-z", "-r", "2", "--max", "10"])
    assert code == 0
    assert "forcing number: 5" in out
    code, env = run_json(["search", "forcing-number", "--ap", "3", "-r", "2", "--max", "12"])
    assert code == 0
    assert env["verdict"] == 9


def test_witness_verb(tmp_path):
    f = tmp_path / "c.txt"
    f.write_text("1 1 2 2 1\n")
    code, out, _ = run(["search", "witness", "--poly", "x+y-z", "--coloring", str(f)])
    assert code == 0
    assert "[1, 1, 2]" in out

    g = tmp_path / "good.txt"
    g.write_text("1 2 2 1\n")
    code, out, _ = run(["search", "witness", "--poly", "x+y-z", "--coloring", str(g)])
    assert code == 1


def test_vdw_extraction_verb(tmp_path):
    values = [(1 if (n % 5) in (0, 2) else 2) for n in range(325)]
    f = tmp_path / "v.txt"
    f.write_text(" ".join(str(v) for v in values) + "\n")
    code, env = run_json(["vdw", "extract325", "--coloring", str(f)])
    assert code == 0
    x, y, z = env["certificate"]["triple"]
    assert y - x == z - y > 0
    assert values[x] == values[y] == values[z]


# -- folkman verbs -----------------------------------------------------------

def test_folkman_fs_verb():
    code, out, _ = run(["folkman", "fs", "1,2,4"])
    assert code == 0
    assert "{1,2,3,4,5,6,7}" in out


def test_folkman_matrix_verb_with_check():
    code, out, _ = run(["folkman", "matrix", "2", "--check"])
    assert code == 0
    rows = [r for r in out.splitlines() if r and "columns" not in r]
    assert len(rows) == 3  # 2^2 - 1 rows
    assert "columns condition: satisfied" in out


def test_folkman_weak_mono_verb(tmp_path):
    f = tmp_path / "c.txt"
    f.write_text("1 1 1\n")
    code, _, _ = run(["folkman", "weak-mono", "--coloring", str(f), "--set", "1,2"])
    assert code == 0
    g = tmp_path / "d.txt"
    g.write_text("1 1 2 2 1\n")
    code, _, _ = run(["folkman", "weak-mono", "--coloring", str(g), "--set", "1,2"])
    assert code == 1


# -- poly verbs --------------------------------------------------------------

def test_poly_reduct_and_exclusive():
    code, out, _ = run(["poly", "reduct", "x^2*y + 3*z^3"])
    assert code == 0
    assert out.strip() == "y1+3*y2"
    code, out, _ = run(["poly", "exclusive", "x*y + y*z - w"])
    assert code == 0
    assert "x" in out and "w" in out


def test_poly_check_json_statuses():
    code, env = run_json(["poly", "check", "x+y-z"])
    assert code == 0
    assert env["verdict"] == "IPR_certified"
    code, env = run_json(["poly", "check", "x+y-3*z"])
    assert code == 1
    assert env["verdict"] == "not_PR_certified"
    code, env = run_json(["poly", "check", "x+y-z^2"])
    assert code == 2
    assert env["verdict"] == "unknown"


def test_poly_construct_verb():
    code, out, _ = run([
        "poly", "construct3513", "--linear", "x1+x2+x3-x4",
        "--subsets", "1,2|1,2,3|3|1", "-n", "3",
    ])
    assert code == 0
    assert out.splitlines()[0] == "x1*y1*y2+x2*y1*y2*y3+x3*y3-x4*y1"
    assert "IPR_certified" in out


def test_poly_reciprocal_verb():
    code, out, _ = run(["poly", "reciprocal", "x^3 + x*y^2 - z^3"])
    assert code == 0
    assert out.strip() == "y^3*z^3+x^2*y*z^3-x^3*y^3"


def test_poly_transform_verb():
    code, out, _ = run(["poly", "transform", "x+y-z", "--power", "2"])
    assert code == 0
    assert out.splitlines()[0] == "x^2+y^2-z^2"
    assert "R+" in out
    code, out, _ = run(["poly", "transform", "x*y-z", "--negate"])
    assert code == 0
    assert "Z" in out.splitlines()[1]
    code, _, err = run(["poly", "transform", "x+y", "--negate", "--power", "2"])
    assert code == 3


def test_poly_expsum_verb():
    code, env = run_json(["poly", "expsum", "--left", "1,2", "--right", "3"])
    assert code == 0
    assert env["verdict"] == "IPR_certified"
    code, env = run_json(["poly", "expsum", "--left", "1,2", "--right", "4"])
    assert code == 2
    assert env["verdict"] == "unknown"


def test_poly_invariance_verb():
    code, out, _ = run(["poly", "invariance", "x+y-z"])
    assert code == 0
    assert "dilation invariant: yes" in out
    assert "additive: yes" in out


# -- omega verbs -------------------------------------------------------------

def test_omega_eval_verb():
    code, out, _ = run(["omega", "eval", "heart(a, S1(b)) * 3"])
    assert code == 0
    assert "canonical: 3*a+3*S2(b)" in out
    assert "height: 3" in out


def test_omega_eq_verb():
    code, _, _ = run(["omega", "eq", "1+2", "3"])
    assert code == 0
    code, _, _ = run(["omega", "eq", "a+b", "b"])
    assert code == 1
    code, _, _ = run(["omega", "eq", "heart(a,3)", "a+3"])
    assert code == 0


def test_omega_tensorized_verb():
    code, out, _ = run(["omega", "tensorized", "a;b;c"])
    assert code == 0
    assert out.splitlines() == ["a", "S1(b)", "S2(c)"]


def test_omega_rpair_verb():
    code, _, _ = run(["omega", "rpair", "a", "S1(b)"])
    assert code == 0
    code, _, _ = run(["omega", "rpair", "S1(a)", "b"])
    assert code == 1
    code, _, _ = run(["omega", "rpair", "a", "7"])
    assert code == 0


def test_table_verification_ledger_matches_anchors():
    code, out, _ = run(
        ["omega", "verify354", "--c", "3,2,4", "--d", "1,8", "--ledger"]
    )
    assert code == 0
    lines = out.splitlines()
    for anchor in test_omega.LEDGER_ANCHORS:
        assert anchor in lines
    assert "zero check: pass" in lines
    assert "distinct check: pass" in lines


def test_table_verification_envelope():
    code, env = run_json(["omega", "verify354", "--c", "3,2,4", "--d", "1,8"])
    assert code == 0
    assert env["verdict"] == "balanced"
    assert env["certificate"]["zero_check"] is True
    assert env["certificate"]["distinct_check"] is True
    assert env["certificate"]["xi"][0] == [3, 5, 5, 2, 2, 6, 1, 1, 9]


# -- embed verbs -------------------------------------------------------------

def test_embed_fe_finite_verb():
    code, out, _ = run(["embed", "fe", "--finite", "1,3", "--in", "2,4"])
    assert code == 0
    assert "shift 1" in out
    code, _, _ = run(["embed", "fe", "--finite", "1,3", "--in", "2,5"])
    assert code == 1


def test_embed_fe_periodic_verb():
    code, _, _ = run([
        "embed", "fe",
        "--periodic", "p=2; residues={1}",
        "--in-periodic", "p=2; residues={0}",
    ])
    assert code == 0
    code, _, _ = run([
        "embed", "fe",
        "--periodic", "p=1; residues={0}",
        "--in-periodic", "p=2; residues={1}",
    ])
    assert code == 1


def test_embed_fe_rejects_mixed_flags():
    code, _, err = run([
        "embed", "fe", "--finite", "1,2", "--in-periodic", "p=2; residues={0}",
    ])
    assert code == 3


def test_embed_classify_verb():
    code, out, _ = run(["embed", "classify", "p=4; residues={0,1}"])
    assert code == 0
    assert "thick: no" in out
    assert "syndetic: yes" in out
    _, env = run_json(["embed", "classify", "p=3; residues={}; t=2; prefix={0}"])
    assert env["verdict"]["finite"] is True


def test_embed_bd_verb():
    code, out, _ = run(["embed", "bd", "p=5; residues={0,1,2}"])
    assert code == 0
    assert "3/5" in out
    _, env = run_json(["embed", "bd", "p=2; residues={0}"])
    assert env["verdict"] == "1/2"


def test_embed_fmap_verb():
    code, out, _ = run([
        "embed", "fmap", "--set", "1,2,3", "--in", "5,7,9,11",
        "--family", "affinity", "--bounds", "a=1..10,b=0..20",
    ])
    assert code == 0
    assert "a=2, b=3" in out


def test_embed_fmap_periodic_target():
    code, out, _ = run([
        "embed", "fmap", "--set", "0,1,2,3", "--in", "p=2; residues={1}",
        "--family", "affinity", "--bounds", "a=1..4,b=0..4",
    ])
    assert code == 0
    assert "a=2, b=1" in out


def test_embed_apmax_verb():
    code, _, _ = run(["embed", "apmax", "1,2,4,8,16", "--len", "3"])
    assert code == 1
    code, _, _ = run(["embed", "apmax", "p=1; residues={0}", "--len", "6"])
    assert code == 0


def test_embed_probe_family_verb():
    code, out, _ = run(["embed", "probe-family", "--family", "exponential"])
    assert code == 0
    assert "transitivity counterexample" in out
    code, out, _ = run(["embed", "probe-family", "--family", "translation"])
    assert code == 2
    assert "no counterexample" in out


def test_embed_unknown_family_exits_three():
    code, _, err = run(["embed", "probe-family", "--family", "spiral"])
    assert code == 3
    assert "unknown family" in err


def test_bounds_parsing_errors():
    code, _, err = run([
        "embed", "fmap", "--set", "1", "--in", "1,2", "--family",
        "translation", "--bounds", "m=x..3",
    ])
    assert code == 3
    code, _, err = run([
        "embed", "fmap", "--set", "1", "--in", "1,2", "--family",
        "translation", "--bounds", "q=1..3",
    ])
    assert code == 3
    assert "unknown parameter" in err


# -- exact output of every verb ----------------------------------------------

# An argv item "@name" stands for the file FILES[name] in a temporary directory
# ("@missing" names no file, "@dir" a directory).  Each EXACT row gives the
# exit code, the text-mode stdout and the --json envelope without timing_ms
# (None when stdout stays empty).
FILES = {
    "sum": "1 1 -1\n",
    "bad": "2 3\n",
    "pairs13": " ".join(["1 -1"] * 6) + " 0\n" + " ".join(["0"] * 12) + " 1\n",
    "c5": "1 1 2 2 1\n",
    "good4": "1 2 2 1\n",
    "c111": "1 1 1\n",
    "c325": " ".join("1" if n % 5 in (0, 2) else "2" for n in range(325)) + "\n",
}

VERB_PATHS = {
    "check-matrix", "check-linear", "check-affine", "smod", "blocking-prime", "parametric",
    "search good-coloring", "search forcing-number", "search witness", "vdw extract325",
    "folkman fs", "folkman matrix", "folkman weak-mono",
    "poly reduct", "poly exclusive", "poly check", "poly construct3513", "poly reciprocal",
    "poly transform", "poly expsum", "poly invariance",
    "omega eval", "omega eq", "omega tensorized", "omega rpair", "omega verify354",
    "embed fe", "embed classify", "embed bd", "embed fmap", "embed apmax", "embed probe-family",
}

EXACT = [
    (['check-matrix', '@sum'],
     0,
     'columns condition: satisfied\n'
     'block 1: columns [1, 3]\n'
     "block 2: columns [2]  via ('1', '0')\n",
     {'verdict': 'columns-condition-satisfied',
      'certificate': {'blocks': [[1, 3], [2]], 'combinations': [['1', '0']]},
      'provenance': 'ordered-block-partition-search',
      'bounds': None}),
    (['check-matrix', '@bad'],
     1,
     'columns condition: not satisfied\n',
     {'verdict': 'columns-condition-failed',
      'certificate': None,
      'provenance': 'ordered-block-partition-search',
      'bounds': None}),
    (['check-matrix', '@pairs13'],
     1,
     'columns condition: not satisfied\n',
     {'verdict': 'columns-condition-failed',
      'certificate': None,
      'provenance': 'ordered-block-partition-search',
      'bounds': None}),
    (['check-matrix', '@missing'], 3, '', None),
    (['check-linear', 'x+y-z'],
     0,
     "partition regular: yes\nzero-sum subset: ['x', 'z']\n",
     {'verdict': 'partition-regular',
      'certificate': {'zero_sum_subset': ['x', 'z']},
      'provenance': 'zero-sum-subset-criterion',
      'bounds': None}),
    (['check-linear', 'x+y-3*z'],
     1,
     'partition regular: no\nblocking prime: 5\n',
     {'verdict': 'not-partition-regular',
      'certificate': {'blocking_prime': 5},
      'provenance': 'zero-sum-subset-criterion',
      'bounds': None}),
    (['check-linear', 'x+++y'], 3, '', None),
    (['check-affine', 'x+y-z+3'],
     0,
     'partition regular: yes\n'
     'route: integer-shift-with-zero-sum-subset\n'
     "shift z = -3, zero-sum subset ['x', 'z']\n",
     {'verdict': 'partition-regular',
      'certificate': {'route': 'integer-shift-with-zero-sum-subset',
                      'z': -3,
                      'zero_sum_subset': ['x', 'z']},
      'provenance': 'affine-two-route-criterion',
      'bounds': None}),
    (['check-affine', 'x+y-3*z+1'],
     0,
     'partition regular: yes\n'
     'route: constant-solution\n'
     'constant solution: every variable = 1\n',
     {'verdict': 'partition-regular',
      'certificate': {'route': 'constant-solution', 'k': 1},
      'provenance': 'affine-two-route-criterion',
      'bounds': None}),
    (['check-affine', 'x-y+1'],
     1,
     'partition regular: no\n',
     {'verdict': 'not-partition-regular',
      'certificate': None,
      'provenance': 'affine-two-route-criterion',
      'bounds': None}),
    (['smod', '5', '50'],
     0,
     'smod(5) color of 50: 2\n',
     {'verdict': 2,
      'certificate': None,
      'provenance': 'strip-prime-powers-then-reduce',
      'bounds': None}),
    (['smod', '4', '10'], 3, '', None),
    (['blocking-prime', '1,1,-3'],
     0,
     'blocking prime: 5\n',
     {'verdict': 5,
      'certificate': None,
      'provenance': 'subset-sum-scan-over-primes',
      'bounds': None}),
    (['blocking-prime', '1,2,-3'],
     1,
     'no blocking prime: some subset of the coefficients sums to zero\n',
     {'verdict': 'no-blocking-prime',
      'certificate': None,
      'provenance': 'subset-sum-scan-over-primes',
      'bounds': None}),
    (['blocking-prime', '1,beta'], 3, '', None),
    (['parametric', '2*x+3*y-5*z', '--subset', '1,2,3'],
     0,
     'family over parameters (a, b), c = 1, m = 1, z = 0:\n  x = a\n  y = a\n  z = a\n',
     {'verdict': 'parametric-family',
      'certificate': {'j_vars': ['x', 'y', 'z'],
                      'zs': [0, 0, 0],
                      'm': 1,
                      'c': 1,
                      'd': 0,
                      'z': 0},
      'provenance': 'bezout-multipliers-on-zero-sum-subset',
      'bounds': None}),
    (['parametric', 'x-y+3*z', '--subset', 'x,y'],
     0,
     'family over parameters (a, b), c = 1, m = 1, z = -3:\n'
     '  x = a\n'
     '  y = a + 3*b\n'
     '  z = 1*b\n',
     {'verdict': 'parametric-family',
      'certificate': {'j_vars': ['x', 'y'], 'zs': [0, 3], 'm': 1, 'c': 1, 'd': 3, 'z': -3},
      'provenance': 'bezout-multipliers-on-zero-sum-subset',
      'bounds': None}),
    (['parametric', 'x+y-z', '--subset', '4'], 3, '', None),
    (['search', 'good-coloring', '--poly', 'x+y-z', '-n', '4', '-r', '2'],
     0,
     'good coloring found: 1 2 2 1\n  color 1: [1, 4]\n  color 2: [2, 3]\n',
     {'verdict': 'good-coloring',
      'certificate': {'colors': [1, 2, 2, 1]},
      'provenance': 'backtracking-coloring-search',
      'bounds': {'max_nodes': 100000000, 'n': 4, 'r': 2}}),
    (['search', 'good-coloring', '--poly', 'x+y-z', '-n', '5', '-r', '2'],
     1,
     'forced: every 2-coloring of [1,5] has a monochromatic solution\n',
     {'verdict': 'forced',
      'certificate': None,
      'provenance': 'backtracking-coloring-search',
      'bounds': {'max_nodes': 100000000, 'n': 5, 'r': 2}}),
    (['search', 'good-coloring', '--poly', 'x+y-z', '-n', '30', '-r', '3', '--max-nodes', '5'],
     2,
     'search exhausted the node budget after 6 nodes\n',
     {'verdict': 'budget-exceeded',
      'certificate': None,
      'provenance': 'backtracking-coloring-search',
      'bounds': {'max_nodes': 5, 'n': 30, 'r': 3}}),
    (['search', 'good-coloring', '--matrix', '@sum', '-n', '8', '-r', '2', '--injective'],
     0,
     'good coloring found: 1 1 2 1 2 2 2 1\n  color 1: [1, 2, 4, 8]\n  color 2: [3, 5, 6, 7]\n',
     {'verdict': 'good-coloring',
      'certificate': {'colors': [1, 1, 2, 1, 2, 2, 2, 1]},
      'provenance': 'backtracking-coloring-search',
      'bounds': {'max_nodes': 100000000, 'n': 8, 'r': 2}}),
    (['search', 'good-coloring', '--ap', '3', '-n', '8', '-r', '2'],
     0,
     'good coloring found: 1 1 2 2 1 1 2 2\n  color 1: [1, 2, 5, 6]\n  color 2: [3, 4, 7, 8]\n',
     {'verdict': 'good-coloring',
      'certificate': {'colors': [1, 1, 2, 2, 1, 1, 2, 2]},
      'provenance': 'backtracking-coloring-search',
      'bounds': {'max_nodes': 100000000, 'n': 8, 'r': 2}}),
    (['search', 'good-coloring', '--ap', '3', '-n', '0', '-r', '2'], 3, '', None),
    (['search', 'good-coloring', '--poly', 'x+y-z', '--ap', '3', '-n', '5', '-r', '2'],
     3,
     '',
     None),
    (['search', 'forcing-number', '--poly', 'x+y-z', '-r', '2', '--max', '10'],
     0,
     'forcing number: 5\n',
     {'verdict': 5,
      'certificate': None,
      'provenance': 'incremental-forcing-search',
      'bounds': {'max_nodes': 100000000, 'r': 2, 'max': 10}}),
    (['search', 'forcing-number', '--ap', '3', '-r', '2', '--max', '12'],
     0,
     'forcing number: 9\n',
     {'verdict': 9,
      'certificate': None,
      'provenance': 'incremental-forcing-search',
      'bounds': {'max_nodes': 100000000, 'r': 2, 'max': 12}}),
    (['search', 'forcing-number', '--poly', 'x+y-z', '-r', '4', '--max', '6'],
     2,
     'no forcing number up to 6\n',
     {'verdict': 'not-forced-within-bound',
      'certificate': None,
      'provenance': 'incremental-forcing-search',
      'bounds': {'max_nodes': 100000000, 'r': 4, 'max': 6}}),
    (['search',
      'forcing-number',
      '--poly',
      'x+y-z',
      '-r',
      '3',
      '--max',
      '14',
      '--max-nodes',
      '300'],
     2,
     'search exhausted the node budget after 301 nodes\n',
     {'verdict': 'budget-exceeded',
      'certificate': None,
      'provenance': 'incremental-forcing-search',
      'bounds': {'max_nodes': 300, 'r': 3, 'max': 14}}),
    (['search', 'forcing-number', '--ap', '3', '-r', '2', '--max', '0'], 3, '', None),
    (['search', 'forcing-number', '--ap', '3', '-r', '2', '--max', '-3'], 3, '', None),
    (['search', 'witness', '--poly', 'x+y-z', '--coloring', '@c5'],
     0,
     'monochromatic solution: [1, 1, 2]\n',
     {'verdict': 'witness',
      'certificate': {'values': [1, 1, 2]},
      'provenance': 'per-class-least-witness-search',
      'bounds': None}),
    (['search', 'witness', '--poly', 'x+y-z', '--coloring', '@good4'],
     1,
     'no monochromatic solution: the coloring is good\n',
     {'verdict': 'no-witness',
      'certificate': None,
      'provenance': 'per-class-least-witness-search',
      'bounds': None}),
    (['search', 'witness', '--matrix', '@sum', '--coloring', '@c5', '--injective'],
     1,
     'no monochromatic solution: the coloring is good\n',
     {'verdict': 'no-witness',
      'certificate': None,
      'provenance': 'per-class-least-witness-search',
      'bounds': None}),
    (['vdw', 'extract325', '--coloring', '@c325'],
     0,
     'monochromatic progression: 4, 9, 14 (color 2)\n',
     {'verdict': 'progression',
      'certificate': {'triple': [4, 9, 14], 'color': 2},
      'provenance': 'block-pattern-case-analysis',
      'bounds': None}),
    (['folkman', 'fs', '1,2,4'],
     0,
     'FS({1,2,4}) = {1,2,3,4,5,6,7}\n',
     {'verdict': [1, 2, 3, 4, 5, 6, 7],
      'certificate': None,
      'provenance': 'incremental-subset-sums',
      'bounds': None}),
    (['folkman', 'matrix', '2'],
     0,
     '1 0 -1 0 0\n0 1 0 -1 0\n1 1 0 0 -1\n',
     {'verdict': 'matrix',
      'certificate': {'entries': [[1, 0, -1, 0, 0], [0, 1, 0, -1, 0], [1, 1, 0, 0, -1]]},
      'provenance': 'membership-columns-with-negated-identity',
      'bounds': None}),
    (['folkman', 'matrix', '2', '--check'],
     0,
     '1 0 -1 0 0\n0 1 0 -1 0\n1 1 0 0 -1\ncolumns condition: satisfied\n',
     {'verdict': 'matrix',
      'certificate': {'entries': [[1, 0, -1, 0, 0], [0, 1, 0, -1, 0], [1, 1, 0, 0, -1]],
                      'columns_condition': True},
      'provenance': 'membership-columns-with-negated-identity',
      'bounds': None}),
    (['folkman', 'weak-mono', '--coloring', '@c111', '--set', '1,2'],
     0,
     'weakly monochromatic: yes\n',
     {'verdict': True,
      'certificate': None,
      'provenance': 'prefix-sum-color-walk',
      'bounds': None}),
    (['folkman', 'weak-mono', '--coloring', '@c5', '--set', '1,2'],
     1,
     'weakly monochromatic: no\n',
     {'verdict': False,
      'certificate': None,
      'provenance': 'prefix-sum-color-walk',
      'bounds': None}),
    (['poly', 'reduct', 'x^2*y + 3*z^3'],
     0,
     'y1+3*y2\n',
     {'verdict': 'y1+3*y2',
      'certificate': None,
      'provenance': 'fresh-variable-per-monomial',
      'bounds': None}),
    (['poly', 'exclusive', 'x*y + y*z - w'],
     0,
     'exclusive variable sets:\n  {w, x, z}\n',
     {'verdict': [['w', 'x', 'z']],
      'certificate': None,
      'provenance': 'per-monomial-private-variables',
      'bounds': None}),
    (['poly', 'exclusive', 'x^2 + x'],
     0,
     'no exclusive variable sets\n',
     {'verdict': [],
      'certificate': None,
      'provenance': 'per-monomial-private-variables',
      'bounds': None}),
    (['poly', 'check', 'x+y-z'],
     0,
     '{"status": "IPR_certified", "method": "exclusive-variables-with-regular-reduct", '
     '"certificate": {"exclusive_variables": ["x", "y", "z"], "reduct": "y1+y2-y3", '
     '"zero_sum_subset": ["y1", "y3"]}, "notes": []}\n',
     {'verdict': 'IPR_certified',
      'certificate': {'status': 'IPR_certified',
                      'method': 'exclusive-variables-with-regular-reduct',
                      'certificate': {'exclusive_variables': ['x', 'y', 'z'],
                                      'reduct': 'y1+y2-y3',
                                      'zero_sum_subset': ['y1', 'y3']},
                      'notes': []},
      'provenance': 'sufficiency-then-necessity-checks',
      'bounds': None}),
    (['poly', 'check', 'x+y-3*z'],
     1,
     '{"status": "not_PR_certified", "method": "homogeneous-reduct-blocking", "certificate": '
     '{"reduct": "y1+y2-3*y3", "blocking_prime": 5}, "notes": []}\n',
     {'verdict': 'not_PR_certified',
      'certificate': {'status': 'not_PR_certified',
                      'method': 'homogeneous-reduct-blocking',
                      'certificate': {'reduct': 'y1+y2-3*y3', 'blocking_prime': 5},
                      'notes': []},
      'provenance': 'sufficiency-then-necessity-checks',
      'bounds': None}),
    (['poly', 'check', 'x+y-z^2'],
     2,
     '{"status": "unknown", "method": null, "certificate": {}, "notes": ["a variable occurs '
     'with power > 1", "not homogeneous"]}\n',
     {'verdict': 'unknown',
      'certificate': {'status': 'unknown',
                      'method': None,
                      'certificate': {},
                      'notes': ['a variable occurs with power > 1', 'not homogeneous']},
      'provenance': 'sufficiency-then-necessity-checks',
      'bounds': None}),
    (['poly',
      'construct3513',
      '--linear',
      'x1+x2+x3-x4',
      '--subsets',
      '1,2|1,2,3|3|1',
      '-n',
      '3'],
     0,
     'x1*y1*y2+x2*y1*y2*y3+x3*y3-x4*y1\nstatus: IPR_certified\n',
     {'verdict': 'x1*y1*y2+x2*y1*y2*y3+x3*y3-x4*y1',
      'certificate': {'status': 'IPR_certified',
                      'method': 'exclusive-variables-with-regular-reduct',
                      'certificate': {'exclusive_variables': ['x1', 'x2', 'x3', 'x4'],
                                      'reduct': 'y1+y2+y3-y4',
                                      'zero_sum_subset': ['y1', 'y4']},
                      'notes': []},
      'provenance': 'regular-linear-form-with-attached-products',
      'bounds': None}),
    (['poly', 'reciprocal', 'x^3 + x*y^2 - z^3'],
     0,
     'y^3*z^3+x^2*y*z^3-x^3*y^3\n',
     {'verdict': 'y^3*z^3+x^2*y*z^3-x^3*y^3',
      'certificate': None,
      'provenance': 'degree-complement-exponent-flip',
      'bounds': None}),
    (['poly', 'reciprocal', 'x^3 + x*y^2 - z^3', '--degree', '3'],
     0,
     'y^3*z^3+x^2*y*z^3-x^3*y^3\n',
     {'verdict': 'y^3*z^3+x^2*y*z^3-x^3*y^3',
      'certificate': None,
      'provenance': 'degree-complement-exponent-flip',
      'bounds': None}),
    (['poly', 'reciprocal', 'x*y - z^2', '--degree', '3'], 3, '', None),
    (['poly', 'transform', 'x+y-z', '--power', '2'],
     0,
     'x^2+y^2-z^2\nregularity transfers over: R+\n',
     {'verdict': 'x^2+y^2-z^2',
      'certificate': {'pr_transfer_domain': 'R+'},
      'provenance': 'variable-wise-substitution',
      'bounds': None}),
    (['poly', 'transform', 'x*y-z', '--negate'],
     0,
     'x*y+z\nregularity transfers over: Z\n',
     {'verdict': 'x*y+z',
      'certificate': {'pr_transfer_domain': 'Z'},
      'provenance': 'variable-wise-substitution',
      'bounds': None}),
    (['poly', 'transform', 'x+y'], 3, '', None),
    (['poly', 'expsum', '--left', '1,2', '--right', '3'],
     0,
     '{"status": "IPR_certified", "method": "equal-exponent-sums", "certificate": {"sum": 3}, '
     '"notes": []}\n',
     {'verdict': 'IPR_certified',
      'certificate': {'status': 'IPR_certified',
                      'method': 'equal-exponent-sums',
                      'certificate': {'sum': 3},
                      'notes': []},
      'provenance': 'exponent-sum-comparison',
      'bounds': None}),
    (['poly', 'expsum', '--left', '1,2', '--right', '4'],
     2,
     '{"status": "unknown", "method": null, "certificate": {}, "notes": ["exponent sums '
     'differ: 3 vs 4"]}\n',
     {'verdict': 'unknown',
      'certificate': {'status': 'unknown',
                      'method': None,
                      'certificate': {},
                      'notes': ['exponent sums differ: 3 vs 4']},
      'provenance': 'exponent-sum-comparison',
      'bounds': None}),
    (['poly', 'invariance', 'x+y-z'],
     0,
     'translation invariant: no\ndilation invariant: yes\nadditive: yes\nmultiplicative: no\n',
     {'verdict': {'translation_invariant': False,
                  'dilation_invariant': True,
                  'additive': True,
                  'multiplicative': False},
      'certificate': None,
      'provenance': 'symbolic-substitution-identities',
      'bounds': None}),
    (['poly', 'invariance', 'x*y-z^2'],
     0,
     'translation invariant: no\ndilation invariant: yes\nadditive: no\nmultiplicative: yes\n',
     {'verdict': {'translation_invariant': False,
                  'dilation_invariant': True,
                  'additive': False,
                  'multiplicative': True},
      'certificate': None,
      'provenance': 'symbolic-substitution-identities',
      'bounds': None}),
    (['omega', 'eval', 'heart(a, S1(b)) * 3'],
     0,
     'canonical: 3*a+3*S2(b)\nheight: 3\n',
     {'verdict': {'canonical': '3*a+3*S2(b)', 'height': 3},
      'certificate': None,
      'provenance': 'star-depth-normal-form',
      'bounds': None}),
    (['omega', 'eval', 'heart(a'], 3, '', None),
    (['omega', 'eq', '1+2', '3'],
     0,
     'equal\n',
     {'verdict': True,
      'certificate': None,
      'provenance': 'star-depth-normal-form',
      'bounds': None}),
    (['omega', 'eq', 'a+b', 'b'],
     1,
     'different\n',
     {'verdict': False,
      'certificate': None,
      'provenance': 'star-depth-normal-form',
      'bounds': None}),
    (['omega', 'tensorized', 'a;b;c'],
     0,
     'a\nS1(b)\nS2(c)\n',
     {'verdict': ['a', 'S1(b)', 'S2(c)'],
      'certificate': None,
      'provenance': 'cumulative-height-shifts',
      'bounds': None}),
    (['omega', 'rpair', 'a', 'S1(b)'],
     0,
     'tensor pair\n',
     {'verdict': True,
      'certificate': None,
      'provenance': 'minimum-star-depth-threshold',
      'bounds': None}),
    (['omega', 'rpair', 'S1(a)', 'b'],
     1,
     'not a tensor pair\n',
     {'verdict': False,
      'certificate': None,
      'provenance': 'minimum-star-depth-threshold',
      'bounds': None}),
    (['omega', 'verify354', '--c', '3,2,4', '--d', '1,8'],
     0,
     'xi_1  = [3, 5, 5, 2, 2, 6, 1, 1, 9]\n'
     'xi_2  = [3, 0, 5, 2, 6, 6, 1, 1, 9]\n'
     'xi_3  = [3, 3, 5, 2, 0, 6, 1, 1, 9]\n'
     'eta_1 = [3, 3, 5, 2, 2, 6, 1, 9, 9]\n'
     'eta_2 = [3, 3, 5, 2, 2, 6, 1, 0, 9]\n'
     'zero check: pass\n'
     'distinct check: pass\n',
     {'verdict': 'balanced',
      'certificate': {'xi': [[3, 5, 5, 2, 2, 6, 1, 1, 9],
                             [3, 0, 5, 2, 6, 6, 1, 1, 9],
                             [3, 3, 5, 2, 0, 6, 1, 1, 9]],
                      'eta': [[3, 3, 5, 2, 2, 6, 1, 9, 9], [3, 3, 5, 2, 2, 6, 1, 0, 9]],
                      'ledger': ['c1 = 9 + 6 + 12 - 3 - 24 = 0',
                                 'c2 = 15 + 0 + 12 - 3 - 24 = 0',
                                 'c3 = 15 + 10 + 20 - 5 - 40 = 0',
                                 'c4 = 6 + 4 + 8 - 2 - 16 = 0',
                                 'c5 = 6 + 12 + 0 - 2 - 16 = 0',
                                 'c6 = 18 + 12 + 24 - 6 - 48 = 0',
                                 'c7 = 3 + 2 + 4 - 1 - 8 = 0',
                                 'c8 = 3 + 2 + 4 - 9 - 0 = 0',
                                 'c9 = 27 + 18 + 36 - 9 - 72 = 0'],
                      'zero_check': True,
                      'distinct_check': True},
      'provenance': 'two-table-coefficient-construction',
      'bounds': None}),
    (['omega', 'verify354', '--c', '1,1', '--d', '2', '--ledger'],
     0,
     'xi_1  = [1, 2, 2, 2]\n'
     'xi_2  = [1, 0, 2, 2]\n'
     'eta_1 = [1, 1, 2, 2]\n'
     'c1 = 1 + 1 - 2 = 0\n'
     'c2 = 2 + 0 - 2 = 0\n'
     'c3 = 2 + 2 - 4 = 0\n'
     'c4 = 2 + 2 - 4 = 0\n'
     'zero check: pass\n'
     'distinct check: pass\n',
     {'verdict': 'balanced',
      'certificate': {'xi': [[1, 2, 2, 2], [1, 0, 2, 2]],
                      'eta': [[1, 1, 2, 2]],
                      'ledger': ['c1 = 1 + 1 - 2 = 0',
                                 'c2 = 2 + 0 - 2 = 0',
                                 'c3 = 2 + 2 - 4 = 0',
                                 'c4 = 2 + 2 - 4 = 0'],
                      'zero_check': True,
                      'distinct_check': True},
      'provenance': 'two-table-coefficient-construction',
      'bounds': None}),
    (['embed', 'fe', '--finite', '1,3', '--in', '2,4'],
     0,
     'embeds with shift 1\n',
     {'verdict': 'embeddable',
      'certificate': {'shift': 1},
      'provenance': 'least-shift-scan',
      'bounds': None}),
    (['embed', 'fe', '--finite', '1,3', '--in', '2,5'],
     1,
     'not embeddable\n',
     {'verdict': 'not-embeddable',
      'certificate': None,
      'provenance': 'least-shift-scan',
      'bounds': None}),
    (['embed', 'fe', '--periodic', 'p=2; residues={1}', '--in-periodic', 'p=2; residues={0}'],
     0,
     'finitely embeddable\n',
     {'verdict': True,
      'certificate': None,
      'provenance': 'residue-rotation-with-boundary-checks',
      'bounds': None}),
    (['embed', 'fe', '--periodic', 'p=1; residues={0}', '--in-periodic', 'p=2; residues={1}'],
     1,
     'not finitely embeddable\n',
     {'verdict': False,
      'certificate': None,
      'provenance': 'residue-rotation-with-boundary-checks',
      'bounds': None}),
    (['embed', 'fe', '--finite', '1,2'], 3, '', None),
    (['embed', 'classify', 'p=4; residues={0,1}'],
     0,
     'thick: no\nsyndetic: yes\npiecewise syndetic: yes\nfinite: no\n',
     {'verdict': {'thick': False,
                  'syndetic': True,
                  'piecewise_syndetic': True,
                  'finite': False},
      'certificate': None,
      'provenance': 'residue-set-analysis',
      'bounds': None}),
    (['embed', 'classify', 'p=3; residues={}; t=2; prefix={0}'],
     0,
     'thick: no\nsyndetic: no\npiecewise syndetic: no\nfinite: yes\n',
     {'verdict': {'thick': False,
                  'syndetic': False,
                  'piecewise_syndetic': False,
                  'finite': True},
      'certificate': None,
      'provenance': 'residue-set-analysis',
      'bounds': None}),
    (['embed', 'bd', 'p=5; residues={0,1,2}'],
     0,
     'banach density: 3/5\n',
     {'verdict': '3/5',
      'certificate': None,
      'provenance': 'residue-count-over-period',
      'bounds': None}),
    (['embed',
      'fmap',
      '--set',
      '1,2,3',
      '--in',
      '5,7,9,11',
      '--family',
      'affinity',
      '--bounds',
      'a=1..10,b=0..20'],
     0,
     'witness: a=2, b=3\n',
     {'verdict': 'witness',
      'certificate': {'params': [2, 3]},
      'provenance': 'bounded-family-parameter-scan',
      'bounds': {'family': 'affinity', 'a': [1, 10], 'b': [0, 20]}}),
    (['embed',
      'fmap',
      '--set',
      '1,5',
      '--in',
      '2,3',
      '--family',
      'translation',
      '--bounds',
      'm=0..4'],
     2,
     'no witness within the declared bounds\n',
     {'verdict': 'none-within-bounds',
      'certificate': None,
      'provenance': 'bounded-family-parameter-scan',
      'bounds': {'family': 'translation', 'm': [0, 4]}}),
    (['embed',
      'fmap',
      '--set',
      '1',
      '--in',
      '1,2',
      '--family',
      'translation',
      '--bounds',
      'q=1..3'],
     3,
     '',
     None),
    (['embed', 'apmax', '1,2,4,8,16', '--len', '3'],
     1,
     'no 3-term progression\n',
     {'verdict': False,
      'certificate': None,
      'provenance': 'windowed-progression-scan',
      'bounds': None}),
    (['embed', 'apmax', 'p=1; residues={0}', '--len', '6'],
     0,
     'contains a 6-term progression\n',
     {'verdict': True,
      'certificate': None,
      'provenance': 'windowed-progression-scan',
      'bounds': None}),
    (['embed', 'probe-family', '--family', 'exponential'],
     0,
     'transitivity counterexample: f=(m=2), g=(m=2), F={0,1,2}\n'
     'reflexivity counterexample: F={1,2}\n',
     {'verdict': 'counterexample',
      'certificate': {'h_bounds': [[2, 16]],
                      'pairs_checked': 1,
                      'transitivity_counterexample': {'f': [2], 'g': [2], 'F': [0, 1, 2]},
                      'reflexivity_counterexample': [1, 2]},
      'provenance': 'bounded-closure-probe',
      'bounds': {'family': 'exponential', 'm': [2, 4]}}),
    (['embed', 'probe-family', '--family', 'translation'],
     2,
     'no counterexample found within bounds\n',
     {'verdict': 'no-counterexample-within-bounds',
      'certificate': {'h_bounds': [[0, 24]], 'pairs_checked': 169},
      'provenance': 'bounded-closure-probe',
      'bounds': {'family': 'translation', 'm': [0, 12]}}),
    (['embed', 'probe-family', '--family', 'spiral'], 3, '', None),
    (['check-linear', 'x+y-z', '--threads', '4'], 3, '', None),
    (['check-linear', 'x+y-z', '--seed', '7'], 3, '', None),
    (['check-linear', 'x+y-z', '--max-nodes', '5'], 3, '', None),
    ([], 3, '', None),
    (['poly'], 3, '', None),
    (['no-such-verb'], 3, '', None),
]


@pytest.fixture(scope="module")
def files_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("files")
    for name, content in FILES.items():
        (path / name).write_text(content)
    (path / "dir").mkdir()
    return path


def _with_files(argv, files_dir):
    return [str(files_dir / a[1:]) if a.startswith("@") else a for a in argv]


def test_exact_output_covers_every_verb():
    covered = {" ".join(argv[:k]) for argv, *_ in EXACT for k in (1, 2)}
    assert len(VERB_PATHS) == 32
    assert VERB_PATHS <= covered


@pytest.mark.parametrize(
    "argv, code, text, envelope", EXACT, ids=[" ".join(row[0]) or "(none)" for row in EXACT]
)
def test_exact_output(files_dir, argv, code, text, envelope):
    argv = _with_files(argv, files_dir)
    assert run(argv)[:2] == (code, text)
    got_code, out, _ = run(argv + ["--json"])
    assert got_code == code
    if envelope is None:
        assert out == ""
        return
    assert out.endswith("\n") and out.count("\n") == 1
    got = json.loads(out)
    timing = got.pop("timing_ms")
    assert isinstance(timing, (int, float)) and not isinstance(timing, bool) and timing >= 0
    assert got == envelope

