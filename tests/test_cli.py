import contextlib
import io
import json

import pytest

import test_omega
from prlab import search
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


def test_internal_check_failure_exits_three(monkeypatch):
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


def test_deeply_nested_omega_term_exits_three():
    code, out, err = run(["omega", "eval", "(" * 2000 + "a" + ")" * 2000])
    assert code == 3
    assert out == ""
    assert err == "error: input nested too deeply\n"


def test_threads_and_seed_flags_are_accepted():
    code, out, _ = run(["check-linear", "x+y-z", "--threads", "4", "--seed", "7"])
    assert code == 0
    assert "partition regular: yes" in out


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
