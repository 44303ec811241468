import ast
import contextlib
import importlib
import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prlab
import test_omega
from prlab import omega, polyreg, rado, search
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


def run_process(argv):
    """The CLI in a child interpreter, as users run it, given 10 s."""
    env = dict(os.environ, PYTHONPATH=str(Path(prlab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-m", "prlab.cli", *argv],
                         capture_output=True, text=True, env=env, timeout=10)
    return out.returncode, out.stdout, out.stderr


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
    # each n alone stays under 100 nodes (at most 79); the sweep up to 14 takes 166
    code, env = run_json(
        ["search", "forcing-number", "--poly", "x+y-z", "-r", "3", "--max", "14",
         "--max-nodes", "100"]
    )
    assert code == 2
    assert env["verdict"] == "budget-exceeded"
    assert env["bounds"]["max_nodes"] == 100


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

    # squared entries: a uniform rescaling of every vector would still vanish
    vector_term = omega.vector_term
    monkeypatch.setattr(omega, "vector_term",
                        lambda vec: vector_term([x * x for x in vec]))
    # one multiplier moved: moving every one by the same amount keeps the family
    monkeypatch.setattr(rado, "_normalize_bezout", lambda coeffs, bez: [bez[0] + 1, *bez[1:]])
    monkeypatch.setattr(polyreg, "sufficient_ipr", lambda P: polyreg.PrVerdict("unknown"))
    monkeypatch.setattr(search, "is_mono_3ap", lambda coloring, triple: False)
    coloring = tmp_path / "v.txt"
    coloring.write_text(" ".join(str(1 + n % 5 // 3) for n in range(325)) + "\n")
    for argv in (["omega", "verify354", "--c", "3,2,4", "--d", "1,8"],
                 ["parametric", "x+y-z", "--subset", "x,z"],
                 ["poly", "construct3513", "--linear", "x+y-z", "--subsets", "1|2|3", "-n", "3"],
                 ["vdw", "extract325", "--coloring", str(coloring)]):
        code, out, err = run(argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("error: internal check failed: "), argv


def test_deeply_nested_omega_term_exits_three():
    code, out, err = run(["omega", "eval", "(" * 2000 + "a" + ")" * 2000])
    assert code == 3
    assert out == ""
    assert err == "error: input nested too deeply\n"


def test_set_readers_name_a_too_long_integer():
    nines = "9" * 5000
    for argv, message in (
        (["folkman", "fs", "1," + nines], "integer literal too long in the set at position 2"),
        (["embed", "bd", f"p={nines}; residues={{0}}"],
         "integer literal too long in field 'p' at position 2"),
    ):
        assert run(argv) == (3, "", f"error: {message}\n"), argv[:2]


def test_set_readers_take_ascii_digits_only():
    for argv, message in (
        (["folkman", "fs", "٣,1_0", "--json"], "unexpected character '٣' in the set at position 0"),
        (["embed", "bd", "p=4; residues={1_0}"],
         "unexpected character '_' in field 'residues' at position 16"),
    ):
        assert run(argv) == (3, "", f"error: {message}\n"), argv[:2]


# Every integer in an argument or a file is ASCII digits: int() would read
# each of these as a number, and the CLI answered on it.
HOSTILE_FILES = {"coloring": "1 ٣ 1_0\n", "matrix": "1 1_0 -٣\n"}


@pytest.mark.parametrize("argv, message", [
    (["search", "witness", "--poly", "x+y-z", "--coloring", "@coloring"],
     "unexpected character '٣' in the coloring at position 2"),
    (["check-matrix", "@matrix"], "unexpected character '_' in line 1 of the matrix at position 3"),
    (["blocking-prime", "٣,1_0"], "unexpected character '٣' in coeffs at position 0"),
    (["smod", "5", "1_0"],
     "argument n: invalid int value: '1_0': unexpected character '_' at position 1"),
    (["smod", "٥", "7"], "argument p: invalid int value: '٥': unexpected character '٥' at position 0"),
    (["omega", "verify354", "--c", "١,2", "--d", "3"], "unexpected character '١' in --c at position 0"),
    (["embed", "fmap", "--set", "1", "--in", "2", "--family", "translation", "--bounds", "m=٠..٣"],
     "unexpected character '٠' in --bounds at position 2"),
    (["search", "good-coloring", "--ap", "٣", "-n", "9", "-r", "2"],
     "argument --ap: invalid int value: '٣': unexpected character '٣' at position 0"),
    (["poly", "expsum", "--left", "١", "--right", "1"], "unexpected character '١' in --left at position 0"),
], ids=["coloring-file", "matrix-file", "integer-list", "flag-grouping", "flag-non-ascii", "weights",
        "bounds", "ap-length", "exponents"])
def test_every_integer_reader_takes_ascii_digits_only(tmp_path, argv, message):
    for name, content in HOSTILE_FILES.items():
        (tmp_path / name).write_text(content, encoding="utf-8")
    argv = [str(tmp_path / a[1:]) if a.startswith("@") else a for a in argv]
    for extra in ([], ["--json"]):
        assert run(argv + extra) == (3, "", f"error: {message}\n"), extra


def test_integer_readers_position_their_errors():
    too_long = "9" * (sys.get_int_max_str_digits() + 1)
    for argv, message in (
        (["blocking-prime", "1, 2,x"], "unexpected character 'x' in coeffs at position 5"),
        (["poly", "construct3513", "--linear", "x1+x2-x3", "--subsets", "1|2,3|1 a", "-n", "2"],
         "unexpected character 'a' in --subsets at position 8"),
        (["parametric", "x+y-z", "--subset", "1," + too_long],
         "integer literal too long in --subset at position 2"),
        (["embed", "fmap", "--set", "1", "--in", "2", "--family", "affinity",
          "--bounds", "a=1..2, b=-1..+"], "expected an integer in --bounds at position 15"),
        (["folkman", "matrix", too_long],
         f"argument n: invalid int value: '{too_long}': integer literal too long at position 0"),
        # every integer list is split at commas, with whitespace around each
        # item, and an empty item is refused where it stands
        (["blocking-prime", "1,,2"], "expected an integer in coeffs at position 2"),
        (["blocking-prime", "1,2,"], "expected an integer in coeffs at position 4"),
        (["blocking-prime", ",1,2"], "expected an integer in coeffs at position 0"),
        (["blocking-prime", "1, ,2"], "expected an integer in coeffs at position 3"),
        (["blocking-prime", "1 2"], "unexpected character '2' in coeffs at position 2"),
        (["omega", "verify354", "--c", "1 2", "--d", "3"], "unexpected character '2' in --c at position 2"),
        (["poly", "expsum", "--left", "1,2", "--right", "3,"], "expected an integer in --right at position 2"),
        (["parametric", "x+y-z", "--subset", "1,,2"], "expected an integer in --subset at position 2"),
        (["poly", "construct3513", "--linear", "x+y-z", "--subsets", "1|2,|3", "-n", "2"],
         "expected an integer in --subsets at position 4"),
        (["folkman", "fs", "1,,2"], "expected a natural number in the set at position 2"),
        # every other list is split by the same splitter, and each item is
        # read where it stands
        (["parametric", "x+y-z", "--subset", "x,,z"], "expected an integer in --subset at position 2"),
        (["omega", "tensorized", "a;b+"], "expected a term at position 4"),
        (["omega", "tensorized", "a;;b"], "empty input at position 2"),
        (["embed", "classify", "p=3; residues={1}; q=7"], "unknown field 'q' at position 19"),
        (["folkman", "fs", "{1,2"], "unexpected character '{' in the set at position 0"),
    ):
        assert run(argv) == (3, "", f"error: {message}\n"), argv[:2]


@pytest.mark.parametrize("argv, message", [
    (["parametric", "x-x+y-y", "--subset", "y"], "zero polynomial"),
    (["parametric", "5", "--subset", "1"], "polynomial must be homogeneous linear"),
], ids=["zero-polynomial", "constant"])
def test_parametric_reports_a_bad_expression_before_its_subset(argv, message):
    # the expression is judged before --subset is read against its variables,
    # so the message is the one check-linear gives for the same expression
    assert run(argv) == (3, "", f"error: {message}\n")
    assert run(["check-linear", argv[1]]) == (3, "", f"error: {message}\n")


def test_readers_take_ascii_whitespace_only(tmp_path):
    # an em space (U+2003) is no whitespace to any reader, the two grammars
    # included: it is refused where it stands, as read_int refuses it
    (tmp_path / "coloring").write_text("1\u20031 1\n", encoding="utf-8")
    for argv, message in (
        (["check-linear", "x+\u2003y-z"], "unexpected character '\\u2003' at position 2"),
        (["check-linear", "\u2003"], "unexpected character '\\u2003' at position 0"),
        (["omega", "eval", "a+\u2003b"], "unexpected character '\\u2003' at position 2"),
        (["omega", "tensorized", "a;\u2003"], "unexpected character '\\u2003' at position 2"),
        (["search", "witness", "--poly", "x+y-z", "--coloring", str(tmp_path / "coloring")],
         "unexpected character '\\u2003' in the coloring at position 1"),
    ):
        assert run(argv) == (3, "", f"error: {message}\n"), argv[:2]


def test_an_empty_subsets_list_is_the_empty_index_set():
    code, out, err = run(["poly", "construct3513", "--linear", "x+y-z", "--subsets", "1||2", "-n", "2"])
    assert (code, out, err) == (0, "x*y1+y-y2*z\nstatus: IPR_certified\n", "")


def test_signed_integer_readers_take_one_leading_sign():
    assert run(["smod", "+5", "+50"])[:2] == (0, "smod(5) color of 50: 2\n")
    assert run(["blocking-prime", "+1,+1,-3"])[:2] == (0, "blocking prime: 5\n")
    code, env = run_json(["embed", "fmap", "--set", "1", "--in", "5", "--family", "translation",
                          "--bounds", "m= +0 .. 4"])
    assert (code, env["verdict"], env["bounds"]["m"]) == (0, "witness", [0, 4])
    assert run(["smod", "5", "--", "--50"]) == (
        3, "", "error: argument n: invalid int value: '--50': unexpected character '-' at position 1\n")


def test_equation_past_the_coefficient_cap_exits_three_at_once():
    # every extra coefficient doubled the subset scan that ran before the
    # cap was checked: about 75 s for these 26 coefficients
    expr = "+".join(f"x{i}" for i in range(1, 27))
    assert run_process(["check-linear", expr]) == (3, "", "error: more than 20 coefficients\n")


def test_blocking_prime_of_twenty_powers_of_three_is_quick():
    # 2^20 distinct subset sums: testing each prime against all of them took
    # about 22 s and 167 MB; one subset scan and residue masks take about 1 s
    coeffs = ",".join(str(3**i) for i in range(20))
    assert run_process(["blocking-prime", coeffs]) == (0, "blocking prime: 59051\n", "")


def test_blocking_prime_of_twenty_powers_of_two_is_quick():
    # halved, the sums of 2, 4, ..., 2^20 cover [1, 2^20 - 1]: every prime
    # up to there divides one, so the scan starts above it instead of
    # building a mask for each of them, which took about 19 s
    coeffs = ",".join(str(2**i) for i in range(1, 21))
    assert run_process(["blocking-prime", coeffs]) == (0, "blocking prime: 1048583\n", "")


def test_coprime_periods_decide_at_once():
    # a rotation that works sends A's least residue onto one of B's, so only
    # those are tried: trying every one below lcm(10007, 10009) ran past 60 s
    argv = ["embed", "fe", "--periodic", "p=10007; residues={1}",
            "--in-periodic", "p=10009; residues={1}"]
    assert run_process(argv) == (1, "not embeddable\n", "")


def test_embed_fe_tries_no_shift_below_the_threshold():
    # a shift must send A's least element into B, so a threshold of 10^7
    # leaves one shift per residue of B; scanning every shift below it took
    # 8 s for all naturals and 10 s for the prefixed set
    target = "p=2; residues={0}; t=10000000"
    for source in ("p=1; residues={0}", "p=2; residues={0}; t=2; prefix={1}"):
        argv = ["embed", "fe", "--periodic", source, "--in-periodic", target]
        assert run_process(argv) == (1, "not embeddable\n", "")


def test_embed_apmax_reads_a_residue_as_a_progression():
    # scanning a window of four periods of 10^9 ran past 10 s
    assert run_process(["embed", "apmax", "p=1000000000; residues={0}", "--len", "3"]) == (
        0, "contains a 3-term progression\n", "")


def test_embed_fe_refuses_periodic_sets_past_a_million_residues():
    # coprime periods near 10^9 would expand each set to about 10^9 residues;
    # 999983 and 999979 expand to just under 10^6 and still answer
    argv = ["embed", "fe", "--periodic", "p=1000000007; residues={1}",
            "--in-periodic", "p=1000000009; residues={1}"]
    assert run_process(argv) == (
        3, "", "error: a periodic set expands to more than 10^6 residues mod the lcm of the periods\n")
    argv = ["embed", "fe", "--periodic", "p=999983; residues={1}",
            "--in-periodic", "p=999979; residues={1}"]
    assert run_process(argv) == (1, "not embeddable\n", "")


def test_smod_refuses_a_modulus_above_ten_to_the_twelve():
    # trial division on 2^61 - 1 ran past 20 s; up to 10^12 it takes well
    # under a second
    assert run_process(["smod", str(2**61 - 1), "5"]) == (
        3, "", "error: p must be at most 10^12\n")
    assert run_process(["smod", "999999999989", "5"]) == (
        0, "smod(999999999989) color of 5: 5\n", "")


def test_poly_check_searches_for_the_blocking_prime_once(monkeypatch):
    steps = []  # every prime a search steps past
    next_prime = rado._next_prime
    monkeypatch.setattr(rado, "_next_prime", lambda n: steps.append(n) or next_prime(n))
    code, env = run_json(["poly", "check", "+".join(f"{3**i}*x{i}" for i in range(16))])
    p = env["certificate"]["certificate"]["blocking_prime"]
    assert (code, env["verdict"]) == (1, "not_PR_certified")
    # one search steps from 2 past every prime below p, and no second one runs
    assert steps == [q for q in range(2, p) if rado._is_prime(q)]


def test_exclusive_set_count_is_capped():
    # 3^11 = 177,147 sets, one printed line each
    private = "+".join(f"a{i}*b{i}*c{i}" for i in range(1, 12))
    for extra in ([], ["--json"]):
        assert run(["poly", "exclusive", private] + extra) == (
            3, "", "error: too many exclusive variable sets (max 100000)\n")


def test_omega_naturals_are_ascii_digits():
    assert run(["omega", "eval", "٣"]) == (3, "", "error: unexpected character '٣' at position 0\n")


def test_long_flat_omega_terms_exit_zero():
    for term, form in (("+".join(["a"] * 5000), "5000*a"), ("*".join(["a"] * 1500), "a^1500")):
        code, env = run_json(["omega", "eval", term])
        assert code == 0
        assert env["verdict"] == {"canonical": form, "height": 1}


def test_tensorized_long_flat_sum_exits_zero():
    code, env = run_json(["omega", "tensorized", "+".join(["a"] * 1000) + ";b"])
    assert code == 0
    assert env["verdict"] == ["(" * 999 + "a" + "+a)" * 999, "S1(b)"]


def test_retired_threads_and_seed_flags_exit_three():
    # --max-nodes too: only the two search verbs, embed fmap and embed probe-family take it
    for flag in (["--threads", "4"], ["--seed", "7"], ["--max-nodes", "-5"]):
        code, out, err = run(["check-linear", "x+y-z", *flag])
        assert code == 3, flag
        assert out == ""
        assert err == f"error: unrecognized arguments: {' '.join(flag)}\n"


@pytest.mark.parametrize("argv, message", [
    (["embed", "probe-family", "--family", "spiral"],
     "unknown family 'spiral'; known kinds: translation, proper_translation, homothety, "
     "power, exponential, affinity, polynomial"),
    (["embed", "probe-family", "--family", "polynomial", "--bounds", "m=1..2"],
     "polynomial bounds use a0..ad, got 'm'"),
    (["embed", "probe-family", "--family", "polynomial", "--bounds", "a0=1..2"],
     "polynomial bounds must reach at least a1"),
    (["embed", "probe-family", "--family", "polynomial", "--bounds", "a65=0..1"],
     "polynomial bounds reach at most a64"),
    (["embed", "fmap", "--set", "1,2", "--in", "5", "--family", "polynomial",
      "--bounds", "a0=0..1,a65=0..1", "--json"],
     "polynomial bounds reach at most a64"),
    (["embed", "fmap", "--set", "1", "--in", "2", "--family", "polynomial",
      "--bounds", "a01=1..2"],
     "polynomial bounds use a0..ad, got 'a01'"),
    (["embed", "fmap", "--set", "1", "--in", "1,2", "--family", "translation",
      "--bounds", "q=1..3"],
     "unknown parameter 'q' for family translation"),
    (["embed", "fmap", "--set", "1", "--in", "1,2", "--family", "affinity",
      "--bounds", "b=3..1"],
     "empty parameter range"),
    (["poly", "reciprocal", "x^3 + x*y^2 - z^3", "--degree", "3"],
     "unrecognized arguments: --degree 3"),
    (["embed", "probe-family", "--family", "affinity", "--bounds", "a=1..2, b"],
     "bad bounds fragment 'b'; expected name=lo..hi at position 8"),
    (["embed", "fmap", "--set", "1", "--in", "2", "--family", "translation", "--bounds", "m=0..3,,"],
     "bad bounds fragment ''; expected name=lo..hi at position 7"),
    (["embed", "fmap", "--set", "1", "--in", "2", "--family", "affinity",
      "--bounds", "a=1..2,a=3..4,b=0..4"],
     "bounds name 'a' given twice at position 7"),
], ids=["unknown-kind", "polynomial-name", "polynomial-degree", "probe-polynomial-degree-cap",
        "fmap-polynomial-degree-cap", "polynomial-leading-zero",
        "unknown-parameter", "empty-range", "retired-degree", "bounds-fragment",
        "bounds-empty-fragment", "bounds-repeated-name"])
def test_family_usage_error_messages(argv, message):
    assert run(argv) == (3, "", f"error: {message}\n")


# Help listings and parser errors, byte for byte at 80 columns: they must
# not depend on how many verbs' parsers main builds.  A help action exits
# through SystemExit(0) from inside main.
HELP_AND_USAGE = [
    ([], 3,
     '',
     'usage: prlab [-h] verb ...\n'),
    (['-h'], 0,
     'usage: prlab [-h] verb ...\n'
     '\n'
     'partition regularity laboratory\n'
     '\n'
     'positional arguments:\n'
     '  verb\n'
     '    check-matrix  columns condition for an integer matrix\n'
     '    check-linear  partition regularity of a homogeneous linear equation\n'
     '    check-affine  partition regularity of a linear equation with constant term\n'
     '    smod          super-modulo color of one number\n'
     '    blocking-prime\n'
     '                  least prime whose super-modulo coloring blocks the\n'
     '                  coefficients\n'
     '    parametric    two-parameter solution family over a zero-sum subset\n'
     '    search        coloring searches\n'
     '    vdw           progression extraction\n'
     '    folkman       finite sums and the membership matrix\n'
     '    poly          nonlinear partition regularity tools\n'
     '    omega         star-calculus terms\n'
     '    embed         embeddability, density, families\n'
     '\n'
     'options:\n'
     '  -h, --help      show this help message and exit\n',
     ''),
    (['search', '-h'], 0,
     'usage: prlab search [-h] action ...\n'
     '\n'
     'positional arguments:\n'
     '  action\n'
     '    good-coloring\n'
     '                  find a coloring with no monochromatic solution\n'
     '    forcing-number\n'
     '                  least n at which every coloring is forced\n'
     '    witness       least monochromatic solution under a given coloring\n'
     '\n'
     'options:\n'
     '  -h, --help      show this help message and exit\n',
     ''),
    (['vdw', '-h'], 0,
     'usage: prlab vdw [-h] action ...\n'
     '\n'
     'positional arguments:\n'
     '  action\n'
     '    extract325\n'
     '              monochromatic 3-term progression from a 2-coloring of [0,324]\n'
     '\n'
     'options:\n'
     '  -h, --help  show this help message and exit\n',
     ''),
    (['folkman', '-h'], 0,
     'usage: prlab folkman [-h] action ...\n'
     '\n'
     'positional arguments:\n'
     '  action\n'
     '    fs        all nonempty subset sums\n'
     '    matrix    membership matrix for n generators\n'
     '    weak-mono\n'
     '              does the coloring make the subset sums weakly monochromatic\n'
     '\n'
     'options:\n'
     '  -h, --help  show this help message and exit\n',
     ''),
    (['poly', '-h'], 0,
     'usage: prlab poly [-h] action ...\n'
     '\n'
     'positional arguments:\n'
     '  action\n'
     '    reduct       replace each monomial by a fresh variable\n'
     '    exclusive    systems of variables private to each monomial\n'
     '    check        sufficiency and necessity checks\n'
     '    construct3513\n'
     '                 attach fresh-variable products to a regular linear form\n'
     '    reciprocal   reverse the exponent pattern of a homogeneous polynomial\n'
     '    transform    regularity-preserving substitutions\n'
     '    expsum       difference of power products, compared by exponent sums\n'
     '    invariance   structural invariance flags\n'
     '\n'
     'options:\n'
     '  -h, --help     show this help message and exit\n',
     ''),
    (['omega', '-h'], 0,
     'usage: prlab omega [-h] action ...\n'
     '\n'
     'positional arguments:\n'
     '  action\n'
     '    eval      canonical form and height\n'
     '    eq        term equality\n'
     '    tensorized\n'
     '              height-shifted tuple\n'
     '    rpair     tensor-pair test\n'
     '    verify354\n'
     '              two-table coefficient construction\n'
     '\n'
     'options:\n'
     '  -h, --help  show this help message and exit\n',
     ''),
    (['embed', '-h'], 0,
     'usage: prlab embed [-h] action ...\n'
     '\n'
     'positional arguments:\n'
     '  action\n'
     '    fe          finite embeddability\n'
     '    classify    thick / syndetic / piecewise syndetic / finite\n'
     '    bd          exact Banach density\n'
     '    fmap        family-map witness search\n'
     '    apmax       progression probe\n'
     '    probe-family\n'
     '                closure counterexample probe\n'
     '\n'
     'options:\n'
     '  -h, --help    show this help message and exit\n',
     ''),
    (['check-linear', '-h'], 0,
     'usage: prlab check-linear [-h] [--json] expr\n'
     '\n'
     'positional arguments:\n'
     '  expr\n'
     '\n'
     'options:\n'
     '  -h, --help  show this help message and exit\n'
     '  --json      emit one JSON envelope\n',
     ''),
    (['search', 'good-coloring', '-h'], 0,
     'usage: prlab search good-coloring [-h] [--json]\n'
     '                                  (--poly POLY | --matrix MATRIX | --ap AP) -n\n'
     '                                  N -r R [--injective] [--max-nodes MAX_NODES]\n'
     '\n'
     'options:\n'
     '  -h, --help            show this help message and exit\n'
     '  --json                emit one JSON envelope\n'
     '  --poly POLY           polynomial equation P = 0\n'
     '  --matrix MATRIX       file with a homogeneous system, one row per line\n'
     '  --ap AP               length of the arithmetic progression\n'
     '  -n N                  interval end\n'
     '  -r R                  number of colors\n'
     '  --injective           only count solutions with distinct values\n'
     '  --max-nodes MAX_NODES\n'
     '                        total search node budget (>= 0)\n',
     ''),
    (['vdw', 'extract325', '-h'], 0,
     'usage: prlab vdw extract325 [-h] [--json] --coloring COLORING\n'
     '\n'
     'options:\n'
     '  -h, --help           show this help message and exit\n'
     '  --json               emit one JSON envelope\n'
     '  --coloring COLORING  file with one line of 325 colors (1 or 2)\n',
     ''),
    (['folkman', 'matrix', '-h'], 0,
     'usage: prlab folkman matrix [-h] [--json] [--check] n\n'
     '\n'
     'positional arguments:\n'
     '  n\n'
     '\n'
     'options:\n'
     '  -h, --help  show this help message and exit\n'
     '  --json      emit one JSON envelope\n'
     '  --check     also verify the columns condition\n',
     ''),
    (['poly', 'construct3513', '-h'], 0,
     'usage: prlab poly construct3513 [-h] [--json] --linear LINEAR --subsets\n'
     '                                SUBSETS -n N\n'
     '\n'
     'options:\n'
     '  -h, --help         show this help message and exit\n'
     '  --json             emit one JSON envelope\n'
     '  --linear LINEAR\n'
     '  --subsets SUBSETS  pipe-separated index lists, e.g. "1,2|1,2,3|3|1"\n'
     '  -n N               number of fresh variables\n',
     ''),
    (['omega', 'verify354', '-h'], 0,
     'usage: prlab omega verify354 [-h] [--json] --c C --d D [--ledger]\n'
     '\n'
     'options:\n'
     '  -h, --help  show this help message and exit\n'
     '  --json      emit one JSON envelope\n'
     '  --c C       comma-separated positive weights\n'
     '  --d D       comma-separated positive weights\n'
     '  --ledger    print the per-depth coefficient identities\n',
     ''),
    (['embed', 'fmap', '-h'], 0,
     'usage: prlab embed fmap [-h] [--json] --set SET --in TARGET --family FAMILY\n'
     '                        [--bounds BOUNDS] [--max-nodes MAX_NODES]\n'
     '\n'
     'options:\n'
     '  -h, --help            show this help message and exit\n'
     '  --json                emit one JSON envelope\n'
     '  --set SET             finite pattern\n'
     '  --in TARGET           target set (finite or periodic)\n'
     '  --family FAMILY\n'
     '  --bounds BOUNDS       e.g. a=1..10,b=0..20\n'
     '  --max-nodes MAX_NODES\n'
     '                        total search node budget (>= 0)\n',
     ''),
    (['search', 'bogus'], 3,
     '',
     "error: argument action: invalid choice: 'bogus' (choose from 'good-coloring', 'forcing-number', 'witness')\n"),
    (['bogus'], 3,
     '',
     "error: argument verb: invalid choice: 'bogus' (choose from 'check-matrix', 'check-linear', 'check-affine', 'smod', 'blocking-prime', 'parametric', 'search', 'vdw', 'folkman', 'poly', 'omega', 'embed')\n"),
    (['check-linear'], 3,
     '',
     'error: the following arguments are required: expr\n'),
    (['search', 'good-coloring', '--poly', 'x+y-z', '-n', '5'], 3,
     '',
     'error: the following arguments are required: -r\n'),
    (['search'], 3,
     '',
     'usage: prlab [-h] verb ...\n'),
    (['check-linear', 'x', '--bogus'], 3,
     '',
     'error: unrecognized arguments: --bogus\n'),
    (['embed', 'fe', '--periodic', 'p=2; residues={1}'], 3,
     '',
     'error: one of the arguments --in --in-periodic is required\n'),
    (['embed', 'fe', '--finite', '1', '--periodic', 'p=1; residues={0}', '--in', '1'], 3,
     '',
     'error: argument --periodic: not allowed with argument --finite\n'),
    (['search', 'good-coloring', '-n', '5', '-r', '2'], 3,
     '',
     'error: one of the arguments --poly --matrix --ap is required\n'),
    (['poly', 'transform', 'x+y', '--negate', '--power', '2'], 3,
     '',
     'error: argument --power: not allowed with argument --negate\n'),
    (['poly', 'construct3513', '--linear', 'x+y-z+1', '--subsets', '1|2|3', '-n', '3'], 3,
     '',
     'error: polynomial must be homogeneous linear\n'),
    (['blocking-prime', ' \t'], 3,
     '',
     'error: empty coefficient list\n'),
]


@pytest.mark.parametrize("argv, code, out, err", HELP_AND_USAGE,
                         ids=[" ".join(row[0]) or "(none)" for row in HELP_AND_USAGE])
def test_help_and_usage_texts(monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    got_out, got_err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(got_out), contextlib.redirect_stderr(got_err):
        try:
            got_code = main(argv)
        except SystemExit as exc:
            got_code = exc.code
    assert (got_code, got_out.getvalue(), got_err.getvalue()) == (code, out, err)


def test_forcing_number_bound_below_one_exits_three():
    for bound in ("0", "-3"):
        code, out, err = run(
            ["search", "forcing-number", "--ap", "3", "-r", "2", "--max", bound]
        )
        assert code == 3, bound
        assert out == ""
        assert err == "error: bound must be >= 1\n"


# -- import footprint ----------------------------------------------------------

def _prlab_modules_loaded(argv):
    """The prlab modules a fresh interpreter holds after importing prlab.cli
    and, unless argv is None, running main(argv); main's exit code with them."""
    script = (
        "import contextlib, io, sys\n"
        "import prlab.cli\n"
        f"argv = {argv!r}\n"
        "code = None\n"
        "if argv is not None:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        try:\n"
        "            code = prlab.cli.main(argv)\n"
        "        except SystemExit as exc:\n"
        "            code = exc.code\n"
        "print(code, *sorted(m for m in sys.modules if m.split('.')[0] == 'prlab'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(prlab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout.split()
    code = None if out[0] == "None" else int(out[0])
    return code, {m for m in out[1:] if m not in ("prlab", "prlab.cli", "prlab.core")
                  and not m.startswith("prlab.core.")}


@pytest.mark.parametrize("argv, code, library", [
    (None, None, set()),
    (["-h"], 0, set()),
    (["search", "-h"], 0, set()),
    (["check-linear", "x+y-z", "--json"], 0, {"prlab.rado"}),
    (["omega", "eval", "a", "--json"], 0, {"prlab.omega"}),
    (["folkman", "fs", "1,2", "--json"], 0, {"prlab.folkman"}),
], ids=["import", "help", "group-help", "check-linear", "omega-eval", "folkman-fs"])
def test_import_footprint(argv, code, library):
    # beyond prlab, prlab.cli and prlab.core, a run loads the library module
    # of the verb it runs and nothing else
    assert _prlab_modules_loaded(argv) == (code, library)


def test_library_does_not_import_dataclasses():
    # importing dataclasses, with the inspect import it pulls in, adds
    # 6-9 ms to a CLI run's start-up (-X importtime, CPython 3.11, 2 vCPUs)
    script = ("import sys\n"
              "import prlab.cli, prlab.embed, prlab.folkman, prlab.omega, prlab.polyreg\n"
              "print('dataclasses' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=str(Path(prlab.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert out == "False\n"


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


def test_linear_poly_past_six_variables_answers_as_its_matrix(tmp_path):
    # a linear --poly equation is its row: no cap on its variables, and the
    # same search prints what the one-row --matrix prints
    row = tmp_path / "row.txt"
    row.write_text("1 1 1 1 1 1 1 -1\n")
    tail = ["-n", "12", "-r", "2"]
    want = run(["search", "good-coloring", "--matrix", str(row), *tail])
    assert want[0] == 0
    assert run(["search", "good-coloring", "--poly", "a+b+c+d+e+f+g-h", *tail]) == want
    code, out, _ = run(["search", "forcing-number", "--poly", "a+b+c+d+e+f-g", "-r", "1", "--max", "10"])
    assert (code, out) == (0, "forcing number: 6\n")


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


def test_witness_over_1500_variables_answers(tmp_path):
    # the walk keeps its own stack: one level per variable no longer reaches
    # Python's recursion limit, which made this exit 3
    f = tmp_path / "ones.txt"
    f.write_text(" ".join(["1"] * 2000) + "\n")
    expr = "+".join(f"x{i}" for i in range(1500)) + "-y"
    code, out, err = run(["search", "witness", "--poly", expr, "--coloring", str(f)])
    assert (code, out, err) == (0, f"monochromatic solution: {[1] * 1500 + [1500]}\n", "")


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
    # x^a = y^a forces x = y, so one power on each side is never certified
    for power in ("1", "2"):
        code, env = run_json(["poly", "expsum", "--left", power, "--right", power])
        assert (code, env["verdict"]) == (2, "unknown")
        assert env["certificate"]["notes"] == ["one power on each side: x^a = y^a forces x = y"]


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


def test_embed_fe_reads_each_set_in_the_form_its_flag_names():
    # one scan answers every pairing of a finite and a periodic set
    assert run(["embed", "fe", "--finite", "1,2", "--in-periodic", "p=2; residues={0}"]) == (
        1, "not embeddable\n", "")
    code, env = run_json(["embed", "fe", "--finite", "1,3", "--in-periodic", "p=2; residues={0}"])
    assert (code, env["verdict"], env["certificate"]) == (0, "embeddable", {"shift": 1})
    assert run(["embed", "fe", "--periodic", "p=2; residues={1}", "--in", "1,3,5"]) == (
        1, "not embeddable\n", "")
    assert run(["embed", "fe", "--periodic", "p=2; residues={}; t=6; prefix={1,5}",
                "--in", "0,4,8"]) == (0, "embeds with shift 3\n", "")
    # an empty pattern shifts by 0 in either form
    assert run(["embed", "fe", "--finite", "", "--in", "4"]) == (0, "embeds with shift 0\n", "")
    assert run(["embed", "fe", "--periodic", "p=3; residues={}", "--in", "4"]) == (
        0, "embeds with shift 0\n", "")


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


def test_embed_fmap_budget():
    # 10^10 parameter tuples: without a budget the scan runs for hours
    wide = ["embed", "fmap", "--set", "1,2", "--in", "5", "--family", "affinity",
            "--bounds", "a=1..100000,b=0..100000", "--max-nodes", "1000"]
    code, env = run_json(wide)
    assert (code, env["verdict"], env["certificate"]) == (2, "budget-exceeded", None)
    assert env["bounds"] == {"family": "affinity", "a": [1, 100000], "b": [0, 100000],
                             "max_nodes": 1000}
    assert run(wide) == (2, "search exhausted the node budget after 1001 nodes\n", "")
    # a=2, b=3 is the 25th parameter tuple tried
    argv = ["embed", "fmap", "--set", "1,2,3", "--in", "5,7,9,11",
            "--family", "affinity", "--bounds", "a=1..10,b=0..20"]
    code, env = run_json(argv)
    assert (code, env["certificate"], env["bounds"]["max_nodes"]) == (0, {"params": [2, 3]}, 10**7)
    assert run_json(argv + ["--max-nodes", "25"])[0] == 0
    assert run(argv + ["--max-nodes", "24"])[0] == 2
    assert run(argv + ["--max-nodes", "-1"]) == (3, "", "error: node budget must be >= 0\n")


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


@pytest.mark.parametrize("family, bounds, h_bounds", [
    ("translation", "m=-3..-2", [[-3, -2]]),
    ("affinity", "a=1..2,b=-3..-2", [[1, 2], [-3, -2]]),
], ids=["translation", "affinity"])
def test_embed_probe_of_a_family_with_no_member(family, bounds, h_bounds):
    # every range is nonempty, yet no parameter tuple is valid: the probe
    # keeps the bounds as given instead of widening them past each other
    code, env = run_json(["embed", "probe-family", "--family", family, "--bounds", bounds])
    assert code == 0
    assert env["verdict"] == "counterexample"
    assert env["certificate"] == {
        "h_bounds": h_bounds, "pairs_checked": 0, "reflexivity_counterexample": [1, 2],
    }


def test_embed_probe_family_budget():
    # the translation probe tries 6,594 parameter tuples at its default bounds
    argv = ["embed", "probe-family", "--family", "translation", "--max-nodes"]
    code, env = run_json(argv + ["6594"])
    assert code == 2
    assert env["verdict"] == "no-counterexample-within-bounds"
    assert env["certificate"] == {"h_bounds": [[0, 24]], "pairs_checked": 169}
    assert env["bounds"] == {"family": "translation", "m": [0, 12], "max_nodes": 6594}
    assert run(argv + ["6593"]) == (2, "search exhausted the node budget after 6594 nodes\n", "")
    code, env = run_json(argv + ["6593"])
    assert (code, env["verdict"], env["certificate"]) == (2, "budget-exceeded", None)
    assert env["bounds"] == {"family": "translation", "m": [0, 12], "max_nodes": 6593}
    assert run(argv + ["-1"]) == (3, "", "error: node budget must be >= 0\n")


def test_embed_probe_family_default_budget_stops_a_wide_probe():
    # without a budget this probe scans for minutes
    code, env = run_json(["embed", "probe-family", "--family", "affinity",
                          "--bounds", "a=-3..12,b=-3..12"])
    assert (code, env["verdict"], env["certificate"]) == (2, "budget-exceeded", None)
    assert env["bounds"] == {"family": "affinity", "a": [-3, 12], "b": [-3, 12],
                             "max_nodes": 10**7}


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
    "cols21": " ".join(["1"] * 21) + "\n",
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
    (['check-matrix', '@cols21'], 3, '', None),
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
    (['search', 'forcing-number', '--poly', 'x+y-z', '-r', '3', '--max', '30', '--injective'],
     0,
     'forcing number: 24\n',
     {'verdict': 24,
      'certificate': None,
      'provenance': 'incremental-forcing-search',
      'bounds': {'max_nodes': 100000000, 'r': 3, 'max': 30}}),
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
      '100'],
     2,
     'search exhausted the node budget after 101 nodes\n',
     {'verdict': 'budget-exceeded',
      'certificate': None,
      'provenance': 'incremental-forcing-search',
      'bounds': {'max_nodes': 100, 'r': 3, 'max': 14}}),
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
    (['poly', 'reciprocal', 'x^3 + x*y^2 - z^3', '--degree', '3'], 3, '', None),
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
      'provenance': 'exponent-rules',
      'bounds': None}),
    (['poly', 'invariance', 'x*y-z^2'],
     0,
     'translation invariant: no\ndilation invariant: yes\nadditive: no\nmultiplicative: yes\n',
     {'verdict': {'translation_invariant': False,
                  'dilation_invariant': True,
                  'additive': False,
                  'multiplicative': True},
      'certificate': None,
      'provenance': 'exponent-rules',
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
     'embeds with shift 1\n',
     {'verdict': 'embeddable',
      'certificate': {'shift': 1},
      'provenance': 'least-shift-scan',
      'bounds': None}),
    (['embed', 'fe', '--periodic', 'p=1; residues={0}', '--in-periodic', 'p=2; residues={1}'],
     1,
     'not embeddable\n',
     {'verdict': 'not-embeddable',
      'certificate': None,
      'provenance': 'least-shift-scan',
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
      'bounds': {'family': 'affinity', 'a': [1, 10], 'b': [0, 20], 'max_nodes': 10000000}}),
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
      'bounds': {'family': 'translation', 'm': [0, 4], 'max_nodes': 10000000}}),
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
    (['embed',
      'fmap',
      '--set',
      '1,2',
      '--in',
      '2,3,5,6',
      '--family',
      'polynomial',
      '--bounds',
      'a0=0..1,a2=1..1'],
     0,
     'witness: a0=1, a1=0, a2=1\n',
     {'verdict': 'witness',
      'certificate': {'params': [1, 0, 1]},
      'provenance': 'bounded-family-parameter-scan',
      'bounds': {'family': 'polynomial', 'a0': [0, 1], 'a1': [0, 0], 'a2': [1, 1],
                 'max_nodes': 10000000}}),
    (['embed', 'apmax', '1,2,4,8,16', '--len', '3'],
     1,
     'no 3-term progression\n',
     {'verdict': False,
      'certificate': None,
      'provenance': 'residue-class-or-finite-progression-scan',
      'bounds': None}),
    (['embed', 'apmax', 'p=1; residues={0}', '--len', '6'],
     0,
     'contains a 6-term progression\n',
     {'verdict': True,
      'certificate': None,
      'provenance': 'residue-class-or-finite-progression-scan',
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
      'bounds': {'family': 'exponential', 'm': [2, 4], 'max_nodes': 10000000}}),
    (['embed', 'probe-family', '--family', 'translation'],
     2,
     'no counterexample found within bounds\n',
     {'verdict': 'no-counterexample-within-bounds',
      'certificate': {'h_bounds': [[0, 24]], 'pairs_checked': 169},
      'provenance': 'bounded-closure-probe',
      'bounds': {'family': 'translation', 'm': [0, 12], 'max_nodes': 10000000}}),
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


def test_every_traced_span_names_a_function_of_its_module():
    # the benchmark's traced run wraps each (module, name) of its SPAN_TABLE,
    # so a renamed or deleted function breaks it; the table is read as data,
    # without importing the benchmark
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "trace.py").read_text())
    value = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [getattr(t, "id", None) for t in node.targets] == ["SPAN_TABLE"])
    table = ast.literal_eval(value)
    assert len(table) >= 30
    for module, name, _ in table:
        function = getattr(importlib.import_module(module), name, None)
        assert inspect.isfunction(function) and function.__module__ == module, (module, name)
