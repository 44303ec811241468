"""Random argv against the CLI's exit contract, built from the verb table."""

import json

from hypothesis import given, settings, strategies as st

from prlab.cli import VERBS
from test_cli import ENVELOPE_KEYS, VERB_PATHS, _with_files, files_dir, run  # noqa: F401


# Each argument draws from a pool of well-formed values for its name (small
# integers, short lists, bounded --bounds fragments, inputs of the right kind,
# "@name" files from FILES) or, one time in five, from every pool at once plus
# parser-hostile strings and the files "@missing" and "@dir" (a directory).
INTS = st.integers(-3, 12).map(str)
INT_LISTS = st.lists(st.integers(-3, 12), min_size=1, max_size=4).map(
    lambda xs: ",".join(map(str, xs)))
POLYS = st.sampled_from(
    ["x+y-z", "x+y-3*z", "x-y+3*z", "x^2+y^2-z^2", "2*x+3*y-5*z", "x*y-z^2", "x-y+1", "x1+x2+x3-x4"])
TERMS = st.sampled_from(["a", "b", "3", "1+2", "a+b", "S1(b)", "S2(a)+1", "heart(a, S1(b)) * 3"])
PERIODIC = st.sampled_from(["p=1; residues={0}", "p=2; residues={1}", "p=4; residues={0,1}",
                            "p=3; residues={}; t=2; prefix={0}"])
BOUNDS = st.lists(
    st.tuples(st.sampled_from(["a", "b", "m", "a0", "a1", "a2", "q"]),
              st.integers(-3, 3), st.integers(0, 2)).map(
        lambda t: f"{t[0]}={t[1]}..{t[1] + t[2]}"),
    max_size=3,
).map(",".join)
HOSTILE = st.sampled_from([
    "", " ", "(", ")", "x++", "x^", "x^-1", "-", "=", "1..", "a=..", ",,", "|", ";",
    "{", "p=0; residues={0}", "p=-2; residues={1}", "S9(", "heart(", "nan", "1e9",
    "\x00", "\u00e9", "9" * 30, "@missing", "@dir",
])
POOLS = {
    "expr": POLYS, "--poly": POLYS, "--linear": POLYS,
    "file": st.sampled_from(["@sum", "@bad"]), "--matrix": st.sampled_from(["@sum", "@bad"]),
    "--coloring": st.sampled_from(["@c5", "@good4", "@c111", "@c325"]),
    "set": INT_LISTS, "--set": INT_LISTS, "--finite": INT_LISTS, "coeffs": INT_LISTS,
    "--left": INT_LISTS, "--right": INT_LISTS, "--c": INT_LISTS, "--d": INT_LISTS,
    "--subsets": st.lists(INT_LISTS, min_size=1, max_size=3).map("|".join),
    "--subset": st.sampled_from(["x,y", "x,z", "x", "1,2", "1,3", "1,2,3"]),
    "spec": PERIODIC | INT_LISTS, "--in": PERIODIC | INT_LISTS,
    "--periodic": PERIODIC, "--in-periodic": PERIODIC,
    "term": TERMS, "left": TERMS, "right": TERMS,
    "terms": st.lists(TERMS, min_size=1, max_size=3).map(";".join),
    "--family": st.sampled_from(["translation", "affinity", "exponential", "polynomial",
                                 "power", "homothety", "spiral"]),
    "--bounds": BOUNDS,
}
ANY_VALUE = st.one_of(INTS, *POOLS.values(), HOSTILE)
FLAGS = sorted(
    {name for verb in VERBS for names, _ in verb.args for name in names if name[0] == "-"}
    | {"--json", "--max-nodes", "--threads", "--seed"}
)


@st.composite
def cli_argv(draw):
    verb = draw(st.sampled_from(VERBS + (None,)))
    if verb is None:  # no verb, a bare group, or an unknown verb
        argv = draw(st.lists(st.sampled_from(["search", "poly", "embed", "nope"]), max_size=1))
    else:
        argv = verb.path.split()
        system = draw(st.sampled_from(["--poly", "--matrix", "--ap"]))
        for names, kwargs in verb.args:
            left_out = draw(st.integers(0, 5)) == 0
            if names[0] in ("--poly", "--matrix", "--ap") and names[0] != system:
                left_out = not left_out  # mostly just one of the three
            if left_out or names[0] == "--max-nodes":  # drawn below, for every verb
                continue
            if kwargs.get("action") == "store_true":
                argv.append(names[0])
                continue
            pool = INTS if kwargs.get("type") is int else POOLS[names[0]]
            value = draw(ANY_VALUE if draw(st.integers(0, 4)) == 0 else pool)
            argv += [value] if names[0][0] != "-" else [names[0], value]
    if draw(st.integers(0, 3)) == 0:
        argv += draw(st.lists(st.one_of(st.sampled_from(FLAGS), ANY_VALUE), max_size=2))
    if draw(st.booleans()):
        argv += ["--max-nodes", str(draw(st.integers(-1, 300)))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=400, deadline=None)
@given(argv=cli_argv())
def test_random_argv_keeps_the_exit_contract(files_dir, argv):
    argv = _with_files(argv, files_dir)
    code, out, _ = run(argv)
    assert code in (0, 1, 2, 3)
    if code == 3:
        assert out == ""
    elif "--json" in argv:
        lines = out.splitlines()
        assert len(lines) == 1
        assert set(json.loads(lines[0])) == ENVELOPE_KEYS


def test_verb_table_lists_every_verb_once():
    paths = [verb.path for verb in VERBS]
    assert len(paths) == len(set(paths)) == 32
    assert set(paths) == VERB_PATHS
