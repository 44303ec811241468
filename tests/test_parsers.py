"""Random text against the input readers: the two expression grammars, the
set readers, the matrix and coloring readers.  Each returns a value or
raises a ParseError with a position inside the text; only a value check of
the type it builds may raise another ValueError.  Every reader spells an
integer with one rule, and int() is called in one place."""

import ast
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import prlab
from prlab.core import Coloring, ParseError, parse_finite, parse_matrix, parse_periodic, parse_poly
from prlab.core.poly import SPACE, read_items, read_ints
from prlab.omega import parse_term

# whitespace of several kinds, uppercase, stray symbols, non-ASCII digits
JUNK = [" ", "\t", "\n", " ", " ", "X", "Q", "é", "٣", "१",
        "/", "=", ".", "#", ";", "{", "}", "_", "\x00", "-", "^", "(", ")", ","]
POLY_PIECES = ["x", "y", "z1", "w_2", "0", "1", "2", "12", "+", "-", "*", "^", " "]
TERM_PIECES = ["a", "b", "c1", "0", "3", "17", "+", "*", "(", ")", ",", " ",
               "S1(", "S2(", "S0(", "S", "heart(", "diamond(", "heart", "Foo"]
PERIODIC_PIECES = ["p=", "residues=", "t=", "prefix=", "{", "}", ",", ";", " ",
                   "0", "1", "2", "4", "12", "-1", "p", "q="]
FINITE_PIECES = ["{", "}", ",", " ", "0", "1", "2", "12", "-1"]
MATRIX_PIECES = ["1", "-2", "+3", "0", "12", " ", " ", "\n", "\n", "\t", "-", "+", "1_0", "٣", "--1"]
COLORING_PIECES = ["1", "2", "3", "+2", "0", "-1", " ", " ", "\n", "1_0", "٣", "+"]
# the value checks of the types the two file readers build
MATRIX_VALUE_ERRORS = ("empty matrix text", "ragged rows: matrix must be rectangular")
COLORING_VALUE_ERRORS = ("empty coloring text", "colors are 1-based positive integers")
PERIODIC_VALUE_ERRORS = ("period must be >= 1", "threshold must be >= 0",
                         "residues must lie in [0, period)", "prefix must lie in [0, threshold)",
                         "periodic-set text needs at least p=... and residues={...}")


def texts(pieces):
    """Concatenations of grammar pieces and junk, or plain text over their
    characters."""
    alphabet = sorted(set("".join(pieces + JUNK)))
    return (st.lists(st.sampled_from(pieces + JUNK) | st.sampled_from(pieces), max_size=16)
            .map("".join)
            | st.text(alphabet, max_size=24))


def outcome(parse, text):
    """The parsed value or the ValueError; any other exception escapes."""
    try:
        return parse(text)
    except ValueError as exc:
        return exc


def assert_positioned(exc, text, value_errors=("input nested too deeply",)):
    if not isinstance(exc, ValueError) or str(exc) in value_errors:
        return
    assert isinstance(exc, ParseError)
    assert 0 <= exc.position <= len(text)
    assert str(exc).endswith(f"at position {exc.position}")


@settings(max_examples=400)
@given(texts(POLY_PIECES))
@example("x+")
@example("٣*x")
@example("x^0")
def test_poly_parser_raises_only_positioned_errors(text):
    assert_positioned(outcome(parse_poly, text), text)


@settings(max_examples=400)
@given(texts(TERM_PIECES))
@example("heart(a")
@example("٣+a")
@example("(" * 202 + "a" + ")" * 202)
def test_term_parser_raises_only_positioned_errors(text):
    assert_positioned(outcome(parse_term, text), text)


@settings(max_examples=300)
@given(texts(PERIODIC_PIECES))
@example("p=4; residues={1,3}")
@example("p=0; residues={0}")
@example("0")
def test_periodic_parser_raises_only_value_errors(text):
    assert_positioned(outcome(parse_periodic, text), text, PERIODIC_VALUE_ERRORS)


@settings(max_examples=300)
@given(texts(FINITE_PIECES))
@example("{1,2")
@example("{{1}}")
@example("1,2}")
def test_finite_sets_take_braces_only_as_one_pair_around_the_list(text):
    got = outcome(parse_finite, text)
    assert_positioned(got, text)
    body = text.strip(SPACE)
    inner = body[1:-1] if len(body) > 1 and body[0] + body[-1] == "{}" else body
    if "{" in inner or "}" in inner:
        assert isinstance(got, ParseError)


@settings(max_examples=300)
@given(texts(MATRIX_PIECES))
@example("1 1_0 -٣")
@example("1 2\n\n3 +4\n")
def test_matrix_reader_raises_only_positioned_errors(text):
    assert_positioned(outcome(parse_matrix, text), text, MATRIX_VALUE_ERRORS)


@settings(max_examples=300)
@given(texts(COLORING_PIECES))
@example("1 ٣ 1_0")
@example("1 2\n2 +1")
def test_coloring_reader_raises_only_positioned_errors(text):
    assert_positioned(outcome(Coloring.from_text, text), text, COLORING_VALUE_ERRORS)


ASCII_SPACE = st.text(" \t\n\r\f\v", max_size=2)


@given(st.lists(st.tuples(ASCII_SPACE, st.integers(-99, 99), ASCII_SPACE), max_size=6))
def test_integer_lists_read_back_with_whitespace_around_items(items):
    text = ",".join(f"{before}{n}{after}" for before, n, after in items)
    assert read_ints(text, signed=True) == [n for _, n, _ in items]


@given(st.lists(st.tuples(ASCII_SPACE, st.text("ab1{}=.", max_size=3), ASCII_SPACE), max_size=6),
       st.sampled_from([",", ";", "|"]), st.integers(0, 50))
def test_items_come_back_with_the_positions_where_they_stand(items, sep, position):
    text = sep.join(before + item + after for before, item, after in items)
    got = read_items(text, sep, position)
    if not text.strip(SPACE):
        assert got == []
        return
    assert [item for item, _ in got] == [item for _, item, _ in items]
    start = position  # an item stands after the whitespace before it, an empty one at its end
    for (before, item, after), (_, at) in zip(items, got):
        assert at == start + len(before if item else before + after)
        start += len(before + item + after) + 1


@given(st.lists(st.integers(0, 99).map(str), min_size=1, max_size=5), ASCII_SPACE, st.data())
def test_an_empty_list_item_is_refused_where_it_is(items, blank, data):
    at = data.draw(st.integers(0, len(items)))
    text = ",".join(items[:at] + [blank] + items[at:])
    position = sum(len(item) + 1 for item in items[:at]) + len(blank)
    with pytest.raises(ParseError) as exc:
        read_ints(text)
    assert str(exc.value) == f"expected a natural number at position {position}"


@pytest.mark.parametrize("parse, text, message", [
    (parse_poly, "x+", "expected term at position 2"),
    (parse_poly, "x y", "expected '+' or '-', got 'y' at position 2"),
    (parse_poly, "2 3", "expected '+' or '-', got 3 at position 2"),
    (parse_poly, "x^0", "exponent must be >= 1 at position 2"),
    (parse_poly, "x+٣", "unexpected character '٣' at position 2"),
    (parse_poly, " \t", "empty input at position 0"),
    (parse_term, "heart(a", "expected ',' at position 7"),
    (parse_term, "a b", "unexpected 'b' at position 2"),
    (parse_term, "(a) 2", "unexpected 2 at position 4"),
    (parse_term, "Foo(a)", "unknown identifier 'Foo' at position 0"),
    (parse_term, "a+", "expected a term at position 2"),
    (parse_term, "a ? b", "unexpected character '?' at position 2"),
    # one digit more than the interpreter converts to int
    pytest.param(parse_poly, "9" * (sys.get_int_max_str_digits() + 1) + "*x+y-z",
                 "integer literal too long at position 0", id="poly-long-integer"),
    pytest.param(parse_term, "a+" + "7" * (sys.get_int_max_str_digits() + 1),
                 "integer literal too long at position 2", id="term-long-natural"),
    pytest.param(parse_term, "S" + "1" * (sys.get_int_max_str_digits() + 1) + "(a)",
                 "integer literal too long at position 1", id="term-long-star-count"),
    # star-term naturals are ASCII digits, as polynomial integers are ("x+٣" above)
    pytest.param(parse_term, "٣+१", "unexpected character '٣' at position 0",
                 id="term-non-ascii-digit"),
    pytest.param(parse_finite, "1, " + "9" * (sys.get_int_max_str_digits() + 1),
                 "integer literal too long in the set at position 3", id="finite-long-integer"),
    pytest.param(parse_periodic, "p=" + "9" * (sys.get_int_max_str_digits() + 1) + "; residues={0}",
                 "integer literal too long in field 'p' at position 2", id="periodic-long-period"),
    pytest.param(parse_periodic, "p=5; residues={0, " + "9" * (sys.get_int_max_str_digits() + 1) + "}",
                 "integer literal too long in field 'residues' at position 18",
                 id="periodic-long-residue"),
    # set readers take ASCII digits only, as both expression grammars do
    pytest.param(parse_finite, "3, 1_0", "unexpected character '_' in the set at position 4",
                 id="finite-digit-grouping"),
    pytest.param(parse_finite, "1,-2", "unexpected character '-' in the set at position 2",
                 id="finite-sign"),
    pytest.param(parse_periodic, "p=5; residues={0, ٣}",
                 "unexpected character '٣' in field 'residues' at position 18",
                 id="periodic-non-ascii-residue"),
    pytest.param(parse_periodic, "p=5; residues={0}; t=3; prefix={1,}",
                 "expected a natural number in field 'prefix' at position 34",
                 id="periodic-empty-prefix-item"),
    # fields are split at ';' and each is read where it stands
    pytest.param(parse_periodic, "p=4; residues={1}; junk",
                 "bad field 'junk' in periodic-set text at position 19", id="periodic-bad-field"),
    pytest.param(parse_periodic, "p=4; residues={1};", "bad field '' in periodic-set text at position 18",
                 id="periodic-blank-field"),
    pytest.param(parse_periodic, "p=4; residues={1}; q=7", "unknown field 'q' at position 19",
                 id="periodic-unknown-field"),
    pytest.param(parse_periodic, "p=4; p=5; residues={1}", "repeated field 'p' at position 5",
                 id="periodic-repeated-field"),
    # braces only as one pair around the whole list
    pytest.param(parse_finite, "{1,2", "unexpected character '{' in the set at position 0",
                 id="finite-open-brace"),
    pytest.param(parse_finite, " {{1,2}}", "unexpected character '{' in the set at position 2",
                 id="finite-double-brace"),
    pytest.param(parse_finite, "1,2}", "unexpected character '}' in the set at position 3",
                 id="finite-close-brace"),
    # the file readers take signed integers by the same rule
    pytest.param(parse_matrix, "1 2\n1 ٣", "unexpected character '٣' in line 2 of the matrix at position 6",
                 id="matrix-non-ascii-digit"),
    pytest.param(parse_matrix, "1 1_0", "unexpected character '_' in line 1 of the matrix at position 3",
                 id="matrix-digit-grouping"),
    pytest.param(parse_matrix, "1 -" + "9" * (sys.get_int_max_str_digits() + 1),
                 "integer literal too long in line 1 of the matrix at position 2", id="matrix-long-entry"),
    pytest.param(Coloring.from_text, "1 ٣ 1", "unexpected character '٣' in the coloring at position 2",
                 id="coloring-non-ascii-digit"),
    pytest.param(Coloring.from_text, "2\n1_0", "unexpected character '_' in the coloring at position 3",
                 id="coloring-digit-grouping"),
    pytest.param(Coloring.from_text, "2 " + "1" * (sys.get_int_max_str_digits() + 1),
                 "integer literal too long in the coloring at position 2", id="coloring-long-color"),
])
def test_parse_error_messages(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message


def _names_a_type(node, parent) -> bool:
    """Whether this use of a name only names a type: a type parameter, as in
    tuple[int, ...], or isinstance's class argument."""
    if isinstance(parent[node], ast.Tuple):
        node = parent[node]
    up = parent[node]
    if isinstance(up, ast.Subscript):
        return node is up.slice
    return isinstance(up, ast.Call) and getattr(up.func, "id", None) == "isinstance" \
        and node in up.args[1:]


def _int_uses():
    """(module, enclosing function, "call" or "value") for each place under
    src/prlab where the builtin int is called or passed as a value, not just
    named as a type in an annotation, a type parameter or isinstance."""
    root = Path(prlab.__file__).parent
    uses = set()
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        parent = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
        annotations = {id(n) for node in ast.walk(tree)
                       for ann in (getattr(node, "annotation", None), getattr(node, "returns", None))
                       if ann is not None for n in ast.walk(ann)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Name) or node.id != "int" or id(node) in annotations \
                    or _names_a_type(node, parent):
                continue
            scope = parent[node]
            while not isinstance(scope, (ast.FunctionDef, ast.Module)):
                scope = parent[scope]
            call = isinstance(parent[node], ast.Call) and parent[node].func is node
            uses.add((path.relative_to(root).as_posix(), getattr(scope, "name", None),
                      "call" if call else "value"))
    return uses


def test_int_is_called_in_the_core_reader_only():
    # every reader and every integer argument goes through read_int, so
    # one rule decides how an integer is spelled
    assert _int_uses() == {("core/poly.py", "read_int", "call")}


def test_every_whitespace_pattern_is_ascii():
    # \s and \S match every Unicode space, such as the em space U+2003;
    # whitespace in input is ASCII, so a pattern that names it passes
    # re.ASCII.  A pattern built at run time counts as one that names it.
    root = Path(prlab.__file__).parent
    calls = ("compile", "match", "fullmatch", "search", "finditer", "findall", "split", "sub")
    found = []
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and ast.unparse(node.func.value) == "re" and node.func.attr in calls):
                continue
            pattern = node.args[0]
            spaced = not isinstance(pattern, ast.Constant) or any(
                c in pattern.value for c in ("\\s", "\\S"))
            flags = [ast.unparse(a) for a in node.args[1:] + [k.value for k in node.keywords]]
            if spaced and not any("re.ASCII" in f for f in flags):
                found.append(f"{path.relative_to(root)}:{node.lineno}")
    assert found == []


def test_no_pattern_matches_unicode_digits():
    # \d matches every Unicode decimal digit; integers are ASCII [0-9]
    root = Path(prlab.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, str) and "\\d" in node.value
    ]
    assert found == []
