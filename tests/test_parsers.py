"""Random text against the three input parsers: each returns a value or
raises ValueError, and a syntax error in either expression grammar carries a
position inside the text."""

import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from prlab.core import ParseError, parse_finite, parse_periodic, parse_poly
from prlab.omega import parse_term

# whitespace of several kinds, uppercase, stray symbols, non-ASCII digits
JUNK = [" ", "\t", "\n", " ", " ", "X", "Q", "é", "٣", "१",
        "/", "=", ".", "#", ";", "{", "}", "_", "\x00", "-", "^", "(", ")", ","]
POLY_PIECES = ["x", "y", "z1", "w_2", "0", "1", "2", "12", "+", "-", "*", "^", " "]
TERM_PIECES = ["a", "b", "c1", "0", "3", "17", "+", "*", "(", ")", ",", " ",
               "S1(", "S2(", "S0(", "S", "heart(", "diamond(", "heart", "Foo"]
PERIODIC_PIECES = ["p=", "residues=", "t=", "prefix=", "{", "}", ",", ";", " ",
                   "0", "1", "2", "4", "12", "-1", "p", "q="]


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


def assert_positioned(exc, text):
    if not isinstance(exc, ValueError) or str(exc) == "input nested too deeply":
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
def test_periodic_parser_raises_only_value_errors(text):
    outcome(parse_periodic, text)


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
])
def test_parse_error_messages(parse, text, message):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message
