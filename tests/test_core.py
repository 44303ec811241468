import pytest
from hypothesis import given, strategies as st

from prlab.core.coloring import Coloring
from prlab.core.matrix import IntMatrix, parse_matrix
from prlab.core.poly import (
    ParseError,
    Poly,
    linear_coefficients,
    parse_poly,
    poly_props,
)
from prlab.core.sets import FiniteSet, PeriodicSet, parse_finite, parse_periodic
from prlab.omega import verify_table_construction
from prlab.rado import blocking_prime


# -- polynomials -------------------------------------------------------------

def test_parse_linear_equation():
    P = parse_poly("x+y-z")
    assert P.monomials == {(("x", 1),): 1, (("y", 1),): 1, (("z", 1),): -1}
    assert P.constant == 0


def test_parse_coefficients_and_constant():
    P = parse_poly("2*x^2 - 3")
    assert P.monomials == {(("x", 2),): 2}
    assert P.constant == -3


def test_repeated_factors_accumulate_exponents():
    assert parse_poly("x*x") == parse_poly("x^2")
    assert parse_poly("x^2*y*x") == parse_poly("x^3*y")


def test_like_terms_collapse():
    P = parse_poly("-x + 4*x")
    assert P.monomials == {(("x", 1),): 3}
    assert parse_poly("x - x").is_zero()
    assert str(parse_poly("x - x")) == "0"


def test_equality_ignores_monomial_order():
    assert parse_poly("x+y") == parse_poly("y+x")
    assert hash(parse_poly("x+y")) == hash(parse_poly("y+x"))


def test_printer_sign_handling():
    assert str(parse_poly("-x+y")) == "-x+y"
    assert str(parse_poly("x-2*y-1")) == "x-2*y-1"
    assert str(Poly.const(-5)) == "-5"


@pytest.mark.parametrize(
    "text, position",
    [
        ("", 0),
        ("x+", 2),
        ("x*", 2),
        ("x^0", 2),
        ("x^y", 2),
        ("x y", 2),
        ("x?z", 1),
        ("X+y", 0),
    ],
)
def test_parse_error_positions(text, position):
    with pytest.raises(ParseError) as exc:
        parse_poly(text)
    assert exc.value.position == position


_coeffs = st.integers(min_value=-9, max_value=9).filter(lambda c: c != 0)
_keys = st.lists(
    st.tuples(st.sampled_from("abc"), st.integers(min_value=1, max_value=4)),
    min_size=1,
    max_size=3,
    unique_by=lambda ve: ve[0],
).map(lambda pairs: tuple(sorted(pairs)))


@given(
    st.lists(st.tuples(_keys, _coeffs), max_size=4),
    st.integers(min_value=-9, max_value=9),
)
def test_print_parse_round_trip(items, constant):
    P = Poly(dict(items), constant)
    assert parse_poly(str(P)) == P


def test_arithmetic_identities():
    x, y = Poly.variable("x"), Poly.variable("y")
    assert (x + y) * (x - y) == parse_poly("x^2 - y^2")
    assert (x + 1) ** 2 == parse_poly("x^2 + 2*x + 1")
    assert x - x == Poly.zero()


def test_substitute_and_evaluate():
    P = parse_poly("x^2 + y - 3")
    Q = P.substitute({"x": parse_poly("y+1")})
    assert Q == parse_poly("y^2 + 3*y - 2")
    assert P.evaluate({"x": 4, "y": 2}) == 15
    with pytest.raises(ValueError, match="missing value"):
        P.evaluate({"x": 4})


def test_poly_props_fixtures():
    P = parse_poly("x+y-z")
    assert linear_coefficients(P) == (1, 1, -1) and poly_props(P).is_homogeneous
    assert P.constant == 0

    P = parse_poly("x+y-z+3")
    assert linear_coefficients(P) == (1, 1, -1) and not poly_props(P).is_homogeneous
    assert P.constant == 3

    P = parse_poly("x^2 + x*y")
    props = poly_props(P)
    assert props.degree == 2 and props.is_homogeneous and linear_coefficients(P) is None
    assert props.partial_degrees == {"x": 2, "y": 1}

    with pytest.raises(ValueError, match="zero polynomial"):
        poly_props(Poly.zero())


@pytest.mark.parametrize("text, coeffs", [
    ("z - 2*x + 3*y", (-2, 3, 1)),  # in variable order, not in text order
    ("x+y-z+3", (1, 1, -1)),
    ("x - x + 5", None),
    ("x^2 + y", None),
    ("x*y - z", None),
])
def test_linear_coefficients(text, coeffs):
    assert linear_coefficients(parse_poly(text)) == coeffs


def test_linear_coefficients_reject_the_zero_polynomial():
    with pytest.raises(ValueError, match="zero polynomial"):
        linear_coefficients(Poly.zero())


# -- matrices ----------------------------------------------------------------

def test_matrix_parse_skips_blank_lines():
    M = parse_matrix("1 2 -3\n\n4 5 6\n")
    assert M.entries == ((1, 2, -3), (4, 5, 6))
    assert (M.rows, M.cols) == (2, 3)
    assert M.column(2) == (-3, 6)


def test_matrix_text_round_trip():
    M = IntMatrix([[1, 0, -1], [2, -2, 0]])
    assert parse_matrix(str(M)) == M


def test_matrix_apply():
    M = IntMatrix([[1, 1, -1]])
    assert M.apply((2, 3, 5)) == (0,)
    with pytest.raises(ValueError, match="vector length"):
        M.apply((1, 2))


def test_matrix_validation():
    with pytest.raises(ValueError, match="rectangular"):
        IntMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="at least one"):
        IntMatrix([])
    with pytest.raises(ValueError, match="unexpected character 't' in line 1 of the matrix"):
        parse_matrix("1 two\n")
    with pytest.raises(ValueError, match="empty matrix"):
        parse_matrix("\n\n")


# -- colorings ---------------------------------------------------------------

def test_coloring_from_text():
    c = Coloring.from_text("1 2 2 1\n")
    assert (c.lo, c.hi) == (1, 4)
    assert c.values() == (1, 2, 2, 1)
    assert repr(c) == "Coloring(lo=1, hi=4, r=2)"
    assert c.color(3) == 2


def test_coloring_zero_based_domain():
    c = Coloring.from_text("1 2 1", lo=0)
    assert (c.lo, c.hi) == (0, 2)
    assert c.color(0) == 1


def test_coloring_classes():
    c = Coloring(1, [1, 2, 2, 1, 3])
    assert c.classes == ((1, (1, 4)), (2, (2, 3)), (3, (5,)))
    assert c.classes is c.classes  # computed once, then kept


def test_coloring_validation():
    with pytest.raises(ValueError, match="outside coloring domain"):
        Coloring(1, [1, 2]).color(3)
    with pytest.raises(ValueError, match="nonempty"):
        Coloring(1, [])
    with pytest.raises(ValueError, match="1-based"):
        Coloring(1, [0, 1])
    with pytest.raises(ValueError, match="empty coloring text"):
        Coloring.from_text("   ")


# -- constructors take integers ---------------------------------------------

@pytest.mark.parametrize("build", [
    lambda: Poly({(("x", 1),): "2"}),
    lambda: Poly(constant=1.5),
    lambda: IntMatrix([[1.5]]),
    lambda: IntMatrix([["1"]]),
    lambda: Coloring(1, ["٣"]),
    lambda: Coloring(1, [1.0]),
    lambda: FiniteSet(["1"]),
    lambda: PeriodicSet(2, [1.0]),
    lambda: blocking_prime(["3", 1]),
    lambda: verify_table_construction(["3"], [3]),
    lambda: Coloring(1.5, [1, 2]),
    lambda: PeriodicSet(2.0, {0}),
    lambda: PeriodicSet(2, {0}, threshold=1.5),
], ids=["poly-coefficient", "poly-constant", "matrix-float", "matrix-text", "coloring-text",
        "coloring-float", "finite-set", "periodic-set", "blocking-prime", "table-weights",
        "coloring-lo", "periodic-period", "periodic-threshold"])
def test_constructors_refuse_text_and_floats(build):
    # text is read by the readers alone; a float is never truncated
    with pytest.raises(TypeError):
        build()


# -- finite and periodic sets ------------------------------------------------

def test_finite_set_normalizes():
    F = FiniteSet([3, 1, 2, 3])
    assert F.elements == (1, 2, 3)
    assert 2 in F and 5 not in F
    assert (F.min(), F.max(), F.total()) == (1, 3, 6)


def test_finite_set_rejects_negatives():
    with pytest.raises(ValueError, match="naturals"):
        FiniteSet([-1, 2])


def test_parse_finite_formats():
    assert parse_finite("1,2,3") == FiniteSet([1, 2, 3])
    assert parse_finite("{2, 5, 8}") == FiniteSet([2, 5, 8])
    assert parse_finite("") == FiniteSet()
    assert len(parse_finite("  ")) == 0


def test_periodic_membership():
    evens = PeriodicSet(2, {0})
    assert 0 in evens and 7 not in evens and -2 not in evens
    mixed = PeriodicSet(3, {1}, threshold=4, prefix={0, 2})
    assert [n for n in range(10) if n in mixed] == [0, 2, 4, 7]


def test_periodic_canonical_members():
    assert PeriodicSet(1, {0}).membership(0)
    assert 5 in PeriodicSet(2, {1})


def test_periodic_text_round_trip():
    for A in (
        PeriodicSet(2, {0}),
        PeriodicSet(6, {0, 1, 5}, threshold=3, prefix={2}),
        PeriodicSet(1, set(), threshold=4, prefix={1, 2, 3}),
    ):
        assert parse_periodic(A.to_text()) == A


def test_parse_periodic_defaults():
    A = parse_periodic("p=4; residues={1,3}")
    assert A == PeriodicSet(4, {1, 3})
    with pytest.raises(ValueError, match="needs at least"):
        parse_periodic("p=4")
    with pytest.raises(ValueError, match="bad field"):
        parse_periodic("p=4; residues={1}; junk")


def test_periodic_validation():
    with pytest.raises(ValueError, match="period"):
        PeriodicSet(0, set())
    with pytest.raises(ValueError, match="residues"):
        PeriodicSet(3, {3})
    with pytest.raises(ValueError, match="prefix"):
        PeriodicSet(3, {0}, threshold=2, prefix={2})
    with pytest.raises(ValueError, match="threshold"):
        PeriodicSet(3, {0}, threshold=-1)
