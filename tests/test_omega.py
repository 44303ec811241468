import random
import sys

import pytest

from prlab.core import ParseError, Poly
from prlab.omega import (
    MAX_TERM_NESTING,
    Atom,
    Nat,
    OmegaTerm,
    Prod,
    Star,
    Sum,
    canonical,
    diamond,
    form_text,
    heart,
    height,
    parse_term,
    star,
    tensor_pair_R,
    tensorized,
    term_eq,
    vector_term,
    verify_table_construction,
)


# -- random term generation (for property tests) ----------------------------

def random_term(rng, max_depth=3, atoms=("a", "b", "c"), max_nat=9) -> OmegaTerm:
    """A random star-calculus term: naturals drawn from 1..max_nat (zero is
    excluded so products never collapse), star budget limited by max_depth."""

    def build(size, stars):
        if size <= 1:
            if rng.random() < 0.4:
                return Nat(rng.randint(1, max_nat))
            return Atom(rng.choice(atoms))
        roll = rng.random()
        if roll < 0.25 and stars > 0:
            k = rng.randint(1, stars)
            return star(build(size - 1, stars - k), k)
        if roll < 0.45:
            return Nat(rng.randint(1, max_nat))
        if roll < 0.6:
            return Atom(rng.choice(atoms))
        left = build(size // 2, stars)
        right = build(size // 2, stars)
        return Sum(left, right) if roll < 0.8 else Prod(left, right)

    return build(rng.randint(1, 6), max_depth)


def random_term_of_height(rng, H, atoms=("a", "b", "c"), max_nat=9) -> OmegaTerm:
    """A random term whose height is exactly H."""
    if H == 0:
        return Nat(rng.randint(1, max_nat))
    t = random_term(rng, max_depth=H - 1, atoms=atoms, max_nat=max_nat)
    if height(t) == 0:
        t = Sum(t, Atom(rng.choice(atoms)))
    return star(t, H - height(t))


# -- canonical forms ---------------------------------------------------------


def test_canonical_pushes_stars_to_leaves():
    form = canonical(parse_term("S1(a+3)"))
    assert form.monomials == {((("a", 1), 1),): 1}
    assert form.constant == 3


def test_canonical_collects_product_depths():
    form = canonical(parse_term("a*S1(a)"))
    assert form.monomials == {((("a", 0), 1), (("a", 1), 1)): 1}
    assert form.constant == 0


def test_canonical_shifts_products_inside():
    form = canonical(parse_term("S2(a*b+1)"))
    assert form.monomials == {((("a", 2), 1), (("b", 2), 1)): 1}
    assert form.constant == 1


def test_canonical_square_collects_exponent():
    form = canonical(parse_term("S2(a)*S2(a)"))
    assert form.monomials == {((("a", 2), 2),): 1}


def test_star_helper_normalizes():
    assert star(Nat(4), 3) == Nat(4)
    assert star(Atom("a"), 0) == Atom("a")
    assert star(star(Atom("a"), 1), 2) == Star(Atom("a"), 3)
    with pytest.raises(ValueError):
        star(Atom("a"), -1)


def test_term_constructors_validate():
    with pytest.raises(ValueError, match="naturals only"):
        Nat(-1)
    for name in ("X", "1a", "heart", "diamond"):
        with pytest.raises(ValueError, match="bad atom name"):
            Atom(name)
    with pytest.raises(ValueError, match="must be >= 1"):
        Star(Atom("a"), 0)
    assert Star(Atom("a")).k == 1


def test_height_fixtures():
    assert height(Nat(7)) == 0
    assert height(Atom("a")) == 1
    assert height(star(Atom("a"), 3)) == 4
    assert height(parse_term("a + S2(b)")) == 3


def test_height_of_cancelled_difference_is_zero():
    diff = canonical(parse_term("S1(a)")) - canonical(parse_term("S1(a)"))
    assert diff == Poly.const(0)
    assert height(diff + Poly.const(3)) == 0


def test_negative_flag_on_formal_differences():
    diff = canonical(Atom("a")) - canonical(Atom("b"))
    assert any(c < 0 for c in diff.monomials.values())
    assert all(c > 0 for c in canonical(parse_term("a*b + 2")).monomials.values())


# (term, subtracted term or None, printed form, height): monomials by degree,
# then by (atom, depth) key; signs fold into the joins; 0 for a cancellation.
PRINTED_FORMS = (
    ("a*S1(a)", None, "a*S1(a)", 2),
    ("S2(a)*S2(a)", None, "S2(a)^2", 3),
    ("S2(a*b+1)", None, "S2(a)*S2(b)+1", 3),
    ("(a+S1(b)+2)*(a+3)", None, "5*a+3*S1(b)+a*S1(b)+a^2+6", 2),
    ("S1(a*b+c)*S2(a)+c*c*c+b", None, "b+S2(a)*S1(c)+S1(a)*S2(a)*S1(b)+c^3", 3),
    ("3*(2+4)", None, "18", 0),
    ("S1(a)", "S1(a)", "0", 0),
    ("a", "S1(b)*b", "a-b*S1(b)", 2),
    ("S1(a)+1", "2*(a+3)", "-2*a+S1(a)-5", 2),
    ("a*a+S3(b)", "a*a+2*S3(b)+c", "-S3(b)-c", 4),
    ("heart(a, b)*2", "diamond(a, a)", "2*a+2*S1(b)-a*S1(a)", 2),
)


@pytest.mark.parametrize("left,right,text,h", PRINTED_FORMS)
def test_printed_form_and_height(left, right, text, h):
    form = canonical(parse_term(left))
    if right is not None:
        form = form - canonical(parse_term(right))
    assert form_text(form) == text
    assert height(form) == h


def test_heart_structure():
    assert heart(Atom("a"), Atom("a")) == Sum(Atom("a"), Star(Atom("a"), 1))
    assert heart(Nat(3), Atom("b")) == Sum(Nat(3), Atom("b"))
    assert diamond(Atom("a"), Atom("b")) == Prod(Atom("a"), Star(Atom("b"), 1))


def test_tensorized_fixtures():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert tensorized((a, b, c)) == (a, Star(b, 1), Star(c, 2))
    assert tensorized((Nat(2), a)) == (Nat(2), a)
    assert tensorized((Star(a, 1), b)) == (Star(a, 1), Star(b, 2))
    with pytest.raises(ValueError):
        tensorized((a,))


def test_tensor_pair_fixtures():
    a, b = Atom("a"), Atom("b")
    assert tensor_pair_R(a, Star(b, 1))
    assert not tensor_pair_R(a, b)
    assert tensor_pair_R(a, Nat(5))


def test_term_eq_fixtures():
    a, b, c = Atom("a"), Atom("b"), Atom("c")
    assert term_eq(heart(a, heart(b, c)), heart(heart(a, b), c))
    assert term_eq(Sum(a, b), Sum(b, a))
    assert not term_eq(heart(a, b), heart(b, a))
    assert term_eq(parse_term("1+2"), parse_term("3"))
    assert term_eq(heart(a, Nat(3)), Sum(a, Nat(3)))


def test_heart_commutes_exactly_when_one_side_is_natural():
    a = Atom("a")
    assert term_eq(heart(a, Nat(4)), heart(Nat(4), a))
    assert term_eq(diamond(a, Nat(4)), diamond(Nat(4), a))
    assert not term_eq(diamond(a, Atom("b")), diamond(Atom("b"), a))


def test_parser_round_trips():
    rng = random.Random(7)
    for _ in range(60):
        t = random_term(rng)
        assert term_eq(parse_term(str(t)), t)


def test_parser_builtins_and_star_zero():
    t = parse_term("heart(a, diamond(b, c))")
    assert term_eq(t, heart(Atom("a"), diamond(Atom("b"), Atom("c"))))
    assert parse_term("S0(a)") == Atom("a")
    assert parse_term("S2(3)") == Nat(3)


def test_parser_errors_carry_positions():
    with pytest.raises(ParseError) as e:
        parse_term("a + ")
    assert e.value.position == 4
    with pytest.raises(ParseError):
        parse_term("heart(a)")
    with pytest.raises(ParseError):
        parse_term("a ? b")
    with pytest.raises(ParseError):
        parse_term("Foo(a)")
    with pytest.raises(ParseError):
        parse_term("")


def _recursive_canonical(t):
    """The recursive definition that canonical evaluates with its own stack."""
    if isinstance(t, Nat):
        return Poly.const(t.value)
    if isinstance(t, Atom):
        return Poly({(((t.name, 0), 1),): 1})
    if isinstance(t, Star):
        form = _recursive_canonical(t.body)
        return Poly({tuple(((n, d + t.k), e) for (n, d), e in key): c
                     for key, c in form.monomials.items()}, form.constant)
    left, right = _recursive_canonical(t.left), _recursive_canonical(t.right)
    return left + right if isinstance(t, Sum) else left * right


def test_canonical_matches_the_recursive_definition():
    rng = random.Random(11)
    for depth in range(1, 6):
        for _ in range(60):
            t = random_term(rng, max_depth=depth)
            got, want = canonical(t), _recursive_canonical(t)
            assert got == want and form_text(got) == form_text(want), t


def test_long_flat_terms_need_no_recursion():
    assert form_text(canonical(parse_term("+".join(["a"] * 5000)))) == "5000*a"
    assert form_text(canonical(parse_term("*".join(["S1(a)"] * 1500)))) == "S1(a)^1500"
    with pytest.raises(TypeError, match="not a term"):
        canonical(Sum(Atom("a"), 3))


def _recursive_str(t) -> str:
    if isinstance(t, Star):
        return f"S{t.k}({_recursive_str(t.body)})"
    if isinstance(t, (Sum, Prod)):
        op = "+" if isinstance(t, Sum) else "*"
        return f"({_recursive_str(t.left)}{op}{_recursive_str(t.right)})"
    return str(t)


def test_small_terms_print_as_the_recursive_definition():
    assert str(parse_term("a+b")) == "(a+b)"
    assert str(parse_term("S2(a*3)+b")) == "(S2((a*3))+b)"
    assert str(Prod(Star(Sum(Nat(0), Atom("x")), 4), Nat(7))) == "(S4((0+x))*7)"
    assert str(Atom("a")) == "a" and str(Nat(12)) == "12"
    assert str(tensorized(parse_term(t) for t in ("a", "b*c"))[1]) == "S1((b*c))"
    rng = random.Random(12)
    for depth in range(1, 6):
        for _ in range(60):
            t = random_term(rng, max_depth=depth)
            assert str(t) == _recursive_str(t)


def test_long_flat_terms_print_without_recursion():
    flat = parse_term("+".join(["a"] * 1000))
    assert str(flat) == "(" * 999 + "a" + "+a)" * 999
    assert str(Star(flat, 3)) == "S3(" + str(flat) + ")"


def test_long_flat_terms_repr_without_recursion():
    flat = parse_term("+".join(["a"] * 1000))
    assert repr(flat) == f"Sum({flat})"
    assert repr(parse_term("S2(a)*3")) == "Prod((S2(a)*3))"
    assert repr(Atom("a")) == "Atom(a)" and repr(Nat(12)) == "Nat(12)"


def test_long_flat_terms_compare_and_hash_without_recursion():
    text = "+".join(["a"] * 1000)
    t, u = parse_term(text), parse_term(text)
    assert t is not u and t == u and hash(t) == hash(u)
    assert len({t, u, parse_term(text + "+a")}) == 2
    assert t != parse_term(text.replace("+", "*")) and t != Sum(u, Nat(0))
    # the same text from different trees stays unequal across term types
    assert Atom("a") != Nat(1) and Sum(Atom("a"), Nat(1)) != Prod(Atom("a"), Nat(1))


def test_nesting_bound_does_not_depend_on_the_recursion_limit():
    deepest = "(" * MAX_TERM_NESTING + "a" + ")" * MAX_TERM_NESTING
    assert parse_term(deepest) == Atom("a")
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(20_000)
    try:
        for text in ("(" + deepest + ")", "(" * 2000 + "a" + ")" * 2000,
                     "S1(" * (MAX_TERM_NESTING + 1) + "a" + ")" * (MAX_TERM_NESTING + 1)):
            with pytest.raises(ValueError, match="^input nested too deeply$"):
                parse_term(text)
    finally:
        sys.setrecursionlimit(limit)


# -- the two-table verifier -------------------------------------------------

XI_ANCHORS = (
    (3, 5, 5, 2, 2, 6, 1, 1, 9),
    (3, 0, 5, 2, 6, 6, 1, 1, 9),
    (3, 3, 5, 2, 0, 6, 1, 1, 9),
)
ETA_ANCHORS = (
    (3, 3, 5, 2, 2, 6, 1, 9, 9),
    (3, 3, 5, 2, 2, 6, 1, 0, 9),
)
LEDGER_ANCHORS = (
    "c1 = 9 + 6 + 12 - 3 - 24 = 0",
    "c2 = 15 + 0 + 12 - 3 - 24 = 0",
    "c3 = 15 + 10 + 20 - 5 - 40 = 0",
    "c4 = 6 + 4 + 8 - 2 - 16 = 0",
    "c5 = 6 + 12 + 0 - 2 - 16 = 0",
    "c6 = 18 + 12 + 24 - 6 - 48 = 0",
    "c7 = 3 + 2 + 4 - 1 - 8 = 0",
    "c8 = 3 + 2 + 4 - 9 - 0 = 0",
    "c9 = 27 + 18 + 36 - 9 - 72 = 0",
)


def test_table_construction_main_anchor():
    result = verify_table_construction((3, 2, 4), (1, 8))
    assert result.xi == XI_ANCHORS
    assert result.eta == ETA_ANCHORS
    assert all(row[:6] == (3, 3, 5, 2, 2, 6) for row in result.eta)  # generic beta row
    assert all(row[6:] == (1, 1, 9) for row in result.xi)  # generic gamma row
    assert result.zero_check
    assert result.distinct_check
    assert tuple(line.text() for line in result.ledger) == LEDGER_ANCHORS


def test_table_vectors_match_their_terms():
    result = verify_table_construction((3, 2, 4), (1, 8))
    spelled = parse_term(
        "3*a + 5*S1(a) + 5*S2(a) + 2*S3(a) + 2*S4(a) + 6*S5(a)"
        " + S6(a) + S7(a) + 9*S8(a)"
    )
    assert term_eq(vector_term(result.xi[0]), spelled)


def test_table_construction_degenerate_side():
    result = verify_table_construction((1, 1), (2,))
    assert result.xi == ((1, 2, 2, 2), (1, 0, 2, 2))
    assert result.eta == ((1, 1, 2, 2),)
    assert result.zero_check
    assert result.distinct_check


def test_table_construction_errors():
    with pytest.raises(ValueError, match="coefficient sums differ"):
        verify_table_construction((1,), (2,))
    with pytest.raises(ValueError, match="table shape too small"):
        verify_table_construction((2,), (2,))
    with pytest.raises(ValueError, match="positive"):
        verify_table_construction((1, 0), (1,))
    with pytest.raises(ValueError):
        verify_table_construction((), (1,))


def test_table_construction_random_weights_always_balance():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        if n + m < 3:
            continue
        c = [rng.randint(1, 6) for _ in range(n)]
        d = [rng.randint(1, 6) for _ in range(m - 1)]
        gap = sum(c) - sum(d)
        if gap < 1:
            c[0] += 1 - gap
            gap = sum(c) - sum(d)
        d.append(gap)
        result = verify_table_construction(c, d)
        assert result.zero_check


# -- the identity suite -----------------------------------------------------
#
# Each check draws its own random terms and asserts one algebraic identity of
# the height-shifted operations.  The acceptance suite reruns every check
# many times under a time budget, so keep each individual run cheap.


def check_natural_absorbs_into_heart(rng):
    a = random_term(rng)
    n = Nat(rng.randint(1, 9))
    assert term_eq(heart(a, n), heart(n, a))
    assert term_eq(heart(a, n), Sum(a, n))


def check_natural_scales_through_diamond(rng):
    a = random_term(rng)
    n = Nat(rng.randint(1, 9))
    assert term_eq(diamond(a, n), diamond(n, a))
    assert term_eq(diamond(a, n), Prod(a, n))


def check_heart_associative(rng):
    a, b, c = (random_term(rng) for _ in range(3))
    assert term_eq(heart(a, heart(b, c)), heart(heart(a, b), c))


def check_diamond_associative(rng):
    a, b, c = (random_term(rng) for _ in range(3))
    assert term_eq(diamond(a, diamond(b, c)), diamond(diamond(a, b), c))


def check_diamond_distributes_from_left(rng):
    g, a, b = (random_term(rng) for _ in range(3))
    assert term_eq(
        diamond(g, Sum(a, b)), Sum(diamond(g, a), diamond(g, b))
    )


def check_star_slides_out_of_heart(rng):
    a = random_term_of_height(rng, rng.randint(1, 3))
    b = random_term(rng)
    assert term_eq(heart(star(a), b), star(heart(a, b)))


def check_star_slides_out_of_diamond(rng):
    a = random_term_of_height(rng, rng.randint(1, 3))
    b = random_term(rng)
    assert term_eq(diamond(star(a), b), star(diamond(a, b)))


def check_heart_shifts_naturals_between_arguments(rng):
    a, b = random_term(rng), random_term(rng)
    n = Nat(rng.randint(1, 9))
    left = heart(Sum(a, n), b)
    assert term_eq(left, heart(a, Sum(b, n)))
    assert term_eq(left, Sum(heart(a, b), n))


def check_heart_height_is_additive(rng):
    a, b = random_term(rng), random_term(rng)
    assert height(heart(a, b)) == height(a) + height(b)


def check_diamond_height_is_additive(rng):
    a, b = random_term(rng), random_term(rng)
    assert height(diamond(a, b)) == height(a) + height(b)


def check_equal_height_sums_distribute_over_diamond(rng):
    H = rng.randint(0, 3)
    a, b = (random_term_of_height(rng, H) for _ in range(2))
    g = random_term(rng)
    assert term_eq(
        diamond(Sum(a, b), g), Sum(diamond(a, g), diamond(b, g))
    )


def check_heart_of_sums_splits_termwise(rng):
    H = rng.randint(0, 3)
    k = rng.randint(2, 3)
    alphas = [random_term_of_height(rng, H) for _ in range(k)]
    betas = [random_term(rng) for _ in range(k)]
    lhs = heart(_sum(alphas), _sum(betas))
    rhs = _sum([heart(x, y) for x, y in zip(alphas, betas)])
    assert term_eq(lhs, rhs)


def check_diamond_of_products_splits_termwise(rng):
    H = rng.randint(0, 3)
    k = rng.randint(2, 3)
    alphas = [random_term_of_height(rng, H) for _ in range(k)]
    betas = [random_term(rng) for _ in range(k)]
    lhs = diamond(_prod(alphas), _prod(betas))
    rhs = _prod([diamond(x, y) for x, y in zip(alphas, betas)])
    assert term_eq(lhs, rhs)


def _sum(terms):
    out = terms[0]
    for t in terms[1:]:
        out = Sum(out, t)
    return out


def _prod(terms):
    out = terms[0]
    for t in terms[1:]:
        out = Prod(out, t)
    return out


IDENTITY_CHECKS = (
    ("naturals commute through heart", check_natural_absorbs_into_heart),
    ("naturals commute through diamond", check_natural_scales_through_diamond),
    ("heart is associative", check_heart_associative),
    ("diamond is associative", check_diamond_associative),
    ("diamond distributes over sums", check_diamond_distributes_from_left),
    ("star slides out of heart", check_star_slides_out_of_heart),
    ("star slides out of diamond", check_star_slides_out_of_diamond),
    ("naturals shift between heart arguments", check_heart_shifts_naturals_between_arguments),
    ("heart height is additive", check_heart_height_is_additive),
    ("diamond height is additive", check_diamond_height_is_additive),
    ("equal-height sums distribute over diamond", check_equal_height_sums_distribute_over_diamond),
    ("heart of sums splits termwise", check_heart_of_sums_splits_termwise),
    ("diamond of products splits termwise", check_diamond_of_products_splits_termwise),
)


@pytest.mark.parametrize("label,check", IDENTITY_CHECKS, ids=[l for l, _ in IDENTITY_CHECKS])
def test_identity_on_random_terms(label, check):
    rng = random.Random(hash(label) % (2**32))
    for _ in range(300):
        check(rng)


def test_height_agrees_between_term_and_canonical_form():
    rng = random.Random(23)
    for _ in range(200):
        t = random_term(rng)
        assert height(t) == height(canonical(t))


def test_height_targeted_generator_hits_its_target():
    rng = random.Random(29)
    for _ in range(200):
        H = rng.randint(0, 4)
        assert height(random_term_of_height(rng, H)) == H


def test_star_to_own_height_forms_tensor_pair():
    rng = random.Random(31)
    for _ in range(200):
        a, b = random_term(rng), random_term(rng)
        assert tensor_pair_R(a, star(b, height(a)))


def test_tensorized_prefixes_pair_with_next_component():
    rng = random.Random(37)
    for _ in range(120):
        k = rng.randint(2, 4)
        comps = tensorized([random_term(rng) for _ in range(k)])
        prefix = comps[0]
        for nxt in comps[1:]:
            assert tensor_pair_R(prefix, nxt)
            prefix = Sum(prefix, nxt)
