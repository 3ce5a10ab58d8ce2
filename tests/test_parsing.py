"""Expression and model-file parsing, rendering round trips."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sullivan.algebra import GeneratorTable
from sullivan.catalog import (
    cp_model,
    dim6_b2_model,
    dim6_b3_model,
    dim7_rank3_model,
    dim7_sigma_model,
    dim8_middle_model,
    dim8_sigma_model,
    dim9_bundle_model,
    product_model,
    sphere_model,
)
from sullivan.groebner import PolyRing
from sullivan.parsing import (
    MAX_POWER_TERMS,
    ParseError,
    _power_terms,
    parse_element,
    parse_model,
    parse_polynomial,
    parse_polynomials,
    render_element,
    render_model,
    render_polynomial,
    variables_in,
)


def test_parse_model_even_sphere():
    m = parse_model("generator x1 2\ngenerator y1 3\nd y1 = x1^2\n")
    assert m.table.degrees == (2, 3)
    x1 = m.table.generator("x1")
    assert m.images[m.table.index("y1")] == x1 * x1


def test_parse_model_preserves_fractions():
    m = parse_model(
        "generator x1 2\ngenerator x2 2\ngenerator y1 3\nd y1 = x1^2 + 1/2*x2^2\n"
    )
    image = m.images[m.table.index("y1")]
    assert image.coefficient((0, 2, 0)) == Fraction(1, 2)


def test_parse_model_minimality_error():
    with pytest.raises(ParseError):
        parse_model("generator x 4\ngenerator y 3\nd y = x\n")


def test_parse_model_unknown_generator():
    with pytest.raises(ParseError):
        parse_model("generator x 2\nd z = x^2\n")


def test_parse_model_syntax_error_has_line():
    try:
        parse_model("generator x 2\ngenerator y 3\nd y = x^2 +\n")
    except ParseError as exc:
        assert "line 3" in str(exc)
    else:
        raise AssertionError("expected a parse error")


def test_parse_model_powers_of_sums():
    m = parse_model("generator x1 2\ngenerator x2 2\ngenerator y1 3\nd y1 = (x1 - x2)^2\n")
    assert m.images[2] == parse_element("x1^2 - 2*x1*x2 + x2^2", m.table)
    # a power of a sum of odd generators vanishes, whatever its exponent
    m = parse_model("generator y1 3\ngenerator y2 3\ngenerator w 5\nd w = (y1 + y2)^2000\n")
    assert m.images[2].is_zero()
    with pytest.raises(ParseError, match="line 3, column 8: a power of degree 6 exceeds the expected degree 4"):
        parse_model("generator x 2\ngenerator y 3\nd y = (x + 1)^3\n")
    # outside a model file, with no expected degree, the power is expanded as written
    table = GeneratorTable([("x", 2), ("y", 3)])
    assert parse_element("(x + 1)^3", table) == parse_element("x^3 + 3*x^2 + 3*x + 1", table)


def test_comments_and_blank_lines():
    m = parse_model(
        """
# a sphere
generator y 3   # odd generator
"""
    )
    assert m.table.degrees == (3,)


def test_precedence_and_unary_minus():
    ring = PolyRing(("x", "y"))
    p = parse_polynomial("-x^2*y + 2*x*y^2 - y^3", ring)
    assert p.coefficient((2, 1)) == -1
    assert p.coefficient((1, 2)) == 2
    assert p.coefficient((0, 3)) == -1
    q = parse_polynomial("3/2*x^2", ring)
    assert q.coefficient((2, 0)) == Fraction(3, 2)
    paren = parse_polynomial("(x + y)^3", ring)
    assert paren.coefficient((2, 1)) == 3


def test_power_of_a_sum_is_bounded_before_it_is_expanded():
    ring = PolyRing(("x", "y", "z"))
    x, y, z = (ring.variable(v) for v in "xyz")
    # the bound is exact on a homogeneous sum of all the monomials of a
    # degree, and on a sum of two terms in one variable
    assert _power_terms(x + y + z, 43) == len(((x + y + z) ** 43).terms) == 990
    assert _power_terms(ring.one() + x, 999) == 1000
    # a sum of two monomials: at most e + 1 products
    assert _power_terms(x * y + z * z, 7) == 8
    assert len(parse_polynomial("(x + y + z)^43", ring).terms) == 990 <= MAX_POWER_TERMS
    with pytest.raises(ParseError, match=f"column 12: a power of a sum with more than {MAX_POWER_TERMS} terms"):
        parse_polynomial("(x + y + z)^44", ring)
    with pytest.raises(ParseError, match="line 3, column 21"):
        parse_polynomial("x * ((x + y + z)^10)^30", ring, line=3)
    # a power of one term is never expanded term by term
    assert parse_polynomial("(2*x*y)^100000", ring).coefficient((100000, 100000, 0)) == 2**100000


def test_product_of_sums_is_bounded_before_it_is_multiplied_out():
    ring = PolyRing(("x", "y", "z"))
    # 40 · 25 pairs of terms is at the bound, 41 · 25 is past it
    assert len(parse_polynomial("(x + y)^39 * (x + z)^24", ring).terms) == 40 * 25
    with pytest.raises(ParseError, match=f"column 12: a product of sums with more than {MAX_POWER_TERMS} pairs"):
        parse_polynomial("(x + y)^40 * (x + z)^24", ring)
    # the running product is checked against each further factor
    with pytest.raises(ParseError, match="line 2, column 23"):
        parse_polynomial("(x + y)^9 * (x + z)^9 * (y + z)^99", ring, line=2)
    # a factor of one term multiplies nothing out
    assert len(parse_polynomial("3 * x * (x + y)^999 * y", ring).terms) == 1000


def test_expansions_in_one_polynomial_are_bounded_in_all():
    ring = PolyRing(("x", "y", "z"))
    # eight powers of 250 terms each reach twice MAX_POWER_TERMS, a ninth passes it
    eight = " + ".join(["(x + y)^249"] * 8)
    assert parse_polynomial(eight, ring) == parse_polynomial("8*(x + y)^249", ring)
    message = f"powers and products of sums with more than {2 * MAX_POWER_TERMS} terms in all"
    with pytest.raises(ParseError, match=f"column 120: {message}"):
        parse_polynomial(eight + " + (x + y)^249", ring)
    # a product of two sums counts its pairs of terms: 7·250 + 10 + 30 + 10·30
    seven = " + ".join(["(x + y)^249"] * 7)
    with pytest.raises(ParseError, match=f"column 109: {message}"):
        parse_polynomial(seven + " + (x + z)^9 * (y + z)^29", ring)
    # a product with a factor of one term counts nothing: 5·250 in all
    once = parse_polynomial("(x + y)^249 * z", ring)
    five = " + ".join(["(x + y)^249 * z", "z * (x + y)^249"] * 2 + ["(x + y)^249 * z"])
    assert parse_polynomial(five, ring) == once.scale(5)


def test_polynomials_parsed_together_share_one_allowance():
    ring = PolyRing(("x", "y", "z"))
    texts = ["(x + y)^249", "x*z", "(y + z)^249 + (x + z)^249"] * 2 + ["(x + y)^124 * (x - y) + (x + z)^124"]
    # 6·250 + 125 + 125·2 + 125 reach twice MAX_POWER_TERMS
    assert parse_polynomials(texts, ring) == [parse_polynomial(text, ring) for text in texts]
    message = f"column 16: powers and products of sums with more than {2 * MAX_POWER_TERMS} terms in all"
    with pytest.raises(ParseError, match=message):
        parse_polynomials(texts + ["z - x + (y + z)^1"], ring)


def test_parse_model_products_of_sums():
    header = "generator x 2\ngenerator z 2\ngenerator y 3\n"
    m = parse_model(header + "d y = (x + z)*(x - z)\n")
    assert m.images[2] == parse_element("x^2 - z^2", m.table)
    with pytest.raises(ParseError, match="line 4, column 19: a product of degree 6 exceeds the expected degree 4"):
        parse_model(header + "d y = (x + z) * (x + z) * (x + z)\n")
    # the degree rule reads the terms without odd factors of both factors
    with pytest.raises(ParseError, match="line 4, column 8: a product of degree 6"):
        parse_model(header + "d y = (x + y)*(x^2 + z)\n")
    # a factor whose every term has an odd factor leaves the product to validation
    with pytest.raises(ParseError, match=r"invalid model \(degree\): d\(y\) has degree 7, expected 4"):
        parse_model(header + "d y = (x*y + z*y) * (x + z)\n")
    # products of single terms are one term: validation reports their degree
    with pytest.raises(ParseError, match=r"invalid model \(degree\): d\(y\) has degree 6, expected 4"):
        parse_model(header + "d y = x*x*z\n")


def test_variables_in():
    assert variables_in("z*(x^2 + y^2)") == ["x", "y", "z"]


def test_polynomial_render_round_trip():
    ring = PolyRing(("x1", "x2", "x3"))
    for text in ("x1^2 - x2^2", "x1*x2 + 1/3*x3^2", "-x1^3 + 2*x1*x2*x3"):
        p = parse_polynomial(text, ring)
        assert parse_polynomial(render_polynomial(p), ring) == p


# -- parse ∘ render on random input ---------------------------------------------

NAMES = ("x", "y1", "z_2", "w'")
coefficients = st.integers(-20, 20) | st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def polynomials(draw):
    ring = PolyRing(NAMES[: draw(st.integers(1, 4))])
    monomials = st.tuples(*(st.integers(0, 4) for _ in ring.variables))
    return ring.from_terms(draw(st.dictionaries(monomials, coefficients, max_size=6)))


@st.composite
def algebra_elements(draw):
    n = draw(st.integers(1, 4))
    table = GeneratorTable(list(zip(NAMES, draw(st.lists(st.integers(1, 6), min_size=n, max_size=n)))))
    # an odd generator squares to zero, so its exponent is 0 or 1
    monomials = st.tuples(*(st.integers(0, 1 if d % 2 else 4) for d in table.degrees))
    return table.element(draw(st.dictionaries(monomials, coefficients, max_size=6)))


@settings(deadline=None)
@given(polynomials())
def test_parse_inverts_render_on_polynomials(p):
    assert parse_polynomial(render_polynomial(p), p.ring) == p


@settings(deadline=None)
@given(algebra_elements())
def test_parse_inverts_render_on_algebra_elements(a):
    assert parse_element(render_element(a), a.table) == a


# -- hostile input: only ParseError escapes ---------------------------------------

# single-digit integers only, joined by spaces: exponents stay below 10, so
# no drawn power takes long to expand
TOKENS = ("x", "y", "z", "w", "0", "1", "2", "3", "(", ")", "+", "-", "*", "^", "/", "=", "#", ".", "@")
expressions = st.lists(st.sampled_from(TOKENS), max_size=20).map(" ".join)
FUZZ_TABLE = GeneratorTable([("x", 2), ("z", 2), ("y", 3), ("w", 5)])
DEEP_PARENTHESES = "(" * 3000 + "x" + ")" * 3000
DEEP_MINUS_SIGNS = "x*" + "-" * 3000 + "x"
model_lines = st.sampled_from(
    ("generator x 2", "generator z 2", "generator y 3", "generator x 0", "generator 1 2", "generator x",
     "d y = x^2", "d q = x", "d y =", "d y x", "d y = x*z", "frobnicate", "# comment", "")
) | expressions.map(lambda e: f"d y = {e}")


def _only_parse_errors(parse, text):
    try:
        parse(text)
    except ParseError:
        pass


@settings(deadline=None)
@given(expressions)
@example(DEEP_PARENTHESES)
@example(DEEP_MINUS_SIGNS)
@example("1" * 5000 + "*x")  # past the interpreter's limit on integer digits
def test_expression_parsers_raise_only_parse_errors(text):
    _only_parse_errors(lambda t: parse_polynomial(t, PolyRing(("x", "y", "z", "w"))), text)
    _only_parse_errors(lambda t: parse_element(t, FUZZ_TABLE), text)
    _only_parse_errors(
        parse_model, f"generator x 2\ngenerator z 2\ngenerator y 3\ngenerator w 5\nd y = {text}\n"
    )


@settings(deadline=None)
@given(st.lists(model_lines, max_size=6).map("\n".join))
@example(f"generator x 2\ngenerator y 3\nd y = {DEEP_MINUS_SIGNS}")
def test_model_parser_raises_only_parse_errors(text):
    _only_parse_errors(parse_model, text)


@pytest.mark.parametrize("text", [DEEP_PARENTHESES, DEEP_MINUS_SIGNS], ids=["parentheses", "minus-signs"])
def test_deep_nesting_is_a_parse_error_naming_its_column(text):
    with pytest.raises(ParseError, match="line 3, column [0-9]+: expression nested deeper than 100 levels"):
        parse_model(f"generator x 2\ngenerator y 3\nd y = {text}\n")


CATALOG_MODELS = (
    sphere_model(2),
    sphere_model(3),
    sphere_model(4),
    cp_model(2),
    cp_model(3),
    dim6_b2_model(1, (0, 0, 0, 1)),
    dim6_b2_model(Fraction(-1, 2), (1, 0, Fraction(2, 3), 1)),
    dim6_b3_model(2),
    dim7_sigma_model(Fraction(1, 2)),
    dim7_rank3_model(),
    dim8_sigma_model(3),
    dim8_middle_model(-1),
    dim9_bundle_model(),
    product_model(cp_model(2), sphere_model(3)),
)


@pytest.mark.parametrize("model", CATALOG_MODELS, ids=lambda m: ",".join(m.table.names))
def test_model_render_parse_round_trip(model):
    text = render_model(model)
    reparsed = parse_model(text)
    assert reparsed == model
    assert render_model(reparsed) == text
