"""Coefficient types: an int when whole, a Fraction otherwise, never a float.

Each computation on integer inputs must give int coefficients wherever they
are whole, and must equal (==) the same computation with every input
coefficient given as a Fraction.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan.algebra import AlgebraElement, GeneratorTable, monomial_basis
from sullivan.catalog import dim6_b2_model, dim6_b3_model, dim7_sigma_model
from sullivan.cubic import CubicForm, hesse_form
from sullivan.groebner import PolyRing, Polynomial, buchberger
from sullivan.model import SullivanModel, cup_product_cubic_form, extend_differential
from sullivan.parsing import parse_element, parse_polynomial, render_element, render_polynomial
from sullivan.roots import upoly

R3 = PolyRing(("x1", "x2", "x3"))
TABLE = GeneratorTable([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("z", 5)])


def _exact(coefficients, whole_inputs: bool) -> bool:
    """No float; with whole inputs, every whole value is an int."""
    coefficients = list(coefficients)
    if not all(type(c) in (int, Fraction) for c in coefficients):
        return False
    return not whole_inputs or all(type(c) is int for c in coefficients if c.denominator == 1)


def _as_fractions(value):
    """The same polynomial or element with every coefficient a Fraction.  The
    constructor of a polynomial makes whole values ``int``, so the twin is
    built on the path arithmetic takes, which keeps its terms as they are."""
    terms = {m: Fraction(c) for m, c in value.terms.items()}
    if isinstance(value, Polynomial):
        return Polynomial._exact(value.ring, terms)
    return AlgebraElement(value.table, terms)


whole = st.integers(-5, 5)
rational = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
ring_monomials = st.sampled_from(R3.monomials_of_degree(0) + R3.monomials_of_degree(1) + R3.monomials_of_degree(2))


def polynomials(coefficients):
    return st.dictionaries(ring_monomials, coefficients, max_size=5).map(R3.from_terms)


@st.composite
def quadric_systems(draw, coefficients=whole):
    monos = R3.monomials_of_degree(2)
    count = draw(st.integers(1, 4))
    return [
        R3.from_terms(dict(zip(monos, draw(st.lists(coefficients, min_size=6, max_size=6)))))
        for _ in range(count)
    ]


@st.composite
def elements(draw, coefficients=whole, degrees=(2, 3, 4, 5), table=TABLE):
    basis = monomial_basis(table, draw(st.sampled_from(degrees)))
    terms = draw(st.dictionaries(st.sampled_from(basis), coefficients, max_size=4))
    return table.element(terms)


@given(polynomials(whole), polynomials(whole), st.integers(0, 3))
def test_polynomial_arithmetic_keeps_whole_coefficients_int(p, q, e):
    pf, qf = _as_fractions(p), _as_fractions(q)
    for value, twin in ((p + q, pf + qf), (p - q, pf - qf), (p * q, pf * qf), (p**e, pf**e)):
        assert _exact(value.terms.values(), whole_inputs=True)
        assert value == twin


@given(polynomials(rational), polynomials(rational), st.integers(0, 3))
def test_polynomial_arithmetic_on_rationals_never_gives_a_float(p, q, e):
    for value in (p + q, p * q, p**e, p.scale(Fraction(2, 3))):
        assert _exact(value.terms.values(), whole_inputs=False)


def test_whole_sums_scalings_and_products_of_fractions_are_int():
    half = Fraction(1, 2)
    x, y = R3.variable(0), R3.variable(1)
    for p in (
        parse_polynomial("1/2*x1 + 1/2*x1", R3),
        x.scale(Fraction(2, 3)).scale(Fraction(3, 2)),
        x.scale(half) * y.scale(2),
        x.scale(half) + x.scale(half),
        2 * x.scale(half),
        (x * x).scale(half).derivative(0),
    ):
        assert all(type(c) is int for c in p.terms.values()), p.terms
    a = TABLE.generator(0)
    assert type((a.scale(half) + a.scale(half)).coefficient((1, 0, 0, 0, 0))) is int
    assert type((a.scale(half) * a.scale(4)).coefficient((2, 0, 0, 0, 0))) is int


@given(polynomials(rational), polynomials(rational), st.integers(0, 3), rational.filter(bool))
def test_polynomial_arithmetic_on_rationals_keeps_whole_values_int(p, q, e, c):
    for value in (p + q, p - q, p * q, p**e, p.scale(c), c * p, p.derivative(1)):
        assert _exact(value.terms.values(), whole_inputs=True)


@given(elements(rational), elements(rational), st.integers(0, 3))
def test_algebra_arithmetic_on_rationals_keeps_whole_values_int(a, b, e):
    for value in (a + b, a - b, a * b, a**e, a.scale(Fraction(4, 3))):
        assert _exact(value.terms.values(), whole_inputs=True)


@given(polynomials(whole) | polynomials(rational))
def test_parse_polynomial_normalises_whole_coefficients(p):
    parsed = parse_polynomial(render_polynomial(p), R3)
    assert parsed == p
    assert _exact(parsed.terms.values(), whole_inputs=True)


def test_parsed_whole_quotients_are_int():
    p = parse_polynomial("4/2*x1 - 6/4*x2 + 3", R3)
    assert [type(p.coefficient(m)) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 0))] == [int, Fraction, int]
    assert p.coefficient((1, 0, 0)) == 2 and p.coefficient((0, 0, 1)) == 0


@settings(deadline=None)
@given(quadric_systems(), polynomials(whole).map(lambda p: p * p))
def test_buchberger_and_normal_form_keep_whole_coefficients_int(system, p):
    gb = buchberger(system, R3)
    twin = buchberger([_as_fractions(q) for q in system], R3)
    assert gb == twin
    for g in gb.generators:
        assert _exact(g.terms.values(), whole_inputs=True)
    nf = gb.normal_form(p)
    assert nf == twin.normal_form(_as_fractions(p))
    assert _exact(nf.terms.values(), whole_inputs=True)


@settings(deadline=None)
@given(quadric_systems(rational), polynomials(rational))
def test_buchberger_and_normal_form_on_rationals_never_give_a_float(system, p):
    gb = buchberger(system, R3)
    for g in gb.generators:
        assert _exact(g.terms.values(), whole_inputs=True)
    assert _exact(gb.normal_form(p).terms.values(), whole_inputs=True)


@given(elements(), elements(), st.integers(0, 3))
def test_algebra_arithmetic_keeps_whole_coefficients_int(a, b, e):
    af, bf = _as_fractions(a), _as_fractions(b)
    for value, twin in ((a * b, af * bf), (a**e, af**e), (a - b, af - bf)):
        assert _exact(value.terms.values(), whole_inputs=True)
        assert value == twin


@given(elements() | elements(rational))
def test_parse_element_normalises_whole_coefficients(a):
    parsed = parse_element(render_element(a), TABLE)
    assert parsed == a
    assert _exact(parsed.terms.values(), whole_inputs=True)


SIGMA = dim7_sigma_model(3)


@given(elements(degrees=(3, 5, 7), table=SIGMA.table))
def test_extend_differential_keeps_whole_coefficients_int(a):
    m = SIGMA
    twin = SullivanModel(m.table, {n: _as_fractions(image) for n, image in zip(m.table.names, m.images)})
    d = extend_differential(m, a)
    assert _exact(d.terms.values(), whole_inputs=True)
    assert d == extend_differential(twin, _as_fractions(a))


@given(elements(rational, degrees=(3, 5, 7), table=SIGMA.table))
def test_extend_differential_of_rationals_keeps_whole_values_int(a):
    assert _exact(extend_differential(SIGMA, a).terms.values(), whole_inputs=True)


@pytest.mark.parametrize(
    "model",
    [dim6_b3_model(2), dim6_b3_model(Fraction(1, 3)), dim6_b2_model(1, (1, 0, 0, 1)), dim6_b2_model(Fraction(1, 2), (0, 1, 1, 0))],
    ids=["b3(2)", "b3(1/3)", "b2(1;1,0,0,1)", "b2(1/2;0,1,1,0)"],
)
def test_cup_forms_and_class_generators_are_exact(model):
    assert _exact(model.cochains().class_generator(6).values(), whole_inputs=False)
    form = cup_product_cubic_form(model)
    assert _exact(form.coeffs.values(), whole_inputs=True)


def test_whole_fractions_become_int_at_construction():
    half = Fraction(1, 2)
    assert type(R3.scalar(Fraction(4, 2)).coefficient((0, 0, 0))) is int
    assert type(R3.monomial((1, 0, 0), Fraction(3, 1)).coefficient((1, 0, 0))) is int
    assert type(R3.variable(0).scale(Fraction(2)).coefficient((1, 0, 0))) is int
    assert type(TABLE.scalar(Fraction(6, 3)).coefficient((0,) * 5)) is int
    assert type(TABLE.generator(0).scale(Fraction(-2)).coefficient((1, 0, 0, 0, 0))) is int
    assert type(CubicForm(2, {(0, 0, 1): Fraction(6, 3)})[(1, 0, 0)]) is int
    assert CubicForm(2, {(0, 0, 1): half})[(0, 1, 0)] == half
    assert [type(c) for c in upoly([Fraction(2), half])] == [int, Fraction]
    assert R3.from_terms({(1, 0, 0): Fraction(0)}).is_zero()
    assert CubicForm(2, {})[(0, 0, 0)] == 0 and R3.zero().coefficient((0, 0, 0)) == 0


CONSTRUCTORS = {
    "GeneratorTable.scalar": lambda v: TABLE.scalar(v),
    "GeneratorTable.element": lambda v: TABLE.element({(1, 0, 0, 0, 0): v}),
    "AlgebraElement.scale": lambda v: TABLE.generator(0).scale(v),
    "AlgebraElement.__mul__": lambda v: TABLE.generator(0) * v,
    "PolyRing.scalar": lambda v: R3.scalar(v),
    "PolyRing.monomial": lambda v: R3.monomial((1, 0, 0), v),
    "PolyRing.from_terms": lambda v: R3.from_terms({(1, 0, 0): v}),
    "Polynomial.scale": lambda v: R3.variable(0).scale(v),
    "Polynomial.__mul__": lambda v: R3.variable(0) * v,
    "Polynomial.__rmul__": lambda v: v * R3.variable(0),
    "CubicForm": lambda v: CubicForm(2, {(0, 0, 0): v}),
    "CubicForm.scale": lambda v: hesse_form(2).scale(v),
    "hesse_form": lambda v: hesse_form(v),
    "upoly": lambda v: upoly([1, v]),
}


@pytest.mark.parametrize("value", [0.1, 0.0, "1/2"], ids=["0.1", "0.0", "str"])
@pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=CONSTRUCTORS.keys())
def test_constructors_reject_floats_and_strings(build, value):
    # 0.1 used to be stored as 3602879701896397/36028797018963968, and a 0.0
    # silently dropped
    with pytest.raises(TypeError):
        build(value)
