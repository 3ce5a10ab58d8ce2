"""Graded algebra arithmetic: signs, degrees, bases, Hilbert series."""

import random
from fractions import Fraction
from operator import add, mul, sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan import GeneratorTable, monomial_basis
from sullivan.algebra import AlgebraElement, TableMismatchError, sorted_monomials
from sullivan.groebner import PolyRing
from sullivan.model import SullivanModel, _free_dimensions, even_element_to_polynomial, even_subalgebra_ring

VT = GeneratorTable([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 5)])
DL = GeneratorTable(
    [("x1", 2), ("x2", 2), ("x3", 2), ("y1", 3), ("y2", 3), ("y3", 3)]
)


def gens(table):
    return [table.generator(n) for n in table.names]


def test_koszul_sign():
    _, _, y1, y2 = gens(VT)
    assert y1 * y2 == -(y2 * y1)
    assert not (y1 * y2).is_zero()


def test_odd_square_is_zero():
    y1 = VT.generator("y1")
    assert (y1 * y1).is_zero()


def test_even_generators_commute():
    x1, x2, _, _ = gens(VT)
    square = (x1 + x2) * (x1 + x2)
    assert square == x1 * x1 + (x1 * x2).scale(2) + x2 * x2


def test_degree_of():
    x1, _, y1, _ = gens(VT)
    assert (x1 * x1).degree() == 4
    assert (y1 * x1).degree() == 5
    assert (x1 + x1 * x1).degree() == "mixed"
    assert VT.zero().degree() == "zero"


def test_monomial_basis_even_square():
    table = GeneratorTable([("x1", 2), ("x2", 2)])
    basis = monomial_basis(table, 4)
    assert basis == [(2, 0), (1, 1), (0, 2)]


def test_monomial_basis_degree_seven_order():
    # y1*x1^2, y1*x1*x2, y1*x2^2, y2*x1, y2*x2 in this order
    basis = monomial_basis(VT, 7)
    assert basis == [(2, 0, 1, 0), (1, 1, 1, 0), (0, 2, 1, 0), (1, 0, 0, 1), (0, 1, 0, 1)]


def test_monomial_basis_degree_one_empty():
    assert monomial_basis(VT, 1) == []


def test_table_mismatch_raises():
    elements = (VT.generator("x1"), GeneratorTable([("x1", 2)]).generator("x1"), TableMismatchError)
    polynomials = (PolyRing(("x", "y")).variable("x"), PolyRing(("x",)).variable("x"), ValueError)
    for a, b, error in (elements, polynomials):
        for op in (add, sub, mul):
            with pytest.raises(error):
                op(a, b)


# polynomials in three variables, and elements over a table of even
# generators, with small int and Fraction coefficients
R3 = PolyRing(("x", "y", "z"))
EVEN = SullivanModel(GeneratorTable([("a", 2), ("b", 4), ("c", 2)]), {})
EVEN_RING = even_subalgebra_ring(EVEN)
coefficients = st.integers(-4, 4) | st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
exponents = st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
polynomials = st.dictionaries(exponents, coefficients, max_size=4).map(R3.from_terms)
even_elements = st.dictionaries(exponents, coefficients, max_size=4).map(EVEN.table.element)
# and over a table with odd generators, where products carry Koszul signs
MIXED = GeneratorTable([("a", 2), ("u", 1), ("v", 3), ("w", 5)])
mixed_exponents = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
mixed_elements = st.dictionaries(mixed_exponents, coefficients, max_size=4).map(MIXED.element)


def odd_part(x):
    """The terms of odd degree; none in a polynomial ring."""
    if not isinstance(x, AlgebraElement):
        return x.scale(0)
    return x.table.element({m: c for m, c in x.terms.items() if x.table.monomial_degree(m) % 2})


@settings(deadline=None)
@given(
    st.tuples(st.just(R3.one()), polynomials, polynomials, polynomials)
    | st.tuples(st.just(EVEN.table.one()), even_elements, even_elements, even_elements)
    | st.tuples(st.just(MIXED.one()), mixed_elements, mixed_elements, mixed_elements),
    st.integers(0, 4),
)
def test_ring_axioms(values, e):
    one, p, q, r = values
    assert (p - p).is_zero() and not p - p
    assert p + q == q + p
    # graded commutativity: ab = (-1)^{|a||b|} ba, so only the odd parts
    # anticommute
    assert p * q == q * p - (odd_part(q) * odd_part(p)).scale(2)
    assert (p + q) + r == p + (q + r) and (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
    assert one * p == p
    product = one
    for _ in range(e):
        product = product * p
    assert p**e == product


@settings(deadline=None)
@given(even_elements, even_elements, st.integers(0, 3))
def test_even_element_to_polynomial_is_a_ring_map(a, b, e):
    def image(x):
        return even_element_to_polynomial(EVEN, x, EVEN_RING)

    assert image(a + b) == image(a) + image(b)
    assert image(a * b) == image(a) * image(b)
    assert image(a**e) == image(a) ** e
    assert image(EVEN.table.one()) == EVEN_RING.one()


def hilbert_series(table, limit):
    series = [Fraction(0)] * (limit + 1)
    series[0] = Fraction(1)
    for degree in table.degrees:
        if degree % 2 == 0:
            factor = [1 if k % degree == 0 else 0 for k in range(limit + 1)]
        else:
            factor = [1 if k in (0, degree) else 0 for k in range(limit + 1)]
        series = [
            sum(series[i] * factor[k - i] for i in range(k + 1)) for k in range(limit + 1)
        ]
    return series


def test_basis_sizes_match_hilbert_series():
    for table in (VT, DL, GeneratorTable([("x", 4), ("y", 7), ("z", 3)])):
        series = hilbert_series(table, 20)
        assert _free_dimensions(table, 20) == series
        for k in range(21):
            assert len(monomial_basis(table, k)) == series[k] == _free_dimensions(table, k)[k]


def _monomials_up_to(table, limit):
    """Every monomial of degree <= limit with its degree, one generator at a time."""
    monos = [((), 0)]
    for d in table.degrees:
        top = 1 if d % 2 else limit // d
        monos = [(m + (e,), k + e * d) for m, k in monos for e in range(top + 1) if k + e * d <= limit]
    return monos


@settings(deadline=None)
@given(st.lists(st.sampled_from((2, 4, 6)) | st.sampled_from((1, 3, 5, 7)), max_size=6))
def test_monomial_basis_is_every_monomial_in_canonical_order(degrees):
    """Even and odd generators in any interleaving, against brute force."""
    table = GeneratorTable([(f"g{i}", d) for i, d in enumerate(degrees)])
    everything = _monomials_up_to(table, 14)
    for k in range(15):
        basis = monomial_basis(table, k)
        assert len(set(basis)) == len(basis)
        assert basis == sorted_monomials(table, [m for m, degree in everything if degree == k])


def random_homogeneous(rng, table, degree):
    basis = monomial_basis(table, degree)
    return table.element({m: Fraction(rng.randint(-5, 5)) for m in basis})


def test_multiply_graded_commutative_and_associative():
    rng = random.Random(11)
    for _ in range(30):
        da = rng.choice((2, 3, 4, 5))
        db = rng.choice((2, 3, 4, 5))
        a = random_homogeneous(rng, VT, da)
        b = random_homogeneous(rng, VT, db)
        c = random_homogeneous(rng, VT, rng.choice((2, 3)))
        sign = -1 if (da % 2 and db % 2) else 1
        assert a * b == (b * a).scale(sign)
        assert (a * b) * c == a * (b * c)


def test_distributive_and_unit():
    rng = random.Random(12)
    one = VT.one()
    for _ in range(20):
        a = random_homogeneous(rng, VT, 4)
        b = random_homogeneous(rng, VT, 4)
        c = random_homogeneous(rng, VT, 3)
        assert (a + b) * c == a * c + b * c
        assert one * a == a
        assert a * one == a


def test_degree_additivity():
    rng = random.Random(13)
    for _ in range(20):
        a = random_homogeneous(rng, VT, rng.choice((2, 3, 4)))
        b = random_homogeneous(rng, VT, rng.choice((2, 3, 5)))
        product = a * b
        if not (a.is_zero() or b.is_zero() or product.is_zero()):
            assert product.degree() == a.degree() + b.degree()


def test_power_is_repeated_product():
    rng = random.Random(14)
    for _ in range(10):
        elements = [random_homogeneous(rng, VT, d) for d in (2, 3, 5)]
        elements.append(elements[0] + elements[1] + VT.one())
        for a in elements:
            product = VT.one()
            for e in range(7):
                assert a**e == product
                product = product * a


@pytest.mark.parametrize(
    "parent", [GeneratorTable([("x", 2), ("y", 3)]), PolyRing(("x", "y"))], ids=["table", "ring"]
)
def test_parent_constants(parent):
    two = parent.scalar(Fraction(4, 2))
    assert two.terms == {(0, 0): 2} and type(two.terms[(0, 0)]) is int
    assert parent.scalar(0) == parent.zero() and parent.zero().terms == {}
    assert parent.one() == parent.scalar(1) and two == parent.one() + parent.one()
    assert parent.scalar(Fraction(1, 2)).terms == {(0, 0): Fraction(1, 2)}
