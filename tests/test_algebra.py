"""Graded algebra arithmetic: signs, degrees, bases, Hilbert series."""

import random
from fractions import Fraction

from sullivan import GeneratorTable, monomial_basis
from sullivan.algebra import TableMismatchError

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
    other = GeneratorTable([("x1", 2)])
    try:
        VT.generator("x1") * other.generator("x1")
    except TableMismatchError:
        pass
    else:
        raise AssertionError("expected a table mismatch error")


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
        for k in range(21):
            assert len(monomial_basis(table, k)) == series[k]


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
