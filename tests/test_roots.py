"""Univariate utilities: Sturm isolation and exact rational root recognition."""

import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from sullivan.linalg import integerized
from sullivan.roots import (
    _sign_at,
    degree,
    derivative,
    divmod_poly,
    evaluate,
    isolate_real_roots,
    mul,
    neg,
    poly_gcd,
    rational_root_in_interval,
    refine_interval,
    scale,
    sign_variations,
    squarefree_part,
    sturm_chain,
    upoly,
)


def poly_from_roots(roots, lead=1):
    p = upoly([lead])
    for r in roots:
        p = mul(p, upoly([-Fraction(r), 1]))
    return p


def test_isolation_counts_distinct_roots():
    rng = random.Random(61)
    for _ in range(20):
        roots = sorted({Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))})
        p = poly_from_roots(roots)
        intervals = isolate_real_roots(p)
        assert len(intervals) == len(roots)
        for (lo, hi), r in zip(intervals, roots):
            assert lo <= r <= hi


def test_isolation_handles_multiplicities():
    p = mul(poly_from_roots([1, 1, 2]), upoly([1]))
    intervals = isolate_real_roots(p)
    assert len(intervals) == 2


def test_rational_recognition():
    p = poly_from_roots([Fraction(7, 5), Fraction(-3, 2)], lead=10)
    for lo, hi in isolate_real_roots(p):
        root = rational_root_in_interval(p, lo, hi)
        assert root in (Fraction(7, 5), Fraction(-3, 2))


def test_irrational_root_refinement():
    p = upoly([-2, 0, 1])  # x^2 - 2
    intervals = isolate_real_roots(p)
    assert len(intervals) == 2
    positive = [iv for iv in intervals if iv[1] > 0][-1]
    assert rational_root_in_interval(p, *positive) is None
    lo, hi = refine_interval(p, positive[0], positive[1], Fraction(1, 10**6))
    assert hi - lo <= Fraction(1, 10**6)
    assert lo < Fraction(141421356, 10**8) < hi


def test_refinement_takes_integer_endpoints():
    p = upoly([-2, 0, 1])  # x^2 - 2
    lo, hi = refine_interval(p, 1, 2, Fraction(1, 10**6))
    assert type(lo) is type(hi) is Fraction
    assert lo < Fraction(141421356, 10**8) < hi and hi - lo <= Fraction(1, 10**6)
    assert rational_root_in_interval(p, 1, 2) is None
    assert rational_root_in_interval(poly_from_roots([Fraction(3, 2), -5]), 1, 2) == Fraction(3, 2)


def test_squarefree_part():
    p = mul(poly_from_roots([1, 1]), poly_from_roots([3]))
    sf = squarefree_part(p)
    assert evaluate(sf, 1) == 0 and evaluate(sf, 3) == 0
    assert len(sf) == 4 - 1  # degree dropped by one


rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))
# about half the coefficients zero, so that remainders drop by several degrees
polynomials = st.lists(st.just(0) | rationals, max_size=8).map(upoly)


def _sign(v) -> int:
    return (v > 0) - (v < 0)


@given(polynomials, rationals)
def test_integer_sign_agrees_with_evaluate(p, x):
    ints = integerized(p)
    assert all(type(c) is int for c in ints)
    assert _sign_at(ints, x) == _sign(evaluate(p, x))
    assert _sign_at(p, x) == _sign(evaluate(p, x))


@given(polynomials, rationals)
@example(upoly([2, 0, 0, -1]), Fraction(0))  # -x^3 + 2: one division step by -3x^2
def test_sturm_chain_members_are_positive_multiples(p, x):
    # the textbook chain p, p', -rem(p, p'), ... over Q, member by member
    reference = [p, derivative(p)]
    while reference[-1] and degree(reference[-1]) > 0:
        rem = divmod_poly(reference[-2], reference[-1])[1]
        if not rem:
            break
        reference.append(neg(rem))
    reference = [q for q in reference if q]
    chain = sturm_chain(p)
    assert len(chain) == len(reference)
    for q, r in zip(chain, reference):
        assert all(type(c) is int for c in q) and len(q) == len(r)
        assert q[-1] * r[-1] > 0
        assert all(a * r[-1] == b * q[-1] for a, b in zip(q, r))
    signs = [s for q in reference if (s := _sign(evaluate(q, x)))]
    assert sign_variations(chain, x) == sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@given(polynomials, polynomials, polynomials)
def test_gcd_divides_both_and_keeps_a_common_factor(p, q, r):
    a, b = mul(p, r), mul(q, r)
    g = poly_gcd(a, b)
    assert all(type(c) is int for c in g)
    if a or b:
        assert g[-1] > 0
        assert not divmod_poly(a, g)[1] and not divmod_poly(b, g)[1]
        assert not divmod_poly(g, r)[1]


@settings(deadline=None)
@given(
    st.sets(rationals, min_size=1, max_size=5),
    st.builds(Fraction, st.integers(1, 30), st.integers(1, 12)),
    rationals.filter(bool),
)
def test_isolation_of_rational_roots_beside_an_irreducible_quadratic(roots, c, lead):
    # prod (x - r_i) * (x^2 + c), c > 0, has exactly the real roots r_i
    p = scale(mul(poly_from_roots(roots), upoly([c, 0, 1])), lead)
    intervals = isolate_real_roots(p)
    assert len(intervals) == len(roots)
    for (lo, hi), r in zip(intervals, sorted(roots)):
        assert lo <= r <= hi
        assert rational_root_in_interval(p, lo, hi) == r
