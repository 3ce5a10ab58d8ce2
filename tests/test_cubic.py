"""Cubic forms: conversions, subspaces, classification, invariants, sigma recovery."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gauss_jordan import dense_null_space, dense_rank, dense_rref
from sullivan.catalog import biquotient_ring
from sullivan.cubic import (
    CubicForm,
    QuadricSubspace,
    _triple,
    associated_subspace,
    binary_classify,
    cubic_form_of_quadric_ideal,
    cubic_form_of_ring,
    degree4_invariant,
    degree6_invariant,
    discriminant,
    hesse_form,
    hesse_sigma_candidates,
    is_elliptic_form,
    is_singular_ternary,
    pairing_rank,
    same_square_class,
    squarefree_part,
    substitute,
    wall_invariants,
)
from sullivan.groebner import PolyRing, buchberger
from sullivan.linalg import RationalMatrix
from sullivan.parsing import parse_polynomial

RXYZ = PolyRing(("x", "y", "z"))
RXY = PolyRing(("x", "y"))
R123 = PolyRing(("x1", "x2", "x3"))


def form3(text):
    return CubicForm.from_polynomial(parse_polynomial(text, RXYZ))


def form2(text):
    return CubicForm.from_polynomial(parse_polynomial(text, RXY))


def quadrics(*texts):
    return [parse_polynomial(t, R123) for t in texts]


def test_form_of_polynomial_examples():
    assert form3("x*y*z")[(0, 1, 2)] == Fraction(1, 6)
    assert form3("x^3")[(0, 0, 0)] == 1
    assert form3("x^2*y")[(0, 0, 1)] == Fraction(1, 3)


def test_polynomial_round_trip():
    rng = random.Random(81)
    for _ in range(20):
        poly = RXYZ.zero()
        for mono in RXYZ.monomials_of_degree(3):
            poly = poly + RXYZ.monomial(mono, Fraction(rng.randint(-4, 4)))
        assert CubicForm.from_polynomial(poly).polynomial(RXYZ) == poly


def test_pairing_rank_examples():
    assert pairing_rank(form2("x^2*y")) == 2
    assert pairing_rank(form2("x^3")) == 1
    assert pairing_rank(form3("x*y*z")) == 3


def test_associated_subspace_examples():
    assert associated_subspace(form3("x*y*z")) == QuadricSubspace(
        R123, quadrics("x1^2", "x2^2", "x3^2")
    )
    assert associated_subspace(form3("x^3 + y^3 + z^3")) == QuadricSubspace(
        R123, quadrics("x1*x2", "x1*x3", "x2*x3")
    )
    sigma = Fraction(5)
    assert associated_subspace(hesse_form(sigma)) == QuadricSubspace(
        R123, quadrics("5*x1^2 - x2*x3", "5*x2^2 - x1*x3", "5*x3^2 - x1*x2")
    )


# -- quadric subspaces and the pairing against a dense Gauss-Jordan oracle --------

coefficients = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(-3, 3, max_denominator=4))


def rref_basis(ring, rows):
    """The RREF of dense rows over `monomials_of_degree(2)`, read back as quadrics, and the RREF rows."""
    monos = ring.monomials_of_degree(2)
    rref = dense_rref(rows, len(monos))[0]
    return [ring.from_terms({m: c for m, c in zip(monos, row) if c}) for row in rref], rref


def terms_with_types(polys):
    """Each polynomial's terms in order, each coefficient with its type: ``1`` and ``Fraction(1)`` differ."""
    return [[(m, type(c), c) for m, c in p.terms.items()] for p in polys]


@st.composite
def quadric_lists(draw, ring):
    """Quadrics in `ring`, among them zero, repeated and dependent entries."""
    out = []
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from(("new", "zero", "repeat", "combination")))
        if kind == "zero":
            out.append(ring.zero())
        elif kind == "new" or not out:
            out.append(ring.from_terms({m: draw(coefficients) for m in ring.monomials_of_degree(2)}))
        elif kind == "repeat":
            out.append(draw(st.sampled_from(out)))
        else:
            a, b = draw(st.sampled_from(out)), draw(st.sampled_from(out))
            out.append(a.scale(draw(coefficients)) + b.scale(draw(coefficients)))
    return out


@st.composite
def quadric_list_pairs(draw):
    """Two quadric lists in 1-3 variables; the second is either drawn on its own or an invertible
    recombination of the first with each entry's terms in a drawn order, so that both equal and
    different spans come up, and equal ones from rows whose entries come in different orders."""
    ring = (PolyRing(("x",)), RXY, RXYZ)[draw(st.integers(0, 2))]
    first = draw(quadric_lists(ring))
    if draw(st.booleans()):
        return ring, first, draw(quadric_lists(ring))
    second = first[::-1]
    for i in range(1, len(second)):
        nonzero = draw(coefficients.filter(bool))
        second[i] = second[i].scale(nonzero) + second[i - 1].scale(draw(coefficients))
    second = [ring.from_terms(dict(draw(st.permutations(list(q.terms.items()))))) for q in second]
    return ring, first, second + [ring.zero()] * draw(st.integers(0, 1))


@settings(deadline=None, max_examples=300)
@given(quadric_list_pairs())
@example((RXYZ, [RXYZ.from_terms({(0, 1, 1): 1, (1, 1, 0): 2, (0, 0, 2): Fraction(1, 2)})], []))
@example((RXY, [RXY.from_terms({(0, 2): 2, (1, 1): 1})], [RXY.from_terms({(1, 1): 1, (0, 2): 2})]))
def test_quadric_subspace_is_the_rref_of_its_coefficient_rows(case):
    ring, first, second = case
    oracles = []
    for quads in (first, second):
        subspace = QuadricSubspace(ring, quads)
        basis, rref = rref_basis(ring, [[q.coefficient(m) for m in ring.monomials_of_degree(2)] for q in quads])
        assert terms_with_types(subspace.basis) == terms_with_types(basis)
        oracles.append((subspace, rref))
    (a, rref_a), (b, rref_b) = oracles
    assert (a == b) == (rref_a == rref_b)


def pairing_entries(form):
    """F(e_k, m) for each quadric monomial m (rows) and each k (columns), dense."""
    monos = PolyRing(("x", "y", "z")[: form.dim]).monomials_of_degree(2)
    return [[form[_triple(m) + (k,)] for k in range(form.dim)] for m in monos]


@st.composite
def cubic_forms(draw):
    """Binary and ternary forms: the zero form, forms in fewer variables than the dimension, cubes
    of a linear form, and sparse forms with small coefficients."""
    dim = draw(st.sampled_from((2, 3)))
    ring = (RXY, RXYZ)[dim - 2]
    kind = draw(st.sampled_from(("zero", "fewer variables", "cube", "sparse")))
    if kind == "zero":
        return CubicForm(dim, {})
    if kind == "cube":
        linear = ring.from_terms({m: draw(coefficients) for m in ring.monomials_of_degree(1)})
        return CubicForm.from_polynomial(linear**3)
    left_out = draw(st.integers(0, dim - 1)) if kind == "fewer variables" else None
    monos = [m for m in ring.monomials_of_degree(3) if left_out is None or not m[left_out]]
    return CubicForm.from_polynomial(ring.from_terms({m: draw(coefficients) for m in monos}))


@settings(deadline=None, max_examples=300)
@given(cubic_forms())
def test_pairing_rank_and_associated_subspace_against_rational_matrix(form):
    entries = pairing_entries(form)
    assert pairing_rank(form) == dense_rank(entries, form.dim)
    if form.dim == 3:
        kernel = dense_null_space(list(zip(*entries)), len(entries))
        basis, _ = rref_basis(R123, kernel)
        subspace = associated_subspace(form)
        assert subspace.ring == R123
        assert terms_with_types(subspace.basis) == terms_with_types(basis)


def test_elliptic_decision_builds_no_rational_matrix(monkeypatch):
    built = []
    init = RationalMatrix.__init__

    def counting(self, *args, **kwargs):
        built.append(args[:2])
        init(self, *args, **kwargs)

    monkeypatch.setattr(RationalMatrix, "__init__", counting)
    assert is_elliptic_form(cubic_form_of_quadric_ideal(biquotient_ring("b1", 7, 6)), 3).elliptic
    assert built == []


def test_is_elliptic_form_examples():
    assert not is_elliptic_form(CubicForm(2, {}), 2).elliptic
    assert not is_elliptic_form(form2("x^3"), 2).elliptic
    assert is_elliptic_form(form2("x^2*y"), 2).elliptic
    assert is_elliptic_form(form2("x^3 + y^3"), 2).elliptic
    assert is_elliptic_form(form2("x^2*y - x*y^2"), 2).elliptic
    assert not is_elliptic_form(form3("x^3 + y^3 + z^3"), 3).elliptic
    assert is_elliptic_form(form3("z*(x^2 + y^2)"), 3).elliptic


def test_binary_classify_examples():
    assert binary_classify(form2("x^3 + y^3")) == "one-real-root"
    assert binary_classify(form2("x^2*y - x*y^2")) == "three-real-roots"
    assert binary_classify(form2("8*x^3")) == "cube"
    assert binary_classify(CubicForm(2, {})) == "zero"
    assert binary_classify(form2("x^2*y")) == "square-times-line"


def test_binary_classify_invariant_under_equivalence():
    rng = random.Random(82)
    samples = ["x^3", "x^2*y", "x^3 + y^3", "x^2*y - x*y^2", "2*x^3 - 3*y^3"]
    for text in samples:
        form = form2(text)
        reference = binary_classify(form)
        for _ in range(5):
            while True:
                m = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
                if m[0][0] * m[1][1] - m[0][1] * m[1][0] != 0:
                    break
            assert binary_classify(substitute(form, m)) == reference
            assert binary_classify(form.scale(rng.choice((2, 3, Fraction(1, 2))))) == reference
            assert binary_classify(form.scale(-1)) == reference


def test_wall_invariants_examples():
    assert wall_invariants(form2("x^3")) == (0, 0, 0)
    assert wall_invariants(form2("x^3 + y^3")) == (1, 0, 0)
    assert wall_invariants(CubicForm(2, {})) == (0, 0, 0)


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def binary_forms(draw):
    """Random binary cubics, half of them cubes (a*x + b*y)^3 scaled."""
    if draw(st.booleans()):
        a, b, c = (draw(small_rationals) for _ in range(3))
        return CubicForm.from_polynomial(((RXY.variable(0).scale(a) + RXY.variable(1).scale(b)) ** 3).scale(c))
    return CubicForm(2, {t: draw(small_rationals) for t in ((0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1))})


@settings(deadline=None)
@given(binary_forms())
def test_hessian_of_a_binary_form_is_36_times_the_wall_quadric(form):
    p = form.polynomial(RXY)
    pxx, pxy, pyy = p.derivative(0).derivative(0), p.derivative(0).derivative(1), p.derivative(1).derivative(1)
    hessian = pxx * pyy - pxy * pxy
    w_xy, w_xx, w_yy = wall_invariants(form)
    assert hessian == RXY.from_terms({(2, 0): 36 * w_xx, (1, 1): 36 * w_xy, (0, 2): 36 * w_yy})
    assert (binary_classify(form) == "cube") == (not form.is_zero() and hessian.is_zero())


def test_is_singular_examples():
    assert is_singular_ternary(form3("x^3 + y^3 + z^3 - 3*x*y*z"))  # divisible by x+y+z
    assert not is_singular_ternary(form3("x^3 + y^3 + z^3"))
    bsp = form3("4*x^3 + 2*y^3 + z^3 - 6*x^2*y - 3*x*z^2 - 3*y^2*z + 6*x*y*z")
    assert not is_singular_ternary(bsp)
    with pytest.raises(ValueError):
        is_singular_ternary(CubicForm(3, {}))


@st.composite
def ternary_cubics(draw):
    """A nonzero ternary cubic with small integer coefficients, and whether
    it was built singular: a line times a conic, or a cubic in two of the
    variables (a cone, singular where those two vanish)."""
    kind = draw(st.sampled_from(("random", "line times conic", "two variables")))

    def form(degree, keep=lambda m: True):
        monos = [m for m in RXYZ.monomials_of_degree(degree) if keep(m)]
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
        return RXYZ.from_terms(dict(zip(monos, coeffs)))

    if kind == "line times conic":
        poly = form(1) * form(2)
    elif kind == "two variables":
        left_out = draw(st.integers(0, 2))
        poly = form(3, lambda m: not m[left_out])
    else:
        poly = form(3)
    assume(not poly.is_zero())
    return CubicForm.from_polynomial(poly), kind != "random"


@settings(deadline=None)
@given(ternary_cubics())
def test_discriminant_matches_singularity(case):
    form, built_singular = case
    singular = is_singular_ternary(form)
    assert singular == (discriminant(form) == 0)
    if built_singular:
        assert singular


def test_hesse_sigma_exact_self_recovery():
    rng = random.Random(84)
    for _ in range(10):
        sigma = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if sigma == Fraction(-1, 2):
            continue
        candidates = hesse_sigma_candidates(hesse_form(sigma), Fraction(1, 10**6))
        assert (sigma, sigma) in candidates


def test_hesse_sigma_from_b3_family():
    candidates = hesse_sigma_candidates(hesse_form(Fraction(1, 2)), Fraction(1, 10**6))
    assert (Fraction(1, 2), Fraction(1, 2)) in candidates


def test_hesse_sigma_rejects_singular():
    with pytest.raises(ValueError):
        hesse_sigma_candidates(hesse_form(Fraction(-1, 2)), Fraction(1, 100))


def test_sporadic_sigma_value():
    bsp = form3("4*x^3 + 2*y^3 + z^3 - 6*x^2*y - 3*x*z^2 - 3*y^2*z + 6*x*y*z")
    candidates = hesse_sigma_candidates(bsp, Fraction(1, 10**6))
    target = Fraction(27788, 100000)
    assert any(abs((lo + hi) / 2 - target) < Fraction(1, 1000) for lo, hi in candidates)


def test_hesse_sigma_candidates_take_one_square_free_part(monkeypatch):
    """The invariant equation is made square-free once per candidate search,
    not once more inside the root isolation."""
    from sullivan import roots

    calls = []
    squarefree = roots.squarefree_part

    def counting(p):
        calls.append(p)
        return squarefree(p)

    monkeypatch.setattr(roots, "squarefree_part", counting)
    bsp = form3("4*x^3 + 2*y^3 + z^3 - 6*x^2*y - 3*x*z^2 - 3*y^2*z + 6*x*y*z")
    for form in (bsp, hesse_form(Fraction(1, 2)), hesse_form(4)):
        calls.clear()
        hesse_sigma_candidates(form, Fraction(1, 10**6))
        assert len(calls) == 1


def test_interval_widths_respect_tolerance():
    bsp = form3("4*x^3 + 2*y^3 + z^3 - 6*x^2*y - 3*x*z^2 - 3*y^2*z + 6*x*y*z")
    tolerance = Fraction(1, 10**4)
    for lo, hi in hesse_sigma_candidates(bsp, tolerance):
        assert hi - lo <= tolerance


def test_squarefree_part_examples():
    assert squarefree_part(8) == 2
    assert squarefree_part(Fraction(-4, 9)) == -1
    assert squarefree_part(Fraction(1, 2)) == 2
    # a prime: trial division up to its square root would not end
    assert squarefree_part(2**61 - 1) == 2**61 - 1
    assert squarefree_part(Fraction(-(2**61 - 1), 4)) == -(2**61 - 1)
    with pytest.raises(ValueError):
        squarefree_part(0)
    # both prime factors lie above the last trial divisor, 2**21, and the
    # product is too large to be known as p, p**2 or p*q
    with pytest.raises(ValueError, match="trial division"):
        squarefree_part((2**61 - 1) * (2**31 - 1))


def _naive_squarefree_part(q):
    """Trial division up to the square root, as an oracle."""
    q = Fraction(q)
    n = abs(q.numerator) * q.denominator
    result = 1
    d = 2
    while d * d <= n:
        while n % (d * d) == 0:
            n //= d * d
        if n % d == 0:
            n //= d
            result *= d
        d += 1
    return (1 if q > 0 else -1) * result * n


@pytest.mark.parametrize("p,q", [(1009, 1013), (10007, 10009), (65537, 65539)])
def test_squarefree_part_with_primes_above_the_cube_root(p, q):
    for n in (p * p, p * q, p * p * q, p * q * q, 12 * p * p, 18 * p * q):
        assert squarefree_part(n) == _naive_squarefree_part(n)


def test_squarefree_part_agrees_with_trial_division():
    rng = random.Random(17)
    for _ in range(300):
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 10**4))
        assert squarefree_part(q) == _naive_squarefree_part(q)


def test_same_square_class_examples():
    assert same_square_class(2, 8)
    assert same_square_class(Fraction(1, 2), 8)
    assert same_square_class(Fraction(-3, 4), -27)
    assert not same_square_class(2, 3)
    assert not same_square_class(-2, 8)
    with pytest.raises(ValueError):
        same_square_class(0, 4)
    with pytest.raises(ValueError):
        same_square_class(4, 0)


def test_same_square_class_does_not_factor():
    # 2^61 - 1 is prime: trial division of a quotient that keeps it, up to
    # the square root, would not end
    p = 2**61 - 1
    assert same_square_class(p, 4 * p)
    assert same_square_class(3 * p * p, 3)
    assert not same_square_class(p, 1)


def test_same_square_class_agrees_with_squarefree_part():
    rng = random.Random(7)
    for _ in range(300):
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 60))
        b = Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 60))
        assert same_square_class(a, b) == (squarefree_part(a) == squarefree_part(b))


def test_cubic_form_of_quadric_ideal_examples():
    xyz = cubic_form_of_quadric_ideal(QuadricSubspace(R123, quadrics("x1^2", "x2^2", "x3^2")))
    assert xyz.proportional_to(form3("x*y*z"))

    bsp_ring = PolyRing(("u", "v", "w"))
    bsp_relations = [
        parse_polynomial(t, bsp_ring)
        for t in ("u^2 + 2*u*v + 2*u*w", "v^2 + u*v + 2*v*w", "w^2 + u*w + v*w")
    ]
    bsp = cubic_form_of_quadric_ideal(QuadricSubspace(bsp_ring, bsp_relations))
    assert bsp.proportional_to(
        form3("4*x^3 + 2*y^3 + z^3 - 6*x^2*y - 3*x*z^2 - 3*y^2*z + 6*x*y*z")
    )

    diag = cubic_form_of_quadric_ideal(
        QuadricSubspace(R123, quadrics("2*x1^2 - x2*x3", "2*x2^2 - x1*x3", "2*x3^2 - x1*x2"))
    )
    assert diag.proportional_to(form3("x^3 + y^3 + z^3 + 12*x*y*z"))


def test_cubic_form_of_quadric_ideal_profile_violation():
    bad = QuadricSubspace(R123, quadrics("x1^2", "x1*x2", "x2^2"))
    with pytest.raises(ValueError):
        cubic_form_of_quadric_ideal(bad)


def reduced_basis_cubic_form(relations, ring):
    """cubic_form_of_ring read from the reduced Groebner basis: the profile
    from its Hilbert function, and each cubic monomial's normal form at its
    first standard cubic monomial.  A test oracle only."""
    n = len(ring.variables)
    gb = buchberger(relations, ring)
    profile = gb.hilbert_function(4)
    if profile != (1, n, n, 1, 0):
        raise ValueError(f"Hilbert profile {profile} is not (1, {n}, {n}, 1, 0)")
    top = gb.standard_monomials(3)[0]
    monos = ring.monomials_of_degree(3)
    return CubicForm(n, {_triple(m): gb.normal_form(ring.monomial(m)).coefficient(top) for m in monos})


@st.composite
def relation_systems(draw):
    """Three quadrics in three variables, or a quadric and a cubic in two
    (the degrees of the profiles (1, 3, 3, 1) and (1, 2, 2, 1)), with
    random small coefficients, some zero."""
    ring, degrees = draw(st.sampled_from(((R123, (2, 2, 2)), (RXY, (2, 3)))))
    coefficients = st.sampled_from((0, 0, 1, -1, 2, -3, Fraction(1, 2)))
    return [ring.from_terms({m: draw(coefficients) for m in ring.monomials_of_degree(d)}) for d in degrees], ring


@st.composite
def biquotient_relations(draw):
    """The relations of a biquotient ring at random small parameters."""
    kind, count = draw(st.sampled_from((("b1", 2), ("b2", 2), ("b3", 3), ("bsp", 0))))
    params = draw(st.lists(st.integers(-4, 4), min_size=count, max_size=count))
    try:
        subspace = biquotient_ring(kind, *params)
    except ValueError:
        assume(False)
    return list(subspace.basis), subspace.ring


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


@settings(deadline=None, max_examples=150)
@given(st.one_of(relation_systems(), biquotient_relations()))
# a non-finite ring, whose profile the pair loop capped at degree 4 reads too
@example((quadrics("x1^2", "x1*x2", "x2^2"), R123))
def test_cubic_form_of_ring_is_the_reduced_basis_reading(case):
    relations, ring = case
    assert outcome(cubic_form_of_ring, relations, ring) == outcome(reduced_basis_cubic_form, relations, ring)


def test_round_trip_ideal_and_subspace():
    elliptic_rows = (
        ("x1^2", "x2^2", "x3^2"),
        ("x1*x2", "x1^2 - x2^2", "x3^2"),
        ("x1*x2", "x1^2 + x3^2", "x2^2 + x3^2"),
        ("x2*x3", "x1^2 - x2^2", "x1^2 + x3^2"),
        ("x2*x3", "x1^2 - x2^2", "x1^2 - x3^2"),
        ("x1*x2", "x3^2", "x1^2 - x1*x3 + x2^2"),
        ("x1*x2", "x3^2", "x1^2 + x1*x3 - x2^2"),
    )
    for texts in elliptic_rows:
        subspace = QuadricSubspace(R123, quadrics(*texts))
        form = cubic_form_of_quadric_ideal(subspace)
        # the recovered form lives on x1..x3 coordinates already
        back = associated_subspace(form)
        assert back == subspace


def test_substitute_examples():
    form = form3("x^3 + 2*x*y*z - y^2*z")
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert substitute(form, identity) == form
    perm = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    assert substitute(form3("x*y*z"), perm).proportional_to(form3("x*y*z"))
    with pytest.raises(ValueError):
        substitute(form, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])


@pytest.mark.parametrize(
    "matrix", [[[1, 0, 0, 5], [0, 1, 0, 0], [0, 0, 1, 0]], [[1, 0, 0], [0, 1, 0]]], ids=["3x4", "2x3"]
)
def test_substitution_matrix_must_be_square_of_the_right_size(matrix):
    with pytest.raises(ValueError):
        substitute(form3("x*y*z"), matrix)
    subspace = biquotient_ring("bsp")
    with pytest.raises(ValueError):
        subspace.transform(matrix)
    # transform, unlike substitute, takes a singular matrix
    assert subspace.transform([[1, 0, 0], [0, 1, 0], [0, 0, 0]]).dimension() <= subspace.dimension()


def test_shear_identity_for_wall_combination():
    # after the shear x1 -> x1, x2 -> lam*x1 + x2, the first Wall combination
    # changes by lam times twice the second one
    rng = random.Random(85)
    for _ in range(20):
        form = CubicForm(
            2,
            {
                (0, 0, 0): Fraction(rng.randint(-4, 4)),
                (0, 0, 1): Fraction(rng.randint(-4, 4)),
                (0, 1, 1): Fraction(rng.randint(-4, 4)),
                (1, 1, 1): Fraction(rng.randint(-4, 4)),
            },
        )
        lam = Fraction(rng.randint(-4, 4))
        sheared = substitute(form, [[1, lam], [0, 1]])
        w0 = wall_invariants(form)
        w1 = wall_invariants(sheared)
        assert w1[0] == w0[0] + lam * 2 * w0[1]


def _random_invertible(rng, n):
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if n == 2:
            det = m[0][0] * m[1][1] - m[0][1] * m[1][0]
        else:
            det = (
                m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
            )
        if det != 0:
            return m


def _inverse_transpose(m):
    det = (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )
    cof = [
        [
            (m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
             - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3])
            for j in range(3)
        ]
        for i in range(3)
    ]
    # inverse = adjugate/det = cofactor^T/det, so inverse transpose = cofactor/det
    return [[Fraction(cof[i][j], 1) / det for j in range(3)] for i in range(3)]


def test_associated_subspace_equivariance():
    # the quadric relations transform by the contragredient of the
    # coordinate substitution applied to the form
    rng = random.Random(86)
    samples = [
        form3("x*y*z"),
        form3("z*(x^2 + y^2)"),
        hesse_form(2),
        form3("4*x^3 + 2*y^3 + z^3 - 6*x^2*y - 3*x*z^2 - 3*y^2*z + 6*x*y*z"),
    ]
    for _ in range(20):
        form = rng.choice(samples)
        m = _random_invertible(rng, 3)
        left = associated_subspace(substitute(form, m))
        right = associated_subspace(form).transform(_inverse_transpose(m))
        assert left == right


def test_elliptic_verdict_invariance():
    rng = random.Random(87)
    samples = [
        (form3("x*y*z"), True),
        (form3("x^3 + y^3 + z^3"), False),
        (hesse_form(2), True),
        (hesse_form(1), False),
    ]
    for form, expected in samples:
        for _ in range(5):
            m = _random_invertible(rng, 3)
            transformed = substitute(form, m).scale(Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2))))
            assert is_elliptic_form(transformed, 3).elliptic == expected


def test_invariants_have_the_right_weights():
    rng = random.Random(88)
    for _ in range(5):
        poly = RXYZ.zero()
        for mono in RXYZ.monomials_of_degree(3):
            poly = poly + RXYZ.monomial(mono, Fraction(rng.randint(-3, 3)))
        form = CubicForm.from_polynomial(poly)
        m = _random_invertible(rng, 3)
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        transformed = substitute(form, m)
        assert degree4_invariant(transformed) == det**4 * degree4_invariant(form)
        assert degree6_invariant(transformed) == det**6 * degree6_invariant(form)


def test_discriminant_anchor_values():
    # the combination vanishes at the singular diagonal parameter and on the
    # singular table rows, and is nonzero on nonsingular members
    assert discriminant(hesse_form(Fraction(-1, 2))) == 0
    for text in ("x^3", "x^2*y", "x*y*z", "z*(x^2 + y^2)", "x^3 - 3*y^2*z"):
        assert discriminant(form3(text)) == 0
    assert discriminant(hesse_form(2)) != 0
    assert discriminant(form3("x^3 + y^3 + z^3")) != 0


def test_invariant_tables_match_their_generator():
    # the invariants multiply these integer tables directly, so a table that
    # drifted from its derivation would go unnoticed by the anchors alone
    # the generator imports the package, so it runs on this checkout's source
    root = Path(__file__).resolve().parents[1]
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(root / "src"), path))))
    run = subprocess.run(
        [sys.executable, str(root / "tools" / "derive_cubic_invariants.py")],
        capture_output=True,
        check=True,
        timeout=120,
        env=env,
    )
    marker = b"=== paste into src/sullivan/_invariant_tables.py ===\n"
    assert marker in run.stdout
    pasted = run.stdout.split(marker, 1)[1]
    assert pasted == (root / "src" / "sullivan" / "_invariant_tables.py").read_bytes()


def test_form_round_trip_through_quadric_ideal():
    # recovering the form from its own quadric relations reproduces it up
    # to scale, for the elliptic normal forms
    elliptic_forms = (
        "x*y*z",
        "z*(x^2 + y^2)",
        "z*(3*x^2 + 3*y^2 - z^2)",
        "x*(x^2 + 3*y^2 - 3*z^2)",
        "x*(x^2 + 3*y^2 + 3*z^2)",
        "x^3 + 3*x^2*z - 3*y^2*z",
        "x^3 - 3*x^2*z - 3*y^2*z",
    )
    for text in elliptic_forms:
        form = form3(text)
        recovered = cubic_form_of_quadric_ideal(associated_subspace(form))
        # the subspace lives on x1..x3, the recovered form on matching slots
        assert recovered.proportional_to(
            CubicForm.from_polynomial(form.polynomial(PolyRing(("x1", "x2", "x3"))))
        )
    for sigma in (-1, 2, Fraction(1, 3), 5):
        form = hesse_form(sigma)
        recovered = cubic_form_of_quadric_ideal(associated_subspace(form))
        assert recovered.proportional_to(form)


def test_associated_subspace_of_zero_form():
    zero = CubicForm(3, {})
    assert associated_subspace(zero).dimension() == 6


def test_buchberger_drops_zero_inputs():
    from sullivan.groebner import buchberger

    gb = buchberger([R123.zero(), parse_polynomial("x1^2", R123)], R123)
    assert len(gb.generators) == 1
    assert buchberger([R123.zero()], R123).generators == ()
