"""Sullivan models: Leibniz extension, validation, cohomology, cup products."""

import copy
import gc
import random
import sys
import weakref
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement
from math import comb, gcd, prod
from operator import le
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import sullivan.model
from gauss_jordan import dense_rank
from sullivan import (
    GeneratorTable,
    SullivanModel,
    betti_numbers,
    cup_product_cubic_form,
    exponents_of_model,
    extend_differential,
    h4_pairing_discriminant,
    monomial_basis,
    pairing_determinant,
    poincare_duality_check,
    pure_is_elliptic,
)
from sullivan.algebra import _even_exponent_vectors
from sullivan.catalog import (
    NOT_ELLIPTIC,
    SIGMA_FAMILY,
    Classification,
    _dim8_degenerate_model,
    biquotient_ring,
    classify_dim7,
    classify_dim8_middle,
    classify_dim8_sigma,
    classify_dim9_product_case,
    cp_model,
    dim4_sigma_model,
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
from sullivan.cli import main
from sullivan.cubic import CubicForm, cubic_form_of_quadric_ideal
from sullivan.exponents import ExponentPair
from sullivan.groebner import _pair_loop, buchberger
from sullivan.parsing import parse_model, render_model


def vt_model(p=1, cubic=(0, 0, 0, 1)):
    return dim6_b2_model(p, cubic)


def test_extend_differential_examples():
    m = vt_model(p=Fraction(1))
    t = m.table
    x1, x2, y1, y2 = (t.generator(n) for n in t.names)
    dy1, dy2 = (m.images[t.index(n)] for n in ("y1", "y2"))
    assert extend_differential(m, y1 * x1) == (x1 * x1 + x2 * x2) * x1
    assert extend_differential(m, x1 ** 3).is_zero()
    assert extend_differential(m, y1 * y2) == dy1 * y2 - y1 * dy2


def test_leibniz_rule_on_products():
    # even generators with nonzero images, so the sign an even factor picks
    # up from the odd tail of its monomial matters
    table = GeneratorTable([("x", 2), ("y", 3), ("w", 4), ("z", 5)])
    x, y, w = (table.generator(n) for n in ("x", "y", "w"))
    m = SullivanModel(table, {"y": x * x, "w": x * y, "z": x * w - x**3})
    d = partial(extend_differential, m)
    rng = random.Random(21)
    for _ in range(20):
        ka, kb = rng.sample(range(2, 12), 2)
        a, b = (
            table.element({mono: rng.randint(-3, 3) for mono in monomial_basis(table, k)}) for k in (ka, kb)
        )
        assert d(a * b) == d(a) * b + (a * d(b)).scale((-1) ** ka)


def test_validate_ok_on_catalog_models():
    for m in (
        vt_model(),
        dim6_b3_model(2),
        dim7_sigma_model(3),
        dim7_rank3_model(),
        dim8_sigma_model(2),
        sphere_model(4),
        cp_model(3),
    ):
        assert m.validate() is None


def test_validate_minimality_violation():
    table = GeneratorTable([("x", 4), ("y", 3)])
    m = SullivanModel(table, {"y": table.generator("x")})
    violation = m.validate()
    assert violation is not None and violation.kind == "minimality"


def test_validate_degree_violation():
    table = GeneratorTable([("x", 2), ("y", 3)])
    m = SullivanModel(table, {"y": table.generator("x")})
    violation = m.validate()
    assert violation is not None and violation.kind == "degree"


def test_validate_d_squared_violation():
    # neither model is pure, so the d^2 check runs
    table = GeneratorTable([("x1", 2), ("y1", 3), ("w", 4)])
    x1, y1 = table.generator("x1"), table.generator("y1")
    m = SullivanModel(table, {"y1": x1 * x1, "w": x1 * y1})
    violation = m.validate()
    assert violation is not None and violation.kind == "d-squared"
    assert violation.generator == "w"
    # d(v) = x·y with v even, so d(d(v)) = x·d(y) = x^3
    table = GeneratorTable([("x", 2), ("y", 3), ("v", 4)])
    x, y = table.generator("x"), table.generator("y")
    m = SullivanModel(table, {"y": x * x, "v": x * y})
    assert not m.is_pure()
    assert [(v.kind, v.generator) for v in m._violations()] == [("d-squared", "v")]


def test_betti_s3_x_s3():
    table = GeneratorTable([("y1", 3), ("y2", 3)])
    m = SullivanModel(table, {})
    assert betti_numbers(m, 6) == (1, 0, 0, 2, 0, 0, 1)


def test_betti_vt_example():
    assert betti_numbers(vt_model(), 13) == (1, 0, 2, 0, 2, 0, 1) + (0,) * 7


def test_betti_b3_at_one_grows():
    betti = betti_numbers(dim6_b3_model(1), 14)
    assert any(betti[k] for k in range(7, 15))


def test_formal_dimension_from_exponents():
    assert ExponentPair((1, 1), (2, 3)).formal_dimension() == 6
    assert ExponentPair((), (2,)).formal_dimension() == 3
    assert ExponentPair((1, 1), (2, 2, 2)).formal_dimension() == 7


def test_is_pure():
    assert vt_model().is_pure()
    assert dim7_rank3_model().is_pure()
    table = GeneratorTable([("x1", 2), ("y1", 3), ("w", 4)])
    impure = SullivanModel(
        table, {"w": table.generator("y1") * table.generator("x1")}
    )
    assert impure.validate() is None
    assert not impure.is_pure()


def test_pure_is_elliptic():
    assert pure_is_elliptic(dim6_b3_model(2))
    assert not pure_is_elliptic(dim6_b3_model(1))
    assert pure_is_elliptic(dim7_sigma_model(2))
    assert pure_is_elliptic(sphere_model(3))
    with pytest.raises(ValueError):
        table = GeneratorTable([("x1", 2), ("y1", 3), ("w", 4)])
        impure = SullivanModel(
            table, {"w": table.generator("y1") * table.generator("x1")}
        )
        pure_is_elliptic(impure)


def test_pure_is_elliptic_with_even_generators_of_different_degrees():
    # dz is homogeneous only in the weighted degree (|x| = 2, |a| = 4)
    table = GeneratorTable([("x", 2), ("a", 4), ("y", 3), ("z", 7)])
    x, a = table.generator("x"), table.generator("a")
    for dz, elliptic in ((a * a + x * x * a, True), (a * a + x**4, True), (x * x * a, False)):
        m = SullivanModel(table, {"y": x * x, "z": dz})
        assert m.validate() is None and m.is_pure()
        assert pure_is_elliptic(m) == elliptic


def test_cup_product_formula_instance():
    # p = 1, cubic (0,0,0,1): the closed formula gives (-1, 0, 1, 0)
    form = cup_product_cubic_form(vt_model())
    canonical = form.canonical()
    # computed classes give (-1, 0, 1, 0); canonical scaling flips the sign
    assert canonical[(0, 0, 0)] == 1
    assert canonical[(0, 1, 1)] == -1
    assert canonical[(0, 0, 1)] == 0 and canonical[(1, 1, 1)] == 0


def test_cup_product_requires_one_dimensional_top():
    table = GeneratorTable([("x1", 2), ("x2", 2)])
    free = SullivanModel(table, {})
    with pytest.raises(ValueError):
        cup_product_cubic_form(free)


def test_h4_discriminant_examples():
    assert h4_pairing_discriminant(dim7_sigma_model(2)) == 2
    assert h4_pairing_discriminant(dim7_sigma_model(8)) == 2
    assert h4_pairing_discriminant(dim8_middle_model(2), generator_degree=4) == 2


def test_h4_discriminant_errors():
    with pytest.raises(ValueError):
        h4_pairing_discriminant(dim6_b3_model(2))  # three degree-2 generators
    degenerate = SullivanModel(
        GeneratorTable([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("y3", 3)]),
        {
            "y1": GeneratorTable([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("y3", 3)]).generator("x1") ** 2,
        },
    )
    # H^4 is 2-dimensional here, so the pairing precondition fails
    with pytest.raises(ValueError):
        h4_pairing_discriminant(degenerate)


def test_sigma_model_betti_and_kuenneth():
    m = dim7_sigma_model(1)
    assert betti_numbers(m, 7) == (1, 0, 2, 1, 1, 2, 0, 1)
    product = product_model(dim4_sigma_model(1), sphere_model(3))
    assert betti_numbers(product, 7) == betti_numbers(m, 7)


def test_x_sigma_betti():
    assert betti_numbers(dim4_sigma_model(2), 4) == (1, 0, 2, 0, 1)


def test_kuenneth_convolution_on_products():
    rng = random.Random(71)
    factories = [
        lambda: sphere_model(2),
        lambda: sphere_model(3),
        lambda: sphere_model(4),
        lambda: cp_model(2),
        lambda: dim4_sigma_model(2),
        lambda: dim6_b3_model(2),
    ]
    # the cochain benchmark's pair, up to its full formal dimension 12
    pairs = [(dim6_b3_model(2), dim6_b3_model(3))]
    for _ in range(10):
        pairs.append((rng.choice(factories)(), rng.choice(factories)()))
    for m1, m2 in pairs:
        n = m1.formal_dimension_claim() + m2.formal_dimension_claim()
        b1 = betti_numbers(m1, n)
        b2 = betti_numbers(m2, n)
        product = betti_numbers(product_model(m1, m2), n)
        convolution = tuple(
            sum(b1[i] * b2[k - i] for i in range(k + 1)) for k in range(n + 1)
        )
        assert product == convolution


ELLIPTIC_MODELS = [
    ("sphere3", lambda: sphere_model(3)),
    ("sphere4", lambda: sphere_model(4)),
    ("cp2", lambda: cp_model(2)),
    ("cp3", lambda: cp_model(3)),
    ("b2-family", lambda: dim6_b2_model(1, (0, 0, 0, 1))),
    ("b3-family", lambda: dim6_b3_model(2)),
    ("x-sigma", lambda: dim4_sigma_model(2)),
    ("dim7-sigma", lambda: dim7_sigma_model(2)),
    ("dim7-rank3", lambda: dim7_rank3_model()),
    ("dim8-sigma", lambda: dim8_sigma_model(3)),
    ("dim8-middle", lambda: dim8_middle_model(1)),
    ("s2xs5", lambda: product_model(sphere_model(2), sphere_model(5))),
]


@pytest.mark.parametrize("name,factory", ELLIPTIC_MODELS)
def test_poincare_window(name, factory):
    m = factory()
    n = m.formal_dimension_claim()
    betti = betti_numbers(m, n + 7)
    assert all(betti[k] == betti[n - k] for k in range(n + 1))
    assert all(b == 0 for b in betti[n + 1 :])


@pytest.mark.parametrize("name,factory", ELLIPTIC_MODELS)
def test_euler_characteristic_sign(name, factory):
    m = factory()
    n = m.formal_dimension_claim()
    betti = betti_numbers(m, n)
    euler = sum((-1) ** k * b for k, b in enumerate(betti))
    pair = exponents_of_model(m)
    assert euler >= 0
    assert (euler > 0) == (pair.q == pair.r)


def test_betti_numbers_and_formal_dimension_claim_of_a_b3_model():
    m = dim6_b3_model(2)
    assert m.formal_dimension_claim() == 6
    assert betti_numbers(m, 8) == (1, 0, 3, 0, 3, 0, 1, 0, 0)


def test_pure_elliptic_matches_regular_sequence_when_balanced():
    # for pure models with as many odd as even generators, the finiteness
    # criterion coincides with the odd images forming a regular sequence
    from sullivan.groebner import is_regular_sequence
    from sullivan.model import even_element_to_polynomial, even_subalgebra_ring

    balanced = [
        dim6_b3_model(0),
        dim6_b3_model(1),
        dim6_b3_model(2),
        dim6_b2_model(1, (0, 0, 0, 1)),
        dim6_b2_model(1, (0, 1, 0, 1)),
        dim4_sigma_model(2),
        dim7_rank3_model(),  # q=2, r=3 with one zero image drops to a balanced check
    ]
    for m in balanced:
        if not m.is_pure():
            continue
        ring = even_subalgebra_ring(m)
        images = [
            even_element_to_polynomial(m, m.images[i], ring)
            for i in m.table.odd_indices()
            if not m.images[i].is_zero()
        ]
        if len(images) != len(ring.variables):
            continue
        assert pure_is_elliptic(m) == is_regular_sequence(images, ring)


def test_poincare_duality_check_full():
    assert poincare_duality_check(dim6_b3_model(2))
    assert poincare_duality_check(dim7_sigma_model(2))
    assert poincare_duality_check(sphere_model(4))
    # free polynomial part: cohomology unbounded, no formal dimension
    free = SullivanModel(GeneratorTable([("x1", 2), ("x2", 2)]), {})
    assert free.formal_dimension_claim() < 0
    assert not poincare_duality_check(free)
    # closed generators: formal dimension 5 and b_5 = 1, but symmetry
    # fails (b_1 = 0, b_4 = 1)
    closed = SullivanModel(GeneratorTable([("y", 3), ("x", 4), ("z", 5)]), {})
    assert closed.formal_dimension_claim() == 5
    assert betti_numbers(closed, 5) == (1, 0, 0, 1, 1, 1)
    assert not poincare_duality_check(closed)


# -- the cached cochain complex -------------------------------------------------


def test_cochains_is_built_once_per_model():
    m = dim7_sigma_model(2)
    assert m.cochains() is m.cochains()
    assert dim7_sigma_model(2).cochains() is not m.cochains()


def test_top_class_reading_is_the_coordinate_along_the_class_generator():
    # d(x·y1) = x^3 and d(x·y2) = 2x^3: H^5 is spanned by the class of
    # x·(2y1 − y2), whose representative has two entries of different sizes
    table = GeneratorTable([("x", 2), ("y1", 3), ("y2", 3)])
    x, y1, y2 = (table.generator(name) for name in table.names)
    m = SullivanModel(table, {"y1": x * x, "y2": 2 * (x * x)})
    assert poincare_duality_check(m)
    cochains = m.cochains()
    generator = cochains.class_generator(5)
    assert sorted(map(abs, generator.values())) == [Fraction(1, 2), 1]
    for c in (1, -3, 4):
        element = c * (x * (2 * y1 - y2))
        t = cochains._top_coordinate(5, cochains.coordinates(5, element))
        assert t != 0 and cochains.reduce(5, element) == {j: t * g for j, g in generator.items()}


@pytest.mark.parametrize(
    "m", [vt_model(), dim6_b3_model(2), dim6_b3_model(Fraction(-1, 3))], ids=["vt", "b3(2)", "b3(-1/3)"]
)
def test_cup_products_are_multiples_of_the_top_class(m):
    form = cup_product_cubic_form(m)
    cochains = m.cochains()
    generator = cochains.class_generator(6)
    xs = [m.table.generator(i) for i, d in enumerate(m.table.degrees) if d == 2]
    for a, b, c in combinations_with_replacement(range(len(xs)), 3):
        f = form[(a, b, c)]
        assert cochains.reduce(6, xs[a] * xs[b] * xs[c]) == {j: f * g for j, g in generator.items() if f}


def test_top_class_readings_need_no_kernel_and_no_search(monkeypatch):
    # a class in a one-dimensional H^k is read off its reduced cocycle alone
    kernels, searches = [], []
    cochain_complex = sullivan.model.CochainComplex
    kernel, class_generator = cochain_complex.kernel, cochain_complex.class_generator

    def counting_kernel(self, k):
        kernels.append(k)
        return kernel(self, k)

    def counting_class_generator(self, k):
        searches.append(k)
        return class_generator(self, k)

    monkeypatch.setattr(cochain_complex, "kernel", counting_kernel)
    monkeypatch.setattr(cochain_complex, "class_generator", counting_class_generator)
    # S^2 × S^2 × S^6: b2 = 2 with b4 = b6 = 1, formal dimension 10
    m = product_model(product_model(sphere_model(2), sphere_model(2)), sphere_model(6))
    assert cup_product_cubic_form(m).is_zero()
    assert pairing_determinant(m) == -1
    assert poincare_duality_check(m)
    assert kernels == [] and searches == []
    cochains = m.cochains()
    for k in (4, 6, 10):
        assert list(cochains.class_generator(k).values()) == [1]
    assert kernels == [4, 6, 10]


@st.composite
def one_dimensional_classes(draw):
    """A random pure model, a degree k with dim H^k = 1 and a random integer
    cocycle over basis(k): a combination of kernel vectors."""
    m = draw(random_pure_models())
    cochains = m.cochains()
    degrees = [k for k in range(1, max(m.formal_dimension_claim(), 0) + 3) if cochains.betti(k) == 1]
    assume(degrees)
    k = draw(st.sampled_from(degrees))
    cocycle: dict[int, int] = {}
    for vec in cochains.kernel(k):
        c = draw(st.integers(-3, 3))
        for j, x in vec.items():
            cocycle[j] = cocycle.get(j, 0) + c * x
    return m, k, {j: x for j, x in cocycle.items() if x}


@settings(deadline=None, max_examples=60)
@given(one_dimensional_classes())
def test_top_coordinate_is_the_coordinate_along_the_class_generator(case):
    m, k, cocycle = case
    cochains = m.cochains()
    basis = cochains.basis(k)
    reduced = cochains.reduce(k, m.table.element({basis[j]: x for j, x in cocycle.items()}))
    generator = cochains.class_generator(k)
    t = cochains._top_coordinate(k, dict(cocycle))
    assert reduced == {j: t * g for j, g in generator.items() if t}


def test_differential_matrix_built_at_most_once_per_degree(monkeypatch):
    # a basis built twice enumerates its degree twice, and a d_k built twice
    # sends each degree-k monomial through the Leibniz rule twice
    bases, leibniz = [], []
    original_basis = sullivan.model.monomial_basis
    original_leibniz = sullivan.model._leibniz_monomial

    def counting_basis(table, k):
        bases.append(k)
        return original_basis(table, k)

    def counting_leibniz(table, images, mono):
        leibniz.append(mono)
        return original_leibniz(table, images, mono)

    monkeypatch.setattr(sullivan.model, "monomial_basis", counting_basis)
    m = dim7_sigma_model(2)
    # building the complex validates d^2 = 0 on every generator image first
    cochains = m.cochains()
    monkeypatch.setattr(sullivan.model, "_leibniz_monomial", counting_leibniz)
    assert tuple(cochains.betti(k) for k in range(8)) == (1, 0, 2, 1, 1, 2, 0, 1)
    assert poincare_duality_check(m)
    sullivan.model.pairing_determinant(m)
    assert bases and len(bases) == len(set(bases))
    assert len(leibniz) == len(set(leibniz)) == sum(len(cochains.basis(k)) for k in range(8))


def test_model_with_a_built_complex_is_freed_without_the_cycle_collector():
    gc.disable()
    try:
        m = dim7_sigma_model(2)
        assert betti_numbers(m, 7) == (1, 0, 2, 1, 1, 2, 0, 1)
        refs = [weakref.ref(m), weakref.ref(m.cochains())]
        del m
        assert [r() for r in refs] == [None, None]
    finally:
        gc.enable()


@pytest.mark.parametrize("name,factory", ELLIPTIC_MODELS)
def test_d_squared_vanishes_on_the_cochain_columns(name, factory):
    m = factory()
    cochains = m.cochains()
    for k in range(m.formal_dimension_claim() + 1):
        after = cochains.d(k + 1)
        assert len(after) == len(cochains.basis(k + 1))
        for column in cochains.d(k):
            twice = {}
            for r, x in column.items():
                for s, y in after[r].items():
                    twice[s] = twice.get(s, 0) + x * y
            assert not any(twice.values())


def _random_element(rng, table, basis):
    monos = rng.sample(basis, min(len(basis), 4))
    return table.element({mono: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for mono in monos})


@pytest.mark.parametrize("name,factory", ELLIPTIC_MODELS)
def test_reduce_is_constant_on_cosets_of_the_image(name, factory):
    m = factory()
    cochains = m.cochains()
    rng = random.Random(name)
    for k in range(1, m.formal_dimension_claim() + 1):
        image = cochains.image(k)
        basis = cochains.basis(k)
        for _ in range(3):
            z = _random_element(rng, m.table, basis)
            dw = extend_differential(m, _random_element(rng, m.table, cochains.basis(k - 1)))
            reduced = cochains.reduce(k, z)
            assert cochains.reduce(k, z + dw) == reduced
            assert cochains.reduce(k, dw) == {}
            assert all(reduced.values()) and not reduced.keys() & image.keys()
            # and z - reduce(z) lies in the image
            difference = cochains.coordinates(k, z)
            for j, c in reduced.items():
                difference[j] = difference.get(j, 0) - c
            rows = list(image.values()) + [difference]
            dense = [[row.get(j, 0) for j in range(len(basis))] for row in rows]
            assert dense_rank(dense, len(basis)) == len(image)


# -- the fraction-free complex against plain Fraction arithmetic ----------------


def _fraction_rref(vectors, length):
    """Textbook Gauss-Jordan over Fraction on dense copies of the sparse
    vectors: the RREF rows of their span, keyed by pivot."""
    reduced = {}
    for vector in vectors:
        row = [Fraction(vector.get(j, 0)) for j in range(length)]
        for p, other in reduced.items():
            row = [a - row[p] * b for a, b in zip(row, other)]
        lead = next((j for j, x in enumerate(row) if x), None)
        if lead is None:
            continue
        row = [x / row[lead] for x in row]
        for p, other in reduced.items():
            reduced[p] = [a - other[lead] * b for a, b in zip(other, row)]
        reduced[lead] = row
    return reduced


COSET_MODELS = [
    dim6_b3_model(Fraction(1, 3)),
    dim7_sigma_model(Fraction(-2, 5)),
    dim8_sigma_model(3),
    vt_model(p=2, cubic=(1, 0, Fraction(1, 2), 1)),
]


@settings(deadline=None, max_examples=60)
@given(st.sampled_from(COSET_MODELS), st.data())
def test_reduce_matches_a_fraction_coset_reduction(m, data):
    cochains = m.cochains()
    k = data.draw(st.integers(1, m.formal_dimension_claim()))
    basis = cochains.basis(k)
    coefficient = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 4))
    terms = data.draw(st.dictionaries(st.sampled_from(basis), coefficient, max_size=6)) if basis else {}
    element = m.table.element(terms)
    vec = [Fraction(element.terms.get(mono, 0)) for mono in basis]
    for p, row in _fraction_rref(cochains.d(k - 1), len(basis)).items():
        vec = [a - vec[p] * b for a, b in zip(vec, row)]
    reduced = cochains.reduce(k, element)
    assert reduced == {j: x for j, x in enumerate(vec) if x}
    assert all(type(x) is int for x in reduced.values() if x.denominator == 1)


@pytest.mark.parametrize(
    "m", [dim7_sigma_model(2), dim6_b3_model(Fraction(1, 3)), vt_model()], ids=["dim7-sigma(2)", "b3(1/3)", "vt"]
)
def test_cached_columns_are_unchanged_by_kernels_images_and_reductions(m):
    # the elimination keeps all-int columns as they are, not copies of them
    cochains = m.cochains()
    n = m.formal_dimension_claim()
    columns = {k: cochains.d(k) for k in range(-1, n + 1)}
    snapshot = copy.deepcopy(columns)
    rng = random.Random(n)
    for k in range(n + 1):
        cochains.kernel(k)
        cochains.image(k)
        if cochains.betti(k):
            cochains.class_generator(k)
        for _ in range(3):
            cochains.reduce(k, _random_element(rng, m.table, cochains.basis(k)))
    assert poincare_duality_check(m)
    assert all(cochains.d(k) is columns[k] for k in columns)
    assert columns == snapshot


@pytest.mark.parametrize(
    "m,degree,expected",
    [
        (dim4_sigma_model(3), 2, 3),
        (dim7_sigma_model(2), 2, 2),
        (dim7_sigma_model(-5), 2, -5),
        (dim7_sigma_model(Fraction(1, 3)), 2, Fraction(1, 3)),
        (dim8_middle_model(2), 4, 2),
        (dim8_middle_model(Fraction(-3, 2)), 4, Fraction(-3, 2)),
    ],
    ids=["x-sigma(3)", "dim7-sigma(2)", "dim7-sigma(-5)", "dim7-sigma(1/3)", "dim8-middle(2)", "dim8-middle(-3/2)"],
)
def test_pairing_determinant_is_an_int_when_whole(m, degree, expected):
    det = pairing_determinant(m, degree)
    assert det == expected
    assert type(det) is (int if det.denominator == 1 else Fraction)


def test_rank_kernel_and_image_agree():
    cochains = dim6_b3_model(2).cochains()
    for k in range(8):
        assert len(cochains.image(k + 1)) == cochains.rank(k)
        assert len(cochains.kernel(k)) == len(cochains.basis(k)) - cochains.rank(k)
        assert len(cochains.d(k)) == len(cochains.basis(k))


def test_cochains_refuses_d_squared_nonzero():
    table = GeneratorTable([("x1", 2), ("y1", 3), ("w", 4)])
    x1, y1 = table.generator("x1"), table.generator("y1")
    m = SullivanModel(table, {"y1": x1 * x1, "w": x1 * y1})
    with pytest.raises(ValueError, match=r"d\(d\(w\)\)"):
        betti_numbers(m, 8)


def test_cochains_refuses_wrong_degree():
    table = GeneratorTable([("x", 2), ("y", 3)])
    m = SullivanModel(table, {"y": table.generator("x")})
    with pytest.raises(ValueError, match=r"d\(y\) has degree 2"):
        betti_numbers(m, 4)


def test_cochains_accepts_non_minimal_but_not_hidden_d_squared():
    table = GeneratorTable([("x", 4), ("y", 3)])
    contractible = SullivanModel(table, {"y": table.generator("x")})
    assert contractible.validate().kind == "minimality"
    assert betti_numbers(contractible, 8) == (1,) + (0,) * 8
    # the minimality violation comes first and must not mask the d^2 one
    table = GeneratorTable([("x", 4), ("y", 3), ("x1", 2), ("y1", 3), ("w", 4)])
    x, x1, y1 = table.generator("x"), table.generator("x1"), table.generator("y1")
    m = SullivanModel(table, {"y": x, "y1": x1 * x1, "w": x1 * y1})
    assert m.validate().kind == "minimality"
    with pytest.raises(ValueError, match=r"d\(d\(w\)\)"):
        m.cochains()


# -- past the paper's sizes -------------------------------------------------------


def test_betti_numbers_of_a_degree_16_triple_product():
    # the Poincare series (1+t^2)^6 (1+t^2+t^4), expanded here as an oracle only
    series = [1]
    for factor in [(1, 0, 1)] * 6 + [(1, 0, 1, 0, 1)]:
        product = [0] * (len(series) + len(factor) - 1)
        for i, a in enumerate(series):
            for j, b in enumerate(factor):
                product[i + j] += a * b
        series = product
    m = product_model(product_model(dim6_b3_model(2), dim6_b3_model(3)), cp_model(2))
    assert betti_numbers(m, 16) == tuple(series)


def test_poincare_duality_of_a_product_of_two_b3_models():
    assert poincare_duality_check(product_model(dim6_b3_model(2), dim6_b3_model(3)))


# -- Betti numbers from the Groebner quotient ---------------------------------------


def closed_form_betti(image_degrees, even_degrees, top):
    """Coefficients of prod (1 − t^{|dy_j|}) / prod (1 − t^{|x_i|}) up to t^top:
    the Poincare series of a pure model whose images form a regular sequence.
    A test oracle only."""
    series = [1] + [0] * top
    for d in image_degrees:
        series = [series[k] - (series[k - d] if k >= d else 0) for k in range(top + 1)]
    for d in even_degrees:
        for k in range(d, top + 1):
            series[k] += series[k - d]
    return tuple(series)


def complex_betti(m, top):
    cochains = m.cochains()
    return tuple(cochains.betti(k) for k in range(top + 1))


def assert_routes_agree(m, top):
    """The quotient route, when it applies, against the cochain complex and
    the closed form; betti_numbers against the complex always; and a pure
    model with as many odd as even generators is elliptic exactly when the
    quotient route applies."""
    table = m.table
    quotient = None if m.quotient() is None else m.quotient().betti(top)
    direct = complex_betti(m, top)
    assert betti_numbers(m, top) == direct
    if len(table.even_indices()) == len(table.odd_indices()) >= 1:
        assert (quotient is not None) == pure_is_elliptic(m)
    if quotient is not None:
        even_degrees = [table.degrees[i] for i in table.even_indices()]
        image_degrees = [table.degrees[i] + 1 for i in table.odd_indices()]
        assert quotient == direct == closed_form_betti(image_degrees, even_degrees, top)


@st.composite
def random_pure_models(draw, even_degrees=(2, 4), min_even=1):
    """min_even-3 even generators of the given degrees (2 and 4 by default)
    and as many odd ones, each with a random homogeneous image of degree
    2-8 (sparse, small integer coefficients; possibly zero)."""
    n = draw(st.integers(min_even, 3))
    even = draw(st.lists(st.sampled_from(even_degrees), min_size=n, max_size=n))
    step = gcd(*even)
    reachable = [d for d in (2, 4, 6, 8) if d % step == 0]
    image_degrees = draw(st.lists(st.sampled_from(reachable), min_size=n, max_size=n))
    table = GeneratorTable(
        [(f"x{i}", d) for i, d in enumerate(even)] + [(f"y{j}", d - 1) for j, d in enumerate(image_degrees)]
    )
    differential = {}
    for j, d in enumerate(image_degrees):
        terms = {}
        for mono in _even_exponent_vectors(tuple(even), d):
            c = draw(st.sampled_from((0, 0, 1, -1, 2, -3)))
            if c:
                terms[mono + (0,) * n] = c
        differential[f"y{j}"] = table.element(terms)
    return SullivanModel(table, differential)


@settings(deadline=None, max_examples=60)
@given(random_pure_models())
def test_betti_routes_agree_on_random_pure_models(m):
    top = max(m.formal_dimension_claim(), 0) + 2
    assert_routes_agree(m, top)


@settings(deadline=None, max_examples=60)
@given(random_pure_models())
def test_quotient_betti_up_to_each_degree_is_a_prefix(m):
    """Betti numbers read up to each k, below the socle too, from a numerator
    truncated at k, are the first k + 1 of those read up to top."""
    quotient = m.quotient()
    if quotient is not None:
        top = max(m.formal_dimension_claim(), 0) + 2
        full = quotient.betti(top)
        for k in range(top + 1):
            assert quotient.betti(k) == full[: k + 1]


PURE_FACTORS = [
    st.builds(sphere_model, st.integers(2, 5)),
    st.builds(cp_model, st.integers(1, 3)),
    st.builds(dim6_b3_model, st.integers(-2, 3)),
    st.builds(dim4_sigma_model, st.sampled_from((-1, 1, 2, Fraction(1, 2)))),
    st.builds(dim7_sigma_model, st.sampled_from((1, 2))),
    st.builds(dim8_middle_model, st.integers(-1, 2)),
    st.builds(dim8_sigma_model, st.sampled_from((1, 3))),
    st.builds(dim6_b2_model, st.integers(1, 2), st.sampled_from(((0, 0, 0, 1), (0, 1, 0, 1), (1, 0, 0, 0)))),
    # degenerate: its two images have a common factor
    st.builds(dim6_b2_model, st.just(1), st.just((1, 2, 1, 2))),
]


@settings(deadline=None, max_examples=40)
@given(st.one_of(PURE_FACTORS), st.one_of(PURE_FACTORS))
def test_kuenneth_and_betti_routes_on_products_of_catalog_factors(m1, m2):
    n = max(m1.formal_dimension_claim(), 0) + max(m2.formal_dimension_claim(), 0)
    b1, b2 = betti_numbers(m1, n), betti_numbers(m2, n)
    product = product_model(m1, m2)
    assert betti_numbers(product, n) == tuple(sum(b1[i] * b2[k - i] for i in range(k + 1)) for k in range(n + 1))
    assert_routes_agree(product, min(n, 9))


def test_betti_numbers_of_an_elliptic_pure_model_build_no_cochain_complex():
    m = product_model(dim6_b3_model(2), dim6_b3_model(3))
    assert betti_numbers(m, 12) == (1, 0, 6, 0, 15, 0, 20, 0, 15, 0, 6, 0, 1)
    assert m._cochains is None
    # chi = 0, one odd generator more than a regular sequence: two Hilbert functions
    m = dim7_sigma_model(2)
    assert betti_numbers(m, 7) == (1, 0, 2, 1, 1, 2, 0, 1)
    assert m._cochains is None
    # as many images as even generators, with an infinite quotient: the complex
    m = dim6_b3_model(1)
    betti_numbers(m, 7)
    assert m._cochains is not None


@st.composite
def models_past_a_regular_sequence(draw, even_degrees=(2, 4), min_even=1):
    """min_even-3 even generators of the given degrees (2 and 4 by default)
    and 1, 2, n or n + 1 odd ones, n the number of even ones, with random
    images of degree 2-8, sparse (possibly zero) or dense, all of them
    sometimes multiples of one common form."""
    n = draw(st.integers(min_even, 3))
    even = draw(st.lists(st.sampled_from(even_degrees), min_size=n, max_size=n))
    step = gcd(*even)
    reachable = [d for d in (2, 4, 6, 8) if d % step == 0]
    odd = draw(st.sampled_from(list(dict.fromkeys((n + 1, n, 2, 1)))))
    image_degrees = draw(st.lists(st.sampled_from(reachable), min_size=odd, max_size=odd))
    table = GeneratorTable(
        [(f"x{i}", d) for i, d in enumerate(even)] + [(f"y{j}", d - 1) for j, d in enumerate(image_degrees)]
    )
    pad = (0,) * len(image_degrees)
    coefficients = draw(st.sampled_from(((0, 0, 1, -1, 2, -3), (1, -1, 2, -3))))

    def form(d):
        terms = {mono + pad: draw(st.sampled_from(coefficients)) for mono in _even_exponent_vectors(tuple(even), d)}
        return table.element({mono: c for mono, c in terms.items() if c})

    common = draw(st.sampled_from([None, None, None] + reachable[:2]))
    factor = form(common) if common else None
    differential = {}
    for j, d in enumerate(image_degrees):
        differential[f"y{j}"] = form(d - common) * factor if common and d >= common else form(d)
    return SullivanModel(table, differential)


# -- Poincare duality of pure elliptic models from Halperin's theorem ---------------


def complex_pairing_rank(m, n):
    """Rank of the pairing of the degree-two generators against the cocycles
    of degree n - 2 into the one-dimensional H^n, on the cochain complex:
    each product reduced modulo the image and read at the first position of
    H^n's class generator, where that is 1.  A test oracle only."""
    cochains = m.cochains()
    basis = cochains.basis(n - 2)
    lead = min(cochains.class_generator(n))
    cocycles = [m.table.element({basis[j]: c for j, c in z.items()}) for z in cochains.kernel(n - 2)]
    rows = [
        [cochains.reduce(n, m.table.generator(i) * z).get(lead, 0) for z in cocycles]
        for i, d in enumerate(m.table.degrees)
        if d == 2
    ]
    return dense_rank(rows, len(cocycles))


def complex_duality_verdict(m):
    """poincare_duality_check read on the cochain complex alone, of a copy of
    the model whose quotient is set aside: Betti symmetry, b_n = 1 and a
    pairing of the degree-two generators of full rank.  A test oracle only."""
    n = m.formal_dimension_claim()
    if n < 0:
        return False
    on_complex = copy.copy(m)
    on_complex._quotient = None
    betti = complex_betti(on_complex, n)
    if betti[n] != 1 or betti != betti[::-1]:
        return False
    xs = [i for i, d in enumerate(m.table.degrees) if d == 2]
    return not xs or n < 4 or complex_pairing_rank(on_complex, n) == len(xs)


def assert_duality_routes_agree(m):
    """poincare_duality_check gives the verdict of the cochain complex alone."""
    assert poincare_duality_check(m) == complex_duality_verdict(m)


@st.composite
def models_with_a_degree_one_generator(draw):
    """A model of `models_past_a_regular_sequence` with a degree-two
    generator and one more odd generator u of degree 1, whose image is a
    random combination of the degree-two generators, often zero: up to
    n + 2 odd generators, and a linear term that a contractible pair
    splits off."""
    m = draw(models_past_a_regular_sequence())
    names, degrees = m.table.names, m.table.degrees
    xs = [i for i, d in enumerate(degrees) if d == 2]
    assume(xs)
    table = GeneratorTable(list(zip(names, degrees)) + [("u", 1)])
    differential = {
        name: table.element({mono + (0,): c for mono, c in image.terms.items()}) for name, image in zip(names, m.images)
    }
    differential["u"] = table.zero()
    for i in xs:
        differential["u"] += draw(st.sampled_from((0, 0, 0, 1, -1, 2))) * table.generator(i)
    return SullivanModel(table, differential)


@settings(deadline=None, max_examples=100)
@given(random_pure_models())
def test_duality_routes_agree_on_random_pure_models(m):
    assert_duality_routes_agree(m)


@settings(deadline=None, max_examples=60)
@given(models_past_a_regular_sequence())
def test_duality_routes_agree_past_a_regular_sequence(m):
    assert_duality_routes_agree(m)


@settings(deadline=None, max_examples=60)
@given(models_with_a_degree_one_generator())
def test_duality_routes_agree_with_a_degree_one_generator(m):
    assert_duality_routes_agree(m)


@settings(deadline=None, max_examples=25)
@given(st.one_of(PURE_FACTORS), st.one_of(PURE_FACTORS))
def test_duality_routes_agree_on_products_of_catalog_factors(m1, m2):
    product = product_model(m1, m2)
    assume(product.formal_dimension_claim() <= 12)
    assert_duality_routes_agree(product)


def degenerate_pairing_models():
    """Pure models on the quotient route with b = (1, 0, 1, 0, 1) whose two
    degree-two generators span one class: dy1 kills x1, or x1 - x2."""
    table = GeneratorTable([("x1", 2), ("x2", 2), ("y1", 1), ("y2", 5)])
    x1, x2 = table.generator("x1"), table.generator("x2")
    yield SullivanModel(table, {"y1": x1, "y2": x2**3})
    yield SullivanModel(table, {"y1": x1 - x2, "y2": x1**3})
    yield SullivanModel(table, {"y1": x1 - x2, "y2": x1**3 + 2 * x1 * x2 * x2})


@pytest.mark.parametrize("m", degenerate_pairing_models())
def test_a_degenerate_pairing_fails_duality_on_both_routes(m):
    assert m.quotient() is not None
    assert betti_numbers(m, 4) == (1, 0, 1, 0, 1)
    assert complex_pairing_rank(m, 4) == 1
    assert not poincare_duality_check(m)
    assert_duality_routes_agree(m)


def non_elliptic_pure_models():
    """Pure models that are not elliptic, whose pairing is read on the
    cochain complex: x of degree 2 and a closed y of degree 5, with
    b = (1, 0, 1, 0, 1) to the claimed formal dimension 4; and two images
    with the common factor x0, whose Betti numbers pass."""
    table = GeneratorTable([("x", 2), ("y", 5)])
    yield SullivanModel(table, {}), True
    table = GeneratorTable([("x0", 2), ("x1", 4), ("y0", 5), ("y1", 7)])
    x0, x1 = table.generator("x0"), table.generator("x1")
    yield SullivanModel(table, {"y0": -3 * x0**3 + 2 * x0 * x1, "y1": 2 * x0**4 + x0**2 * x1}), False


@pytest.mark.parametrize("m, verdict", non_elliptic_pure_models())
def test_a_non_elliptic_pure_model_reads_its_pairing_on_one_complex(monkeypatch, m, verdict):
    assert m.is_pure() and not pure_is_elliptic(m)
    built = []
    complex_class = sullivan.model.CochainComplex
    monkeypatch.setattr(sullivan.model, "CochainComplex", lambda m: built.append(1) or complex_class(m))
    assert poincare_duality_check(m) == verdict
    assert len(built) == 1
    assert_duality_routes_agree(m)


def test_the_duality_check_of_a_model_that_is_not_minimal_asks_for_rank_the_number_of_x_p():
    """The flag manifold SU(3)/T as a pure model that is not minimal: x1,
    x2, x3 of degree 2, y1, y2, y3 of degrees 1, 3, 5 and dy_k the k-th
    elementary symmetric polynomial.  It is elliptic, and its cohomology is
    a Poincaré duality algebra with b = (1, 0, 2, 0, 2, 0, 1).  The check
    still reads False, on either route: it asks the pairing for rank #x_p
    = 3, which is dim H^2 only on a minimal model, and here the linear
    term of dy1 leaves dim H^2 = 2.  `validate` names that term."""
    table = GeneratorTable([("x1", 2), ("x2", 2), ("x3", 2), ("y1", 1), ("y2", 3), ("y3", 5)])
    x1, x2, x3 = map(table.generator, ("x1", "x2", "x3"))
    m = SullivanModel(table, {"y1": x1 + x2 + x3, "y2": x1 * x2 + x1 * x3 + x2 * x3, "y3": x1 * x2 * x3})
    assert m.is_pure() and pure_is_elliptic(m)
    assert betti_numbers(m, 6) == (1, 0, 2, 0, 2, 0, 1)
    assert not poincare_duality_check(m)
    assert_duality_routes_agree(m)
    violation = m.validate()
    assert (violation.kind, violation.generator) == ("minimality", "y1")


def test_betti_numbers_and_duality_run_the_pair_loop_once(monkeypatch):
    calls = count_calls(monkeypatch, _pair_loop)
    built = []
    complex_class = sullivan.model.CochainComplex
    monkeypatch.setattr(sullivan.model, "CochainComplex", lambda m: built.append(1) or complex_class(m))
    m = product_model(dim6_b3_model(2), cp_model(2))
    n = m.formal_dimension_claim()
    assert betti_numbers(m, n + 7)[: n + 1] == (1, 0, 4, 0, 7, 0, 7, 0, 4, 0, 1)
    assert poincare_duality_check(m)
    assert len(calls) == 1
    assert m._cochains is None and not built
    # a model off the quotient route reads its Betti numbers from two Hilbert
    # functions; its closed y3 makes the quotient by all images the one by
    # the other two, so one loop; and it is elliptic, so its pairing needs
    # no complex
    m = dim7_sigma_model(2)
    calls.clear()
    betti_numbers(m, 14)
    assert len(calls) == 1 and not built
    assert poincare_duality_check(m)
    assert not built


def outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def count_calls(monkeypatch, function) -> list:
    """Rebinds `function` in every sullivan module that binds it to a
    wrapper that records each call in the list returned."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    name = function.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.split(".")[0] == "sullivan" and getattr(module, name, None) is function:
            monkeypatch.setattr(module, name, counting)
    return calls


def test_verify_paper_interreduces_no_basis(monkeypatch, capsys):
    """Hilbert data, Krull dimension and multiplicity depend only on the
    lead ideal, so every claim reads them off a pair loop."""
    calls = count_calls(monkeypatch, buchberger)
    assert main(["verify-paper"]) == 0
    assert calls == []


def test_top_class_readings_build_no_complex_and_no_reduced_basis(monkeypatch, capsys):
    built = []
    complex_init = sullivan.model.CochainComplex.__init__

    def counting_complex(self, m):
        built.append(m)
        complex_init(self, m)

    monkeypatch.setattr(sullivan.model.CochainComplex, "__init__", counting_complex)
    reduced = count_calls(monkeypatch, buchberger)
    assert cup_product_cubic_form(dim6_b3_model(2)) == CubicForm(
        3, {(0, 0, 0): 1, (0, 1, 2): Fraction(1, 2), (1, 1, 1): 1, (2, 2, 2): 1}
    )
    # the model as `sullivan catalog build dim8-middle 2` writes it and `classify8` reads it
    m = parse_model(render_model(dim8_middle_model(2)))
    assert classify_dim8_middle(m) == Classification("middle-class", 2)
    assert pairing_determinant(m, 4) == 2 and h4_pairing_discriminant(m, 4) == 2
    assert not cubic_form_of_quadric_ideal(biquotient_ring("bsp")).is_zero()
    # one odd generator more than a regular sequence: read from the quotient
    # of all images, for the sigma family and the degenerate sub-models
    assert classify_dim7(dim7_sigma_model(2)) == Classification(SIGMA_FAMILY, 2)
    assert classify_dim8_sigma(_dim8_degenerate_model()) == Classification(NOT_ELLIPTIC)
    assert classify_dim9_product_case(dim9_bundle_model()) == Classification("circle-bundle-type")
    assert built == [] and reduced == []
    # S^2 × S^2 × S^6 is on the quotient route, but with even degrees 2, 2 and
    # 6 the complex orders its monomials otherwise, so it reads there
    m = product_model(product_model(sphere_model(2), sphere_model(2)), sphere_model(6))
    assert m.quotient() is not None and pairing_determinant(m) == -1
    assert len(built) == 1
    # verify-paper builds none: its duality checks are all on elliptic pure models
    built.clear()
    assert main(["verify-paper"]) == 0
    assert built == []


def test_duality_checks_the_model_first():
    # a pure model of the route's shape with an image of the wrong degree
    table = GeneratorTable([("x", 2), ("y", 3)])
    m = SullivanModel(table, {"y": table.generator("x")})
    assert m.formal_dimension_claim() == 2
    with pytest.raises(ValueError, match=r"^d\(y\) has degree 2, expected 4$"):
        poincare_duality_check(m)
    # d(d(w)) = x1^3 where d is not pure
    table = GeneratorTable([("x1", 2), ("y1", 3), ("w", 4), ("z", 7)])
    x1, y1 = table.generator("x1"), table.generator("y1")
    m = SullivanModel(table, {"y1": x1 * x1, "w": x1 * y1})
    assert m.formal_dimension_claim() == 6
    with pytest.raises(ValueError, match=r"^d\(d\(w\)\) is nonzero$"):
        poincare_duality_check(m)


def test_free_algebra_past_the_basis_cap():
    # 20 closed degree-2 generators: degree 12 has C(25, 6) = 177,100 monomials
    closed = SullivanModel(GeneratorTable([(f"x{i}", 2) for i in range(20)]), {})
    assert betti_numbers(closed, 10)[10] == 42504
    with pytest.raises(ValueError, match=r"degree 12 of the free algebra has 177100 monomials"):
        betti_numbers(closed, 16)
    # the same 20 generators killed in degree 4 by 20 odd ones: a pure
    # elliptic model, answered from the quotient without enumerating
    table = GeneratorTable([(f"x{i}", 2) for i in range(20)] + [(f"y{i}", 3) for i in range(20)])
    x = [table.generator(i) for i in range(20)]
    elliptic = SullivanModel(table, {f"y{i}": x[i] * x[i] for i in range(20)})
    assert betti_numbers(elliptic, 16) == tuple(0 if k % 2 else comb(20, k // 2) for k in range(17))


def closed_pure_model(n_even, odd_degrees, images):
    """n_even closed generators x_i of degree 2 and odd generators y_j of the
    given degrees, d(y_j) built by images[j] from the list of x's (0 where
    that is None)."""
    table = GeneratorTable([(f"x{i}", 2) for i in range(n_even)] + [(f"y{j}", d) for j, d in enumerate(odd_degrees)])
    x = [table.generator(i) for i in range(n_even)]
    return SullivanModel(table, {f"y{j}": image(x) for j, image in enumerate(images) if image is not None})


def test_free_algebra_past_the_basis_cap_with_one_odd_generator():
    """The route past a regular sequence answers only where the cochain
    complex would, and otherwise raises its message, for degree
    max_degree + 1 too, which the complex enumerates for d_{max_degree}."""
    m = closed_pure_model(20, [3], [lambda x: x[0] * x[0]])
    assert sullivan.model._sub_quotient_betti(m, 10) is not None
    for top in (11, 16):
        on_complex = copy.copy(m)
        expected = outcome(complex_betti, on_complex, top)
        assert expected == (
            "degree 12 of the free algebra has 177100 monomials, more than the 100000 the cochain complex enumerates"
        )
        assert outcome(betti_numbers, m, top) == expected
        assert m._cochains is None


def test_the_route_leaves_out_the_last_odd_generator_it_can():
    # y1 and y2 give a finite quotient, y0 and either of them do not: y0 of
    # degree 5 is left out, and H* is the quotient (1, 2, 1) times Λ(y0)
    m = closed_pure_model(2, [5, 3, 3], [None, lambda x: x[0] * x[1], lambda x: x[0] * x[0] - 2 * x[1] * x[1]])
    expected = (1, 0, 2, 0, 1, 1, 0, 2, 0, 1, 0)
    assert sullivan.model._sub_quotient_betti(m, 10)[0] == expected == complex_betti(copy.copy(m), 10)


def test_three_images_with_no_finite_pair_fall_back_to_the_complex():
    images = [lambda x: x[0] * x[0], lambda x: x[0] * x[1], lambda x: x[0] * x[0] - x[0] * x[1]]
    m = closed_pure_model(2, [3, 3, 3], images)
    assert sullivan.model._sub_quotient_betti(m, 7) is None
    assert betti_numbers(m, 7) == complex_betti(copy.copy(m), 7)
    assert m._cochains is not None


@settings(deadline=None, max_examples=120)
@given(models_past_a_regular_sequence(), st.integers(3, 11))
def test_betti_routes_agree_past_a_regular_sequence(m, top):
    """The Betti numbers of pure models with one odd generator more than a
    certified regular sequence, from two Hilbert functions, are those of
    the cochain complex; and a model with one odd generator always has
    the route."""
    route = sullivan.model._sub_quotient_betti(m, top)
    direct = complex_betti(copy.copy(m), top)
    assert betti_numbers(m, top) == direct
    if len(m.table.odd_indices()) == 1:
        assert route is not None
    if route is not None:
        assert route[0] == direct


def complex_top_class_reader(m, degree, k):
    """`_top_class_reader` with every reading, and dim H^k, taken on the
    cochain complex by `_top_coordinate`.  A test oracle only."""
    cochains = m.cochains()
    if cochains.betti(k) != 1:
        raise ValueError(f"dim H^{k} must be 1")
    return lambda factors: cochains._top_coordinate(k, cochains.coordinates(k, prod(map(m.table.generator, factors))))


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(
        random_pure_models(even_degrees=(2,), min_even=2),
        models_past_a_regular_sequence(even_degrees=(2,), min_even=2),
    )
)
def test_top_class_readings_of_equal_weight_route_models_are_the_complex_readings(m):
    """Cup forms and pairing determinants of pure models whose even
    generators all have degree two, read from the quotient of
    `_sub_quotient_betti` when the model has that route, equal those read on
    the cochain complex of a copy of the model, errors included; and a model
    on the route builds no complex."""
    on_complex = copy.copy(m)
    readers = (cup_product_cubic_form, pairing_determinant)
    with mock.patch.object(sullivan.model, "_top_class_reader", complex_top_class_reader):
        expected = [outcome(reader, on_complex) for reader in readers]
    assert [outcome(reader, m) for reader in readers] == expected
    if sullivan.model._sub_quotient_betti(m, 6) is not None:
        assert m._cochains is None


def test_a_non_pure_model_has_at_most_the_betti_numbers_of_its_associated_pure_model():
    """N: a, b of degree 3 and z of degree 5 with dz = ab.  The associated pure
    differential keeps the part of each image in the even subalgebra, here
    none, so it is zero.  Halperin's odd spectral sequence runs from the
    pure model's cohomology to N's, keeping total degree: every b_k of N is
    at most the pure one, and the Euler characteristics agree."""
    table = GeneratorTable([("a", 3), ("b", 3), ("z", 5)])
    a, b = table.generator("a"), table.generator("b")
    model = betti_numbers(SullivanModel(table, {"z": a * b}), 13)
    pure = betti_numbers(SullivanModel(table, {}), 13)
    assert model == (1, 0, 0, 2, 0, 0, 0, 0, 2, 0, 0, 1, 0, 0)
    assert pure == (1, 0, 0, 2, 0, 1, 1, 0, 2, 0, 0, 1, 0, 0)
    assert all(map(le, model, pure))
    assert sum((-1) ** k * x for k, x in enumerate(model)) == sum((-1) ** k * x for k, x in enumerate(pure)) == 0


@st.composite
def non_pure_models(draw):
    """1-3 closed x_i of degree 2; 0..n odd y_j of degree 3, each d(y_j) a
    random quadric in the x's; closed a and b of degree 3; and z of degree
    5 with dz = a·b + a random cubic in the x's, so that d² = 0.  Returns
    the model and its associated pure model, whose differential keeps the
    part of each image in Q[x]: the quadrics, and the cubic for z."""
    n = draw(st.integers(1, 3))
    m = draw(st.integers(0, n))
    table = GeneratorTable(
        [(f"x{i}", 2) for i in range(n)] + [(f"y{j}", 3) for j in range(m)] + [("a", 3), ("b", 3), ("z", 5)]
    )
    x = [table.generator(i) for i in range(n)]

    def form(degree):
        terms = (prod(monomial) for monomial in combinations_with_replacement(x, degree))
        return sum((term.scale(draw(st.sampled_from((0, 0, 1, -1, 2, -3)))) for term in terms), table.zero())

    pure = {f"y{j}": form(2) for j in range(m)}
    pure["z"] = form(3)
    differential = dict(pure, z=table.generator("a") * table.generator("b") + pure["z"])
    return SullivanModel(table, differential), SullivanModel(table, pure)


@settings(deadline=None, max_examples=60)
@given(non_pure_models())
def test_random_non_pure_models_against_their_associated_pure_models(models):
    """Halperin's odd spectral sequence (Trans. AMS 230, 1977; FHT §32) runs
    from the associated pure model's cohomology to the model's, keeping
    total degree: b_k is at most the pure b_k, and when the pure model is
    elliptic both are finite with equal Euler characteristics.  Then the
    model is elliptic too: χ_π ≤ 0 and χ ≥ 0, χ > 0 exactly when χ_π = 0,
    and then H^odd = 0; b_N = 1 and b_k = 0 past N, the formal dimension."""
    model, pure = models
    assert model.validate() is None and not model.is_pure() and pure.is_pure()
    top = model.formal_dimension_claim() + 2
    betti, pure_betti = betti_numbers(model, top), betti_numbers(pure, top)
    assert all(map(le, betti, pure_betti))
    if pure_is_elliptic(pure):
        top = model.formal_dimension_claim()
        chi = sum((-1) ** k * b for k, b in enumerate(betti))
        assert chi == sum((-1) ** k * b for k, b in enumerate(pure_betti))
        chi_pi = sum(1 if d % 2 == 0 else -1 for d in model.table.degrees)
        assert chi_pi <= 0 and chi >= 0 and (chi > 0) == (chi_pi == 0)
        if chi > 0:
            assert not any(betti[1::2])
        assert betti[top] == 1 and betti[top + 1 :] == (0, 0)
