"""Sullivan models: Leibniz extension, validation, cohomology, cup products."""

import gc
import random
import weakref
from fractions import Fraction

import pytest

import sullivan.model
from sullivan import (
    GeneratorTable,
    SullivanModel,
    betti_numbers,
    cohomology_betti,
    cup_product_cubic_form,
    exponents_of_model,
    formal_dimension_from_exponents,
    h4_pairing_discriminant,
    monomial_basis,
    poincare_duality_check,
    pure_is_elliptic,
)
from sullivan.catalog import (
    cp_model,
    dim4_sigma_model,
    dim6_b2_model,
    dim6_b3_model,
    dim7_rank3_model,
    dim7_sigma_model,
    dim8_middle_model,
    dim8_sigma_model,
    product_model,
    sphere_model,
)
from sullivan.exponents import ExponentPair
from sullivan.linalg import RationalMatrix


def vt_model(p=1, cubic=(0, 0, 0, 1)):
    return dim6_b2_model(p, cubic)


def test_extend_differential_examples():
    m = vt_model(p=Fraction(1))
    t = m.table
    x1, x2, y1, y2 = (t.generator(n) for n in t.names)
    assert m.d(y1 * x1) == (x1 * x1 + x2 * x2) * x1
    assert m.d(x1 ** 3).is_zero()
    assert m.d(y1 * y2) == m.differential_of("y1") * y2 - y1 * m.differential_of("y2")


def test_leibniz_rule_on_products():
    # even generators with nonzero images, so the sign an even factor picks
    # up from the odd tail of its monomial matters
    table = GeneratorTable([("x", 2), ("y", 3), ("w", 4), ("z", 5)])
    x, y, w = (table.generator(n) for n in ("x", "y", "w"))
    m = SullivanModel(table, {"y": x * x, "w": x * y, "z": x * w - x**3})
    rng = random.Random(21)
    for _ in range(20):
        ka, kb = rng.sample(range(2, 12), 2)
        a, b = (
            table.element({mono: rng.randint(-3, 3) for mono in monomial_basis(table, k)}) for k in (ka, kb)
        )
        assert m.d(a * b) == m.d(a) * b + (a * m.d(b)).scale((-1) ** ka)


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
    table = GeneratorTable([("x1", 2), ("y1", 3), ("w", 4)])
    x1, y1 = table.generator("x1"), table.generator("y1")
    m = SullivanModel(table, {"y1": x1 * x1, "w": x1 * y1})
    violation = m.validate()
    assert violation is not None and violation.kind == "d-squared"
    assert violation.generator == "w"


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
    assert formal_dimension_from_exponents(ExponentPair((1, 1), (2, 3))) == 6
    assert formal_dimension_from_exponents(ExponentPair((), (2,))) == 3
    assert formal_dimension_from_exponents(ExponentPair((1, 1), (2, 2, 2))) == 7


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


def test_cohomology_report_fields():
    report = cohomology_betti(dim6_b3_model(2), 8)
    assert report.max_degree_computed == 8
    assert report.formal_dimension_claim == 6
    assert report.poincare_symmetric
    assert report.betti_vector() == (1, 0, 3, 0, 3, 0, 1, 0, 0)


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
    # free polynomial part: cohomology unbounded, symmetry fails
    free = SullivanModel(GeneratorTable([("x1", 2), ("x2", 2)]), {})
    assert not poincare_duality_check(free, 4)


# -- the cached cochain complex -------------------------------------------------


def test_cochains_is_built_once_per_model():
    m = dim7_sigma_model(2)
    assert m.cochains() is m.cochains()
    assert dim7_sigma_model(2).cochains() is not m.cochains()


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
    assert betti_numbers(m, 7) == (1, 0, 2, 1, 1, 2, 0, 1)
    assert poincare_duality_check(m)
    sullivan.model.pairing_matrix(m)
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
            dw = m.d(_random_element(rng, m.table, cochains.basis(k - 1)))
            reduced = cochains.reduce(k, z)
            assert cochains.reduce(k, z + dw) == reduced
            assert cochains.reduce(k, dw) == {}
            assert all(reduced.values()) and not reduced.keys() & image.keys()
            # and z - reduce(z) lies in the image
            difference = cochains.coordinates(k, z)
            for j, c in reduced.items():
                difference[j] = difference.get(j, 0) - c
            rows = list(image.values()) + [difference]
            assert RationalMatrix(len(rows), len(basis), rows).rank() == len(image)


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
