"""Catalog constructors, classifiers, biquotient rings, square-zero profiles."""

import random
from dataclasses import asdict
from fractions import Fraction

import pytest

from sullivan import GeneratorTable, SullivanModel, betti_numbers, catalog, cup_product_cubic_form, pure_is_elliptic
from sullivan.catalog import (
    Classification,
    NOT_ELLIPTIC,
    RANK_THREE,
    SIGMA_FAMILY,
    Claim,
    biquotient_ring,
    claims,
    classify_dim7,
    classify_dim8_middle,
    classify_dim8_sigma,
    classify_dim9_product_case,
    cp_model,
    dim4_sigma_model,
    dim6_b2_cubic_form,
    dim6_b2_discriminant,
    dim6_b2_model,
    dim6_b3_model,
    dim7_rank3_model,
    dim7_sigma_model,
    dim8_middle_model,
    dim8_sigma_model,
    dim9_bundle_model,
    product_model,
    ring_fragments,
    sphere_model,
    square_zero_profile,
    subject_claims,
    verification_report,
)
from sullivan.cubic import cubic_form_of_quadric_ideal, is_elliptic_form
from sullivan.groebner import PolyRing, buchberger
from sullivan.parsing import parse_polynomial


def test_sphere_models():
    odd = sphere_model(3)
    assert odd.table.degrees == (3,)
    even = sphere_model(4)
    assert even.table.degrees == (4, 7)
    assert betti_numbers(even, 4) == (1, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        sphere_model(1)


def test_product_betti_cp2_s3():
    m = product_model(cp_model(2), sphere_model(3))
    assert betti_numbers(m, 7) == (1, 0, 1, 1, 1, 1, 0, 1)


def test_product_renames_clashing_generators():
    m = product_model(sphere_model(3), sphere_model(3))
    assert len(set(m.table.names)) == 2
    assert betti_numbers(m, 6) == (1, 0, 0, 2, 0, 0, 1)


def test_b2_discriminant_examples():
    assert dim6_b2_discriminant(1, (0, 0, 0, 1)) == 1
    assert dim6_b2_discriminant(1, (0, 1, 0, 1)) == 0
    assert dim6_b2_discriminant(0, (0, 0, 0, 0)) == 0


def test_b2_cubic_formula_examples():
    form = dim6_b2_cubic_form(1, (0, 0, 0, 1))
    assert (form[(0, 0, 0)], form[(0, 0, 1)], form[(0, 1, 1)], form[(1, 1, 1)]) == (-1, 0, 1, 0)
    form = dim6_b2_cubic_form(1, (0, 0, -1, 0))
    assert (form[(0, 0, 0)], form[(0, 0, 1)], form[(0, 1, 1)], form[(1, 1, 1)]) == (0, -1, 0, 1)
    with pytest.raises(ValueError):
        dim6_b2_cubic_form(1, (0, 1, 0, 1))


def test_b2_formula_matches_cup_product():
    for p, cubic in ((1, (0, 0, 0, 1)), (2, (1, 0, 0, 3)), (-1, (0, 2, 1, 0))):
        if dim6_b2_discriminant(p, cubic) == 0:
            continue
        formula = dim6_b2_cubic_form(p, cubic)
        computed = cup_product_cubic_form(dim6_b2_model(p, cubic))
        assert formula.proportional_to(computed)


def test_b3_family_examples():
    assert pure_is_elliptic(dim6_b3_model(0))
    assert pure_is_elliptic(dim6_b3_model(2))
    assert not pure_is_elliptic(dim6_b3_model(1))


def test_x_sigma_models():
    assert betti_numbers(dim4_sigma_model(2), 4) == (1, 0, 2, 0, 1)
    with pytest.raises(ValueError):
        dim4_sigma_model(0)
    assert betti_numbers(dim8_sigma_model(3), 8) == (1, 0, 2, 0, 2, 0, 2, 0, 1)


def test_classify_dim7_representatives():
    assert classify_dim7(sphere_model(7)) == Classification("S7")
    assert classify_dim7(product_model(sphere_model(2), sphere_model(5))) == Classification("S2xS5")
    assert classify_dim7(product_model(cp_model(2), sphere_model(3))) == Classification("CP2xS3")
    assert classify_dim7(product_model(sphere_model(3), sphere_model(4))) == Classification("S3xS4")
    assert classify_dim7(dim7_rank3_model()) == Classification(RANK_THREE)
    assert classify_dim7(dim7_sigma_model(8)) == Classification(SIGMA_FAMILY, 2)


def test_classify_dim7_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        classify_dim7(sphere_model(6))


def test_classify_dim7_distinct_labels():
    labels = {
        str(classify_dim7(m))
        for m in (
            sphere_model(7),
            product_model(sphere_model(2), sphere_model(5)),
            product_model(cp_model(2), sphere_model(3)),
            product_model(sphere_model(3), sphere_model(4)),
            dim7_rank3_model(),
            dim7_sigma_model(1),
            dim7_sigma_model(2),
        )
    }
    assert len(labels) == 7


def test_classify_dim8_middle():
    assert classify_dim8_middle(dim8_middle_model(1)) == Classification("HP2#HP2", 1)
    assert classify_dim8_middle(dim8_middle_model(-1)) == Classification("S4xS4", -1)
    assert classify_dim8_middle(dim8_middle_model(2)) == Classification("middle-class", 2)
    assert classify_dim8_middle(dim8_middle_model(0)) == Classification(NOT_ELLIPTIC)


def test_classify_dim8_sigma():
    assert classify_dim8_sigma(dim8_sigma_model(12)) == Classification(SIGMA_FAMILY, 3)
    assert classify_dim8_sigma(dim8_sigma_model(2)) == Classification(SIGMA_FAMILY, 2)


def test_classify_dim9_cases():
    assert classify_dim9_product_case(dim9_bundle_model()) == Classification("circle-bundle-type")
    product = product_model(dim4_sigma_model(3), sphere_model(5))
    assert classify_dim9_product_case(product) == Classification("sigma-family-times-s5", 3)
    with_s3 = product_model(dim6_b2_model(1, (0, 0, 0, 1)), sphere_model(3))
    assert classify_dim9_product_case(with_s3) == Classification("six-manifold-times-s3")


def test_classify_dim7_checks_the_model_first():
    # exponents (2; 2, 4) dispatch to S3xS4 with no cohomology computed
    table = GeneratorTable([("y", 3), ("x", 4), ("z", 7)])
    g = table.generator
    with pytest.raises(ValueError, match=r"^d\(z\) has degree 7, expected 8$"):
        classify_dim7(SullivanModel(table, {"z": g("x") * g("y")}))


def test_classify_dim8_middle_checks_the_model_first():
    table = GeneratorTable([("x1", 4), ("x2", 4), ("y1", 7), ("y2", 7)])
    g = table.generator
    with pytest.raises(ValueError, match=r"^d\(y1\) has degree 12, expected 8$"):
        classify_dim8_middle(SullivanModel(table, {"y1": g("x1") * g("x2") ** 2}))


def test_classify_dim8_sigma_checks_the_model_first():
    # the cochain complex accepts a non-minimal model, the classifier does not
    table = GeneratorTable([("x1", 2), ("x2", 2), ("x3", 4), ("y1", 3), ("y2", 3), ("z", 7)])
    g = table.generator
    m = SullivanModel(table, {"y1": g("x3") + g("x1") ** 2, "y2": g("x2") ** 2})
    with pytest.raises(ValueError, match=r"^d\(y1\) has a word-length-one term$"):
        classify_dim8_sigma(m)


def test_classify_dim9_product_case_checks_the_model_first():
    table = GeneratorTable([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("z", 5)])
    g = table.generator
    m = SullivanModel(table, {"x1": g("y1"), "y2": g("x2") ** 2, "z": g("x2") ** 3})
    with pytest.raises(ValueError, match=r"^d\(x1\) has a word-length-one term$"):
        classify_dim9_product_case(m)


def test_biquotient_parameter_constraints():
    with pytest.raises(ValueError):
        biquotient_ring("b1", 0, 0)
    with pytest.raises(ValueError):
        biquotient_ring("b2", 1, 1)
    with pytest.raises(ValueError):
        biquotient_ring("b2", 0, 0)
    with pytest.raises(ValueError):
        biquotient_ring("b3", 2, 3, 3)  # 2*c1 = b1*c2
    with pytest.raises(ValueError):
        biquotient_ring("nope")


def test_biquotient_forms_are_elliptic():
    for kind, params in (("b1", (7, 6)), ("b1", (1, 0)), ("b2", (0, 5)), ("b3", (1, 1, 3))):
        form = cubic_form_of_quadric_ideal(biquotient_ring(kind, *params))
        assert is_elliptic_form(form, 3).elliptic


def test_ring_fragments_hilbert():
    pb8, cb9, ys2 = ring_fragments()
    assert buchberger(list(pb8.relations), pb8.ring).hilbert_function(5) == (1, 3, 4, 3, 1, 0)
    assert buchberger(list(cb9.relations), cb9.ring).hilbert_function(2) == (1, 2, 1)
    assert buchberger(list(ys2.relations), ys2.ring).hilbert_function(2) == (1, 3, 2)


def test_square_zero_profiles():
    _, _, ys2 = ring_fragments()
    assert square_zero_profile(list(ys2.relations), ys2.ring) == (1, 4)
    ring = PolyRing(("x1", "x2", "s"))
    msig = [parse_polynomial(t, ring) for t in ("x1*x2", "x1^2 - 2*x2^2", "s^2")]
    assert square_zero_profile(msig, ring) == (1, 3)
    n7s2 = [parse_polynomial(t, ring) for t in ("x1^2", "x2^2", "x1*x2", "s^2")]
    assert square_zero_profile(n7s2, ring)[0] == 2


def test_square_zero_profile_depends_only_on_the_span_of_the_relations():
    ring = PolyRing(("x1", "x2", "s"))
    cases = [
        (fragment.ring, list(fragment.relations))
        for fragment in ring_fragments()
        if len(fragment.ring.variables) == 3 and all(r.degree() == 2 for r in fragment.relations)
    ]
    cases += [
        (ring, [parse_polynomial(t, ring) for t in texts])
        for texts in (("x1*x2", "x1^2 - 2*x2^2", "s^2"), ("x1^2", "x2^2", "x1*x2", "s^2"))
    ]
    assert len(cases) == 3
    rng = random.Random(5)
    for r, relations in cases:
        reference = square_zero_profile(relations, r)
        for _ in range(4):
            scaled = [q.scale(Fraction(rng.choice((-3, -1, 2, 5)), rng.choice((1, 2, 7)))) for q in relations]
            rng.shuffle(scaled)
            combination = sum((q.scale(rng.randint(-2, 2)) for q in relations), r.zero())
            padded = scaled + [r.zero(), combination]
            rng.shuffle(padded)
            assert square_zero_profile(padded, r) == reference


def test_verify_entry_pass_and_fail():
    """A subject's claim passes on its recorded value and fails on any other."""
    probe = subject_claims(
        "probe", 4, "probe", lambda: dim7_sigma_model(2), [("betti:7", (1, 0, 2, 1, 1, 2, 0, 1))]
    )
    records = [claim.evaluate() for claim in probe]
    assert [r.status for r in records] == ["pass"]

    wrong = subject_claims(
        "probe-wrong",
        4,
        "probe",
        lambda: dim7_sigma_model(2),
        [("betti:7", (1, 0, 2, 1, 1, 2, 0, 2))],
    )
    records = [claim.evaluate() for claim in wrong]
    assert records[0].status == "fail"
    assert records[0].expected != records[0].actual


@pytest.fixture(scope="module")
def full_report():
    """One full verify-paper report, shared by the tests that only read it."""
    return verification_report()


def test_catalog_entries_all_pass(full_report):
    assert len(full_report) == len(list(claims()))
    for record in full_report:
        assert record.status == "pass", record


def test_claim_names_are_unique():
    names = [claim.name for claim in claims()]
    assert len(names) == len(set(names)) == 135


def test_section_reports_are_the_full_report_restricted(full_report):
    full = full_report
    rest = {r.name for r in full}
    for section, count in ((3, 81), (4, 28), (5, 25)):
        names = {claim.name for claim in claims() if claim.section == section}
        restricted = [r for r in full if r.name in names]
        assert restricted == verification_report(section)
        assert len(restricted) == count
        rest -= names
    assert len(full) == 135
    assert rest == {"exponents.low-counts"}


def test_claim_that_raises_is_a_failing_record():
    def broken():
        raise ArithmeticError("no answer")

    record = Claim("probe", 4, "probe", broken).evaluate()
    assert (record.name, record.status, record.actual) == ("probe", "fail", "error: no answer")


def test_subject_whose_builder_raises_fails_each_claim():
    def broken():
        raise ValueError("no model")

    probe = subject_claims("probe", 4, "probe", broken, [("valid", True), ("betti:3", (1,))])
    records = [claim.evaluate() for claim in probe]
    assert [(r.name, r.status, r.actual) for r in records] == [
        ("probe.valid", "fail", "error: no model"),
        ("probe.betti:3", "fail", "error: no model"),
    ]


def test_report_keeps_running_past_a_raising_builder(monkeypatch):
    def broken():
        raise ValueError("no model")

    monkeypatch.setattr(catalog, "dim9_bundle_model", broken)
    records = verification_report(5)
    failed = [r.name for r in records if r.status == "fail"]
    assert failed == [
        "dim9.trichotomy.bundle-type",
        "nine.bundle-model.betti:4",
        "nine.bundle-model.exponents",
        "nine.bundle-model.valid",
    ]
    assert len(records) == 25


def test_subject_object_is_built_once_per_report():
    built = []

    def builder():
        built.append(1)
        return dim7_sigma_model(2)

    probe = subject_claims(
        "probe", 4, "probe", builder, [("valid", True), ("betti:7", (1, 0, 2, 1, 1, 2, 0, 1))]
    )
    assert [claim.evaluate().status for claim in probe] == ["pass", "pass"]
    assert len(built) == 1


def test_verification_report_sections_and_determinism(full_report):
    full = full_report
    assert all(r.status == "pass" for r in full)
    names = [r.name for r in full]
    assert names == sorted(names)
    again = verification_report()
    assert [asdict(r) for r in full] == [asdict(r) for r in again]
    section4 = verification_report(4)
    assert section4 and all(r.status == "pass" for r in section4)
    with pytest.raises(ValueError):
        verification_report(2)


def test_catalog_elliptic_models_have_tabled_exponents():
    from sullivan.exponents import enumerate_exponents, exponents_of_model

    models = (
        sphere_model(3),
        sphere_model(4),
        cp_model(2),
        cp_model(3),
        dim6_b2_model(1, (0, 0, 0, 1)),
        dim6_b3_model(2),
        dim4_sigma_model(2),
        dim7_sigma_model(2),
        dim7_rank3_model(),
        dim8_sigma_model(3),
        dim8_middle_model(1),
        dim9_bundle_model(),
    )
    for m in models:
        assert m.validate() is None
        pair = exponents_of_model(m)
        n = m.formal_dimension_claim()
        assert pair in enumerate_exponents(n)


def test_b3_family_twenty_random_parameters():
    import random

    rng = random.Random(90)
    seen = 0
    while seen < 20:
        lam = Fraction(rng.randint(-12, 12), rng.randint(1, 6))
        if lam == 1:
            continue
        seen += 1
        assert pure_is_elliptic(dim6_b3_model(lam)), lam
    assert not pure_is_elliptic(dim6_b3_model(1))


def _random_quadric(rng, table, names=("x1", "x2")):
    x1, x2 = (table.generator(n) for n in names)
    return (
        (x1 * x1).scale(rng.randint(-2, 2))
        + (x1 * x2).scale(rng.randint(-2, 2))
        + (x2 * x2).scale(rng.randint(-2, 2))
    )


def test_classify_dim7_agrees_with_finiteness():
    import random

    from sullivan.model import GeneratorTable, SullivanModel

    rng = random.Random(91)
    table = GeneratorTable([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("y3", 3)])
    for _ in range(40):
        differential = {}
        for name in ("y1", "y2", "y3"):
            image = _random_quadric(rng, table)
            if not image.is_zero():
                differential[name] = image
        m = SullivanModel(table, differential)
        assert m.validate() is None
        verdict = classify_dim7(m)
        assert (verdict.kind != NOT_ELLIPTIC) == pure_is_elliptic(m), verdict


def test_classify_dim8_sigma_agrees_with_finiteness():
    import random

    from sullivan.model import GeneratorTable, SullivanModel

    rng = random.Random(92)
    table = GeneratorTable(
        [("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("a", 4), ("z", 7)]
    )
    a = table.generator("a")
    for _ in range(40):
        differential = {"z": a * a}
        for name in ("y1", "y2"):
            image = _random_quadric(rng, table)
            if not image.is_zero():
                differential[name] = image
        m = SullivanModel(table, differential)
        assert m.validate() is None
        verdict = classify_dim8_sigma(m)
        assert (verdict.kind != NOT_ELLIPTIC) == pure_is_elliptic(m), verdict


def test_classify_dim8_middle_degenerate_rank():
    from sullivan.model import GeneratorTable, SullivanModel

    table = GeneratorTable([("x1", 4), ("x2", 4), ("y1", 7), ("y2", 7)])
    x1 = table.generator("x1")
    rank_one = SullivanModel(table, {"y1": x1 * x1})
    assert classify_dim8_middle(rank_one) == Classification(NOT_ELLIPTIC)
