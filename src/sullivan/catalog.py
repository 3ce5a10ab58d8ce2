"""Named models and rings, their classifiers, and the verification report.

Everything the claim tables talk about is constructible here: spheres and
projective spaces, the two six-dimensional families, the seven-dimensional
diagonal family and the rank-three homogeneous model, the eight- and
nine-dimensional families, and the biquotient quadric presentations.  The
verification report recomputes every claim of one table, ``claims()``, and
diffs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, partial
from typing import Callable, Iterator, Sequence

from .algebra import GeneratorTable
from .cubic import (
    CubicForm,
    QuadricSubspace,
    associated_subspace,
    binary_classify,
    cubic_form_of_quadric_ideal,
    cubic_form_of_ring,
    hesse_form,
    hesse_sigma_candidates,
    is_elliptic_form,
    is_singular_ternary,
    pairing_rank,
    squarefree_part,
)
from .exponents import ExponentPair, enumerate_exponents, exponents_of_model
from .groebner import PolyRing, Polynomial, buchberger, is_regular_sequence
from .linalg import RationalMatrix
from .model import (
    SullivanModel,
    betti_numbers,
    cup_product_cubic_form,
    pairing_matrix,
    poincare_duality_check,
    pure_is_elliptic,
)
from .parsing import parse_polynomial, render_polynomial

# ---------------------------------------------------------------------------
# model constructors
# ---------------------------------------------------------------------------


def sphere_model(n: int) -> SullivanModel:
    """Minimal model of the n-sphere, n >= 2."""
    if n < 2:
        raise ValueError("spheres are supported from dimension 2 on")
    if n % 2:
        table = GeneratorTable([("y", n)])
        return SullivanModel(table, {})
    table = GeneratorTable([("x", n), ("y", 2 * n - 1)])
    x = table.generator("x")
    return SullivanModel(table, {"y": x * x})


def cp_model(n: int) -> SullivanModel:
    """Minimal model of complex projective n-space, n >= 1."""
    if n < 1:
        raise ValueError("projective spaces start at n = 1")
    table = GeneratorTable([("x", 2), ("y", 2 * n + 1)])
    return SullivanModel(table, {"y": table.generator("x") ** (n + 1)})


def product_model(m1: SullivanModel, m2: SullivanModel) -> SullivanModel:
    """Tensor product with componentwise differential; clashing names get a suffix."""
    used = set(m1.table.names)
    renamed = []
    for name in m2.table.names:
        new = name
        while new in used:
            new += "_2"
        used.add(new)
        renamed.append(new)
    entries = list(zip(m1.table.names, m1.table.degrees)) + list(
        zip(renamed, m2.table.degrees)
    )
    table = GeneratorTable(entries)
    n1 = len(m1.table.names)
    n2 = len(m2.table.names)
    differential = {}
    for i, name in enumerate(m1.table.names):
        image = m1.images[i]
        if image.is_zero():
            continue
        differential[name] = table.element(
            {mono + (0,) * n2: c for mono, c in image.terms.items()}
        )
    for i, name in enumerate(renamed):
        image = m2.images[i]
        if image.is_zero():
            continue
        differential[name] = table.element(
            {(0,) * n1 + mono: c for mono, c in image.terms.items()}
        )
    return SullivanModel(table, differential)


def dim6_b2_model(p, cubic: Sequence) -> SullivanModel:
    """The b2 = 2 six-dimensional family: dy1 = x1^2 + p x2^2, dy2 a binary cubic."""
    p = Fraction(p)
    c1, c2, c3, c4 = (Fraction(c) for c in cubic)
    table = GeneratorTable([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 5)])
    x1, x2 = table.generator("x1"), table.generator("x2")
    return SullivanModel(
        table,
        {
            "y1": x1 * x1 + (x2 * x2).scale(p),
            "y2": (x1 ** 3).scale(c1)
            + (x1 * x1 * x2).scale(c2)
            + (x1 * x2 * x2).scale(c3)
            + (x2 ** 3).scale(c4),
        },
    )


def dim6_b2_discriminant(p, cubic: Sequence) -> Fraction:
    """Determinant of the degree-seven differential; nonzero iff the family member is elliptic."""
    p = Fraction(p)
    g1, g2, g3, g4 = (Fraction(c) for c in cubic)
    return (
        p**3 * g1**2
        + p**2 * g2**2
        - 2 * p**2 * g1 * g3
        + p * g3**2
        - 2 * p * g2 * g4
        + g4**2
    )


def dim6_b2_admissible(p, cubic: Sequence) -> bool:
    return dim6_b2_discriminant(p, cubic) != 0


def dim6_b2_cubic_form(p, cubic: Sequence) -> CubicForm:
    """Closed formula for the cup form of an admissible b2 = 2 family member."""
    if not dim6_b2_admissible(p, cubic):
        raise ValueError("the family member is not elliptic (discriminant vanishes)")
    p = Fraction(p)
    g1, g2, g3, g4 = (Fraction(c) for c in cubic)
    alpha1 = p * g1 - g3
    alpha2 = p * g2 - g4
    return CubicForm(
        2,
        {
            (0, 0, 0): p * alpha2,
            (0, 0, 1): -p * alpha1,
            (0, 1, 1): -alpha2,
            (1, 1, 1): alpha1,
        },
    )


def dim6_b3_model(lam) -> SullivanModel:
    """The b2 = 3 six-dimensional family: dy_j = x_j^2 - lam * (product of the others)."""
    lam = Fraction(lam)
    table = GeneratorTable(
        [("x1", 2), ("x2", 2), ("x3", 2), ("y1", 3), ("y2", 3), ("y3", 3)]
    )
    x = [table.generator(f"x{i}") for i in (1, 2, 3)]
    return SullivanModel(
        table,
        {
            "y1": x[0] * x[0] - (x[1] * x[2]).scale(lam),
            "y2": x[1] * x[1] - (x[0] * x[2]).scale(lam),
            "y3": x[2] * x[2] - (x[0] * x[1]).scale(lam),
        },
    )


def dim4_sigma_model(s) -> SullivanModel:
    """Formal-dimension-4 member of the diagonal family (not a manifold type)."""
    s = Fraction(s)
    if s == 0:
        raise ValueError("the family parameter must be nonzero")
    table = GeneratorTable([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3)])
    x1, x2 = table.generator("x1"), table.generator("x2")
    return SullivanModel(table, {"y1": x1 * x2, "y2": x1 * x1 - (x2 * x2).scale(s)})


def dim7_sigma_model(s) -> SullivanModel:
    """Seven-dimensional diagonal family: the dim-4 member times a closed degree-3 generator."""
    s = Fraction(s)
    if s == 0:
        raise ValueError("the family parameter must be nonzero")
    table = GeneratorTable([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("y3", 3)])
    x1, x2 = table.generator("x1"), table.generator("x2")
    return SullivanModel(table, {"y1": x1 * x2, "y2": x1 * x1 - (x2 * x2).scale(s)})


def dim7_rank3_model() -> SullivanModel:
    """The homogeneous model with full-rank degree-3 differential: dy_j picks out all three squares."""
    table = GeneratorTable([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("y3", 3)])
    x1, x2 = table.generator("x1"), table.generator("x2")
    return SullivanModel(
        table,
        {"y1": x1 * x1, "y2": x2 * x2, "y3": (x1 + x2) * (x1 + x2)},
    )


def dim8_sigma_model(s) -> SullivanModel:
    """Eight-dimensional diagonal family: dim-4 member times the 4-sphere."""
    s = Fraction(s)
    if s == 0:
        raise ValueError("the family parameter must be nonzero")
    table = GeneratorTable(
        [("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("a", 4), ("z", 7)]
    )
    x1, x2, a = table.generator("x1"), table.generator("x2"), table.generator("a")
    return SullivanModel(
        table,
        {"y1": x1 * x1 - (x2 * x2).scale(s), "y2": x1 * x2, "z": a * a},
    )


def dim8_middle_model(t) -> SullivanModel:
    """Degree-4 generator pair with dy2 = x1^2 - t*x2^2; the middle-pairing family."""
    t = Fraction(t)
    table = GeneratorTable([("x1", 4), ("x2", 4), ("y1", 7), ("y2", 7)])
    x1, x2 = table.generator("x1"), table.generator("x2")
    return SullivanModel(
        table, {"y1": x1 * x2, "y2": x1 * x1 - (x2 * x2).scale(t)}
    )


def dim9_bundle_model() -> SullivanModel:
    """Nine-dimensional circle-bundle type: dy1 = x1x2, dy2 = x1^2, dz = x2^3."""
    table = GeneratorTable([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("z", 5)])
    x1, x2 = table.generator("x1"), table.generator("x2")
    return SullivanModel(
        table, {"y1": x1 * x2, "y2": x1 * x1, "z": x2 ** 3}
    )


# ---------------------------------------------------------------------------
# classifiers
# ---------------------------------------------------------------------------

NOT_ELLIPTIC = "not-elliptic"
SIGMA_FAMILY = "sigma-family"
RANK_THREE = "rank-three-homogeneous"


@dataclass(frozen=True)
class Classification:
    kind: str
    sigma_class: int | None = None

    def __str__(self) -> str:
        if self.sigma_class is None:
            return self.kind
        return f"{self.kind}[{self.sigma_class}]"


def _generator_rank(m: SullivanModel, degree: int) -> int:
    """Rank of the differential restricted to the generators of one degree."""
    cochains = m.cochains()
    rows = [
        cochains.coordinates(degree + 1, m.images[i])
        for i, d in enumerate(m.table.degrees)
        if d == degree
    ]
    return RationalMatrix(len(rows), len(cochains.basis(degree + 1)), rows).rank()


def _pairing_determinant(m: SullivanModel, generator_degree: int = 2) -> Fraction:
    rows = pairing_matrix(m, generator_degree)
    return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]


def classify_dim7(m: SullivanModel) -> Classification:
    """Rational type of a validated 7-dimensional model, by exponent dispatch."""
    pair = exponents_of_model(m)
    if pair == ExponentPair((), (4,)):
        return Classification("S7")
    if pair == ExponentPair((1,), (2, 3)):
        b3 = betti_numbers(m, 3)[3]
        return Classification("CP2xS3" if b3 else "S2xS5")
    if pair == ExponentPair((2,), (2, 4)):
        return Classification("S3xS4")
    if pair == ExponentPair((1, 1), (2, 2, 2)):
        rank = _generator_rank(m, 3)
        if rank < 2:
            return Classification(NOT_ELLIPTIC)
        if rank == 3:
            return Classification(RANK_THREE)
        det = _pairing_determinant(m)
        if det == 0:
            return Classification(NOT_ELLIPTIC)
        return Classification(SIGMA_FAMILY, squarefree_part(det))
    raise ValueError(f"exponents {pair} are not in the dimension-7 table")


def classify_dim8_middle(m: SullivanModel) -> Classification:
    """Separate the two manifold types among the degree-4 generator pairs.

    Pairing discriminant class [1] is the connected sum of two quaternionic
    planes, [-1] the product of two 4-spheres; any other class is reported
    as-is (those members are not manifold types).
    """
    pair = exponents_of_model(m)
    if pair != ExponentPair((2, 2), (4, 4)):
        raise ValueError(f"exponents {pair} do not match the middle-pairing case")
    if _generator_rank(m, 7) < 2:
        return Classification(NOT_ELLIPTIC)
    det = _pairing_determinant(m, generator_degree=4)
    if det == 0:
        return Classification(NOT_ELLIPTIC)
    cls = squarefree_part(det)
    if cls == 1:
        return Classification("HP2#HP2", 1)
    if cls == -1:
        return Classification("S4xS4", -1)
    return Classification("middle-class", cls)


def _degree_le3_submodel(m: SullivanModel) -> SullivanModel:
    """Restriction to the generators of degree at most 3 (their images stay inside)."""
    table = m.table
    keep = [i for i, d in enumerate(table.degrees) if d <= 3]
    entries = [(table.names[i], table.degrees[i]) for i in keep]
    sub = GeneratorTable(entries)
    differential = {}
    for spot, i in enumerate(keep):
        image = m.images[i]
        if image.is_zero():
            continue
        terms = {}
        for mono, c in image.terms.items():
            if any(mono[j] for j in range(len(table.names)) if j not in keep):
                raise ValueError("differential leaves the degree <= 3 part")
            terms[tuple(mono[j] for j in keep)] = c
        differential[table.names[i]] = sub.element(terms)
    return SullivanModel(sub, differential)


def classify_dim8_sigma(m: SullivanModel) -> Classification:
    """Classify the (1,1,2; 2,2,4) exponent case by the degree-2 pairing class."""
    pair = exponents_of_model(m)
    if pair != ExponentPair((1, 1, 2), (2, 2, 4)):
        raise ValueError(f"exponents {pair} do not match the dimension-8 sigma case")
    if _generator_rank(m, 3) != 2:
        return Classification(NOT_ELLIPTIC)
    sub = _degree_le3_submodel(m)
    det = _pairing_determinant(sub)
    if det == 0:
        return Classification(NOT_ELLIPTIC)
    return Classification(SIGMA_FAMILY, squarefree_part(det))


def classify_dim9_product_case(m: SullivanModel) -> Classification:
    """Trichotomy for the (1,1; 2,2,3) exponent case.

    A kernel in degree 3 means a product with the 3-sphere; otherwise the
    degree-2 pairing either has a nonzero class (diagonal family times the
    5-sphere) or degenerates to the circle-bundle type.
    """
    pair = exponents_of_model(m)
    if pair != ExponentPair((1, 1), (2, 2, 3)):
        raise ValueError(f"exponents {pair} do not match the dimension-9 product case")
    if _generator_rank(m, 3) < 2:
        return Classification("six-manifold-times-s3")
    sub = _degree_le3_submodel(m)
    det = _pairing_determinant(sub)
    if det == 0:
        return Classification("circle-bundle-type")
    return Classification("sigma-family-times-s5", squarefree_part(det))


# ---------------------------------------------------------------------------
# biquotient rings and ring fragments
# ---------------------------------------------------------------------------

BIQUOTIENT_RING = PolyRing(("u", "v", "w"))


def biquotient_ring(kind: str, *params) -> QuadricSubspace:
    """Degree-two relation subspace of the biquotient cohomology presentations."""
    u = BIQUOTIENT_RING.variable("u")
    v = BIQUOTIENT_RING.variable("v")
    w = BIQUOTIENT_RING.variable("w")
    params = tuple(Fraction(p) for p in params)
    if kind == "b1":
        c1, c2 = params
        if (c1, c2) == (0, 0):
            raise ValueError("b1 needs (c1, c2) != (0, 0)")
        relations = [u * u + 2 * u * v, v * v + u * v, w * w + c1 * u * w + c2 * v * w]
    elif kind == "b2":
        a3, b3 = params
        if a3 != 0 or b3 == 0:
            raise ValueError("b2 needs the first parameter 0 and the second nonzero")
        relations = [u * u + 2 * u * v + a3 * u * w, v * v + u * v + b3 * v * w, w * w]
    elif kind == "b3":
        b1, c1, c2 = params
        if c2 == 0 or 2 * c1 == b1 * c2:
            raise ValueError("b3 needs c2 != 0 and 2*c1 != b1*c2")
        relations = [u * u, v * v + b1 * u * v, w * w + c1 * u * w + c2 * v * w]
    elif kind == "bsp":
        if params:
            raise ValueError("the sporadic biquotient takes no parameters")
        relations = [
            u * u + 2 * u * v + 2 * u * w,
            v * v + u * v + 2 * v * w,
            w * w + u * w + v * w,
        ]
    else:
        raise ValueError(f"unknown biquotient kind {kind!r}")
    return QuadricSubspace(BIQUOTIENT_RING, relations)


@dataclass(frozen=True)
class RingFragment:
    """A graded ring presentation on degree-two generators, as far as it is known."""

    name: str
    ring: PolyRing
    relations: tuple[Polynomial, ...]


def ring_fragments() -> tuple[RingFragment, ...]:
    """The three bundle-construction rings used in the dimension 8/9 discussion."""
    pb = PolyRing(("x1", "x2", "y"))
    x1, x2, y = (pb.variable(n) for n in pb.variables)
    projective_bundle_8 = RingFragment(
        "projective-bundle-8",
        pb,
        (x1 * x2, x1 ** 3 - x2 ** 3, y * y - x1 * y - x2 * y),
    )
    cb = PolyRing(("x1", "x2"))
    c1, c2 = (cb.variable(n) for n in cb.variables)
    circle_bundle_9 = RingFragment("circle-bundle-9", cb, (c1 * c2, c1 * c1))
    yr = PolyRing(("x1", "x2", "x3"))
    y1, y2, y3 = (yr.variable(n) for n in yr.variables)
    sphere_bundle_9 = RingFragment(
        "circle-bundle-over-s2x4",
        yr,
        (y1 * y1, y2 * y2, y3 * y3, y1 * y2 + y1 * y3 + y2 * y3),
    )
    return (projective_bundle_8, circle_bundle_9, sphere_bundle_9)


def square_zero_profile(relations: Sequence[Polynomial], ring: PolyRing) -> tuple[int, int]:
    """(Krull dimension, Hilbert-polynomial degree) of the square-zero locus.

    The input spans the quadric relations of a ring on three degree-two
    generators; the locus of classes with vanishing square is cut out by
    the coefficients of the generic square reduced modulo the relations.
    """
    if len(ring.variables) != 3:
        raise ValueError("expected a presentation on three degree-two generators")
    monos2 = ring.monomials_of_degree(2)
    rows = []
    for rel in relations:
        if rel.is_zero():
            continue
        if not rel.is_homogeneous() or rel.degree() != 2:
            raise ValueError("relations must be homogeneous quadrics")
        rows.append([rel.coefficient(mono) for mono in monos2])
    rref, pivots = RationalMatrix.from_rows(rows, len(monos2)).rref()
    aring = PolyRing(("a1", "a2", "a3"))
    a = [aring.variable(i) for i in range(3)]
    entries = []
    for mono in monos2:
        support = [i for i, e in enumerate(mono) for _ in range(e)]
        i, j = support
        entries.append(a[i] * a[j] if i == j else 2 * (a[i] * a[j]))
    for row, pc in zip(rref, pivots):
        factor = entries[pc]
        if factor.is_zero():
            continue
        entries = [
            e - factor.scale(row[k]) if row[k] else e for k, e in enumerate(entries)
        ]
    ideal = [e for e in entries if not e.is_zero()]
    if not ideal:
        return (3, 1)
    gb = buchberger(ideal, aring)
    dim = gb.krull_dimension()
    hf = list(gb.hilbert_function(16))
    if dim <= 0:
        return (dim, sum(hf))
    diffs = hf
    for _ in range(dim - 1):
        diffs = [b - a_ for a_, b in zip(diffs, diffs[1:])]
    tail = diffs[-4:]
    if len(set(tail)) != 1:
        raise ArithmeticError("Hilbert function did not stabilize; raise the degree cap")
    return (dim, tail[-1])


# ---------------------------------------------------------------------------
# recorded claims and the verification report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRecord:
    name: str
    status: str  # "pass" | "fail"
    expected: str
    actual: str
    cite: str

    def as_dict(self) -> dict[str, str]:
        return {
            "name": self.name,
            "status": self.status,
            "expected": self.expected,
            "actual": self.actual,
            "cite": self.cite,
        }


@dataclass(frozen=True)
class Claim:
    """One recorded claim; ``check()`` recomputes it as (holds, expected, actual).

    ``section`` is the paper section (3, 4 or 5) whose report carries the
    claim, or None for a claim that only the full report carries.
    """

    name: str
    section: int | None
    cite: str
    check: Callable[[], tuple[bool, object, object]]

    def evaluate(self) -> ReportRecord:
        """Run the check; an exception becomes a failing record, not a crash."""
        try:
            holds, expected, actual = self.check()
        except Exception as exc:  # one broken claim must not stop the report
            return ReportRecord(self.name, "fail", "", f"error: {exc}", self.cite)
        status = "pass" if holds else "fail"
        return ReportRecord(self.name, status, str(expected), str(actual), self.cite)


def _equal(expected, actual) -> tuple[bool, object, object]:
    return actual == expected, expected, actual


def _render(form: CubicForm) -> str:
    return render_polynomial(form.canonical().polynomial())


def _form(text: str, dim: int = 3) -> CubicForm:
    """Cubic form of a polynomial in x, y (and z, when dim is 3)."""
    return CubicForm.from_polynomial(parse_polynomial(text, PolyRing(("x", "y", "z")[:dim])))


def _proportional(expected: CubicForm | str, actual: CubicForm) -> tuple[bool, str, str]:
    """Equality up to a nonzero scalar; an expected form given as text is shown as written."""
    if isinstance(expected, str):
        return actual.proportional_to(_form(expected, actual.dim)), expected, _render(actual)
    return actual.proportional_to(expected), _render(expected), _render(actual)


def _quadric_span(texts: Sequence[str]) -> QuadricSubspace:
    ring = PolyRing(("x1", "x2", "x3"))
    return QuadricSubspace(ring, [parse_polynomial(t, ring) for t in texts])


def _same_subspace(expected: QuadricSubspace, actual: QuadricSubspace) -> tuple[bool, str, str]:
    def show(sub: QuadricSubspace) -> str:
        return "; ".join(render_polynomial(q) for q in sub.basis)

    return actual == expected, show(expected), show(actual)


def _classifies(
    expected: str,
    classifier: Callable[[SullivanModel], Classification],
    build: Callable[[], SullivanModel],
) -> tuple[bool, str, str]:
    return _equal(expected, str(classifier(build())))


def _sampled(
    name: str,
    section: int,
    cite: str,
    expected: str,
    passed: str,
    failures: Callable[[random.Random], list],
) -> Claim:
    """A claim over seeded random draws; ``failures`` lists the draws that break it.

    Each claim draws from its own stream, so a one-section report samples
    the same parameters as the full report.
    """

    def check():
        found = failures(random.Random(f"97531:{name}"))
        return not found, expected, found or passed

    return Claim(name, section, cite, check)


def _fragment_square_zero(fragment: RingFragment) -> tuple[int, int]:
    return square_zero_profile(list(fragment.relations), fragment.ring)


def _poincare_window(m: SullivanModel) -> bool:
    n = m.formal_dimension_claim()
    betti = betti_numbers(m, n + 7)
    if any(betti[n + 1 :]):
        return False
    return poincare_duality_check(m, n)


# property of a subject -> its evaluation; ``arg`` is the text after ":" in
# the property name ("betti:13"), or "" when there is none
_PROPERTIES: dict[str, Callable[[object, str], object]] = {
    "valid": lambda m, arg: m.validate() is None,
    "exponents": lambda m, arg: str(exponents_of_model(m)),
    "betti": lambda m, arg: betti_numbers(m, int(arg)),
    "pure": lambda m, arg: m.is_pure(),
    "pure-elliptic": lambda m, arg: pure_is_elliptic(m),
    "poincare-window": lambda m, arg: _poincare_window(m),
    "cup-form": lambda m, arg: _render(cup_product_cubic_form(m)),
    "classify7": lambda m, arg: str(classify_dim7(m)),
    "hilbert": lambda f, arg: buchberger(list(f.relations), f.ring).hilbert_function(int(arg)),
    "square-zero": lambda f, arg: _fragment_square_zero(f),
    "ring-elliptic": lambda q, arg: bool(is_elliptic_form(cubic_form_of_quadric_ideal(q), 3)),
}


def subject_claims(
    name: str,
    section: int,
    cite: str,
    builder: Callable[[], object],
    expected: Sequence[tuple[str, object]],
) -> Iterator[Claim]:
    """Claims ``name.prop`` that one object's properties have their recorded values.

    The object is built on first use and shared by its claims, so Betti
    numbers, cup form and Poincare window reuse one cochain complex.
    """
    build = cache(builder)
    for prop, value in expected:
        key, _, arg = prop.partition(":")
        yield Claim(
            f"{name}.{prop}",
            section,
            cite,
            lambda key=key, arg=arg, value=value: _equal(value, _PROPERTIES[key](build(), arg)),
        )


# -- frozen claim tables ------------------------------------------------------

EXPECTED_EXPONENTS: dict[int, tuple[ExponentPair, ...]] = {
    6: (
        ExponentPair((), (2, 2)),
        ExponentPair((1,), (4,)),
        ExponentPair((3,), (6,)),
        ExponentPair((1, 1), (2, 3)),
        ExponentPair((1, 2), (2, 4)),
        ExponentPair((1, 1, 1), (2, 2, 2)),
    ),
    7: (
        ExponentPair((), (4,)),
        ExponentPair((1,), (2, 3)),
        ExponentPair((2,), (2, 4)),
        ExponentPair((1, 1), (2, 2, 2)),
    ),
    8: (
        ExponentPair((), (2, 3)),
        ExponentPair((1,), (5,)),
        ExponentPair((2,), (6,)),
        ExponentPair((4,), (8,)),
        ExponentPair((1,), (2, 2, 2)),
        ExponentPair((1, 1), (2, 4)),
        ExponentPair((1, 1), (3, 3)),
        ExponentPair((1, 2), (3, 4)),
        ExponentPair((1, 3), (2, 6)),
        ExponentPair((2, 2), (4, 4)),
        ExponentPair((1, 1, 1), (2, 2, 3)),
        ExponentPair((1, 1, 2), (2, 2, 4)),
        ExponentPair((1, 1, 1, 1), (2, 2, 2, 2)),
    ),
    9: (
        ExponentPair((), (5,)),
        ExponentPair((), (2, 2, 2)),
        ExponentPair((1,), (2, 4)),
        ExponentPair((1,), (3, 3)),
        ExponentPair((2,), (3, 4)),
        ExponentPair((3,), (2, 6)),
        ExponentPair((1, 1), (2, 2, 3)),
        ExponentPair((1, 2), (2, 2, 4)),
        ExponentPair((1, 1, 1), (2, 2, 2, 2)),
    ),
}

# the ternary table: (label, form polynomial, associated quadrics, regular?)
TERNARY_TABLE: tuple[tuple[str, str, tuple[str, ...], bool], ...] = (
    ("zero", "0", ("x1^2", "x2^2", "x3^2", "x1*x2", "x1*x3", "x2*x3"), False),
    ("cube", "x^3", ("x2^2", "x3^2", "x1*x2", "x1*x3", "x2*x3"), False),
    ("square-line", "x^2*y", ("x2^2", "x1*x3", "x2*x3", "x3^2"), False),
    (
        "square-line-diff",
        "x^2*y - x*y^2",
        ("x1^2 + x1*x2 + x2^2", "x1*x3", "x2*x3", "x3^2"),
        False,
    ),
    ("two-cubes", "x^3 + y^3", ("x1*x2", "x1*x3", "x2*x3", "x3^2"), False),
    ("triangle", "x*y*z", ("x1^2", "x2^2", "x3^2"), True),
    ("conic-line", "z*(x^2 + y^2)", ("x1*x2", "x1^2 - x2^2", "x3^2"), True),
    ("cuspidal", "x*(x*z - y^2)", ("x2^2 + x1*x3", "x3^2", "x2*x3"), False),
    (
        "conic-chord",
        "z*(3*x^2 + 3*y^2 - z^2)",
        ("x1*x2", "x1^2 + x3^2", "x2^2 + x3^2"),
        True,
    ),
    (
        "nodal-line-1",
        "x*(x^2 + 3*y^2 - 3*z^2)",
        ("x2*x3", "x1^2 - x2^2", "x1^2 + x3^2"),
        True,
    ),
    (
        "nodal-line-2",
        "x*(x^2 + 3*y^2 + 3*z^2)",
        ("x2*x3", "x1^2 - x2^2", "x1^2 - x3^2"),
        True,
    ),
    ("cusp-cubic", "x^3 - 3*y^2*z", ("x1*x2", "x1*x3", "x3^2"), False),
    (
        "nodal-cubic-1",
        "x^3 + 3*x^2*z - 3*y^2*z",
        ("x1*x2", "x3^2", "x1^2 - x1*x3 + x2^2"),
        True,
    ),
    (
        "nodal-cubic-2",
        "x^3 - 3*x^2*z - 3*y^2*z",
        ("x1*x2", "x3^2", "x1^2 + x1*x3 - x2^2"),
        True,
    ),
)

SPORADIC_FORM_POLY = "4*x^3 + 2*y^3 + z^3 - 6*x^2*y - 3*x*z^2 - 3*y^2*z + 6*x*y*z"
SPORADIC_SIGMA_DECIMAL = Fraction(27788, 100000)


def _exponent_table(n: int) -> tuple[bool, str, str]:
    expected, got = EXPECTED_EXPONENTS[n], tuple(enumerate_exponents(n))
    holds = set(got) == set(expected) and len(got) == len(expected)
    return holds, "; ".join(map(str, sorted(expected))), "; ".join(map(str, got))


def _admissible_b2_draws(rng: random.Random, draws: int) -> Iterator[tuple[Fraction, tuple]]:
    """The admissible members among ``draws`` random b2-family parameter draws."""
    for _ in range(draws):
        p = Fraction(rng.randint(-4, 4))
        cubic = tuple(Fraction(rng.randint(-4, 4)) for _ in range(4))
        if dim6_b2_admissible(p, cubic):
            yield p, cubic


def _b2_degenerate_failures(rng: random.Random) -> list:
    """Sampled members with vanishing discriminant and no cohomology in degrees 7..14."""
    failures = []
    for _ in range(10):
        p, g1, g2 = (Fraction(rng.randint(-3, 3)) for _ in range(3))
        cubic = (g1, g2, p * g1, p * g2)  # forces the discriminant to vanish
        if dim6_b2_discriminant(p, cubic) != 0:
            failures.append((p, cubic, "discriminant not zero"))
            continue
        betti = betti_numbers(dim6_b2_model(p, cubic), 14)
        if not any(betti[7:15]):
            failures.append((p, cubic, betti))
    return failures


def _ring_form(texts: Sequence[str]) -> CubicForm:
    ring = PolyRing(("x1", "x2"))
    return cubic_form_of_ring([parse_polynomial(t, ring) for t in texts], ring)


def _b1_subspace_transform() -> tuple[bool, str, str]:
    """Exact subspace transform at the parameter point (7, 6), where alpha = 10 is rational."""
    c1, c2, alpha = Fraction(7), Fraction(6), Fraction(10)
    ring = PolyRing(("x1", "x2", "x3"))
    x1, x2, x3 = (ring.variable(n) for n in ring.variables)
    w = x1.scale(-alpha / 2) + x2.scale(-c2 / 2) + x3.scale(c1 - c2 / 2)
    images = [x3.scale(-2), x2 + x3, w]
    transformed = QuadricSubspace(
        ring, [q.compose(images) for q in biquotient_ring("b1", c1, c2).basis]
    )
    expected = _quadric_span(("x2*x3", "x1^2 - x2^2", "x1^2 - x3^2"))
    holds, shown_expected, shown_actual = _same_subspace(expected, transformed)
    rational = alpha * alpha == c2 * c2 + (2 * c1 - c2) ** 2
    return rational and holds, shown_expected, shown_actual


def _non_elliptic_biquotients(rng: random.Random) -> list:
    """Sampled admissible parameters, ten per family, whose ring form is not elliptic."""
    failures = []
    for kind, sampler in (
        ("b1", lambda: (rng.randint(-6, 6), rng.randint(-6, 6))),
        ("b2", lambda: (0, rng.randint(1, 8) * rng.choice((-1, 1)))),
        (
            "b3",
            lambda: (
                rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(1, 6) * rng.choice((-1, 1))
            ),
        ),
    ):
        count = 0
        while count < 10:
            params = sampler()
            try:
                ring_sub = biquotient_ring(kind, *params)
            except ValueError:
                continue
            count += 1
            if not is_elliptic_form(cubic_form_of_quadric_ideal(ring_sub), 3):
                failures.append((kind, params))
    return failures


def _biquotient_singularity_pattern() -> tuple[bool, dict, dict]:
    """The three families recover forms equivalent to singular normal forms,
    while the sporadic one is nonsingular; the pattern is basis-free."""
    pattern = {}
    for kind, params in (("b1", (7, 6)), ("b2", (0, 1)), ("b3", (1, 1, 3)), ("bsp", ())):
        form = cubic_form_of_quadric_ideal(biquotient_ring(kind, *params))
        pattern[kind] = (associated_subspace(form).dimension(), is_singular_ternary(form))
    return _equal({"b1": (3, True), "b2": (3, True), "b3": (3, True), "bsp": (3, False)}, pattern)


def _sporadic_sigma() -> tuple[bool, str, str]:
    form = _form(SPORADIC_FORM_POLY)
    nonsingular = not is_singular_ternary(form)
    candidates = hesse_sigma_candidates(form, Fraction(1, 10**6))
    target = SPORADIC_SIGMA_DECIMAL
    near = any(abs((lo + hi) / 2 - target) <= Fraction(1, 1000) for lo, hi in candidates)
    return (
        nonsingular and near,
        f"nonsingular with a parameter within 1/1000 of {target}",
        f"nonsingular={nonsingular}, candidates={[(str(lo), str(hi)) for lo, hi in candidates]}",
    )


def _dim7_rank_one_model() -> SullivanModel:
    """A rank-one degree-3 differential, which cannot be elliptic."""
    table = GeneratorTable([("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("y3", 3)])
    x1 = table.generator("x1")
    return SullivanModel(table, {"y1": x1 * x1})


def _dim7_one_even_variant() -> tuple[bool, str, str]:
    """The third differential in the one-even-generator case kills both a
    quadric and a cubic; the model is isomorphic to that of S2 x S5."""
    table = GeneratorTable([("x", 2), ("y3", 3), ("y5", 5)])
    x = table.generator("x")
    variant = SullivanModel(table, {"y3": x * x, "y5": x ** 3})
    got = str(classify_dim7(variant))
    return variant.validate() is None and got == "S2xS5", "S2xS5", got


def _dim7_square_mismatches(rng: random.Random) -> list:
    """Sampled (s, k) whose models for s and s*k^2 classify differently."""
    mismatches = []
    for _ in range(5):
        s, k = Fraction(rng.randint(1, 9)), Fraction(rng.randint(1, 9))
        if classify_dim7(dim7_sigma_model(s)) != classify_dim7(dim7_sigma_model(s * k * k)):
            mismatches.append((s, k))
    return mismatches


def _dim8_degenerate_model() -> SullivanModel:
    """The degenerate member: dy1 = x1^2 only, so closed powers of x2 survive."""
    table = GeneratorTable(
        [("x1", 2), ("x2", 2), ("y1", 3), ("y2", 3), ("a", 4), ("z", 7)]
    )
    x1, x2, a = table.generator("x1"), table.generator("x2"), table.generator("a")
    return SullivanModel(table, {"y1": x1 * x1, "y2": x1 * x2, "z": a * a})


def _square_zero(texts: Sequence[str]) -> tuple[int, int]:
    ring = PolyRing(("x1", "x2", "s"))
    return square_zero_profile([parse_polynomial(t, ring) for t in texts], ring)


def _rank3_x_s2_square_zero() -> tuple[bool, str, tuple[int, int]]:
    profile = _square_zero(("x1^2", "x2^2", "x1*x2", "s^2"))
    return profile[0] == 2, "Krull dimension 2", profile


def claims() -> Iterator[Claim]:
    """The table of recorded claims, one ``Claim`` each, in no particular order."""
    for n, section in ((6, 3), (7, 4), (8, 5), (9, 5)):
        yield Claim(f"exponents.dim{n}", section, f"dim{n}.exponents", partial(_exponent_table, n))
    yield Claim("exponents.low-counts", None, "low-dim.exponents", lambda: _equal(
        (1, 1, 3, 2), tuple(len(enumerate_exponents(n)) for n in range(2, 6))))

    # -- section 3: ternary and binary forms, six-manifolds, biquotients
    for label, form_text, quadrics, regular in TERNARY_TABLE:
        yield Claim(f"ternary-table.{label}.subspace", 3, "ternary-table",
                    lambda t=form_text, q=quadrics: _same_subspace(
                        _quadric_span(q), associated_subspace(_form(t))))
        yield Claim(f"ternary-table.{label}.regular", 3, "ternary-table",
                    lambda q=quadrics, r=regular: _equal(r, is_regular_sequence(
                        _quadric_span(q).basis, PolyRing(("x1", "x2", "x3")))))
    for sigma, elliptic in (
        (-1, True), (2, True), (Fraction(1, 3), True), (5, True), (0, False), (1, False)
    ):
        yield Claim(f"ternary-table.diagonal-family.sigma={sigma}", 3, "ternary-table.diagonal",
                    lambda s=sigma, e=elliptic: _equal(e, bool(is_elliptic_form(hesse_form(s), 3))))

    yield Claim("six.b2-family.discriminant-examples", 3, "dim6.b2-family", lambda: _equal(
        ["1", "0", "0"],
        [str(dim6_b2_discriminant(p, c))
         for p, c in ((1, (0, 0, 0, 1)), (1, (0, 1, 0, 1)), (0, (0, 0, 0, 0)))]))
    b2_betti = (1, 0, 2, 0, 2, 0, 1) + (0,) * 7
    yield _sampled(
        "six.b2-family.generic-betti", 3, "dim6.b2-family",
        f"betti {b2_betti} for sampled admissible members", "all matched",
        lambda rng: [(p, c, betti) for p, c in _admissible_b2_draws(rng, 20)
                     if (betti := betti_numbers(dim6_b2_model(p, c), 13)) != b2_betti])
    yield _sampled(
        "six.b2-family.degenerate-growth", 3, "dim6.b2-family",
        "nonzero cohomology in degrees 7..14 when the discriminant vanishes", "all grew",
        _b2_degenerate_failures)
    yield _sampled(
        "six.b2-family.cup-formula", 3, "dim6.b2-family",
        "closed formula proportional to the computed cup form", "all proportional",
        lambda rng: [(p, c) for p, c in _admissible_b2_draws(rng, 20)
                     if not dim6_b2_cubic_form(p, c).proportional_to(
                         cup_product_cubic_form(dim6_b2_model(p, c)))])
    for lam, elliptic in ((2, True), (-1, True), (Fraction(1, 3), True), (0, True), (1, False)):
        yield Claim(f"six.b3-family.elliptic.lam={lam}", 3, "dim6.b3-family",
                    lambda lam=lam, e=elliptic: _equal(e, pure_is_elliptic(dim6_b3_model(lam))))
    # at lam = 0 the expected form is x*y*z, not a Hesse form with parameter 1/lam
    for lam, form in ((2, None), (-1, None), (Fraction(1, 3), None), (0, "x*y*z")):
        yield Claim(f"six.b3-family.cup-form.lam={lam}", 3, "dim6.b3-family",
                    lambda lam=lam, form=form: _proportional(
                        form or hesse_form(1 / Fraction(lam)),
                        cup_product_cubic_form(dim6_b3_model(lam))))

    for text, cls, elliptic in (
        ("0", "zero", False),
        ("x^3", "cube", False),
        ("x^2*y", "square-times-line", True),
        ("x^3 + y^3", "one-real-root", True),
        ("x^2*y - x*y^2", "three-real-roots", True),
    ):
        key = text.replace(" ", "")
        yield Claim(f"binary.classes.{key}", 3, "dim6.binary-classes",
                    lambda t=text, c=cls: _equal(c, binary_classify(_form(t, 2))))
        yield Claim(f"binary.elliptic.{key}", 3, "dim6.binary-classes",
                    lambda t=text, e=elliptic: _equal(e, pairing_rank(_form(t, 2)) == 2))
    # ring realizations of the three elliptic classes
    for label, relations, form in (
        ("flag-manifold", ("x1^2 + x1*x2 + x2^2", "x1^2*x2 + x1*x2^2"), "x^2*y - x*y^2"),
        ("cp3-sum", ("x1*x2", "x1^3 - x2^3"), "x^3 + y^3"),
    ):
        yield Claim(f"binary.realization.{label}", 3, "dim6.binary-realizations",
                    lambda r=relations, f=form: _proportional(f, _ring_form(r)))

    yield Claim("biquotient.b1.subspace-transform", 3, "biquotient.b1", _b1_subspace_transform)
    yield _sampled(
        "biquotient.random-elliptic", 3, "biquotient.families",
        "all sampled admissible parameters elliptic", "all elliptic", _non_elliptic_biquotients)
    yield Claim("biquotient.singularity-pattern", 3, "biquotient.families",
                _biquotient_singularity_pattern)
    yield Claim("biquotient.sporadic.form", 3, "biquotient.sporadic", lambda: _proportional(
        _form(SPORADIC_FORM_POLY), cubic_form_of_quadric_ideal(biquotient_ring("bsp"))))
    yield Claim("biquotient.sporadic.sigma", 3, "biquotient.sporadic", _sporadic_sigma)

    yield from subject_claims(
        "six.b2-family", 3, "dim6.b2-family", lambda: dim6_b2_model(1, (0, 0, 0, 1)), [
            ("valid", True),
            ("exponents", "a=(1,1) b=(2,3)"),
            ("betti:13", (1, 0, 2, 0, 2, 0, 1, 0, 0, 0, 0, 0, 0, 0)),
            ("pure", True),
            ("pure-elliptic", True),
        ])
    yield from subject_claims(
        "six.b3-family", 3, "dim6.b3-family", lambda: dim6_b3_model(2), [
            ("valid", True),
            ("exponents", "a=(1,1,1) b=(2,2,2)"),
            ("pure", True),
            ("pure-elliptic", True),
            ("cup-form", "2*x^3 + 2*y^3 + 6*x*y*z + 2*z^3"),
            ("poincare-window", True),
        ])
    yield from subject_claims(
        "six.product-cp2-s2", 3, "dim6.binary-realizations",
        lambda: product_model(cp_model(2), sphere_model(2)), [
            ("valid", True),
            ("betti:6", (1, 0, 2, 0, 2, 0, 1)),
            ("cup-form", "3*x^2*y"),
            ("poincare-window", True),
        ])
    yield from subject_claims(
        "biquotient.sporadic", 3, "biquotient.sporadic", lambda: biquotient_ring("bsp"),
        [("ring-elliptic", True)])

    # -- section 4: the dimension-7 classification
    for s, cls in ((2, 2), (8, 2), (3, 3), (Fraction(1, 2), 2)):
        yield Claim(f"dim7.sigma-class.s={s}", 4, "dim7.sigma-family", partial(
            _classifies, f"sigma-family[{cls}]", classify_dim7, partial(dim7_sigma_model, s)))
    yield Claim("dim7.rank-one", 4, "dim7.rank-one",
                partial(_classifies, NOT_ELLIPTIC, classify_dim7, _dim7_rank_one_model))
    yield Claim("dim7.one-even-variant", 4, "dim7.products", _dim7_one_even_variant)
    yield _sampled(
        "dim7.sigma-square-invariance", 4, "dim7.sigma-family",
        "same class for s and s*k^2", "all agree", _dim7_square_mismatches)

    yield from subject_claims(
        "seven.sigma-family", 4, "dim7.sigma-family", lambda: dim7_sigma_model(2), [
            ("valid", True),
            ("exponents", "a=(1,1) b=(2,2,2)"),
            ("betti:7", (1, 0, 2, 1, 1, 2, 0, 1)),
            ("pure-elliptic", True),
            ("classify7", "sigma-family[2]"),
            ("poincare-window", True),
        ])
    yield from subject_claims(
        "seven.rank3", 4, "dim7.rank3", dim7_rank3_model, [
            ("valid", True),
            ("betti:7", (1, 0, 2, 0, 0, 2, 0, 1)),
            ("pure-elliptic", True),
            ("classify7", RANK_THREE),
            ("poincare-window", True),
        ])
    yield from subject_claims(
        "seven.s3-x-s4", 4, "dim7.products",
        lambda: product_model(sphere_model(3), sphere_model(4)),
        [("valid", True), ("classify7", "S3xS4"), ("poincare-window", True)])
    yield from subject_claims(
        "seven.s2-x-s5", 4, "dim7.products",
        lambda: product_model(sphere_model(2), sphere_model(5)),
        [("valid", True), ("classify7", "S2xS5")])
    yield from subject_claims(
        "seven.cp2-x-s3", 4, "dim7.products",
        lambda: product_model(cp_model(2), sphere_model(3)),
        [("valid", True), ("classify7", "CP2xS3")])
    yield from subject_claims(
        "seven.s7", 4, "dim7.products", lambda: sphere_model(7),
        [("valid", True), ("classify7", "S7")])

    # -- section 5: dimensions 8 and 9
    for t, expected in ((1, "HP2#HP2[1]"), (-1, "S4xS4[-1]"), (2, "middle-class[2]")):
        yield Claim(f"dim8.middle.t={t}", 5, "dim8.middle-pairing", partial(
            _classifies, expected, classify_dim8_middle, partial(dim8_middle_model, t)))
    for s, expected in ((3, "sigma-family[3]"), (12, "sigma-family[3]")):
        yield Claim(f"dim8.sigma.s={s}", 5, "dim8.sigma-family", partial(
            _classifies, expected, classify_dim8_sigma, partial(dim8_sigma_model, s)))
    yield Claim("dim8.sigma.degenerate", 5, "dim8.sigma-family",
                partial(_classifies, NOT_ELLIPTIC, classify_dim8_sigma, _dim8_degenerate_model))
    # square-zero separation in dimension 9
    yield Claim("dim9.square-zero.bundle", 5, "dim9.square-zero",
                lambda: _equal((1, 4), _fragment_square_zero(ring_fragments()[2])))
    yield Claim("dim9.square-zero.sigma-x-s2", 5, "dim9.square-zero", lambda: _equal(
        (1, 3), _square_zero(("x1*x2", "x1^2 - 2*x2^2", "s^2"))))
    yield Claim("dim9.square-zero.rank3-x-s2", 5, "dim9.square-zero", _rank3_x_s2_square_zero)
    # trichotomy in the (1,1; 2,2,3) case
    for label, build, expected in (
        ("product-with-s3",
         lambda: product_model(dim6_b2_model(1, (0, 0, 0, 1)), sphere_model(3)),
         "six-manifold-times-s3"),
        ("sigma-times-s5",
         lambda: product_model(dim4_sigma_model(2), sphere_model(5)),
         "sigma-family-times-s5[2]"),
        ("bundle-type", dim9_bundle_model, "circle-bundle-type"),
    ):
        yield Claim(f"dim9.trichotomy.{label}", 5, "dim9.trichotomy",
                    partial(_classifies, expected, classify_dim9_product_case, build))

    yield from subject_claims(
        "eight.sigma-family", 5, "dim8.sigma-family", lambda: dim8_sigma_model(3), [
            ("valid", True),
            ("exponents", "a=(1,1,2) b=(2,2,4)"),
            ("betti:8", (1, 0, 2, 0, 2, 0, 2, 0, 1)),
            ("poincare-window", True),
        ])
    yield from subject_claims(
        "nine.bundle-model", 5, "dim9.trichotomy", dim9_bundle_model, [
            ("valid", True),
            ("exponents", "a=(1,1) b=(2,2,3)"),
            # degrees <= 4 match the circle-bundle ring fragment (1, 2, 1)
            ("betti:4", (1, 0, 2, 0, 1)),
        ])
    yield from subject_claims(
        "nine.projective-bundle-8", 5, "dim9.bundle-rings", lambda: ring_fragments()[0],
        [("hilbert:5", (1, 3, 4, 3, 1, 0))])
    yield from subject_claims(
        "nine.circle-bundle-9", 5, "dim9.bundle-rings", lambda: ring_fragments()[1],
        [("hilbert:2", (1, 2, 1))])
    yield from subject_claims(
        "nine.circle-bundle-over-s2x4", 5, "dim9.square-zero", lambda: ring_fragments()[2],
        [("hilbert:2", (1, 3, 2)), ("square-zero", (1, 4))])


def verification_report(section: int | None = None) -> list[ReportRecord]:
    """Recompute the recorded claims of one section, or all of them; sorted by name."""
    if section not in (None, 3, 4, 5):
        raise ValueError("section must be 3, 4 or 5")
    selected = (c for c in claims() if section is None or c.section == section)
    return sorted((c.evaluate() for c in selected), key=lambda r: r.name)


# ---------------------------------------------------------------------------
# builder registry for the command line
# ---------------------------------------------------------------------------

MODEL_BUILDERS: dict[str, tuple[str, Callable]] = {
    "sphere": ("N (dimension >= 2)", lambda ps: sphere_model(int(ps[0]))),
    "cp": ("N (complex dimension >= 1)", lambda ps: cp_model(int(ps[0]))),
    "dim6-b2": ("P C1 C2 C3 C4 (rationals)", lambda ps: dim6_b2_model(ps[0], ps[1:5])),
    "dim6-b3": ("LAMBDA (rational)", lambda ps: dim6_b3_model(ps[0])),
    "dim4-sigma": ("S (nonzero rational)", lambda ps: dim4_sigma_model(ps[0])),
    "dim7-sigma": ("S (nonzero rational)", lambda ps: dim7_sigma_model(ps[0])),
    "dim7-rank3": ("", lambda ps: dim7_rank3_model()),
    "dim8-sigma": ("S (nonzero rational)", lambda ps: dim8_sigma_model(ps[0])),
    "dim8-middle": ("T (rational)", lambda ps: dim8_middle_model(ps[0])),
    "dim9-bundle": ("", lambda ps: dim9_bundle_model()),
}

RING_BUILDERS: dict[str, tuple[str, Callable]] = {
    "b1": ("C1 C2 (not both zero)", lambda ps: biquotient_ring("b1", ps[0], ps[1])),
    "b2": ("A3 B3 (A3 = 0, B3 nonzero)", lambda ps: biquotient_ring("b2", ps[0], ps[1])),
    "b3": ("B1 C1 C2 (C2 nonzero, 2*C1 != B1*C2)", lambda ps: biquotient_ring("b3", *ps[:3])),
    "bsp": ("", lambda ps: biquotient_ring("bsp")),
}
