"""Groebner bases: reduction, finiteness, Hilbert data, regular sequences."""

import dataclasses
import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import combinations, product
from math import comb, gcd, lcm
from operator import add, le, sub
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sullivan.groebner as groebner
from gauss_jordan import dense_rank
from sullivan.algebra import _even_exponent_vectors
from sullivan.catalog import dim6_b3_model, product_model
from sullivan.cli import main
from sullivan.groebner import (
    PolyRing,
    Polynomial,
    _grevlex_key,
    _Packing,
    _width,
    buchberger,
    has_finite_quotient,
    is_regular_sequence,
)
from sullivan.linalg import _echelon
from sullivan.model import _weighted_images
from sullivan.parsing import parse_polynomial, render_polynomial

SRC = str(Path(__file__).resolve().parents[1] / "src")
R3 = PolyRing(("x1", "x2", "x3"))
R2 = PolyRing(("x1", "x2"))


def polys(ring, *texts):
    return [parse_polynomial(t, ring) for t in texts]


def packed(ring, basis):
    """The nonzero polynomials as they are, as a basis packed wide enough for them."""
    return groebner._pack(basis, ring, _width(max((p.degree() for p in basis), default=0)))


def _grevlex_greater(a, b) -> bool:
    """a > b in graded reverse lexicographic order: the higher degree, or at
    equal degree the smaller exponent at the last variable where they differ."""
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    last = [i for i in range(len(a)) if a[i] != b[i]]
    return bool(last) and a[last[-1]] < b[last[-1]]


@pytest.mark.parametrize("n", range(5))
def test_monomials_of_degree_is_every_exponent_vector_in_descending_grevlex(n):
    ring = PolyRing(tuple(f"v{i}" for i in range(n)))
    for d in range(7):
        monos = ring.monomials_of_degree(d)
        brute = {m for m in product(range(d + 1), repeat=n) if sum(m) == d}
        assert len(monos) == len(set(monos)) and set(monos) == brute
        assert all(_grevlex_greater(a, b) for a, b in zip(monos, monos[1:]))


def test_buchberger_one_reduction():
    gb = buchberger(polys(R2, "x1*x2", "x1^2 - x2^2"))
    expected = set(polys(R2, "x1*x2", "x1^2 - x2^2", "x2^3"))
    assert set(gb.generators) == expected


def test_buchberger_monomial_ideal_fixed():
    gens = polys(R3, "x1^2", "x2^2", "x3^2")
    gb = buchberger(gens)
    assert set(gb.generators) == set(gens)


def test_buchberger_empty_is_zero_ideal():
    gb = buchberger([], ring=R3)
    assert gb.generators == ()
    p = polys(R3, "x1^2 + x2*x3")[0]
    assert gb.normal_form(p) == p


def test_normal_form_examples():
    gb = buchberger(polys(R2, "x1^2"))
    assert gb.normal_form(polys(R2, "x1^3")[0]).is_zero()
    gb = buchberger(polys(R2, "x1^2 - x2^2", "x1*x2"))
    assert gb.normal_form(polys(R2, "x1^2*x2")[0]).is_zero()


def test_normal_form_idempotent_linear_and_kills_generators():
    rng = random.Random(31)
    gens = polys(R3, "x1*x2 - x3^2", "x2^2 + x1*x3")
    gb = buchberger(gens)
    for g in gens:
        assert gb.normal_form(g).is_zero()
    for _ in range(10):
        p = _random_poly(rng, R3, degree=3)
        q = _random_poly(rng, R3, degree=3)
        np = gb.normal_form(p)
        assert gb.normal_form(np) == np
        assert gb.normal_form(p + q) == gb.normal_form(p) + gb.normal_form(q)


def test_is_finite_dimensional_examples():
    assert buchberger(polys(R3, "x1^2", "x2^2", "x3^2")).is_finite_dimensional()
    assert not buchberger(polys(R3, "x1*x2", "x1*x3", "x2*x3")).is_finite_dimensional()
    assert not buchberger([], ring=R3).is_finite_dimensional()


def test_hilbert_function_examples():
    gb = buchberger(polys(R3, "x1^2", "x2^2", "x3^2"))
    assert gb.hilbert_function(5) == (1, 3, 3, 1, 0, 0)
    assert buchberger([], ring=R2).hilbert_function(4) == (1, 2, 3, 4, 5)
    gb = buchberger(polys(R3, "x1*x2", "x1*x3", "x2*x3"))
    assert gb.hilbert_function(5) == (1, 3, 3, 3, 3, 3)


def test_krull_dimension_examples():
    assert buchberger(polys(R3, "x1^2", "x2^2", "x3^2")).krull_dimension() == 0
    assert buchberger(polys(R3, "x1*x2")).krull_dimension() == 2
    assert buchberger([], ring=R3).krull_dimension() == 3


def test_is_regular_sequence_examples():
    assert is_regular_sequence(polys(R3, "x1*x2", "x1^2 - x2^2", "x3^2"), R3)
    assert not is_regular_sequence(polys(R3, "x2^2 + x1*x3", "x3^2", "x2*x3"), R3)
    r1 = PolyRing(("x1",))
    assert is_regular_sequence(polys(r1, "x1"), r1)


def test_regular_sequence_degenerate_rules():
    assert is_regular_sequence([], R3)
    four = polys(R3, "x1^2", "x2^2", "x3^2", "x1*x2")
    assert not is_regular_sequence(four, R3)
    assert not is_regular_sequence(polys(R3, "x1^2", "0"), R3)
    with pytest.raises(ValueError):
        is_regular_sequence(polys(R3, "x1^2 + x2"), R3)
    with pytest.raises(ValueError):
        is_regular_sequence(polys(R3, "2"), R3)


def _random_poly(rng, ring, degree, terms=4):
    out = ring.zero()
    n = len(ring.variables)
    for _ in range(terms):
        expo = [0] * n
        for _ in range(degree):
            expo[rng.randrange(n)] += 1
        out = out + ring.monomial(expo, Fraction(rng.randint(-3, 3)))
    return out


def test_reduced_basis_unique_under_permutation():
    rng = random.Random(41)
    for _ in range(50):
        gens = [_random_poly(rng, R3, rng.choice((2, 3))) for _ in range(3)]
        gens = [g for g in gens if not g.is_zero()]
        reference = buchberger(gens, R3)
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, R3) == reference


def test_regular_sequence_permutation_and_span_invariance():
    rng = random.Random(42)
    rows = [
        ("x1^2", "x2^2", "x3^2"),
        ("x1*x2", "x1^2 - x2^2", "x3^2"),
        ("x2*x3", "x1^2 - x2^2", "x1^2 - x3^2"),
        ("x2^2 + x1*x3", "x3^2", "x2*x3"),
        ("x1*x2", "x1*x3", "x3^2"),
    ]
    for texts in rows:
        seq = polys(R3, *texts)
        verdict = is_regular_sequence(seq, R3)
        shuffled = seq[:]
        rng.shuffle(shuffled)
        assert is_regular_sequence(shuffled, R3) == verdict
        # invertible change of the span
        for _ in range(3):
            coeffs = [[Fraction(rng.randint(-2, 2)) for _ in range(3)] for _ in range(3)]
            det = (
                coeffs[0][0] * (coeffs[1][1] * coeffs[2][2] - coeffs[1][2] * coeffs[2][1])
                - coeffs[0][1] * (coeffs[1][0] * coeffs[2][2] - coeffs[1][2] * coeffs[2][0])
                + coeffs[0][2] * (coeffs[1][0] * coeffs[2][1] - coeffs[1][1] * coeffs[2][0])
            )
            if det == 0:
                continue
            mixed = [
                seq[0].scale(c[0]) + seq[1].scale(c[1]) + seq[2].scale(c[2]) for c in coeffs
            ]
            assert is_regular_sequence(mixed, R3) == verdict


def _ideal_slice_rank(gens, ring, degree):
    """Dimension of the degree-d slice of the ideal, by brute-force linear algebra."""
    monos = ring.monomials_of_degree(degree)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        gdeg = g.degree()
        if gdeg > degree:
            continue
        for m in ring.monomials_of_degree(degree - gdeg):
            shifted = ring.monomial(m) * g
            row = [Fraction(0)] * len(monos)
            for mono, c in shifted.terms.items():
                row[index[mono]] = c
            rows.append(row)
    if not rows:
        return 0
    return dense_rank(rows, len(monos))


def _is_zero_divisor_degreewise(f, prior, ring, max_degree=8):
    """Brute-force witness search: some g not in (prior) with f*g in (prior)."""
    e = f.degree()
    for d in range(0, max_degree + 1):
        monos = ring.monomials_of_degree(d)
        big = ring.monomials_of_degree(d + e)
        index = {m: i for i, m in enumerate(big)}
        ideal_rank_low = _ideal_slice_rank(prior, ring, d)
        ideal_rank_high = _ideal_slice_rank(prior, ring, d + e)
        # columns: f * (degree-d monomials), then a basis of the ideal slice
        cols = []
        for m in monos:
            shifted = ring.monomial(m) * f
            col = [Fraction(0)] * len(big)
            for mono, c in shifted.terms.items():
                col[index[mono]] = c
            cols.append(col)
        ideal_cols = []
        for g in prior:
            gdeg = g.degree()
            if gdeg > d + e:
                continue
            for m in ring.monomials_of_degree(d + e - gdeg):
                shifted = ring.monomial(m) * g
                col = [Fraction(0)] * len(big)
                for mono, c in shifted.terms.items():
                    col[index[mono]] = c
                ideal_cols.append(col)
        combined = [[col[r] for col in cols + ideal_cols] for r in range(len(big))]
        rank_map = dense_rank(combined, len(cols) + len(ideal_cols)) - ideal_rank_high
        solution_dim = len(monos) - rank_map
        if solution_dim > ideal_rank_low:
            return True
    return False


def _regular_by_iteration(seq, ring, max_degree=8):
    for i, f in enumerate(seq):
        if _is_zero_divisor_degreewise(f, seq[:i], ring, max_degree):
            return False
    return True


def test_regular_sequence_matches_finiteness_for_three_quadrics():
    rng = random.Random(43)
    rows = [
        ("x1^2", "x2^2", "x3^2"),
        ("x1*x2", "x1^2 - x2^2", "x3^2"),
        ("x1*x2", "x1^2 + x3^2", "x2^2 + x3^2"),
        ("x2*x3", "x1^2 - x2^2", "x1^2 + x3^2"),
        ("x2*x3", "x1^2 - x2^2", "x1^2 - x3^2"),
        ("x1*x2", "x3^2", "x1^2 - x1*x3 + x2^2"),
        ("x1*x2", "x3^2", "x1^2 + x1*x3 - x2^2"),
        ("x2^2 + x1*x3", "x3^2", "x2*x3"),
    ]
    cases = [polys(R3, *texts) for texts in rows]
    for _ in range(100):
        cases.append([_random_poly(rng, R3, 2, terms=3) for _ in range(3)])
    for seq in cases:
        if any(p.is_zero() for p in seq):
            continue
        finite = buchberger(seq, R3).is_finite_dimensional()
        assert is_regular_sequence(seq, R3) == finite


def test_regular_sequence_matches_zero_divisor_oracle_for_short_sequences():
    rng = random.Random(44)
    for _ in range(25):
        k = rng.choice((1, 2))
        seq = [_random_poly(rng, R3, rng.choice((1, 2)), terms=2) for _ in range(k)]
        if any(p.is_zero() for p in seq):
            continue
        assert is_regular_sequence(seq, R3) == _regular_by_iteration(seq, R3)


def test_hilbert_function_of_regular_sequence_is_product_formula():
    rng = random.Random(45)
    limit = 12
    for _ in range(10):
        degrees = [rng.choice((1, 2, 3)) for _ in range(rng.choice((1, 2, 3)))]
        seq = [_random_poly(rng, R3, d, terms=3) for d in degrees]
        if any(p.is_zero() for p in seq) or not is_regular_sequence(seq, R3):
            continue
        series = [Fraction(1)] + [Fraction(0)] * limit
        # numerator: product of (1 - t^d); denominator: (1 - t)^3
        for d in degrees:
            series = [series[k] - (series[k - d] if k >= d else 0) for k in range(limit + 1)]
        for _ in range(3):
            acc = [Fraction(0)] * (limit + 1)
            running = Fraction(0)
            for k in range(limit + 1):
                running += series[k]
                acc[k] = running
            series = acc
        hf = buchberger(seq, R3).hilbert_function(limit)
        assert tuple(series) == tuple(hf)


# -- properties against routes that do not go through Buchberger -------------

RINGS = {n: PolyRing(tuple(f"x{i + 1}" for i in range(n))) for n in (2, 3, 4)}


@st.composite
def homogeneous_systems(draw, degrees=(2,), max_polys=4):
    """A ring of 2-4 variables and 1..max_polys nonzero homogeneous forms."""
    ring = RINGS[draw(st.integers(2, 4))]
    system = []
    for _ in range(draw(st.integers(1, max_polys))):
        monos = ring.monomials_of_degree(draw(st.sampled_from(degrees)))
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
        poly = ring.from_terms(dict(zip(monos, coeffs)))
        if not poly.is_zero():
            system.append(poly)
    return ring, system


@st.composite
def colliding_systems(draw, degrees=(1, 2, 3)):
    """A ring of 1-4 variables and forms of the given degrees whose leads
    collide: 1-3 drawn forms, dense or sparse, then 1-3 made from them (a
    copy, a scalar multiple, or the sum of two of one degree), sometimes a
    nonzero constant, all in a drawn order."""
    ring = SMALL_RINGS[draw(st.integers(1, 4))]
    forms = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.sampled_from(degrees))
        monos = ring.monomials_of_degree(degree)
        if draw(st.booleans()):
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
            form = ring.from_terms(dict(zip(monos, coeffs)))
        else:
            form = draw(small_polynomials(ring, degree))
        forms.append(form or ring.monomial(monos[0]))
    for _ in range(draw(st.integers(1, 3))):
        f = draw(st.sampled_from(forms))
        kind = draw(st.sampled_from(("copy", "multiple", "sum")))
        if kind == "multiple":
            f = f.scale(draw(SCALARS))
        elif kind == "sum":
            f = f + draw(st.sampled_from([g for g in forms if g.degree() == f.degree()]))
        if not f.is_zero():
            forms.append(f)
    if draw(st.integers(0, 4)) == 0:
        forms.append(ring.scalar(draw(SCALARS)))
    return ring, draw(st.permutations(forms))


def _lead(p):
    lm = p.leading_monomial()
    return lm, p.terms[lm]


def _cleared(p):
    """(t, den) with p = t/den, t a dict of integer terms and den > 0."""
    den = lcm(*(c.denominator for c in p.terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in p.terms.items()}, den


def _grevlex_lead(terms):
    return max(terms, key=lambda m: (sum(m), tuple(-e for e in reversed(m))))


def _divide(work, basis):
    """(s·r, s) for the remainder r of the integer terms `work` under the
    textbook division by the integer term dicts `basis`, and an integer
    s > 0 (no shared code with the package's reduction).  `work` is divided
    in place: to remove its largest divisible term c·x^m by g with leading
    term a·x^l, work and the remainder so far are scaled by a/gcd(a, c) and
    (c/gcd(a, c))·x^(m - l)·g is subtracted."""
    # the terms of work, grevlex-largest first: (-degree, reversed exponents) ascending
    heap = [(-sum(m), m[::-1]) for m in work]
    heapify(heap)
    remainder = {}
    scale = 1
    leads = [_grevlex_lead(g) for g in basis]
    while heap:
        lm = heappop(heap)[1][::-1]
        if lm not in work:
            continue  # cancelled since it was pushed
        for g, glm in zip(basis, leads):
            if all(map(le, glm, lm)):
                d = gcd(work[lm], g[glm])
                a, c = g[glm] // d, work[lm] // d
                if a < 0:
                    a, c = -a, -c
                if a != 1:
                    scale *= a
                    for terms in (work, remainder):
                        for m in terms:
                            terms[m] *= a
                shift = tuple(map(sub, lm, glm))
                for m, x in g.items():
                    m = tuple(map(add, m, shift))
                    y = work.get(m, 0) - c * x
                    if not y:
                        del work[m]
                        continue
                    if m not in work:
                        heappush(heap, (-sum(m), m[::-1]))
                    work[m] = y
                break
        else:
            remainder[lm] = work.pop(lm)
    return remainder, scale


def _remainder(p, basis):
    """Remainder of p under the textbook division by basis, over the integers."""
    work, den = _cleared(p)
    remainder, scale = _divide(work, [_cleared(g)[0] for g in basis])
    return p.ring.from_terms({m: Fraction(c, den * scale) for m, c in remainder.items()})


def _s_poly(f, g):
    """A nonzero integer multiple of the S-polynomial of the integer term
    dicts f and g."""
    lf, lg = _grevlex_lead(f), _grevlex_lead(g)
    top = tuple(map(max, lf, lg))  # the lcm of the leads
    out = {}
    for h, lh, c in ((f, lf, g[lg]), (g, lg, -f[lf])):
        shift = tuple(map(sub, top, lh))
        for m, x in h.items():
            m = tuple(map(add, m, shift))
            out[m] = out.get(m, 0) + c * x
    return {m: x for m, x in out.items() if x}


def _assert_reduced_groebner_basis(gb, inputs):
    """Buchberger's criterion, monic and reduced generators, and every input in the ideal."""
    gens = gb.generators
    leads = [_lead(g)[0] for g in gens]
    assert len(set(leads)) == len(leads)
    for g in gens:
        lm, lc = _lead(g)
        assert lc == 1
        others = [l for l in leads if l != lm]
        assert not any(all(a <= b for a, b in zip(l, m)) for m in g.terms for l in others)
    integral = [_cleared(g)[0] for g in gens]
    for f, g in combinations(integral, 2):
        assert not _divide(_s_poly(f, g), integral)[0]
    for p in inputs:
        assert _remainder(p, gens).is_zero()


@settings(deadline=None)
@given(st.one_of(homogeneous_systems(), colliding_systems(degrees=(2,))))
def test_hilbert_function_matches_linear_algebra_on_quadrics(case):
    ring, system = case
    n = len(ring.variables)
    hf = buchberger(system, ring).hilbert_function(4)
    for d in range(5):
        assert hf[d] == comb(n + d - 1, d) - _ideal_slice_rank(system, ring, d)


@settings(deadline=None)
@given(homogeneous_systems(degrees=(1, 2, 3), max_polys=3))
def test_buchberger_output_satisfies_buchbergers_criterion(case):
    ring, system = case
    _assert_reduced_groebner_basis(buchberger(system, ring), system)


def test_three_dense_quadrics_in_five_variables():
    # under last-in-first-out pair selection this system ran past 60 s
    ring = PolyRing(("x1", "x2", "x3", "x4", "x5"))
    rng = random.Random(1)
    monos = ring.monomials_of_degree(2)
    quadrics = [ring.from_terms({m: rng.randint(-5, 5) for m in monos}) for _ in range(3)]
    gb = buchberger(quadrics, ring)
    _assert_reduced_groebner_basis(gb, quadrics)
    assert is_regular_sequence(quadrics, ring)


@pytest.mark.parametrize("count", [4, 5])
def test_dense_quadrics_in_six_variables(count):
    ring = PolyRing(tuple(f"x{i + 1}" for i in range(6)))
    rng = random.Random(1)
    monos = ring.monomials_of_degree(2)
    quadrics = [ring.from_terms({m: rng.randint(-5, 5) for m in monos}) for _ in range(count)]
    gb = buchberger(quadrics, ring)
    _assert_reduced_groebner_basis(gb, quadrics)
    hf = gb.hilbert_function(4)
    for d in range(5):
        assert hf[d] == comb(d + 5, d) - _ideal_slice_rank(quadrics, ring, d)


def _seeded_dense_systems(n, count=4):
    """Seeded systems of n − 1 or n forms in n variables, each dense in one
    of two blocks of the variables, split at a drawn index (in all of them
    when it is 0): quadrics, and cubics too in up to 3 variables, with
    coefficients in [−5, 5]."""
    rng = random.Random(n)
    ring = SMALL_RINGS[n]
    for _ in range(count):
        split = rng.randint(0, n - 1)
        forms = []
        for _ in range(rng.choice((n - 1, n))):
            block = set(rng.choice((range(split), range(split, n))) or range(n))
            monos = ring.monomials_of_degree(rng.choice((2, 2, 3) if n <= 3 else (2,)))
            monos = [m for m in monos if block.issuperset(i for i, e in enumerate(m) if e)]
            forms.append(ring.from_terms({m: rng.randint(-5, 5) for m in monos}))
        yield ring, forms


@pytest.mark.parametrize(
    "n, expected",
    [
        (2, "a345e5861b061e48d32cf9f8e9d64f21a954141d587fcf61895d5dd59e0e509c"),
        (3, "8c643b93f89c67650b4f96550611791324d0e4bce95dcfa5e7255a45c98f1aeb"),
        (4, "d0eb9d22d16ae407e223c47683b79a94bef5158f0d177c490c1393b5ed22bf1e"),
        (5, "5eecce09c4e4339031fa5eaaf15ba0d1f3d52b146920ec9d20cf42050860df8d"),
    ],
)
def test_pair_loop_bases_of_seeded_dense_systems_are_pinned(n, expected):
    """The pair loop's packed basis and leads, element by element, capped
    and not, on dense systems, some of them in two blocks of variables
    whose leads make coprime pairs."""
    digest = hashlib.sha256()
    for ring, forms in _seeded_dense_systems(n):
        for cap in (None, 2, 3, 4):
            gb = groebner._pair_loop(forms, ring, cap)
            digest.update(repr([(sorted(g.items()), lead) for g, lead in zip(gb.basis, gb.leads)]).encode())
    assert digest.hexdigest() == expected


def _minimal_leads(gb, cap=None):
    """The minimal generators of the lead ideal of gb, unpacked, up to the cap when one is given."""
    leads = map(gb.code.unpack, groebner._minimal(gb.leads, gb.code.guard))
    return [m for m in leads if cap is None or sum(m) <= cap]


@pytest.mark.parametrize(
    "n, expected",
    [
        (2, "5b3c4d758a25efd2b02139af92c731064cea253e1586ed51794ffb66fc5557d8"),
        (3, "082170703c6fffeb3c2d2ef0fb382b2b09eee8eb6e58214f6ec7fddb8d098333"),
        (4, "677dd9e584d1ca534e704c2566666c484db96d8f3ba6be2cc4de523e96b476ed"),
        (5, "f50aef27b0243c76aa9f807992fbcffe56467dc60b38d62e50bcb23fef8cd337"),
    ],
)
def test_lead_ideals_and_reduced_bases_of_seeded_dense_systems_are_pinned(n, expected):
    """What the ideal alone fixes, on the systems of the test above: the
    minimal leads of each pair loop up to its cap, and the reduced basis.
    Any pair loop that is correct keeps this digest, whatever basis it
    leaves."""
    digest = hashlib.sha256()
    for ring, forms in _seeded_dense_systems(n):
        for cap in (None, 2, 3, 4):
            digest.update(repr(_minimal_leads(groebner._pair_loop(forms, ring, cap), cap)).encode())
        digest.update(repr([sorted(g.terms.items()) for g in buchberger(forms, ring).generators]).encode())
    assert digest.hexdigest() == expected


def _echelon_by_degree(forms, ring):
    """The span of the forms in each degree, as the rows of its reduced
    echelon form: forms with distinct leads."""
    out = []
    for d in sorted({f.degree() for f in forms}):
        monos = ring.monomials_of_degree(d)  # descending grevlex, so each pivot is a lead
        column = {m: j for j, m in enumerate(monos)}
        rows = [{column[m]: c for m, c in f.terms.items()} for f in forms if f.degree() == d]
        out += [ring.from_terms({monos[j]: x for j, x in row.items()}) for row in _echelon(rows).values()]
    return out


@settings(deadline=None)
@given(colliding_systems(), st.randoms(use_true_random=False))
@example((R3, polys(R3, "x1^2 + x2*x3", "x1^2 - x2^2", "x1^2 + x2*x3", "x1^2 + x1*x3 - x3^2")), random.Random(0))
def test_reduced_bases_do_not_depend_on_how_the_inputs_are_written(case, rng):
    """Repeated inputs, multiples and sums of inputs, and a constant leave
    the reduced basis as it is: that of the distinct inputs in any order."""
    ring, forms = case
    distinct = list(dict.fromkeys(forms))
    rng.shuffle(distinct)
    assert buchberger(forms, ring) == buchberger(distinct, ring)


@settings(deadline=None)
@given(colliding_systems(), st.sampled_from((None, 2, 3, 4, 5)))
@example((R3, polys(R3, "x1^2 + x2*x3", "x1^2 - x2^2", "x1*x2", "x1^2 + x1*x3 - x3^2", "x1^3")), 2)
def test_pair_loop_leads_do_not_depend_on_how_the_inputs_are_written(case, cap):
    """The minimal leads of a pair loop from inputs whose leads collide,
    from the echelon form of their span in each degree, whose leads are
    distinct, and of the reduced basis agree up to the cap, and in every
    degree with none.  Above the cap a loop holds what is left of the
    inputs there, which depends on how they are written."""
    ring, forms = case
    loop = _minimal_leads(groebner._pair_loop(forms, ring, cap), cap)
    assert loop == _minimal_leads(groebner._pair_loop(_echelon_by_degree(forms, ring), ring, cap), cap)
    assert loop == _minimal_leads(buchberger(forms, ring), cap)


# -- Hilbert data from the series against the standard monomials, and exact
# -- reduction against scaling, in 0-5 variables ------------------------------

SMALL_RINGS = {n: PolyRing(tuple(f"x{i + 1}" for i in range(n))) for n in range(6)}
SCALARS = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 9))


@st.composite
def small_polynomials(draw, ring, degree):
    """A homogeneous polynomial of the given degree with up to four terms,
    each with a nonzero Fraction coefficient; zero when no term is drawn."""
    monos = ring.monomials_of_degree(degree)
    chosen = draw(st.lists(st.sampled_from(monos), max_size=4)) if monos else []
    return ring.from_terms({m: draw(SCALARS) for m in chosen})


@st.composite
def small_systems(draw):
    """A ring of 0-5 variables and 0-3 homogeneous forms of degree 0-2; a
    nonzero form of degree 0 makes the unit ideal."""
    ring = SMALL_RINGS[draw(st.integers(0, 5))]
    system = []
    for _ in range(draw(st.integers(0, 3))):
        degree = draw(st.sampled_from((0, 1, 2, 2, 2))) if ring.variables else 0
        poly = draw(small_polynomials(ring, degree))
        if not poly.is_zero():
            system.append(poly)
    return ring, system


@st.composite
def monomial_ideals(draw):
    """A ring of 0-5 variables and the monomial ideal of 0-5 random
    monomials of degree 0-3, given as a (not necessarily minimal) basis."""
    ring = SMALL_RINGS[draw(st.integers(0, 5))]
    n = len(ring.variables)
    leads = draw(
        st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(lambda m: sum(m) <= 3), max_size=5)
    )
    return packed(ring, [ring.monomial(m) for m in leads])


def _krull_dimension_by_subsets(gb):
    """Largest set of variables that contains the support of no lead."""
    n = len(gb.ring.variables)
    supports = [{i for i, e in enumerate(m) if e} for m in gb.leading_monomials()]
    for size in range(n, -1, -1):
        for subset in combinations(range(n), size):
            if not any(s <= set(subset) for s in supports):
                return size
    return -1


def _standard_counts(gb, max_degree):
    return tuple(len(gb.standard_monomials(d)) for d in range(max_degree + 1))


def _assert_hilbert_data(gb):
    """The series' Hilbert function, Krull dimension and multiplicity against
    standard-monomial counts and the subset scan.  Past the degree of the
    lcm of the leads the count is a polynomial of degree dim - 1, whose
    (dim - 1)-st difference is the multiplicity."""
    n = len(gb.ring.variables)
    top = sum(map(max, *gb.leading_monomials(), [0] * n)) if gb.generators else 0
    dim = _krull_dimension_by_subsets(gb)
    counts = _standard_counts(gb, top + max(dim, 1) + 1)
    assert gb.hilbert_function(len(counts) - 1) == counts
    assert gb.krull_dimension() == dim
    assert gb.is_finite_dimensional() == (dim <= 0)
    tail = list(counts)
    for _ in range(dim - 1):
        tail = [b - a for a, b in zip(tail, tail[1:])]
    assert gb.multiplicity() == (tail[-1] if dim > 0 else sum(counts))


def test_hilbert_data_of_zero_unit_and_complete_intersection_ideals():
    q, r4 = SMALL_RINGS[0], SMALL_RINGS[4]
    x = [r4.variable(i) for i in range(4)]
    cases = [
        (packed(q, []), (1, 0, 0), 0, 1),  # Q itself
        (packed(q, [q.one()]), (0, 0, 0), -1, 0),
        (packed(r4, []), (1, 4, 10), 4, 1),
        (packed(r4, [r4.scalar(3)]), (0, 0, 0), -1, 0),
        # degrees 2 and 3: multiplicity 6
        (buchberger([x[0] * x[1], x[2] * x[2] * x[3]]), (1, 4, 9), 2, 6),
    ]
    for gb, hf, dim, multiplicity in cases:
        assert gb.hilbert_function(2) == hf
        assert (gb.krull_dimension(), gb.multiplicity()) == (dim, multiplicity)
        _assert_hilbert_data(gb)


@settings(deadline=None)
@given(monomial_ideals())
def test_hilbert_data_of_monomial_ideals(gb):
    _assert_hilbert_data(gb)


@settings(deadline=None)
@given(monomial_ideals(), st.data())
def test_weighted_hilbert_series_counts_standard_monomials(gb, data):
    """The numerator of the leads with x_i sent to x_i^{w_i}, over
    prod (1 − t^{w_i}), against the monomials of each weighted degree that
    no lead divides, enumerated by the algebra's own weighted walk."""
    n = len(gb.ring.variables)
    weights = data.draw(st.tuples(*[st.integers(1, 3)] * n))
    top = 9
    leads = gb.leading_monomials()
    counts = [
        sum(1 for m in _even_exponent_vectors(weights, k) if not any(all(map(le, g, m)) for g in leads))
        for k in range(top + 1)
    ]
    substituted = [tuple(e * w for e, w in zip(g, weights)) for g in leads]
    code = _Packing(n, _width(3 * 3))
    numerator = groebner._hilbert_numerator(map(code.pack, substituted), code, top)
    assert groebner._hilbert_values(numerator, weights, top) == counts


@st.composite
def weighted_monomial_ideals(draw):
    """Up to 6 monomials of degree 0-4 in 0-6 variables, weights 1-3 for the
    variables, and a degree top from -1 to 12."""
    n = draw(st.integers(0, 6))
    leads = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n).filter(lambda m: sum(m) <= 4), max_size=6))
    return leads, draw(st.tuples(*[st.integers(1, 3)] * n)), draw(st.integers(-1, 12))


@settings(deadline=None)
@given(weighted_monomial_ideals())
# a lead of degree exactly top; a colon that recurses at top - 1
@example(([(2,)], (1,), 2))
@example(([(2, 0), (1, 1)], (1, 1), 2))
def test_truncated_numerator_reads_the_hilbert_values_up_to_top(case):
    """The numerator truncated at top, of the leads with x_i sent to
    x_i^{w_i}, against the monomials of each weighted degree up to top that
    no lead divides and against the untruncated numerator; nothing at all
    for top = -1."""
    leads, weights, top = case
    code = _Packing(len(weights), _width(4 * 3))
    packed = [code.pack(tuple(e * w for e, w in zip(g, weights))) for g in leads]
    counts = [
        sum(1 for m in _even_exponent_vectors(weights, k) if not any(all(map(le, g, m)) for g in leads))
        for k in range(top + 1)
    ]
    numerator = groebner._hilbert_numerator(packed, code, top)
    values = groebner._hilbert_values(numerator, weights, top)
    whole = groebner._hilbert_numerator(packed, code, sum(map(code.degree, packed)))
    assert values == counts == groebner._hilbert_values(whole, weights, top)
    if top == -1:
        assert numerator == {} and tuple(values) == ()


def test_hilbert_function_checks_the_weights_above_one():
    """A weight that does not divide an exponent of the leads is refused
    with a ValueError, also under ``python -O``, and so is anything but one
    positive ``int`` weight per variable; weights of all 1 read as no
    weights."""
    gb = packed(R3, polys(R3, "x1^2*x2", "x2^3", "x3^4"))
    with pytest.raises(ValueError, match="weight"):
        gb.hilbert_function(6, (1, 2, 1))
    with pytest.raises(ValueError, match="weight"):
        packed(R2, polys(R2, "x1*x2")).hilbert_function(4, (2, 1))
    script = (
        "from sullivan.groebner import PolyRing, buchberger\n"
        "R = PolyRing(('x', 'y'))\n"
        "try:\n"
        "    buchberger([R.monomial((1, 1))]).hilbert_function(4, (2, 1))\n"
        "except ValueError:\n"
        "    print('refused')\n"
    )
    run = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        timeout=20,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))),
    )
    assert run.stdout == b"refused\n"
    # one positive int weight per variable, or ValueError
    for weights in ([1, 1], [0, 1, 1], (1, 1, 1, 1), (1, -2, 1), (1, 1.0, 1), (1, True, 1), ()):
        with pytest.raises(ValueError, match="weight"):
            gb.hilbert_function(3, weights)
    assert gb.hilbert_function(6, (2, 1, 2)) == (1, 1, 3, 1, 3, 0, 2)
    assert gb.hilbert_function(6, (1, 1, 1)) == gb.hilbert_function(6) == (1, 3, 6, 8, 8, 7, 5)


@settings(deadline=None)
@given(small_systems())
@example((SMALL_RINGS[0], []))
@example((SMALL_RINGS[3], [SMALL_RINGS[3].one()]))
def test_hilbert_data_of_homogeneous_systems(case):
    ring, system = case
    _assert_hilbert_data(buchberger(system, ring))


@settings(deadline=None)
@given(small_systems())
def test_buchberger_basis_is_the_basis_packed_from_its_generators(case):
    ring, system = case
    gb = buchberger(system, ring)
    fresh = packed(ring, gb.generators)
    assert (gb.code.width, gb.basis, gb.leads) == (fresh.code.width, fresh.basis, fresh.leads)


@settings(deadline=None)
@given(small_systems(), st.data())
def test_buchberger_is_invariant_under_scaling_the_inputs(case, data):
    ring, system = case
    scaled = [p.scale(data.draw(SCALARS)) for p in system]
    assert buchberger(scaled, ring) == buchberger(system, ring)


@settings(deadline=None)
@given(small_systems(), st.data())
def test_normal_form_is_linear_and_ignores_the_scale_of_generators(case, data):
    ring, system = case
    gb = buchberger(system, ring)
    degree = data.draw(st.integers(0, 6)) if ring.variables else 0
    p = data.draw(small_polynomials(ring, degree))
    c = data.draw(SCALARS)
    nf = gb.normal_form(p)
    assert gb.normal_form(p.scale(c)) == nf.scale(c)
    assert _remainder(p, gb.generators) == nf
    scaled = packed(ring, [g.scale(data.draw(SCALARS)) for g in gb.generators])
    assert scaled.normal_form(p) == nf


@settings(deadline=None)
@given(small_systems(), st.data())
def test_normal_form_of_a_non_monic_basis_is_the_division_remainder(case, data):
    """Any list of polynomials, packed as it is and so carrying no covered
    degree, divides like the textbook division, also past the socle."""
    ring, system = case
    degree = data.draw(st.integers(0, 6)) if ring.variables else 0
    p = data.draw(small_polynomials(ring, degree))
    assert packed(ring, system).normal_form(p) == _remainder(p, system)


CI = polys(R3, "x1^2 + x2*x3", "x1^2 - x2^2", "x1^2 + x1*x3 - x3^2")  # Hilbert function (1, 3, 3, 1)


def test_normal_forms_reduce_only_the_degrees_the_leads_do_not_cover(monkeypatch):
    """The leads of the complete intersection cover degree 4.  A quartic's
    normal form is zero with no call to `_reduce`; a quartic plus a quadric
    calls it once, on the quadric's terms alone, and gives the textbook
    remainder of the sum, which is the quadric's."""
    gb = buchberger(CI)
    quartic, quadric = polys(R3, "3*x1^4 - x1*x2^2*x3 + 2/3*x3^4", "x1*x3 + 5/2*x2^2 - x3^2")
    assert _remainder(quartic, gb.generators).is_zero()
    expected = _remainder(quartic + quadric, gb.generators)
    assert expected == gb.normal_form(quadric) and not expected.is_zero()
    degrees = []
    reduce = groebner._reduce

    def counting(work, *args):
        degrees.append(sorted({gb.code.degree(m) for m in work}))
        return reduce(work, *args)

    monkeypatch.setattr(groebner, "_reduce", counting)
    assert gb.normal_form(quartic).is_zero() and degrees == []
    assert gb.normal_form(quartic + quadric) == expected and degrees == [[2]]


def test_standard_monomials_of_a_covered_degree_are_told_with_no_enumeration(monkeypatch):
    """Degree 10**4 has 50,015,001 monomials in three variables, and the
    leads of the complete intersection cover it, as they cover degree 4;
    neither is enumerated.  Degree 3 is not covered: its one standard
    monomial is listed."""
    gb = buchberger(CI)
    assert gb.standard_monomials(3) == [(0, 0, 3)]

    def listing(ring, d):
        raise AssertionError(f"degree {d} enumerated")

    monkeypatch.setattr(PolyRing, "monomials_of_degree", listing)
    assert gb.standard_monomials(10**4) == gb.standard_monomials(4) == []


# -- finiteness from a basis truncated at Lazard's degree bound -----------------


@st.composite
def finiteness_systems(draw):
    """A ring of 1-4 variables and 1..n+2 nonzero forms of degree 1-3: sparse
    ones, n dense ones (whose quotient, when finite, usually needs leads of
    degree D itself), or ones built to have an infinite quotient: a shared
    linear factor, a repeated form among n, or a variable missing from
    every form."""
    n = draw(st.integers(1, 4))
    ring = SMALL_RINGS[n]
    kind = draw(st.sampled_from(("sparse", "dense", "shared factor", "repeated", "missing variable")))
    if kind == "dense":
        system = []
        for _ in range(n):
            monos = ring.monomials_of_degree(draw(st.sampled_from((1, 2, 3) if n < 4 else (1, 2))))
            coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(monos), max_size=len(monos)))
            system.append(ring.from_terms(dict(zip(monos, coeffs))))
    elif kind == "missing variable":
        left_out = draw(st.integers(0, n - 1))
        drawn = draw(finiteness_forms(ring, n + 2))
        system = [ring.from_terms({m: c for m, c in f.terms.items() if not m[left_out]}) for f in drawn]
    elif kind == "shared factor":
        line = draw(small_polynomials(ring, 1).filter(bool))
        system = [line * f for f in draw(finiteness_forms(ring, n + 2, degrees=(0, 1, 2)))]
    elif kind == "repeated" and n > 1:
        system = draw(finiteness_forms(ring, n - 1, min_size=n - 1))
        system.append(system[draw(st.integers(0, len(system) - 1))].scale(draw(SCALARS)))
    else:
        system = draw(finiteness_forms(ring, n + 2))
    system = [f for f in system if not f.is_zero()]
    return ring, system or [ring.variable(0) ** 2]


@st.composite
def finiteness_forms(draw, ring, max_size, min_size=1, degrees=(1, 2, 3)):
    """min_size..max_size nonzero forms of the given degrees."""
    count = draw(st.integers(min_size, max_size))
    return [draw(small_polynomials(ring, draw(st.sampled_from(degrees))).filter(bool)) for _ in range(count)]


@settings(deadline=None)
@given(finiteness_systems())
# the quotient is finite only through x2^3, of degree D = 3 itself
@example((R2, polys(R2, "x1*x2", "x1^2 - x2^2")))
@example((R3, polys(R3, "x1*x2", "x1^2 - x2^2", "x3^2")))
def test_finite_quotient_from_the_truncated_basis_matches_the_full_basis(case):
    ring, system = case
    gb = buchberger(system, ring)
    assert has_finite_quotient(system, ring) == gb.is_finite_dimensional()
    # when finite, the truncated basis is a full one: its leads generate the
    # lead ideal, whose minimal generators are the reduced basis's leads,
    # and reducing by it gives the reduced basis's normal forms; the
    # quotient's readings are those of the reduced basis
    quotient = groebner._finite_basis(system, ring)
    assert (quotient is not None) == gb.is_finite_dimensional()
    if quotient is not None:
        code, basis, leads = quotient.code, quotient.basis, quotient.leads
        assert sorted(map(code.unpack, groebner._minimal(leads, code.guard))) == sorted(gb.leading_monomials())
        top = max(p.degree() for p in system) + 1
        assert quotient.hilbert_function(top) == gb.hilbert_function(top)
        for d in range(top + 1):
            standard = gb.standard_monomials(d)
            for mono in ring.monomials_of_degree(d):
                remainder, multiplier = groebner._reduce({code.pack(mono): 1}, basis, leads, code.guard)
                normal_form = {code.unpack(m): Fraction(c, multiplier) for m, c in remainder.items()}
                assert normal_form == gb.normal_form(ring.monomial(mono)).terms
                assert quotient.is_standard(mono) == (mono in standard)
                if len(standard) <= 1:
                    assert quotient.coordinate(mono) == sum(normal_form.values())
    n, k = len(ring.variables), len(system)
    assert is_regular_sequence(system, ring) == (gb.krull_dimension() == n - k)


def test_finite_quotient_edge_cases():
    # a constant makes the unit ideal, with fewer forms than variables too
    assert has_finite_quotient(polys(R3, "2"), R3)
    assert has_finite_quotient(polys(R3, "x1*x2", "1/3", "x1^2"), R3)
    # fewer than n forms, none constant (Krull)
    assert not has_finite_quotient(polys(R3, "x1^2", "x2^2", "0"), R3)
    assert not has_finite_quotient([], R3)
    # no variables: Q itself, or the zero ring
    q = SMALL_RINGS[0]
    assert has_finite_quotient([], q)
    assert has_finite_quotient([q.scalar(5)], q)
    assert is_regular_sequence([], q)
    # Lazard's bound is 2000002 here, but the coprime leads decide it at once
    big = polys(R2, "x1^2000000", "x2^3")
    assert has_finite_quotient(big, R2)
    assert is_regular_sequence(big, R2)
    assert not has_finite_quotient(polys(R2, "x1^2000000*x2", "x2^3"), R2)
    # the same checks on the input as buchberger
    with pytest.raises(ValueError):
        has_finite_quotient(polys(R2, "x1^2 + x2"), R2)
    with pytest.raises(ValueError):
        has_finite_quotient(polys(R3, "x1^2", "x2^2", "x3^2"), R2)
    with pytest.raises(ValueError):
        has_finite_quotient([])


@settings(deadline=None)
@given(st.one_of(small_systems(), finiteness_systems()), st.data())
def test_the_pair_loop_basis_reads_as_the_reduced_basis(case, data):
    """The basis a whole pair loop leaves, not interreduced, generates the
    lead ideal of the reduced basis, so it has the same Hilbert data and
    standard monomials, and divides to the same normal forms."""
    ring, system = case
    loop, gb = groebner._pair_loop(system, ring), buchberger(system, ring)
    assert loop.hilbert_function(5) == gb.hilbert_function(5)
    assert loop.krull_dimension() == gb.krull_dimension()
    assert loop.multiplicity() == gb.multiplicity()
    assert loop.is_finite_dimensional() == gb.is_finite_dimensional()
    for d in range(5):
        assert loop.standard_monomials(d) == gb.standard_monomials(d)
    for _ in range(3):
        degrees = data.draw(st.lists(st.integers(0, 4), max_size=2)) if ring.variables else [0]
        p = sum((data.draw(small_polynomials(ring, d)) for d in degrees), ring.zero())
        assert loop.normal_form(p) == gb.normal_form(p)


@settings(deadline=None)
@given(st.one_of(small_systems(), finiteness_systems()))
@example((R3, CI))
def test_a_degree_is_covered_exactly_when_the_quotient_is_zero_there(case):
    """With a budget of every monomial of the degree, the pair loop's
    coverage test on the leads of a reduced basis, filed as the loop files
    them, holds exactly where the Hilbert function is zero, in a ring with
    variables; with none, it holds only for the unit ideal."""
    ring, system = case
    gb = buchberger(system, ring)
    code = gb.code
    supports = list(map(code.support, gb.leads))
    # a reduced basis has at most one pure power of each variable
    powers = {s: code.degree(lead) for s, lead in zip(supports, gb.leads) if not s & (s - 1)}
    others = [lead for s, lead in zip(supports, gb.leads) if s & (s - 1)]
    values = gb.hilbert_function(6)
    for d, value in enumerate(values):
        covered = groebner._covered(d, powers, others, code, len(ring.monomials_of_degree(d)))
        assert not covered or value == 0
        if ring.variables:
            assert covered == (value == 0)


def _brute_standard(gb, d):
    """The monomials of degree d that no lead divides, by a scan over every lead."""
    leads = gb.leading_monomials()
    return [m for m in gb.ring.monomials_of_degree(d) if not any(all(map(le, g, m)) for g in leads)]


@settings(deadline=None)
@given(finiteness_systems(), st.integers(1, 5), st.data())
@example((R3, CI), 3, None)
@example((R2, polys(R2, "x1*x2", "x1^2 - x2^2")), 3, None)
def test_the_covered_degree_of_a_basis_is_exact_and_changes_no_reading(case, cap, data):
    """The bases of `buchberger`, a capped `_pair_loop` and `_finite_basis`:
    no degree from the one a basis carries on has a standard monomial, by a
    scan of every monomial, and every reading equals that of the same basis
    carrying no degree, which reduces and enumerates instead."""
    ring, system = case
    finite = groebner._finite_basis(system, ring)
    bases = [buchberger(system, ring), groebner._pair_loop(system, ring, cap)]
    if finite is not None:
        bases.append(finite)
    n = len(ring.variables)
    for gb in bases:
        plain = dataclasses.replace(gb, covered=None)
        top = (cap if gb.covered is None else gb.covered) + 2
        if gb.covered is not None:
            for d in range(gb.covered, top + 1):
                assert _brute_standard(gb, d) == []
        assert gb.is_finite_dimensional() == plain.is_finite_dimensional()
        assert gb.krull_dimension() == plain.krull_dimension()
        assert gb.multiplicity() == plain.multiplicity()
        assert gb.hilbert_function(top) == plain.hilbert_function(top)
        # the largest weights the leads admit: the gcd of each variable's exponents, or 2 when it has none
        weights = [gcd(*column) or 2 for column in zip(*gb.leading_monomials(), [0] * n)]
        assert gb.hilbert_function(top, weights) == plain.hilbert_function(top, weights)
        for d in range(top + 1):
            assert gb.standard_monomials(d) == plain.standard_monomials(d)
            for m in ring.monomials_of_degree(d):
                assert gb.coordinate(m) == plain.coordinate(m)
        if data is not None:
            degrees = data.draw(st.lists(st.integers(0, top), max_size=3))
            p = sum((data.draw(small_polynomials(ring, d)) for d in degrees), ring.zero())
            assert gb.normal_form(p) == plain.normal_form(p)


def test_readings_from_the_covered_degree_on_need_no_reduction(monkeypatch):
    """The complete intersection's basis carries degree 4, from which its
    Hilbert values, coordinates, standard monomials and normal forms are
    read with no reduction, no Hilbert numerator past degree 3 and no
    packing wider, even past the basis's width.  A basis packed from the
    same generators carries none and reads the same Hilbert values."""
    gb = buchberger(CI)
    assert gb.covered == 4 and groebner._finite_basis(CI, R3).covered == 4
    assert packed(R3, gb.generators).covered is None
    expected = (1, 3, 3, 1) + (0,) * 7
    assert packed(R3, gb.generators).hilbert_function(10) == expected
    tops = []
    numerator = groebner._hilbert_numerator

    def truncated(leads, code, top):
        tops.append(top)
        return numerator(leads, code, top)

    def reducing(*args):
        raise AssertionError("a covered degree reduced")

    monkeypatch.setattr(groebner, "_hilbert_numerator", truncated)
    monkeypatch.setattr(groebner, "_reduce", reducing)
    monkeypatch.setattr(groebner, "_pack", reducing)
    assert gb.hilbert_function(10) == expected and max(tops) == 3
    assert gb.coordinate((4, 0, 0)) == gb.coordinate((0, 0, 300)) == 0
    assert gb.standard_monomials(4) == gb.standard_monomials(10**4) == []
    x1 = R3.variable(0)
    assert gb.normal_form(x1**4 + x1**200).is_zero()


def test_a_loop_that_forms_no_pair_carries_the_degree_past_its_pure_powers(monkeypatch):
    """x1^2, x2^2, x3^2 share no variable, so their loop forms no pair and
    never tests coverage; their pure powers alone give it degree
    1 + 1 + 1 + 1 = 4, from which nothing is enumerated or reduced.  The
    ring with no variables has 1 standard monomial, in degree 0."""
    gb = buchberger(polys(R3, "x1^2", "x2^2", "x3^2"))
    assert gb.covered == 4 and gb.hilbert_function(5) == (1, 3, 3, 1, 0, 0)
    assert groebner._finite_basis([], SMALL_RINGS[0]).covered == 1 and has_finite_quotient([], PolyRing(()))

    def refusing(*args):
        raise AssertionError("a covered degree enumerated or reduced")

    monkeypatch.setattr(PolyRing, "monomials_of_degree", refusing)
    monkeypatch.setattr(groebner, "_reduce", refusing)
    assert gb.standard_monomials(10**4) == []
    assert gb.normal_form(R3.variable(0) ** 200).is_zero()


def test_monomial_readings_check_the_exponent_vector():
    """`is_standard` and `coordinate` refuse a monomial of the wrong length or with a negative
    exponent, also in a degree the basis covers."""
    gb = buchberger(CI)
    for m in [(1, 1), (1, 1, 1, 0), (1, -1, 2), (5, 0, -1)]:
        with pytest.raises(ValueError, match="exponent vector"):
            gb.is_standard(m)
        with pytest.raises(ValueError, match="exponent vector"):
            gb.coordinate(m)


def test_the_polynomial_constructor_normalises_its_coefficients():
    """Zero coefficients are dropped, whole ones become ``int`` and a float is a TypeError;
    arithmetic keeps the exact terms it makes."""
    R = PolyRing("xy")
    y = R.variable(1)
    p = Polynomial(R, {(1, 0): 0, (0, 1): 1})
    assert p == y and p.terms == {(0, 1): 1} and render_polynomial(p) == "y"
    assert buchberger([Polynomial(R, {(1, 0): 0})], R).generators == ()
    two = Polynomial(R, {(1, 0): Fraction(2, 1), (0, 1): Fraction(1, 2)})
    assert two.terms == {(1, 0): 2, (0, 1): Fraction(1, 2)} and type(two.terms[(1, 0)]) is int
    with pytest.raises(TypeError):
        Polynomial(R, {(1, 0): 1.5})
    assert (two - two).terms == {} and (two * y).terms == {(1, 1): 2, (0, 2): Fraction(1, 2)}


def test_a_polynomial_refuses_an_exponent_vector_of_the_wrong_length():
    R = PolyRing("xy")
    with pytest.raises(ValueError, match="exponent vector"):
        Polynomial(R, {(1,): 1})
    with pytest.raises(ValueError, match="exponent vector"):
        R.from_terms({(1, 0): 1, (0, 0, 1): 0})


def test_a_monomial_refuses_exponents_that_are_not_int():
    R = PolyRing("xy")
    for expo in [(1.5, 0.5), (2.0, 0), (True, 1), (Fraction(1), 0)]:
        with pytest.raises(ValueError, match="exponent vector"):
            R.monomial(expo)
        with pytest.raises(ValueError, match="exponent vector"):
            Polynomial(R, {expo: 1})


def test_is_standard_refuses_a_float_exponent():
    gb = buchberger(polys(R2, "x1^2", "x2^3"))
    with pytest.raises(ValueError, match="exponent vector"):
        gb.is_standard((1.5, 0))


def test_readings_past_the_width_of_a_basis_pack_its_generators_wider():
    """The basis of two quadrics packs 7 bits wide, too narrow for degree
    200 and more; its normal forms and standard monomials there are those
    of the textbook division, and the basis keeps its packing.  So are the
    standard test and the coordinate of a monomial: x^200 is 2^200·z^200
    modulo x − 2z and y − 3z."""
    gb = buchberger(polys(R3, "x1^2 - x2^2", "x1*x2"))
    assert gb.code.width == 7
    (p,) = polys(R3, "x1^200*x2 + x2^201 + 3*x1^2*x3^199 - x1*x3^200 + x1")
    assert gb.normal_form(p) == _remainder(p, gb.generators) != p
    standard = [m for m in R3.monomials_of_degree(200) if _remainder(R3.monomial(m), gb.generators).terms == {m: 1}]
    assert gb.standard_monomials(200) == standard
    assert len(standard) == 4 and gb.code.width == 7
    R = PolyRing("xyz")
    lines = buchberger(polys(R, "x - 2*z", "y - 3*z"))
    assert lines.code.width == 7
    assert not lines.is_standard((200, 0, 0)) and lines.is_standard((0, 0, 200))
    assert lines.coordinate((200, 0, 0)) == 2**200 and lines.coordinate((0, 1, 199)) == 3
    assert lines.normal_form(R.monomial((200, 0, 0))) == R.monomial((0, 0, 200), 2**200)


# -- packed monomials ---------------------------------------------------------


@st.composite
def exponent_vectors(draw, n):
    """Exponents mostly below 2**_MIN_WIDTH, some around it, some far past it."""
    small = st.integers(0, 2 ** (groebner._MIN_WIDTH + 2))
    return tuple(draw(st.one_of(small, small, st.integers(0, 2**70))) for _ in range(n))


@settings(deadline=None)
@given(st.integers(0, 6).flatmap(lambda n: st.tuples(exponent_vectors(n), exponent_vectors(n))))
def test_packed_monomials_agree_with_exponent_vectors(pair):
    """Under the packing chosen for twice the larger degree (as the pair loop
    chooses it), order, product, quotient, divisibility, lcm and degree
    agree with their tuple definitions, and unpacking inverts packing."""
    a, b = pair
    code = _Packing(len(a), _width(2 * max(sum(a), sum(b))))
    pa, pb = code.pack(a), code.pack(b)
    assert code.unpack(pa) == a and code.unpack(pb) == b
    assert (pa < pb) == (_grevlex_key(a) < _grevlex_key(b))
    assert (pa == pb) == (a == b)
    assert pa + pb == code.pack(tuple(map(add, a, b)))
    assert code.degree(pa) == sum(a)
    assert code.lcm(pa, pb) == code.pack(tuple(map(max, a, b)))
    for x, y, px, py in ((a, b, pa, pb), (b, a, pb, pa)):
        divides = all(map(le, x, y))
        assert (not (py - px) & code.guard) == divides
        if divides:
            assert py - px == code.pack(tuple(map(sub, y, x)))


@settings(deadline=None)
@given(st.integers(0, 6), st.sampled_from((7, 14, 42)), st.data())
def test_support_is_the_nonzero_exponents(n, width, data):
    """The bits of `support` are the guard bits of the nonzero exponents,
    also for exponents of 2**width − 1, whose field would carry; the low
    fields of a packed monomial are its exponents whatever its degree."""
    code = _Packing(n, width)
    top = 2**width - 1
    e = data.draw(st.tuples(*[st.one_of(st.just(0), st.just(top), st.integers(0, top))] * n))
    assert code.support(code.pack(e)) == sum(1 << (code.field * i + width) for i, x in enumerate(e) if x)


HUGE = ("x^1099511627776*y - y^1099511627777", "x*y^2")


def test_groebner_command_on_exponents_past_a_machine_word(capsys):
    assert main(["groebner", *HUGE]) == 0
    assert capsys.readouterr().out == (
        "variables: x, y\nx*y^2\nx^1099511627776*y - y^1099511627777\ny^1099511627778\n"
    )


def test_normal_form_and_finiteness_past_a_machine_word():
    r = PolyRing(("x", "y"))
    gb = buchberger(polys(r, *HUGE), r)
    (p,) = polys(r, "x^2199023255552 + 3*x^2199023255551*y - 7*x*y + 2/5*y^1099511627778 + 4*y^1099511627777 + 1")
    assert render_polynomial(gb.normal_form(p)) == "x^2199023255552 + 4*y^1099511627777 - 7*x*y + 1"
    powers = polys(r, "x^1099511627776", "y^1099511627776")
    assert has_finite_quotient(powers, r)
    assert is_regular_sequence(powers, r)
    assert not has_finite_quotient(polys(r, "x^1099511627776", "x*y^1099511627775"), r)


def test_pair_loop_widens_the_packing_when_degrees_outgrow_it(monkeypatch):
    """Two binomials of degree 14 pack into 7-bit fields, but their reduced
    basis reaches degree 153, so the pair loop runs again at 14 bits."""
    widths = []
    pairs = groebner._pairs

    def recording(start, cap):
        widths.append(start.code.width)
        return pairs(start, cap)

    monkeypatch.setattr(groebner, "_pairs", recording)
    r = PolyRing(("x", "y", "z"))
    gb = buchberger(polys(r, "x*y^12*z - y^11*z^3", "x^13*y - x*z^13"), r)
    assert widths == [7, 14]
    assert len(gb.generators) == 41
    assert max(g.degree() for g in gb.generators) == 153
    text = "\n".join(map(render_polynomial, gb.generators))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1342d965ee62bc5fec7c5e387cac878842f971cc21ef343f0bd2caa04b14e21c"
    )


def test_pairs_of_leads_with_no_common_variable_are_never_formed(monkeypatch):
    """A pair's lcm is formed only when its leads share a variable.  The
    images of a product live in disjoint blocks of variables, so its pair
    loop forms the pairs of each factor and no more: 18 of the 66 pairs of
    its 12 leads.  Pure powers form none."""
    calls = []
    lcm = _Packing.lcm

    def counting(code, a, b):
        calls.append((a, b))
        return lcm(code, a, b)

    def lcms(ring, forms):
        calls.clear()
        assert groebner._finite_basis(forms, ring) is not None
        return len(calls)

    monkeypatch.setattr(_Packing, "lcm", counting)
    b3 = [_weighted_images(dim6_b3_model(lam))[:2] for lam in (2, 3)]
    assert lcms(*b3[0]) == lcms(*b3[1]) == 9
    assert lcms(*_weighted_images(product_model(dim6_b3_model(2), dim6_b3_model(3)))[:2]) == 18
    assert lcms(R3, polys(R3, "x1^2", "x2^2", "x3^2")) == 0


# -- the pair loop's early stop -----------------------------------------------


@st.composite
def stopping_systems(draw):
    """A ring of 1-4 variables, 1..n + 2 nonzero forms of degree 1-3, and a
    cap: None or 2-5.  A form is sparse, dense, or a power of x1, x2, ...
    in turn, so that pure powers of every variable come early and the
    loop is often boxed well before its leads cover a degree."""
    ring = SMALL_RINGS[draw(st.integers(1, 4))]
    n = len(ring.variables)
    forms = []
    for k in range(draw(st.integers(1, n + 2))):
        degree = draw(st.integers(1, 3))
        kind = draw(st.sampled_from(("sparse", "dense", "power")))
        if kind == "dense":
            monos = ring.monomials_of_degree(degree)
            forms.append(ring.from_terms(dict(zip(monos, draw(st.lists(st.integers(-3, 3), min_size=len(monos)))))))
        elif kind == "power":
            forms.append(ring.variable(k % n) ** degree)
        else:
            forms.append(draw(small_polynomials(ring, degree)))
    forms = [f for f in forms if not f.is_zero()]
    return ring, forms or [ring.variable(0)], draw(st.sampled_from((None, 2, 3, 4, 5)))


def _interreduced(gens):
    """The monic, reduced basis of the same lead ideal: one element per
    minimal lead, its tail divided by the others (textbook division)."""
    leads = [_lead(g)[0] for g in gens]
    first = {}
    for g, lm in zip(gens, leads):
        if not any(l != lm and all(map(le, l, lm)) for l in leads):
            first.setdefault(lm, g)
    minimal = list(first.values())
    out = {}
    for g in minimal:
        r = _remainder(g, [h for h in minimal if h is not g])
        out[_lead(r)[0]] = r.scale(Fraction(1, _lead(r)[1])).terms
    return out


@settings(deadline=None)
@given(stopping_systems())
@example((R3, polys(R3, "x1*x2", "x1^2 - x2^2", "x3^2"), None))
# boxed from the start, while the degree-3 pair (x1*x2, x1^2) still adds the lead x2^2*x3
@example((R3, polys(R3, "x1^3", "x2^3", "x3^3", "x1*x2 - x1*x3", "x1^2 - x2*x3"), None))
@example((R3, polys(R3, "x1^2", "x2^2", "x3^2", "x1*x2 + x2*x3 + x1*x3"), 4))
def test_the_pair_loop_that_stops_early_is_a_groebner_basis_up_to_its_cap(case):
    """However early the pair loop stops, every S-pair of its basis of
    degree at most the cap (all of them with no cap) divides to zero by
    that basis; interreduced, its elements up to the cap are those of the
    reduced basis; and the finiteness verdict is the reduced basis's."""
    ring, forms, cap = case
    loop, gb = groebner._pair_loop(forms, ring, cap), buchberger(forms, ring)
    integral = [_cleared(g)[0] for g in loop.generators]
    for f, g in combinations(integral, 2):
        top = tuple(map(max, _grevlex_lead(f), _grevlex_lead(g)))
        if cap is None or sum(top) <= cap:
            assert not _divide(_s_poly(f, g), integral)[0]
    low = [g for g in loop.generators if cap is None or g.degree() <= cap]
    assert _interreduced(low) == {
        _lead(g)[0]: g.terms for g in gb.generators if cap is None or g.degree() <= cap
    }
    assert has_finite_quotient(forms, ring) == gb.is_finite_dimensional()


def test_the_pair_loop_stops_once_its_leads_cover_the_pending_degree(monkeypatch):
    """S-polynomial reductions per pair loop; a loop that pops every pair
    makes 8, 6, 2, 2 and 1.  The leads of the b3 images cover degree 4 once
    x3^4 joins x1^2, x2^2, x1*x2, x2*x3^2 and x1*x3^2, capped there or not;
    the ring fragment's inputs already cover degree 3, the degree of all
    its pairs; and two forms sharing x1 have no finite quotient, so their
    loop never stops early."""
    calls = []
    reduce = groebner._reduce

    def counting(*args):
        calls.append(args)
        return reduce(*args)

    def reductions(ring, forms, cap=None):
        calls.clear()
        groebner._pair_loop(forms, ring, cap)
        return len(calls)

    monkeypatch.setattr(groebner, "_reduce", counting)
    b3 = _weighted_images(dim6_b3_model(2))[:2]
    assert reductions(*b3) == 4
    assert reductions(*b3, 4) == 4
    assert reductions(R3, polys(R3, "x1*x2", "x1^2 - x2^2", "x3^2")) == 1
    assert reductions(R3, polys(R3, "x1^2", "x2^2", "x3^2", "x1*x2 + x2*x3 + x1*x3")) == 0
    assert reductions(R3, polys(R3, "x1*x2", "x1*x3")) == 1


def test_the_pair_loop_of_no_variables_and_of_the_unit_ideal():
    """With no variables every nonzero input has the lead 1: the first
    joins the basis, and every later one reduces to zero by it.  A constant
    among the inputs makes the unit ideal, whose lead 1 covers every
    degree; here no lead divides a later one, so the loop keeps the inputs
    as they are, capped or not."""
    q = SMALL_RINGS[0]
    assert groebner._pair_loop([q.scalar(5), q.scalar(Fraction(1, 3))], q).leads == [0]
    assert groebner._pair_loop([], q).basis == []
    assert buchberger([q.scalar(5)], q).generators == (q.one(),)
    assert buchberger([], q).generators == ()
    unit = polys(R3, "x1*x2", "x1*x3", "2")
    for cap in (None, 3):
        loop = groebner._pair_loop(unit, R3, cap)
        assert loop.generators == tuple(p.scale(Fraction(1, _lead(p)[1])) for p in unit)
        assert loop.hilbert_function(3) == (0, 0, 0, 0)
    assert buchberger(unit, R3).generators == (R3.one(),)
    assert groebner._finite_basis(unit, R3) is not None


def test_the_coverage_test_gives_up_after_as_many_points_as_pending_pairs(capsys):
    """Pure powers of degree 2**40 leave about 2**40 points of the pending
    degree 2**40 + 1 in the box: the coverage test gives up after two of
    them, as two pairs are pending, and the two pairs reduce to zero, as
    in the loop that pops every pair."""
    run = subprocess.run(
        [sys.executable, "-m", "sullivan.cli", "groebner", "x^1099511627776", "y^1099511627776", "x*y"],
        capture_output=True,
        timeout=20,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))),
    )
    assert run.returncode == 0
    assert run.stdout == b"variables: x, y\nx*y\ny^1099511627776\nx^1099511627776\n"
    assert main(["regseq", "x^1099511627776", "y^1099511627776"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "regular"
