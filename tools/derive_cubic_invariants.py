"""Regenerate the invariant coefficient tables in sullivan/_invariant_tables.py.

The degree-4 invariant S of a ternary cubic is computed by the classical
symbolic contraction (the Cayley omega process applied to four copies of
the cubic, one determinant operator per three-element subset of the
copies).  The degree-6 invariant is the lambda-linear part of S evaluated
on F + lambda * Hessian(F), that is the sum over the coefficients c_v of
dS/dc_v times the matching coefficient h_v of the Hessian; the space of
degree-6 invariants is one-dimensional, so any nonzero result is a valid
normalization.  All of it runs on the package's own ``Polynomial``.  Both
results are checked for GL(3) covariance on random inputs, and the
discriminant combination T^2 - S^3 on the singular normal forms, before
being printed.

The package must be importable.  Run from the repository root:

    PYTHONPATH=src python tools/derive_cubic_invariants.py
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations
from math import factorial, prod
from operator import add

from sullivan.cubic import CubicForm, _eval_table, hesse_form, substitute
from sullivan.groebner import PolyRing
from sullivan.linalg import integerized
from sullivan.parsing import parse_polynomial

# variables 0..9: cubic coefficients, one per monomial of CUBIC_MONOMIALS
# variables 10..21: four blocks of three point coordinates
CUBIC_MONOMIALS = (
    (3, 0, 0), (2, 1, 0), (2, 0, 1), (1, 2, 0), (1, 1, 1),
    (1, 0, 2), (0, 3, 0), (0, 2, 1), (0, 1, 2), (0, 0, 3),
)
RING = PolyRing([f"c{i}" for i in range(10)] + [f"{v}{b}" for b in range(4) for v in "xyz"])
COEFFS = [RING.variable(i) for i in range(10)]

# the permutations of (0, 1, 2) with their signs: the terms of a 3x3 determinant
SIGNED_PERMUTATIONS = [
    (p, (-1) ** sum(p[i] > p[j] for i, j in combinations(range(3), 2)))
    for p in permutations(range(3))
]

# the 14 singular normal forms of real ternary cubics, the zero form included
SINGULAR_FORMS = (
    "0", "x^3", "x^2*y", "x^2*y - x*y^2", "x^3 + x*y^2", "x*y*z",
    "x^2*z + y^2*z", "x^2*z - x*y^2", "x^2*z + y^2*z - z^3",
    "x^3 + x*y^2 - x*z^2", "x^3 + x*y^2 + x*z^2", "x^3 - 3*y^2*z",
    "x^3 + 3*x^2*z - 3*y^2*z", "x^3 - 3*x^2*z - 3*y^2*z",
)


def point(block):
    """The variable indices of coordinate block `block`."""
    return range(10 + 3 * block, 13 + 3 * block)


def generic_cubic(block):
    """F with symbolic coefficients c0..c9, on the coordinates of `block`."""
    xs = [RING.variable(v) for v in point(block)]
    return reduce(
        add, (c * prod(x**e for x, e in zip(xs, mono)) for c, mono in zip(COEFFS, CUBIC_MONOMIALS))
    )


def det3(m):
    """Determinant of a 3x3 matrix of numbers or polynomials (Leibniz formula)."""
    return reduce(add, (prod((m[i][p[i]] for i in range(3)), start=s) for p, s in SIGNED_PERMUTATIONS))


def omega(p, blocks):
    """Apply det(d/dx^(b0) | d/dx^(b1) | d/dx^(b2)) for the three given blocks."""
    points = [point(b) for b in blocks]
    terms = []
    for perm, sign in SIGNED_PERMUTATIONS:
        q = p
        for row, col in enumerate(perm):
            q = q.derivative(points[row][col])
        terms.append(q.scale(sign))
    return reduce(add, terms)


def taylor_coefficient(p, block, mono):
    """The coefficient of the monomial `mono` in the coordinates of `block`,
    for p homogeneous of degree sum(mono) in them."""
    for var, e in zip(point(block), mono):
        for _ in range(e):
            p = p.derivative(var)
    return p.scale(Fraction(1, prod(map(factorial, mono))))


def normalize_table(p, arity):
    """The (coefficient-exponent tuple, integer) entries of p, in ascending
    order, scaled to coprime integers with the first one positive."""
    monos = sorted(p.terms)
    for m in monos:
        assert not any(m[10:]), "x-variables did not fully contract"
        assert sum(m) == arity
    ints = integerized([p.terms[m] for m in monos])
    sign = 1 if ints[0] > 0 else -1
    return [(m[:10], sign * c) for m, c in zip(monos, ints)]


def main():
    rng = random.Random(7)

    print("deriving the degree-4 invariant by symbolic contraction ...")
    G = prod(generic_cubic(b) for b in range(4))
    for blocks in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)):
        G = omega(G, blocks)
        print(f"  after omega{blocks}: {len(G.terms)} terms")
    s_table = normalize_table(G, 4)
    print(f"degree-4 table: {len(s_table)} terms")

    print("deriving the degree-6 invariant from the Hessian pencil ...")
    F = generic_cubic(0)
    H = det3([[F.derivative(i).derivative(j) for j in point(0)] for i in point(0)])
    T = reduce(
        add, (G.derivative(v) * taylor_coefficient(H, 0, mono) for v, mono in enumerate(CUBIC_MONOMIALS))
    )
    t_table = normalize_table(T, 6)
    print(f"degree-6 table: {len(t_table)} terms")

    # --- checks -------------------------------------------------------
    def invariants(form):
        v = form.coefficient_vector()
        return _eval_table(s_table, v, 0), _eval_table(t_table, v, 0)

    xyz = PolyRing("xyz")
    for _ in range(5):
        coeffs = [rng.randint(-4, 4) for _ in CUBIC_MONOMIALS]
        P = CubicForm.from_polynomial(xyz.from_terms(dict(zip(CUBIC_MONOMIALS, coeffs))))
        g = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        d = det3(g)
        if d == 0:
            continue
        # P(g x) sends variable j to sum_i g[i][j] x_i, so substitute by g transposed
        (s1, t1), (s0, t0) = invariants(substitute(P, list(zip(*g)))), invariants(P)
        assert s1 == d**4 * s0, "degree-4 covariance failed"
        assert t1 == d**6 * t0, "degree-6 covariance failed"
    print("GL(3) covariance verified (weights 4 and 6)")

    for sigma in (0, 1, 2, Fraction(-1, 2)):
        s, t = invariants(hesse_form(sigma))
        print(f"  Hesse({sigma}): S = {s}, T = {t}")

    sm12, tm12 = invariants(hesse_form(Fraction(-1, 2)))
    kappa = Fraction(tm12**2, sm12**3)
    print(f"discriminant combination: T^2 - ({kappa}) * S^3")
    # sullivan.cubic.discriminant computes t*t - s**3
    assert kappa == 1, "the tables do not normalize the discriminant to T^2 - S^3"
    for text in SINGULAR_FORMS:
        s, t = invariants(CubicForm.from_polynomial(parse_polynomial(text, xyz)))
        assert t * t == kappa * s**3, f"discriminant does not vanish on singular {text}"
    print("discriminant combination vanishes on all singular normal forms")

    print()
    print("=== paste into src/sullivan/_invariant_tables.py ===")
    print('"""Generated by tools/derive_cubic_invariants.py; do not edit by hand."""')
    print()
    print("CUBIC_MONOMIALS = (")
    for m in CUBIC_MONOMIALS:
        print(f"    {m!r},")
    print(")")
    print()
    print("DEGREE4_TERMS = (")
    for m, c in s_table:
        print(f"    ({m!r}, {c}),")
    print(")")
    print()
    print("DEGREE6_TERMS = (")
    for m, c in t_table:
        print(f"    ({m!r}, {c}),")
    print(")")


if __name__ == "__main__":
    main()
