"""Binary and ternary cubic forms over Q.

A form is stored by its symmetric coefficients F_ijk = F(e_i, e_j, e_k);
the polynomial picture carries the multinomial factors.  Ternary forms get
the associated quadric subspace, the ellipticity decisions, singularity
tests and recovery of the diagonal-family parameter through the classical
degree-4/degree-6 invariants (tables in _invariant_tables, regenerated by
tools/derive_cubic_invariants.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache, lru_cache
from itertools import combinations_with_replacement
from math import isqrt
from typing import Sequence

from . import roots
from ._invariant_tables import CUBIC_MONOMIALS, DEGREE4_TERMS, DEGREE6_TERMS
from .groebner import (
    PolyRing,
    Polynomial,
    _pair_loop,
    has_finite_quotient,
    is_regular_sequence,
)
from .linalg import _echelon, _forward, _kernel, _ratio, integerized, rational

BINARY_MONOMIALS = ((3, 0), (2, 1), (1, 2), (0, 3))


def _multinomial(i: int, j: int, k: int) -> int:
    if i == j == k:
        return 1
    if i == j or j == k or i == k:
        return 3
    return 6


def _triple(mono: Sequence[int]) -> tuple[int, ...]:
    """The index triple of a cubic exponent vector: (1, 2, 0) -> (0, 1, 1)."""
    return tuple(var for var, e in enumerate(mono) for _ in range(e))


@lru_cache(maxsize=8)
def _monomials(n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """`PolyRing.monomials_of_degree(d)` in n variables, listed once per n for the quadrics and cubics."""
    return tuple(PolyRing(f"x{i}" for i in range(n)).monomials_of_degree(d))


class CubicForm:
    """Symmetric trilinear form on a 2- or 3-dimensional rational vector space;
    each coefficient is an ``int`` when whole and a ``Fraction`` otherwise."""

    __slots__ = ("dim", "coeffs")

    def __init__(self, dim: int, coeffs: dict[tuple[int, int, int], Fraction]):
        if dim not in (2, 3):
            raise ValueError("cubic forms are supported in dimensions 2 and 3")
        clean = {}
        for key, value in coeffs.items():
            i, j, k = sorted(key)
            if not (0 <= i and k < dim):
                raise ValueError(f"index {key!r} out of range for dimension {dim}")
            value = rational(value)
            if value:
                clean[(i, j, k)] = value
        self.dim = dim
        self.coeffs = clean

    def __getitem__(self, key) -> int | Fraction:
        return self.coeffs.get(tuple(sorted(key)), 0)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CubicForm)
            and self.dim == other.dim
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def __repr__(self) -> str:
        from .parsing import render_polynomial

        return f"<cubic {render_polynomial(self.polynomial())}>"

    # -- conversions ----------------------------------------------------

    def coefficient_vector(self) -> list[Fraction]:
        """Polynomial coefficients in the canonical monomial listing."""
        monos = CUBIC_MONOMIALS if self.dim == 3 else BINARY_MONOMIALS
        return [self[t] * _multinomial(*t) for t in map(_triple, monos)]

    def polynomial(self, ring: PolyRing | None = None) -> Polynomial:
        if ring is None:
            names = ("x", "y", "z")[: self.dim]
            ring = PolyRing(names)
        if len(ring.variables) != self.dim:
            raise ValueError("ring arity does not match the form dimension")
        terms = {}
        monos = CUBIC_MONOMIALS if self.dim == 3 else BINARY_MONOMIALS
        for mono, c in zip(monos, self.coefficient_vector()):
            if c:
                terms[mono] = c
        return ring.from_terms(terms)

    @classmethod
    def from_polynomial(cls, p: Polynomial) -> "CubicForm":
        dim = len(p.ring.variables)
        if dim not in (2, 3):
            raise ValueError("expected a polynomial in 2 or 3 variables")
        if p.terms and (not p.is_homogeneous() or p.degree() != 3):
            raise ValueError("expected a homogeneous cubic")
        triples = {_triple(mono): c for mono, c in p.terms.items()}
        return cls(dim, {t: Fraction(c, _multinomial(*t)) for t, c in triples.items()})

    # -- normalization ----------------------------------------------------

    def canonical(self) -> "CubicForm":
        """Rescale so the F_ijk are coprime integers, first nonzero positive."""
        if not self.coeffs:
            return self
        order = list(combinations_with_replacement(range(self.dim), 3))
        vec = [self[t] for t in order]
        ints = integerized(vec)
        first = next(x for x in ints if x)
        if first < 0:
            ints = tuple(-x for x in ints)
        return CubicForm(self.dim, dict(zip(order, ints)))

    def proportional_to(self, other: "CubicForm") -> bool:
        return self.dim == other.dim and self.canonical() == other.canonical()

    def scale(self, value) -> "CubicForm":
        value = rational(value)
        return CubicForm(self.dim, {t: c * value for t, c in self.coeffs.items()})


def _linear_substitution(ring: PolyRing, matrix: Sequence[Sequence]) -> list[Polynomial]:
    """Images of the variables under x -> Mx, for an n x n matrix M (n variables)."""
    n = len(ring.variables)
    rows = [[rational(x) for x in row] for row in matrix]
    if len(rows) != n or any(len(r) != n for r in rows):
        raise ValueError(f"expected a {n}x{n} matrix")
    return [
        sum((ring.variable(j).scale(c) for j, c in enumerate(row) if c), ring.zero())
        for row in rows
    ]


def substitute(form: CubicForm, matrix: Sequence[Sequence]) -> CubicForm:
    """Form of P(Mx); exact, requires an invertible matrix."""
    ring = PolyRing(("x", "y", "z")[: form.dim])
    images = _linear_substitution(ring, matrix)
    if len(_forward({j: c for j, x in enumerate(row) if (c := rational(x))} for row in matrix)) < form.dim:
        raise ValueError("substitution matrix is singular")
    return CubicForm.from_polynomial(form.polynomial(ring).compose(images))


# -- the pairing into the dual of degree two --------------------------------


def _pairing_rows(form: CubicForm) -> list[dict[int, int | Fraction]]:
    """Row k holds F(e_k, m) at the position of each quadric monomial m, nonzero entries only."""
    monos = _monomials(form.dim, 2)
    return [{j: c for j, m in enumerate(monos) if (c := form[_triple(m) + (k,)])} for k in range(form.dim)]


def pairing_rank(form: CubicForm) -> int:
    return len(_forward(_pairing_rows(form)))


class QuadricSubspace:
    """Subspace of the degree-two part of Q[x1..xn], held as `_echelon`'s canonical integer rows."""

    __slots__ = ("ring", "basis", "_coords")

    def __init__(self, ring: PolyRing, quadrics: Sequence[Polynomial]):
        column = {m: j for j, m in enumerate(_monomials(len(ring), 2))}
        rows = []
        for q in quadrics:
            if q.ring != ring:
                raise ValueError("quadric lives in a different ring")
            if q and (not q.is_homogeneous() or q.degree() != 2):  # a zero row spans nothing
                raise ValueError("basis entries must be homogeneous of degree 2")
            rows.append({column[m]: c for m, c in q.terms.items()})
        self._span(ring, rows)

    def _span(self, ring: PolyRing, rows) -> "QuadricSubspace":
        """Hold the span of sparse rows on the columns of `monomials_of_degree(2)`; returns self."""
        monos = _monomials(len(ring), 2)
        self.ring = ring
        # each row in column order, pivot first, so the basis lists its terms as the monomials come
        self._coords = tuple(tuple(sorted(row.items())) for row in _echelon(rows).values())
        self.basis = tuple(
            Polynomial._exact(ring, {monos[j]: _ratio(x, row[0][1]) for j, x in row}) for row in self._coords
        )
        return self

    def dimension(self) -> int:
        return len(self.basis)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QuadricSubspace)
            and self.ring == other.ring
            and self._coords == other._coords
        )

    def __repr__(self) -> str:
        return f"QuadricSubspace(dim {self.dimension()} in {self.ring!r})"

    def transform(self, matrix: Sequence[Sequence]) -> "QuadricSubspace":
        """Image of the subspace under the substitution x -> Mx (M may be singular)."""
        images = _linear_substitution(self.ring, matrix)
        return QuadricSubspace(self.ring, [q.compose(images) for q in self.basis])


def associated_subspace(form: CubicForm) -> QuadricSubspace:
    """Quadrics annihilated by the pairing: the degree-two relations of the ring."""
    if form.dim != 3:
        raise ValueError("the associated subspace is defined for ternary forms")
    kernel = _kernel(_pairing_rows(form), 6)
    return QuadricSubspace.__new__(QuadricSubspace)._span(PolyRing(("x1", "x2", "x3")), kernel)


@dataclass(frozen=True)
class EllipticityVerdict:
    elliptic: bool
    reason: str

    def __bool__(self) -> bool:
        return self.elliptic


def is_elliptic_form(form: CubicForm, b2: int) -> EllipticityVerdict:
    """Whether a closed simply connected 6-manifold with b3 = 0 and this cup form is elliptic.

    For b2 = 2 the criterion is that degree-two classes generate, i.e. the
    pairing has full rank.  For b2 = 3 the associated quadric subspace must
    be three-dimensional with a regular sequence as basis.
    """
    if b2 not in (2, 3):
        raise ValueError("b2 must be 2 or 3")
    if form.dim != b2:
        raise ValueError(f"form dimension {form.dim} does not match b2 = {b2}")
    if b2 == 2:
        r = pairing_rank(form)
        if r == 2:
            return EllipticityVerdict(True, "pairing has rank 2: generated in degree two")
        return EllipticityVerdict(False, f"pairing rank {r} < 2")
    sub = associated_subspace(form)
    if sub.dimension() != 3:
        return EllipticityVerdict(
            False, f"associated quadric subspace has dimension {sub.dimension()}, not 3"
        )
    if is_regular_sequence(sub.basis, sub.ring):
        return EllipticityVerdict(True, "associated quadrics form a regular sequence")
    return EllipticityVerdict(False, "associated quadrics are not a regular sequence")


# -- binary forms -------------------------------------------------------


def binary_classify(form: CubicForm) -> str:
    """Real-equivalence class of a binary cubic.

    One of "zero", "cube", "square-times-line", "one-real-root",
    "three-real-roots"; decided exactly from the Hessian and the
    discriminant.  A nonzero form is a cube exactly when its Hessian
    vanishes, and the Hessian is 36 times the quadric whose coefficients
    are the `wall_invariants`.
    """
    if form.dim != 2:
        raise ValueError("binary classification needs a binary form")
    if form.is_zero():
        return "zero"
    if not any(wall_invariants(form)):
        return "cube"
    p0, p1, p2, p3 = form.coefficient_vector()
    disc = (
        18 * p0 * p1 * p2 * p3
        - 4 * p1**3 * p3
        + p1**2 * p2**2
        - 4 * p0 * p2**3
        - 27 * p0**2 * p3**2
    )
    if disc == 0:
        return "square-times-line"
    return "three-real-roots" if disc > 0 else "one-real-root"


def wall_invariants(form: CubicForm) -> tuple[int | Fraction, int | Fraction, int | Fraction]:
    """The three quadratic coefficient combinations that cut out the unrealizable binary class."""
    if form.dim != 2:
        raise ValueError("expected a binary form")
    f111, f112, f122, f222 = (
        form[(0, 0, 0)],
        form[(0, 0, 1)],
        form[(0, 1, 1)],
        form[(1, 1, 1)],
    )
    return (
        f111 * f222 - f112 * f122,
        f111 * f122 - f112 * f112,
        f112 * f222 - f122 * f122,
    )


# -- ternary invariants and the diagonal family -----------------------------


def _eval_table(table, values, zero):
    """The sum of coeff * prod(values[i] ** e) over the (expo, coeff) terms of
    an invariant table, from `zero` on: the value of the invariant at
    numbers, or the invariant as a polynomial at polynomials."""
    total = zero
    for expo, coeff in table:
        term = coeff
        for i, e in enumerate(expo):
            if e:
                term *= values[i] ** e
        total += term
    return total


def degree4_invariant(form: CubicForm) -> int | Fraction:
    if form.dim != 3:
        raise ValueError("expected a ternary form")
    return _eval_table(DEGREE4_TERMS, form.coefficient_vector(), 0)


def degree6_invariant(form: CubicForm) -> int | Fraction:
    if form.dim != 3:
        raise ValueError("expected a ternary form")
    return _eval_table(DEGREE6_TERMS, form.coefficient_vector(), 0)


def discriminant(form: CubicForm) -> int | Fraction:
    """Vanishes exactly on singular ternary cubics (with the table normalization)."""
    s = degree4_invariant(form)
    t = degree6_invariant(form)
    return t * t - s**3


def hesse_form(sigma) -> CubicForm:
    """x^3 + y^3 + z^3 + 6*sigma*xyz as a form."""
    return CubicForm(3, {(0, 0, 0): 1, (1, 1, 1): 1, (2, 2, 2): 1, (0, 1, 2): sigma})


def is_singular_ternary(form: CubicForm) -> bool:
    """Whether the projective cubic curve has a singular point (over the closure).

    The curve is smooth exactly when its three partial derivatives have no
    common projective zero, that is when they generate an ideal with a
    finite quotient.  Three quadrics in three variables give a finite
    quotient only if it vanishes from degree 1 + 1 + 1 + 1 = 4 on (Lazard's
    bound), so `has_finite_quotient` decides it from a Groebner basis
    truncated at degree 4.
    """
    if form.dim != 3:
        raise ValueError("expected a ternary form")
    if form.is_zero():
        raise ValueError("the zero form has no singularity type")
    ring = PolyRing(("x1", "x2", "x3"))
    P = form.polynomial(ring)
    return not has_finite_quotient([P.derivative(i) for i in range(3)], ring)


@cache
def _hesse_invariant_polys() -> tuple[Polynomial, Polynomial]:
    """Degree-4 and degree-6 invariants along the diagonal family, as polynomials in sigma."""
    ring = PolyRing(("sigma",))
    values = [ring.zero()] * 10
    for idx, mono in enumerate(CUBIC_MONOMIALS):
        if mono in ((3, 0, 0), (0, 3, 0), (0, 0, 3)):
            values[idx] = ring.one()
        elif mono == (1, 1, 1):
            values[idx] = ring.monomial((1,), 6)
    return tuple(_eval_table(table, values, ring.zero()) for table in (DEGREE4_TERMS, DEGREE6_TERMS))


def hesse_sigma_candidates(form: CubicForm, tolerance) -> list[tuple[Fraction, Fraction]]:
    """Isolating intervals for every diagonal-family parameter with matching invariants.

    The absolute invariant of the form is equated with the one of
    x^3+y^3+z^3+6*sigma*xyz, giving a univariate polynomial whose real
    roots (excluding the singular parameter -1/2) are returned.  Rational
    roots are recognized exactly and come back as zero-width intervals;
    the rest are isolated to at most the given width.
    """
    tolerance = Fraction(tolerance)
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    if is_singular_ternary(form):
        raise ValueError("the form is singular: it has no diagonal-family parameter")
    s_h, t_h = _hesse_invariant_polys()
    s = degree4_invariant(form)
    t = degree6_invariant(form)
    # s^3 * T(sigma)^2 - t^2 * S(sigma)^3 = 0  <=>  absolute invariants agree
    q = (t_h * t_h).scale(s**3) - (s_h * s_h * s_h).scale(t * t)
    q = roots.upoly([q.coefficient((k,)) for k in range(q.degree() + 1)])
    if roots.degree(q) < 1:
        raise ArithmeticError("degenerate invariant equation")
    q = roots.squarefree_part(q)
    out = []
    minus_half = Fraction(-1, 2)
    for lo, hi in roots._isolate_squarefree(q):
        exact = roots.rational_root_in_interval(q, lo, hi)
        if exact is not None:
            if exact != minus_half:
                out.append((exact, exact))
            continue
        # the root is irrational, so bisection never lands on it
        out.append(roots.refine_interval(q, lo, hi, tolerance))
    return sorted(out)


# -- arithmetic of square classes -------------------------------------------


def squarefree_part(q) -> int:
    """Signed square-free integer representing q in Q*/(Q*)^2.

    Trial division of n = |num * den| runs up to its cube root, and no
    further than 2**21.  The cofactor left then has no prime factor up to
    the last divisor d, so when d**3 exceeds it, it is 1, p, p**2 or p*q.
    Otherwise (a cofactor of about 2**63 or more) ``ValueError`` is raised.
    """
    q = Fraction(q)
    if q == 0:
        raise ValueError("0 has no class in Q*/(Q*)^2")
    n = abs(q.numerator) * q.denominator  # q and n differ by the square den^2
    sign = 1 if q > 0 else -1
    result = 1
    d = 2
    while d * d * d <= n and d < 2**21:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            if e % 2:
                result *= d
        d += 1 if d == 2 else 2
    if d * d * d <= n:
        raise ValueError(
            f"the square class of {q} needs the factors of {n}, which has no prime "
            f"factor below 2**21 and is too large for trial division"
        )
    # n has no prime factor below d, and d**3 > n: n is 1, p, p**2 or p*q
    if isqrt(n) ** 2 != n:
        result *= n
    return sign * result


def same_square_class(a, b) -> bool:
    """Whether a and b are equal in Q*/(Q*)^2, without factoring either.

    a/b = p/q in lowest terms is a square iff it is positive and p*q is a
    perfect square (p and q are coprime, so each must be a square).
    """
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("0 has no class in Q*/(Q*)^2")
    q = a / b
    n = q.numerator * q.denominator
    return n > 0 and isqrt(n) ** 2 == n


# -- rings back to forms -----------------------------------------------------


def cubic_form_of_ring(relations: Sequence[Polynomial], ring: PolyRing) -> CubicForm:
    """Cup-product form of a graded quotient with Hilbert profile (1, n, n, 1).

    Normal forms of the degree-3 monomials land in the one-dimensional top
    piece; the standard cubic monomial is used as the generator, so the
    result is well-defined up to a nonzero scale.
    """
    n = len(ring.variables)
    if n not in (2, 3):
        raise ValueError("expected a ring on 2 or 3 degree-two generators")
    quotient = _pair_loop(relations, ring, 4)
    profile = quotient.hilbert_function(4)
    if profile != (1, n, n, 1, 0):
        raise ValueError(f"Hilbert profile {profile} is not (1, {n}, {n}, 1, 0)")
    return CubicForm(n, {_triple(mono): quotient._coordinate(mono) for mono in _monomials(n, 3)})


def cubic_form_of_quadric_ideal(subspace: QuadricSubspace) -> CubicForm:
    """Inverse of associated_subspace for complete intersections of three quadrics."""
    if subspace.dimension() != 3:
        raise ValueError("expected a three-dimensional quadric subspace")
    return cubic_form_of_ring(subspace.basis, subspace.ring)
