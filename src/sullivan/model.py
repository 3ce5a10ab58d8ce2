"""Sullivan models: validation, degreewise cohomology, purity and cup products.

A model is a generator table plus a differential image per generator.  The
differential extends by the graded Leibniz rule; cohomology in each degree
is exact linear algebra on the monomial bases (`CochainComplex`).

Pure models have a second exact route.  Take a pure model (ΛQ ⊗ ΛP, d):
d is zero on the even generators x_1..x_n and sends the odd ones y_j into
Q[x].  Its cohomology contains B = Q[x]/(all dy_j), the classes of the
polynomials in x (Halperin, Trans. AMS 230, 1977; Félix, Halperin and
Thomas, Rational Homotopy Theory, §32).  With as many odd generators as
even ones and B finite-dimensional, dy_1..dy_n is a regular sequence, the
model is the Koszul complex of that sequence, and H* ≅ B, concentrated in
even degrees, as graded rings.  The model keeps that quotient
(`SullivanModel.quotient`, a `PureQuotient`).  A pure model with one odd
generator more than a regular sequence has H* = A/fA ⊕ Ann_A(f)·y, with A
the quotient by the regular images and f = dy the image left out; there
A/fA = B.

One function, `_sub_quotient_betti`, decides which pure models take this
route: it returns the Betti numbers, read from the Hilbert functions of B
(and of A), together with B, and None for every other model.
`betti_numbers` reads the Betti numbers from it, and when all even degrees
equal the degree read, `cup_product_cubic_form` and `pairing_determinant`
read their products in B, with no cochain complex (`_top_class_reader`).
The duality pairing of a pure elliptic model needs no computation at all:
by Halperin's theorem its cohomology satisfies Poincaré duality, so
`poincare_duality_check` reads the pairing off the degree-one generators.
Everything else goes through the complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd, lcm, prod
from typing import Callable, Iterator, Sequence

from .algebra import AlgebraElement, GeneratorTable, _mul_monomials, monomial_basis
from .cubic import CubicForm, squarefree_part
from .groebner import (
    GroebnerBasis,
    PolyRing,
    Polynomial,
    _finite_basis,
    _hilbert_values,
    _pair_loop,
    _shifted_sum,
    has_finite_quotient,
)
from .linalg import (
    _add_exact,
    _add_term,
    _clear_denominators,
    _echelon,
    _forward,
    _fractions,
    _kernel,
    _ratio,
    rational,
)


@dataclass(frozen=True)
class Violation:
    kind: str  # "degree" | "minimality" | "d-squared"
    generator: str
    message: str


class SullivanModel:
    """Free graded-commutative algebra with a degree +1 differential."""

    __slots__ = ("table", "images", "_cochains", "_quotient", "__weakref__")

    def __init__(self, table: GeneratorTable, differential: dict[str, AlgebraElement]):
        self.table = table
        images = []
        for name in table.names:
            image = differential.get(name)
            if image is None:
                images.append(table.zero())
                continue
            if image.table != table:
                raise ValueError(f"differential of {name!r} lives over a different table")
            images.append(image)
        for name in differential:
            if name not in table.names:
                raise KeyError(f"differential given for unknown generator {name!r}")
        self.images = tuple(images)
        self._cochains = None
        self._quotient = _UNDECIDED

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SullivanModel)
            and self.table == other.table
            and self.images == other.images
        )

    # -- validation ------------------------------------------------------

    def _violations(self) -> Iterator[Violation]:
        """Violations of (degree +1, minimality, d^2 = 0), lazily and in that
        order.  A pure model has d^2 = 0 already: d sends each odd generator
        into the even subalgebra, on which d vanishes."""
        table = self.table
        for i, name in enumerate(table.names):
            image = self.images[i]
            if image.is_zero():
                continue
            deg = image.degree()
            if deg != table.degrees[i] + 1:
                expected = table.degrees[i] + 1
                yield Violation("degree", name, f"d({name}) has degree {deg}, expected {expected}")
            elif image.min_word_length() < 2:
                yield Violation("minimality", name, f"d({name}) has a word-length-one term")
        if self.is_pure():
            return
        for i, name in enumerate(table.names):
            if not extend_differential(self, self.images[i]).is_zero():
                yield Violation("d-squared", name, f"d(d({name})) is nonzero")

    def validate(self) -> Violation | None:
        """First violation of (degree +1, minimality, d^2 = 0), or None."""
        return next(self._violations(), None)

    def cochains(self) -> "CochainComplex":
        """The model's cochain complex, built on first use and kept on the model."""
        if self._cochains is None:
            self._cochains = CochainComplex(self)
        return self._cochains

    def quotient(self) -> "PureQuotient | None":
        """The Groebner quotient that H* is read from, or None when the model
        is not of its kind (see `PureQuotient`); decided on first use and
        kept on the model."""
        if self._quotient is _UNDECIDED:
            self._quotient = PureQuotient.of(self)
        return self._quotient

    # -- structure ---------------------------------------------------------

    def is_pure(self) -> bool:
        """d vanishes on even generators and maps odd ones into the even subalgebra."""
        table = self.table
        for i in table.even_indices():
            if not self.images[i].is_zero():
                return False
        odd = set(table.odd_indices())
        for i in table.odd_indices():
            for mono in self.images[i].terms:
                if any(mono[j] for j in odd):
                    return False
        return True

    def formal_dimension_claim(self) -> int:
        """Formal dimension predicted by the generator degrees of an elliptic model."""
        total = 0
        q = r = 0
        for deg in self.table.degrees:
            if deg % 2 == 0:
                total -= deg // 2
                q += 1
            else:
                total += (deg + 1) // 2
                r += 1
        return 2 * total - (r - q)

    def __repr__(self) -> str:
        return f"SullivanModel({self.table!r})"


def _leibniz_monomial(table: GeneratorTable, images, mono: tuple[int, ...]) -> dict:
    """The graded Leibniz rule on one monomial: d(mono) as {monomial: coefficient},
    from the terms {monomial: coefficient} of each generator image d(x_i) = images[i]."""
    odd_positions = [i for i in table.odd_indices() if mono[i]]
    # even factors: the image has odd degree, so commuting it past the odd
    # tail of the monomial costs one sign per odd factor
    even_sign = -1 if len(odd_positions) % 2 else 1
    factors = [(i, even_sign * mono[i], mono[i] - 1) for i in table.even_indices() if mono[i]]
    factors += [(i, -1 if pos % 2 else 1, 0) for pos, i in enumerate(odd_positions)]
    terms: dict = {}
    for i, coeff, left in factors:
        rest = mono[:i] + (left,) + mono[i + 1 :]
        for m2, c in images[i].items():
            product = _mul_monomials(table, rest, m2)
            if product is not None:
                sign, target = product
                _add_term(terms, target, sign * coeff * c)
    return terms


def extend_differential(m: SullivanModel, a: AlgebraElement) -> AlgebraElement:
    """Termwise graded Leibniz extension of the generator differentials: the
    sum of _leibniz_monomial over the terms of a."""
    if a.table != m.table:
        raise ValueError("element lives over a different table")
    images = [image.terms for image in m.images]
    terms: dict = {}
    for mono, coeff in a.terms.items():
        for target, x in _leibniz_monomial(m.table, images, mono).items():
            _add_exact(terms, target, coeff * x)
    return AlgebraElement(m.table, terms)


# -- cohomology ---------------------------------------------------------------

# SullivanModel._quotient before the route is decided
_UNDECIDED = object()

# the most monomials the cochain complex enumerates in one degree
MAX_BASIS = 100_000


def _check_cohomology_input(m: SullivanModel) -> None:
    """Raise ValueError on the first violation of degree +1 or d^2 = 0;
    minimality is not needed, a non-minimal model still has cohomology."""
    bad = next((v for v in m._violations() if v.kind != "minimality"), None)
    if bad is not None:
        raise ValueError(bad.message)


def _free_dimensions(table: GeneratorTable, top: int) -> list[int]:
    """Dimensions of degrees 0..top of the free graded-commutative algebra
    on the table: the coefficients of prod (1 + t^odd) / prod (1 − t^even)."""
    numerator = {0: 1}
    for d in table.degrees:
        if d % 2:
            numerator = _shifted_sum(numerator, numerator, d, 1, top)
    even = [d for d in table.degrees if d % 2 == 0]
    return _hilbert_values(numerator, even, top)


def _check_enumerable(k: int, size: int) -> None:
    """Raise ValueError when degree k of the free algebra, of the given size,
    has more than MAX_BASIS monomials."""
    if size > MAX_BASIS:
        raise ValueError(
            f"degree {k} of the free algebra has {size} monomials, "
            f"more than the {MAX_BASIS} the cochain complex enumerates"
        )


class CochainComplex:
    """Per degree k: the monomial basis and its index, d_k, its rank and
    canonical kernel, and the canonical RREF of im d_{k-1}; each built once.

    d_k is built one basis monomial at a time by the Leibniz rule
    (``_leibniz_monomial``) straight into sparse columns, whole
    coefficients as ``int``, and stays sparse up to the elimination.  The
    rank is the forward pass of the fraction-free kernel on the columns
    (the rows of the transpose).  The image keeps their RREF in integer
    form: primitive rows keyed by pivot, each with its positive pivot
    value.  The kernel eliminates the rows of d_k, transposed entry by
    entry, and keeps its canonical basis as primitive integer vectors.

    Coset reduction modulo the image is fraction-free (``_reduced``): it
    returns integer coordinates and a positive multiplier, the reduced
    vector times that multiplier.  A ``Fraction`` is made only where an
    exact value leaves the complex: ``reduce``, ``class_generator`` and
    ``_top_coordinate``, the one reading of a class in a one-dimensional
    H^k where no quotient gives it: ``_top_class_reader`` off the route of
    `_sub_quotient_betti` or with unequal even degrees, and the pairing of
    ``poincare_duality_check`` for a model that is not pure or not
    elliptic.  That reading needs the reduced cocycle alone: no kernel and
    no search for a representative, which only ``class_generator`` makes.

    The complex keeps the model's table and generator images, not the
    model, which keeps the complex: no reference cycle.
    """

    def __init__(self, m: SullivanModel):
        _check_cohomology_input(m)
        self.table = m.table
        self.images = tuple(image.terms for image in m.images)
        self._bases: dict[int, tuple] = {}
        self._indices: dict[int, dict] = {}
        self._columns: dict[int, tuple[dict[int, Fraction | int], ...]] = {}
        self._ranks: dict[int, int] = {}
        self._kernels: dict[int, tuple[dict[int, int], ...]] = {}
        self._images: dict[int, dict[int, dict[int, int]]] = {}

    def basis(self, k: int) -> tuple:
        """Monomials of degree k in canonical order (none below degree 0).
        A degree with more than MAX_BASIS monomials raises ValueError before
        any is enumerated."""
        if k < 0:
            return ()
        if k not in self._bases:
            _check_enumerable(k, _free_dimensions(self.table, k)[k])
            self._bases[k] = tuple(monomial_basis(self.table, k))
        return self._bases[k]

    def index(self, k: int) -> dict:
        """Position of each degree-k monomial in basis(k)."""
        if k not in self._indices:
            self._indices[k] = {mono: i for i, mono in enumerate(self.basis(k))}
        return self._indices[k]

    def d(self, k: int) -> tuple[dict[int, Fraction | int], ...]:
        """d_k as sparse columns: per degree-k basis monomial, target row -> coefficient
        (an int when it is whole).  The image's RREF may hold these dicts: read them,
        never change them."""
        if k not in self._columns:
            index = self.index(k + 1)
            self._columns[k] = tuple(
                {index[target]: x for target, x in _leibniz_monomial(self.table, self.images, mono).items()}
                for mono in self.basis(k)
            )
        return self._columns[k]

    def rank(self, k: int) -> int:
        if k not in self._ranks:
            self._ranks[k] = len(_forward(self.d(k)))
        return self._ranks[k]

    def betti(self, k: int) -> int:
        return len(self.basis(k)) - self.rank(k) - self.rank(k - 1)

    def kernel(self, k: int) -> tuple[dict[int, int], ...]:
        """Canonical basis of ker d_k over basis(k), one vector per free column,
        each as {basis position: nonzero int} in increasing position: primitive,
        and positive at its free column, its last position."""
        if k not in self._kernels:
            columns = self.d(k)
            rows = [{} for _ in self.basis(k + 1)]
            for c, column in enumerate(columns):
                for r, x in column.items():
                    rows[r][c] = x
            self._kernels[k] = tuple(_kernel(rows, len(columns)))
        return self._kernels[k]

    def image(self, k: int) -> dict[int, dict[int, int]]:
        """Canonical RREF of im d_{k-1} over basis(k) in integer form: primitive
        rows keyed by pivot column, each positive at its pivot."""
        if k not in self._images:
            self._images[k] = _echelon(self.d(k - 1))
        return self._images[k]

    def coordinates(self, k: int, element: AlgebraElement) -> dict[int, int | Fraction]:
        """Coordinates of a degree-k element over basis(k), as {basis position: coefficient}."""
        index = self.index(k)
        return {index[mono]: c for mono, c in element.terms.items()}

    def reduce(self, k: int, element: AlgebraElement) -> dict[int, int | Fraction]:
        """Exact coordinates of a degree-k element reduced modulo im d_{k-1},
        an int where whole."""
        vec, den = _clear_denominators(self.coordinates(k, element))
        vec, multiplier = self._reduced(k, vec)
        return {j: _ratio(x, den * multiplier) for j, x in vec.items()}

    def _reduced(self, k: int, vec: dict[int, int]) -> tuple[dict[int, int], int]:
        """The integer vector vec reduced modulo im d_{k-1}, fraction-free:
        integer coordinates and a positive multiplier m, the reduced vector
        times m.  vec is consumed.

        An RREF row is zero at every other pivot, so the entries of vec at
        the pivots it meets stay as they are while rows are subtracted, and
        one scaling clears them all: by the lcm m of p/gcd(c, p) over those
        pivots, with c the entry of vec and p that of the row, then
        subtracting (m·c/p)·row for each."""
        image = self.image(k)
        pivots = [pc for pc in vec if pc in image]
        scale = lcm(*(image[pc][pc] // gcd(vec[pc], image[pc][pc]) for pc in pivots))
        if scale != 1:
            vec = {j: scale * x for j, x in vec.items()}
        for pc in pivots:
            row = image[pc]
            factor = vec[pc] // row[pc]
            for j, x in row.items():
                _add_term(vec, j, -factor * x)
        return vec, scale

    def _top_coordinate(self, k: int, vec: dict[int, int]) -> int | Fraction:
        """The class of the integer cocycle vec over basis(k) as a multiple
        of class_generator(k), when dim H^k = 1.  Reduced cocycles are zero
        at every image pivot, so they form one line, through the generator;
        the generator is 1 at its first position, so every nonzero reduced
        cocycle starts there too, and the multiple is its entry there.  No
        kernel is needed.  vec is consumed."""
        reduced, multiplier = self._reduced(k, vec)
        return _ratio(reduced[min(reduced)], multiplier) if reduced else 0

    def class_generator(self, k: int) -> dict[int, Fraction]:
        """Reduced representative of a nonzero class in H^k, as {basis position:
        coefficient}, with its first nonzero coordinate +1: the first kernel
        vector that does not reduce to zero."""
        for vec in self.kernel(k):
            reduced, _ = self._reduced(k, dict(vec))
            if reduced:
                return _fractions(reduced, reduced[min(reduced)])
        raise ArithmeticError(f"H^{k} is zero")


@dataclass(slots=True, eq=False)
class PureQuotient(GroebnerBasis):
    """Q[x]/(dy) for a pure model with as many odd generators as even ones,
    at least one, whose images give a finite quotient: H* as a graded ring
    (see the module docstring), x_i standing for the class of x_i.

    With step the gcd of the even degrees and w_i = deg x_i / step, the
    quotient is the `GroebnerBasis` of the images with x_i sent to x_i^{w_i}
    (`_weighted_images`) that decides finiteness (`_finite_basis`), with
    step and the weights on top.  H^k is zero when step does not divide k,
    and otherwise has as its basis the standard monomials x^{w·a} with
    sum a_i·w_i = k / step.  The pair loop forms S-polynomials and
    reductions of elements of Q[x^w] by elements of Q[x^w], which stay in
    Q[x^w]: there lcms of leads and quotients of divisible monomials have
    every x_i-exponent a multiple of w_i.  So the same run is Buchberger's
    algorithm in Q[x] under the monomial order a < b iff a·w < b·w, the
    leads divided by w are the leads of (dy) in that order, and a normal
    form of an element of Q[x^w] stays in Q[x^w].
    """

    step: int
    weights: list[int]

    @classmethod
    def of(cls, m: SullivanModel) -> "PureQuotient | None":
        """The quotient of m, after `_check_cohomology_input`; None for a
        model not of its kind, without checking it."""
        table = m.table
        if not (len(table.even_indices()) == len(table.odd_indices()) >= 1 and m.is_pure()):
            return None
        _check_cohomology_input(m)
        ring, images, step, weights = _weighted_images(m)
        found = _finite_basis(images, ring)
        if found is None:
            return None
        return cls(ring, found.code, found.basis, found.leads, step, weights, covered=found.covered)

    def betti(self, max_degree: int) -> tuple[int, ...]:
        """(b_0, ..., b_max): b_k is the coefficient of t^{k/step} in the
        Hilbert series of Q[x]/(dy) with x_i of weight w_i."""
        values = self.hilbert_function(max_degree // self.step, self.weights)
        return tuple(_by_model_degree(values, self.step, max_degree))


def _by_model_degree(values: Sequence[int], step: int, top: int) -> list[int]:
    """Hilbert values by weighted degree as dimensions in degrees 0..top:
    value k / step in degree k, and 0 where step does not divide k."""
    return [0 if k % step else values[k // step] for k in range(top + 1)]


def _sub_quotient_betti(m: SullivanModel, max_degree: int) -> tuple[tuple[int, ...], GroebnerBasis] | None:
    """The one route rule for pure models: (b_0, ..., b_max) with the
    quotient B = Q[x]/(all images) they were read from, or None for a model
    that only the cochain complex answers.  The model's `PureQuotient`,
    when it has one, is its own B; otherwise the route below.

    A pure model whose images f_1..f_m (weighted as in `_weighted_images`)
    include m - 1 certified regular has its Betti numbers from two Hilbert
    functions.  Certified regular are the empty sequence (m = 1), one
    nonzero form (m = 2), and n forms whose quotient `_finite_basis` finds
    finite (m = n + 1, with n even generators): n forms in n variables with
    a finite quotient are a regular sequence.  The odd generator y left out
    is tried last first, then the earlier ones.  With A = Q[x]/(the m - 1
    forms), B = Q[x]/(all m) and f = dy,

        b_k = B_k + B_{k+1} + A_{k-|y|} - A_{k+1},

    every value 0 in degrees that the gcd `step` of the even degrees does
    not divide.  Proof: the model without y is the Koszul complex of the
    m - 1 forms, which resolves A because they are regular (Bruns and
    Herzog, Cohen-Macaulay Rings, §1.6).  Pushing the relative algebra
    (ΛQ ⊗ Λ(others)) ⊗ Λy forward along that quasi-isomorphism gives
    A ⊗ Λy with dy = f̄ (Félix, Halperin and Thomas, Rational Homotopy
    Theory, §14 and §32), whose cohomology is A/fA ⊕ Ann_A(f)·y.  Here
    (A/fA)_k = B_k, and Ann_A(f)_j, the kernel of multiplication by f from
    A_j onto (fA)_{j+|f|}, has dimension A_j - A_{j+|f|} + B_{j+|f|}; for
    the class a·y of degree k, j = k - |y| and j + |f| = k + 1.

    A of the finite certificate is its own `GroebnerBasis`, exact in every
    degree; the other A and B come from `_pair_loop` capped at the largest
    degree read, (max_degree + 1) / step, and B is A when f is zero.  The
    route answers only where the cochain complex would: the model is
    validated first, and a degree up to max_degree + 1, each of which the
    complex enumerates, past MAX_BASIS raises the complex's ValueError.
    """
    quotient = m.quotient()
    if quotient is not None:
        return quotient.betti(max_degree), quotient
    table = m.table
    n, odds = len(table.even_indices()), table.odd_indices()
    if not (n and len(odds) in (1, 2, n + 1) and m.is_pure()):
        return None
    _check_cohomology_input(m)
    for k, size in enumerate(_free_dimensions(table, max_degree + 1)):
        _check_enumerable(k, size)
    ring, images, step, weights = _weighted_images(m)
    top = (max_degree + 1) // step
    for left in reversed(range(len(odds))):
        kept = images[:left] + images[left + 1 :]
        if len(odds) > 2:
            a = _finite_basis(kept, ring)
        else:
            a = None if any(f.is_zero() for f in kept) else _pair_loop(kept, ring, top)
        if a is not None:
            break
    else:
        return None
    b = a if images[left].is_zero() else _pair_loop(images, ring, top)
    A, B = (_by_model_degree(q.hilbert_function(top, weights), step, max_degree + 1) for q in (a, b))
    y = table.degrees[odds[left]]
    return tuple(B[k] + B[k + 1] + (A[k - y] if k >= y else 0) - A[k + 1] for k in range(max_degree + 1)), b


def betti_numbers(m: SullivanModel, max_degree: int) -> tuple[int, ...]:
    """(b_0, ..., b_max): from the quotient of `_sub_quotient_betti` when
    the model has that route, and otherwise by degreewise kernel/rank
    bookkeeping on the cochain complex."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    route = _sub_quotient_betti(m, max_degree)
    if route is not None:
        return route[0]
    cochains = m.cochains()
    return tuple(cochains.betti(k) for k in range(max_degree + 1))


def _top_class_reader(m: SullivanModel, degree: int, k: int) -> Callable[[tuple[int, ...]], int | Fraction]:
    """Reads a product of generators of the given degree, by table index, in
    H^k as a multiple of its generator; ValueError unless dim H^k = 1.

    dim H^k comes from `_sub_quotient_betti` when the model has that route,
    and from the cochain complex otherwise.  On the route, when every even
    generator has the given degree, a product is read from the route's
    quotient B by `GroebnerBasis.coordinate`; every other reading is
    `_top_coordinate` on the complex.

    The two readings agree.  The even products of degree k span B_k, which
    H^k contains, so B_k is 0 or 1.  When it is 0, every such product lies
    in the ideal, so it is a coboundary, and both read 0.  When it is 1,
    the complex reads the normal form.  d lowers odd word length by exactly
    1, so the RREF of the image splits into blocks of one word length, and
    an even product is reduced by the word-length-0 block alone: the
    ideal's part of degree k.  With all weights 1, `monomial_basis` lists
    the word-length-0 monomials of degree k in descending grevlex, so the
    pivots of that block are the leads of B, the reduced cocycle is the
    normal form, and its first position, where the complex reads it, is
    the one standard monomial.
    """
    table = m.table
    evens = table.even_indices()
    route = _sub_quotient_betti(m, k)
    if (route[0][k] if route else m.cochains().betti(k)) != 1:
        raise ValueError(f"dim H^{k} must be 1")
    if route and all(table.degrees[i] == degree for i in evens):
        b = route[1]
        return lambda factors: b._coordinate(tuple(map(factors.count, evens)))
    cochains = m.cochains()
    return lambda factors: cochains._top_coordinate(k, cochains.coordinates(k, prod(map(table.generator, factors))))


def cup_product_cubic_form(m: SullivanModel) -> CubicForm:
    """Cubic form of triple products of degree-two generators into H^6 (up to scale).

    Requires dim H^6 = 1 and two or three degree-two generators, all
    cocycles.  Each product is read as a multiple of the generator of H^6
    by `_top_class_reader`.
    """
    table = m.table
    xs = [i for i, d in enumerate(table.degrees) if d == 2]
    if len(xs) not in (2, 3):
        raise ValueError("need two or three degree-two generators")
    for i in xs:
        if not m.images[i].is_zero():
            raise ValueError("degree-two generators must be cocycles")
    read = _top_class_reader(m, 2, 6)
    return CubicForm(len(xs), {tuple(map(xs.index, t)): read(t) for t in combinations_with_replacement(xs, 3)})


def poincare_duality_check(m: SullivanModel) -> bool:
    """At the claimed formal dimension n: Betti symmetry, one-dimensional
    top degree, and, when there are degree-two generators x_p and n >= 4,
    a pairing of them against H^{n-2} into H^n of rank #x_p.  That rank is
    dim H^2 only on a minimal model.  On one that is not, such as SU(3)/T
    with dy1 = x1 + x2 + x3, the check reads False even when H* is a
    Poincaré duality algebra; `validate` reports such a model.

    A pure elliptic model passes the pairing check exactly when every
    degree-one generator is closed, once the Betti checks pass:

    - Halperin (Trans. AMS 230, 1977; Félix, Halperin and Thomas, Rational
      Homotopy Theory, §32 and §38) proves that the cohomology of an
      elliptic Sullivan algebra is a Poincaré duality algebra of formal
      dimension N = Σ_odd |y| - Σ_even (|x| - 1), which is
      `formal_dimension_claim`.  A pure model is elliptic exactly when
      Q[x]/(all images) is finite (`pure_is_elliptic`).
    - Degree-one generators and linear terms do not spoil this.  In a pure
      model the image of a degree-one generator y is a linear combination
      of degree-two generators.  If it is nonzero, a linear change of the
      even generators makes it one generator x', and replacing every other
      odd y_j by y_j - g_j·y, with g_j chosen so that d of it is free of
      x', makes (y, x') a contractible pair.  If it is zero, y splits off
      a factor Λ(y).  A linear term of a higher image splits off a
      contractible pair in the same way.  So ΛV is (contractible) ⊗
      Λ(closed degree-one generators) ⊗ (a simply connected minimal pure
      elliptic model); Poincaré duality survives ⊗, and N is additive.
    - So H^2 × H^{N-2} -> H^N is a perfect pairing, and the matrix of the
      x_p against any spanning set of H^{N-2} has rank dim span{[x_p]}.
    - The degree-two coboundaries are d(V^1) = span{dy : |y| = 1}, which
      lies in span{x_p}, the degree-two part of Q[x].  So dim span{[x_p]}
      = #x_p - rank{dy : |y| = 1}, which is #x_p exactly when every
      degree-one generator is closed.

    The model is pure and elliptic when it has a `PureQuotient`, which
    `betti_numbers` has decided already, or when `pure_is_elliptic` says
    so.  Every other model reads the pairing on the cochain complex:
    entry (p, z) is the class of x_p·z in H^n, for z the canonical cocycles
    of degree n - 2.
    """
    n = m.formal_dimension_claim()
    if n < 0:
        return False
    betti = betti_numbers(m, n)
    if betti[n] != 1 or any(betti[k] != betti[n - k] for k in range(n + 1)):
        return False
    table = m.table
    xs = [i for i, d in enumerate(table.degrees) if d == 2]
    if not xs or n < 4:
        return True
    if m.quotient() is not None or (m.is_pure() and pure_is_elliptic(m)):
        return all(m.images[i].is_zero() for i, d in enumerate(table.degrees) if d == 1)
    cochains = m.cochains()
    basis = cochains.basis(n - 2)
    cocycles = [table.element({basis[j]: c for j, c in z.items()}) for z in cochains.kernel(n - 2)]
    products = ([cochains.coordinates(n, table.generator(i) * z) for z in cocycles] for i in xs)
    rows = [{j: c for j, p in enumerate(row) if (c := cochains._top_coordinate(n, p))} for row in products]
    return len(_forward(rows)) == len(xs)


def pairing_determinant(m: SullivanModel, generator_degree: int = 2) -> int | Fraction:
    """Determinant of the multiplication pairing of the two degree-d generators
    into H^{2d}, each product read by `_top_class_reader`."""
    table = m.table
    xs = [i for i, d in enumerate(table.degrees) if d == generator_degree]
    if len(xs) != 2:
        raise ValueError(f"need exactly two generators of degree {generator_degree}")
    read = _top_class_reader(m, generator_degree, 2 * generator_degree)
    (a, b), (c, d) = ([read((i, j)) for j in xs] for i in xs)
    return rational(a * d - b * c)


def h4_pairing_discriminant(m: SullivanModel, generator_degree: int = 2) -> int:
    """Square class of the determinant of the middle pairing; basis-independent."""
    det = pairing_determinant(m, generator_degree)
    if det == 0:
        raise ValueError("the pairing is degenerate")
    return squarefree_part(det)


# -- purity and the regular-sequence criterion ----------------------------


def even_subalgebra_ring(m: SullivanModel) -> PolyRing:
    return PolyRing(tuple(m.table.names[i] for i in m.table.even_indices()))


def even_element_to_polynomial(m: SullivanModel, element: AlgebraElement, ring: PolyRing) -> Polynomial:
    evens = m.table.even_indices()
    odd = set(m.table.odd_indices())
    terms = {}
    for mono, c in element.terms.items():
        if any(mono[j] for j in odd):
            raise ValueError("element is not in the even subalgebra")
        terms[tuple(mono[i] for i in evens)] = c
    return ring.from_terms(terms)


def _weighted_images(m: SullivanModel) -> tuple[PolyRing, list[Polynomial], int, list[int]]:
    """The ring of the even generators, the images of the odd generators in
    it with each x_i sent to x_i^{w_i}, the gcd `step` of the even degrees
    and the weights w_i = deg x_i / step.  The images are homogeneous in
    the weighted degree, so after the substitution they are homogeneous in
    the ordinary sense.  The model must be pure (both callers check), so
    each image's terms are mapped once, with no check for odd factors."""
    evens = m.table.even_indices()
    degrees = [m.table.degrees[i] for i in evens]
    step = gcd(*degrees)
    weights = [d // step for d in degrees]
    ring = even_subalgebra_ring(m)
    images = [
        ring.from_terms({tuple(mono[i] * w for i, w in zip(evens, weights)): c for mono, c in image.terms.items()})
        for image in map(m.images.__getitem__, m.table.odd_indices())
    ]
    return ring, images, step, weights


def pure_is_elliptic(m: SullivanModel) -> bool:
    """Finite-dimensionality of (even subalgebra)/(images of the odd generators).

    This is the ellipticity criterion for pure models (Halperin, Trans. AMS
    230, 1977); for an equal number of even and odd generators it coincides
    with the images forming a regular sequence.  The images are made
    homogeneous by `_weighted_images`, x_i -> x_i^{w_i}.  Q[x] is free of
    rank prod w_i over Q[x^w], so the quotient stays finite exactly when it
    was.  Finiteness is then decided by `has_finite_quotient`, from a
    Groebner basis truncated at Lazard's degree bound
    (d1 - 1) + ... + (dn - 1) + 1.
    """
    if not m.is_pure():
        raise ValueError("the model is not pure")
    ring, images, _, _ = _weighted_images(m)
    return has_finite_quotient(images, ring)
