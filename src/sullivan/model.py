"""Sullivan models: validation, degreewise cohomology, purity and cup products.

A model is a generator table plus a differential image per generator.  The
differential extends by the graded Leibniz rule; cohomology in each degree
is exact linear algebra on the monomial bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterator

from .algebra import AlgebraElement, GeneratorTable, _mul_monomials, monomial_basis
from .cubic import CubicForm, squarefree_part
from .groebner import PolyRing, Polynomial, buchberger
from .linalg import RationalMatrix, Vector, _add_term, _echelon


@dataclass(frozen=True)
class Violation:
    kind: str  # "degree" | "minimality" | "d-squared"
    generator: str
    message: str


@dataclass(frozen=True)
class CohomologyReport:
    betti: tuple[tuple[int, int], ...]
    max_degree_computed: int
    formal_dimension_claim: int | None
    poincare_symmetric: bool

    def betti_vector(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.betti)


class SullivanModel:
    """Free graded-commutative algebra with a degree +1 differential."""

    __slots__ = ("table", "images", "_cochains", "__weakref__")

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SullivanModel)
            and self.table == other.table
            and self.images == other.images
        )

    def differential_of(self, name_or_index) -> AlgebraElement:
        i = name_or_index if isinstance(name_or_index, int) else self.table.index(name_or_index)
        return self.images[i]

    # -- the Leibniz extension -----------------------------------------

    def d(self, element: AlgebraElement) -> AlgebraElement:
        return extend_differential(self, element)

    # -- validation ------------------------------------------------------

    def _violations(self) -> Iterator[Violation]:
        """Violations of (degree +1, minimality, d^2 = 0), lazily and in that order."""
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
        for i, name in enumerate(table.names):
            if not self.d(self.images[i]).is_zero():
                yield Violation("d-squared", name, f"d(d({name})) is nonzero")

    def validate(self) -> Violation | None:
        """First violation of (degree +1, minimality, d^2 = 0), or None."""
        return next(self._violations(), None)

    def is_valid(self) -> bool:
        return self.validate() is None

    def cochains(self) -> "CochainComplex":
        """The model's cochain complex, built on first use and kept on the model."""
        if self._cochains is None:
            self._cochains = CochainComplex(self)
        return self._cochains

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
            _add_term(terms, target, coeff * x)
    return AlgebraElement(m.table, terms)


# -- cohomology ---------------------------------------------------------------


class CochainComplex:
    """Per degree k: the monomial basis and its index, d_k, its rank and
    canonical kernel, and the canonical RREF of im d_{k-1}; each built once.

    d_k is built one basis monomial at a time by the Leibniz rule
    (``_leibniz_monomial``) straight into sparse columns, whole
    coefficients as ``int``, and stays sparse up to the elimination.  The
    rank is the forward pass of the fraction-free kernel on the columns
    (the rows of the transpose).  The image keeps their sparse RREF rows
    keyed by pivot, which ``reduce`` and ``class_generator`` subtract from
    sparse vectors.  The kernel eliminates the rows of d_k, transposed
    entry by entry.

    The complex keeps the model's table and generator images, not the
    model, which keeps the complex: no reference cycle.
    """

    def __init__(self, m: SullivanModel):
        # minimality is not needed: a non-minimal model still has cohomology
        bad = next((v for v in m._violations() if v.kind != "minimality"), None)
        if bad is not None:
            raise ValueError(bad.message)
        self.table = m.table
        # whole coefficients as int, so that d_k is built in integer arithmetic
        self.images = tuple(
            {mono: int(c) if c.denominator == 1 else c for mono, c in image.terms.items()}
            for image in m.images
        )
        self._bases: dict[int, tuple] = {}
        self._indices: dict[int, dict] = {}
        self._columns: dict[int, tuple[dict[int, Fraction | int], ...]] = {}
        self._ranks: dict[int, int] = {}
        self._kernels: dict[int, tuple[Vector, ...]] = {}
        self._images: dict[int, dict[int, dict[int, Fraction]]] = {}

    def basis(self, k: int) -> tuple:
        """Monomials of degree k in canonical order (none below degree 0)."""
        if k < 0:
            return ()
        if k not in self._bases:
            self._bases[k] = tuple(monomial_basis(self.table, k))
        return self._bases[k]

    def index(self, k: int) -> dict:
        """Position of each degree-k monomial in basis(k)."""
        if k not in self._indices:
            self._indices[k] = {mono: i for i, mono in enumerate(self.basis(k))}
        return self._indices[k]

    def d(self, k: int) -> tuple[dict[int, Fraction | int], ...]:
        """d_k as sparse columns: per degree-k basis monomial, target row -> coefficient
        (an int when it is whole)."""
        if k not in self._columns:
            index = self.index(k + 1)
            self._columns[k] = tuple(
                {index[target]: x for target, x in _leibniz_monomial(self.table, self.images, mono).items()}
                for mono in self.basis(k)
            )
        return self._columns[k]

    def rank(self, k: int) -> int:
        if k not in self._ranks:
            columns = self.d(k)
            self._ranks[k] = RationalMatrix(len(columns), len(self.basis(k + 1)), columns).rank()
        return self._ranks[k]

    def betti(self, k: int) -> int:
        return len(self.basis(k)) - self.rank(k) - self.rank(k - 1)

    def kernel(self, k: int) -> tuple[Vector, ...]:
        """Canonical basis of ker d_k over basis(k), one vector per free column."""
        if k not in self._kernels:
            columns = self.d(k)
            rows = [{} for _ in self.basis(k + 1)]
            for c, column in enumerate(columns):
                for r, x in column.items():
                    rows[r][c] = x
            self._kernels[k] = RationalMatrix(len(rows), len(columns), rows).kernel_basis()
        return self._kernels[k]

    def image(self, k: int) -> dict[int, dict[int, Fraction]]:
        """Canonical RREF of im d_{k-1} over basis(k): sparse rows keyed by pivot column."""
        if k not in self._images:
            self._images[k] = _echelon(self.d(k - 1))
        return self._images[k]

    def coordinates(self, k: int, element: AlgebraElement) -> dict[int, Fraction]:
        """Coordinates of a degree-k element over basis(k), as {basis position: coefficient}."""
        index = self.index(k)
        return {index[mono]: c for mono, c in element.terms.items()}

    def reduce(self, k: int, element: AlgebraElement) -> dict[int, Fraction]:
        """Coordinates of a degree-k element reduced modulo im d_{k-1}."""
        return self._reduced(k, self.coordinates(k, element))

    def _reduced(self, k: int, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        # an RREF row is zero at every other pivot, so one pass over the
        # pivots present in vec clears them all
        image = self.image(k)
        for pc in [pc for pc in vec if pc in image]:
            factor = vec[pc]
            for j, x in image[pc].items():
                _add_term(vec, j, -factor * x)
        return vec

    def class_generator(self, k: int) -> dict[int, Fraction]:
        """Reduced representative of a nonzero class in H^k, as {basis position:
        coefficient}, with its first nonzero coordinate +1."""
        for vec in self.kernel(k):
            reduced = self._reduced(k, {j: c for j, c in enumerate(vec) if c})
            if reduced:
                lead = reduced[min(reduced)]
                return {j: c / lead for j, c in reduced.items()}
        raise ArithmeticError(f"H^{k} is zero")


def betti_numbers(m: SullivanModel, max_degree: int) -> tuple[int, ...]:
    """(b_0, ..., b_max) by degreewise kernel/rank bookkeeping."""
    if max_degree < 0:
        raise ValueError("max_degree must be nonnegative")
    return tuple(m.cochains().betti(k) for k in range(max_degree + 1))


def cohomology_betti(m: SullivanModel, max_degree: int) -> CohomologyReport:
    betti = betti_numbers(m, max_degree)
    n = m.formal_dimension_claim()
    symmetric = False
    if 0 <= n <= max_degree:
        symmetric = all(betti[k] == betti[n - k] for k in range(n + 1))
    return CohomologyReport(
        betti=tuple(enumerate(betti)),
        max_degree_computed=max_degree,
        formal_dimension_claim=n if n >= 0 else None,
        poincare_symmetric=symmetric,
    )


def cup_product_cubic_form(m: SullivanModel) -> CubicForm:
    """Cubic form of triple products of degree-two generators into H^6 (up to scale).

    Requires dim H^6 = 1 and two or three degree-two generators, all
    cocycles.  The H^6 generator is the first reduced cocycle-basis vector,
    scaled so its first nonzero coordinate is +1.
    """
    table = m.table
    xs = [i for i, d in enumerate(table.degrees) if d == 2]
    if len(xs) not in (2, 3):
        raise ValueError("need two or three degree-two generators")
    for i in xs:
        if not m.images[i].is_zero():
            raise ValueError("degree-two generators must be cocycles")
    cochains = m.cochains()
    if cochains.betti(6) != 1:
        raise ValueError("dim H^6 must be 1")
    generator = cochains.class_generator(6)
    lead = min(generator)
    coeffs = {}
    for a, b, c in combinations_with_replacement(range(len(xs)), 3):
        product = table.generator(xs[a]) * table.generator(xs[b]) * table.generator(xs[c])
        reduced = cochains.reduce(6, product)
        coeff = coeffs[(a, b, c)] = reduced.get(lead, Fraction(0))
        if reduced != ({j: coeff * g for j, g in generator.items()} if coeff else {}):
            raise ArithmeticError("degree-6 class is not a multiple of the generator")
    return CubicForm(len(xs), coeffs)


def poincare_duality_check(m: SullivanModel, formal_dimension: int | None = None) -> bool:
    """Betti symmetry, one-dimensional top degree, and a nondegenerate
    pairing of degree two against degree n-2 when b2 > 0."""
    n = m.formal_dimension_claim() if formal_dimension is None else formal_dimension
    if n < 0:
        return False
    betti = betti_numbers(m, n)
    if betti[n] != 1 or any(betti[k] != betti[n - k] for k in range(n + 1)):
        return False
    xs = [i for i, d in enumerate(m.table.degrees) if d == 2]
    if not xs or n < 4:
        return True
    cochains = m.cochains()
    lead = min(cochains.class_generator(n))
    basis = cochains.basis(n - 2)
    cocycles = [
        m.table.element({mono: c for mono, c in zip(basis, vec) if c})
        for vec in cochains.kernel(n - 2)
    ]
    rows = [[cochains.reduce(n, m.table.generator(i) * z).get(lead, 0) for z in cocycles] for i in xs]
    return RationalMatrix.from_rows(rows, len(cocycles)).rank() == len(xs)


def pairing_matrix(m: SullivanModel, generator_degree: int = 2) -> tuple[tuple[Fraction, ...], ...]:
    """Matrix of the multiplication pairing of the two degree-d generators into H^{2d}."""
    table = m.table
    xs = [i for i, d in enumerate(table.degrees) if d == generator_degree]
    if len(xs) != 2:
        raise ValueError(f"need exactly two generators of degree {generator_degree}")
    k = 2 * generator_degree
    cochains = m.cochains()
    if cochains.betti(k) != 1:
        raise ValueError(f"dim H^{k} must be 1")
    lead = min(cochains.class_generator(k))
    return tuple(
        tuple(cochains.reduce(k, table.generator(i) * table.generator(j)).get(lead, Fraction(0)) for j in xs)
        for i in xs
    )


def h4_pairing_discriminant(m: SullivanModel, generator_degree: int = 2) -> int:
    """Square class of the determinant of the middle pairing; basis-independent."""
    rows = pairing_matrix(m, generator_degree)
    det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
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


def pure_is_elliptic(m: SullivanModel) -> bool:
    """Finite-dimensionality of (even subalgebra)/(images of the odd generators).

    This is the ellipticity criterion for pure models; for an equal number
    of even and odd generators it coincides with the images forming a
    regular sequence.
    """
    if not m.is_pure():
        raise ValueError("the model is not pure")
    ring = even_subalgebra_ring(m)
    if len(ring.variables) == 0:
        return True
    images = [
        even_element_to_polynomial(m, m.images[i], ring)
        for i in m.table.odd_indices()
        if not m.images[i].is_zero()
    ]
    if not images:
        return False
    return buchberger(images, ring).is_finite_dimensional()


def formal_dimension_from_exponents(pair) -> int:
    """n = 2(sum b - sum a) - (r - q) for an exponent pair."""
    return 2 * (sum(pair.b) - sum(pair.a)) - (len(pair.b) - len(pair.a))
