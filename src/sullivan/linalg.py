"""Exact linear algebra over the rationals.

Every rank, echelon form and kernel runs one sparse fraction-free
elimination over ``int`` (``_forward``), in the manner of Bareiss
(*Math. Comp.* 22, 1968): each row is scaled to primitive integers on
input and cleared by gcd-reduced ``a·row − b·pivot_row``, with no
``Fraction`` and no modular step.  ``rank`` stops after this forward
pass.  ``_echelon`` back-eliminates to the reduced row echelon form, kept
in integer form: each row primitive and positive at its pivot, so the
RREF row is that row divided by its pivot value.  That form is unique, so
kernels come out in the canonical free-column form (``_kernel``, again as
primitive integer vectors, positive at their free column) and subspace
equality is plain equality.  A ``Fraction`` is made only where the public
API returns one: ``RationalMatrix.data``/``rref``/``kernel_basis`` divide
the integer rows at the end.

``LinearCombination`` is the one implementation of sums, scalings and
products of monomials with rational coefficients, shared by
``algebra.AlgebraElement`` and ``groebner.Polynomial``; ``Parent`` is the
one implementation of the constants of their parents,
``algebra.GeneratorTable`` and ``groebner.PolyRing``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from numbers import Rational
from typing import Iterable, Mapping, Sequence

Vector = tuple[Fraction, ...]


def rational(value) -> int | Fraction:
    """The exact coefficient for a rational value: an ``int`` when it is
    whole, a ``Fraction`` otherwise.  Anything that is not a
    ``numbers.Rational`` (a float, a string) raises ``TypeError``."""
    if type(value) is int:
        return value
    if isinstance(value, Rational):
        if value.denominator == 1:
            return int(value.numerator)
        return value if type(value) is Fraction else Fraction(value)
    raise TypeError(f"expected a rational coefficient, got {value!r}")


def _add_term(terms: dict, key, value) -> None:
    """terms[key] += value, keeping only nonzero entries."""
    y = terms.get(key, 0) + value
    if y:
        terms[key] = y
    else:
        del terms[key]


def _add_exact(terms: dict, key, value) -> None:
    """terms[key] += value for exact coefficients, keeping only nonzero
    entries, each an ``int`` when it is whole (``rational``)."""
    y = terms.get(key, 0) + value
    if not y:
        del terms[key]
    elif type(y) is int or y.denominator != 1:
        terms[key] = y
    else:
        terms[key] = y.numerator


class Parent:
    """The parent of a ``LinearCombination`` (a polynomial ring or a
    generator table) and its constant elements.  A subclass gives
    ``__len__``, the length of its monomials, and ``_element``, its element
    class, called as ``_element(parent, terms)``."""

    __slots__ = ()

    def zero(self):
        return self._element(self, {})

    def one(self):
        return self._element(self, {(0,) * len(self): 1})

    def scalar(self, value):
        value = rational(value)
        return self._element(self, {(0,) * len(self): value} if value else {})


class LinearCombination:
    """Immutable rational linear combination of monomials over a ``Parent``:
    ``terms`` maps each monomial to its nonzero coefficient, an ``int`` when
    it is whole and a ``Fraction`` otherwise, which sums, scalings and
    products keep.  A subclass
    gives its slots and constructor, ``_parent``, ``_MISMATCH`` (the
    exception type and message for mixing parents) and ``_times(m1, m2)``,
    the product of two monomials as ``(sign, monomial)``, or ``None`` when
    it is zero."""

    __slots__ = ()

    def _new(self, terms: dict):
        return type(self)(self._parent, terms)

    def _check(self, other) -> None:
        if self._parent != other._parent:
            kind, message = self._MISMATCH
            raise kind(message)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self._parent == other._parent and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self._parent, frozenset(self.terms.items())))

    def coefficient(self, mono: Sequence[int]) -> int | Fraction:
        return self.terms.get(tuple(mono), 0)

    def __add__(self, other):
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            _add_exact(terms, m, c)
        return self._new(terms)

    def __neg__(self):
        return self._new({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, value):
        value = rational(value)
        if value == 0:
            return self._new({})
        return self._new({m: rational(c * value) for m, c in self.terms.items()})

    def __mul__(self, other):
        if type(other) is not type(self):
            return self.scale(other)
        self._check(other)
        times = self._times
        terms: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                prod = times(m1, m2)
                if prod is not None:
                    sign, m = prod
                    _add_exact(terms, m, sign * c1 * c2)
        return self._new(terms)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self._parent.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result


def _ratio(a: int, b: int) -> int | Fraction:
    """a/b for integers, b nonzero: an int when b divides a."""
    return a // b if a % b == 0 else Fraction(a, b)


def _clear_denominators(terms: dict) -> tuple[dict, int]:
    """(den·terms as integers, den), den the least common denominator; terms
    itself, with den 1, when every value is already an ``int``."""
    if all(type(c) is int for c in terms.values()):
        return terms, 1
    den = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


def _primitive(row: dict, lead=None) -> dict:
    """A nonzero integer row divided by its content (the gcd of its entries),
    and, when `lead` is given, signed so that its entry at `lead` is positive."""
    g = gcd(*row.values())
    if lead is not None and row[lead] < 0:
        g = -g
    return row if g == 1 else {j: x // g for j, x in row.items()}


def _eliminate(row: dict[int, int], pivot_row: dict[int, int], c: int) -> dict[int, int]:
    """The primitive part of a·row − b·pivot_row, with a, b the gcd-reduced
    entries of pivot_row and row at column c, which it clears."""
    g = gcd(row[c], pivot_row[c])
    a, b = pivot_row[c] // g, row[c] // g
    out = {j: a * x for j, x in row.items()} if a != 1 else dict(row)
    for j, x in pivot_row.items():
        _add_term(out, j, -b * x)
    return _primitive(out) if out else out


def _forward(rows: Iterable[Mapping[int, Fraction | int]]) -> dict[int, dict[int, int]]:
    """Primitive integer rows in echelon form, keyed by pivot: each row, its
    denominators cleared, is reduced leading column first by the pivot rows
    so far, and what is left is a new pivot row; their number is the rank.
    An input row that needs no scaling is kept as it is, not copied."""
    reduced: dict[int, dict[int, int]] = {}
    for row in rows:
        if not row:
            continue
        row = _primitive(_clear_denominators(row)[0])
        while row:
            pivot = min(row)
            if pivot not in reduced:
                reduced[pivot] = row
                break
            row = _eliminate(row, reduced[pivot], pivot)
    return reduced


def _echelon(rows: Iterable[Mapping[int, Fraction | int]]) -> dict[int, dict[int, int]]:
    """Sparse RREF in integer form: the nonzero rows keyed by increasing
    pivot, each primitive with a positive entry at its pivot; row p divided
    by that entry is the RREF row with pivot p, so this form is canonical
    too.  The forward pass, then from the last pivot up each row is cleared
    by the already reduced rows below it.  Rows may be the input's own
    dicts: read them, never change them."""
    reduced = _forward(rows)
    for p in sorted(reduced, reverse=True):
        row = reduced[p]
        for c in [c for c in row if c != p and c in reduced]:
            row = _eliminate(row, reduced[c], c)
        reduced[p] = _primitive(row, p)
    return dict(sorted(reduced.items()))


def _kernel(rows: Iterable[Mapping[int, Fraction | int]], cols: int) -> list[dict[int, int]]:
    """Canonical basis of the right null space of `cols`-wide sparse rows,
    one sparse integer vector per free column in increasing order.  The
    rational vector is 1 at its free column and −x/p at the pivot of each
    RREF row with x in that column and p at its pivot; it is kept scaled to
    primitive integers, positive at the free column.  An RREF row has
    entries only at its pivot and in later free columns, so each vector's
    entries come in increasing column order, the free column last."""
    rows = _echelon(rows)
    # free column -> {pivot column: entry} of the rows that meet it
    meets: dict[int, dict[int, int]] = {fc: {} for fc in range(cols) if fc not in rows}
    for pc, row in rows.items():
        for fc, x in row.items():
            if fc != pc:
                meets[fc][pc] = x
    basis = []
    for fc, column in meets.items():
        scale = lcm(*(rows[pc][pc] for pc in column))
        vector = {pc: -x * (scale // rows[pc][pc]) for pc, x in column.items()}
        vector[fc] = scale
        basis.append(_primitive(vector))
    return basis


def _fractions(row: Mapping[int, int], den: int) -> dict[int, Fraction]:
    """An integer row divided by den, every entry a ``Fraction``: the form
    the public API returns."""
    return {j: Fraction(x, den) for j, x in row.items()}


def _dense(rows: Iterable[dict[int, Fraction]], cols: int) -> tuple[Vector, ...]:
    zero = Fraction(0)
    return tuple(tuple(row.get(j, zero) for j in range(cols)) for row in rows)


class RationalMatrix:
    """Sparse rational matrix, each row a {column: value} dict of its nonzero
    entries (the form the elimination reads); immutable.  Entries are read
    by ``rational``: ``int`` when whole, ``Fraction`` otherwise, and a float
    or a string raises ``TypeError``; ``data``, ``rref`` and
    ``kernel_basis`` return ``Fraction``s only."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, sparse_rows: Sequence[Mapping[int, object]]):
        if cols < 0 or len(sparse_rows) != rows:
            raise ValueError("data does not match the stated dimensions")
        if any(j not in range(cols) for row in sparse_rows for j in row):
            raise ValueError(f"a column index is outside range({cols})")
        self.rows = rows
        self.cols = cols
        self._entries = tuple(
            {j: y for j, x in row.items() if (y := rational(x))}
            for row in sparse_rows
        )

    @classmethod
    def from_rows(cls, data: Sequence[Sequence], cols: int | None = None) -> "RationalMatrix":
        data = [list(r) for r in data]
        if cols is None:
            cols = len(data[0]) if data else 0
        if any(len(r) != cols for r in data):
            raise ValueError("data does not match the stated dimensions")
        return cls(len(data), cols, [{j: x for j, x in enumerate(r) if x} for r in data])

    @property
    def data(self) -> tuple[Vector, ...]:
        """Dense read-only view of the entries, row by row."""
        return _dense((_fractions(row, 1) for row in self._entries), self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    # -- elimination ---------------------------------------------------

    def rank(self) -> int:
        return len(_forward(self._entries))

    def rref(self) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
        """Reduced row echelon form (nonzero rows only) and its pivot columns."""
        rows = _echelon(self._entries)
        return _dense((_fractions(row, row[p]) for p, row in rows.items()), self.cols), tuple(rows)

    def kernel_basis(self) -> tuple[Vector, ...]:
        """Canonical basis of the right null space (one vector per free column)."""
        kernel = _kernel(self._entries, self.cols)
        return _dense((_fractions(v, v[max(v)]) for v in kernel), self.cols)


def integerized(vector: Sequence[int | Fraction]) -> tuple[int, ...]:
    """A rational vector scaled by a positive rational to coprime integers:
    the same direction and the same signs.  The zero vector comes back
    unchanged."""
    ints = list(_clear_denominators(dict(enumerate(vector)))[0].values())
    g = gcd(*ints)
    return tuple(ints) if g <= 1 else tuple(x // g for x in ints)
