"""Exact linear algebra over the rationals.

Every rank, echelon form, kernel and span test runs one sparse
fraction-free elimination over ``int`` (``_forward``), in the manner of
Bareiss (*Math. Comp.* 22, 1968): each row is scaled to primitive
integers on input and cleared by gcd-reduced ``a·row − b·pivot_row``, with
no ``Fraction`` and no modular step.  ``rank`` stops after this forward
pass.  ``_echelon`` back-eliminates to the reduced row echelon form, which
is unique, so kernels come out in the canonical free-column form and
subspace equality is plain tuple equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Vector = tuple[Fraction, ...]


def _to_fraction_row(row) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in row)


def _add_term(terms: dict, key, value) -> None:
    """terms[key] += value, keeping only nonzero entries."""
    y = terms.get(key, 0) + value
    if y:
        terms[key] = y
    else:
        del terms[key]


def _primitive(row: dict[int, int]) -> dict[int, int]:
    """A nonzero integer row divided by its content (the gcd of its entries)."""
    g = gcd(*row.values())
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
    so far, and what is left is a new pivot row; their number is the rank."""
    reduced: dict[int, dict[int, int]] = {}
    for row in rows:
        if not row:
            continue
        scale = lcm(*(x.denominator for x in row.values()))
        row = _primitive({j: x.numerator * (scale // x.denominator) for j, x in row.items()})
        while row:
            pivot = min(row)
            if pivot not in reduced:
                reduced[pivot] = row
                break
            row = _eliminate(row, reduced[pivot], pivot)
    return reduced


def _echelon(rows: Iterable[Mapping[int, Fraction | int]]) -> dict[int, dict[int, Fraction]]:
    """Sparse RREF, the nonzero rows as {column: Fraction} keyed by increasing
    pivot: the forward pass, then from the last pivot up each row is cleared
    by the already reduced rows below it and divided by its leading entry."""
    reduced = _forward(rows)
    for p in sorted(reduced, reverse=True):
        row = reduced[p]
        for c in [c for c in row if c != p and c in reduced]:
            row = _eliminate(row, reduced[c], c)
        reduced[p] = row
    return {p: {j: Fraction(x, row[p]) for j, x in row.items()} for p, row in sorted(reduced.items())}


def _dense(rows: Iterable[dict[int, Fraction]], cols: int) -> tuple[Vector, ...]:
    zero = Fraction(0)
    return tuple(tuple(row.get(j, zero) for j in range(cols)) for row in rows)


class RationalMatrix:
    """Sparse matrix of Fractions, each row a {column: value} dict of its
    nonzero entries (the form the elimination reads); immutable."""

    __slots__ = ("rows", "cols", "_entries")

    def __init__(self, rows: int, cols: int, sparse_rows: Sequence[Mapping[int, object]]):
        if cols < 0 or len(sparse_rows) != rows:
            raise ValueError("data does not match the stated dimensions")
        if any(j not in range(cols) for row in sparse_rows for j in row):
            raise ValueError(f"a column index is outside range({cols})")
        self.rows = rows
        self.cols = cols
        self._entries = tuple({j: y for j, x in row.items() if (y := Fraction(x))} for row in sparse_rows)

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
        return _dense(self._entries, self.cols)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._entries == other._entries
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    def apply(self, v: Sequence) -> Vector:
        v = _to_fraction_row(v)
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum((x * v[j] for j, x in row.items()), Fraction(0)) for row in self._entries)

    # -- elimination ---------------------------------------------------

    def rank(self) -> int:
        return len(_forward(self._entries))

    def rref(self) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
        """Reduced row echelon form (nonzero rows only) and its pivot columns."""
        rows = _echelon(self._entries)
        return _dense(rows.values(), self.cols), tuple(rows)

    def kernel_basis(self) -> tuple[Vector, ...]:
        """Canonical basis of the right null space (one vector per free column)."""
        rows = _echelon(self._entries)
        basis = {fc: [Fraction(0)] * self.cols for fc in range(self.cols) if fc not in rows}
        for fc, v in basis.items():
            v[fc] = Fraction(1)
        # off its pivot, an RREF row has entries in free columns only
        for pc, row in rows.items():
            for fc, x in row.items():
                if fc != pc:
                    basis[fc][pc] = -x
        return tuple(tuple(v) for v in basis.values())


def in_span(v: Sequence, basis: Iterable[Sequence]) -> tuple[bool, Vector | None]:
    """Membership of v in the rational span of basis, with coordinates on success."""
    v = _to_fraction_row(v)
    basis = [_to_fraction_row(b) for b in basis]
    if any(len(b) != len(v) for b in basis):
        raise ValueError("vectors of inconsistent dimensions")
    # columns are the basis vectors, augmented with v
    aug = RationalMatrix.from_rows(
        [[b[i] for b in basis] + [v[i]] for i in range(len(v))], len(basis) + 1
    )
    rref, pivots = aug.rref()
    if len(basis) in pivots:
        return (False, None)
    coords = [Fraction(0)] * len(basis)
    for r, pc in enumerate(pivots):
        coords[pc] = rref[r][len(basis)]
    return (True, tuple(coords))


def row_space_rref(rows: Iterable[Sequence], cols: int) -> tuple[Vector, ...]:
    """Canonical (RREF) basis of the row space; the canonical form of a subspace."""
    return RationalMatrix.from_rows(rows, cols).rref()[0]


def integerized(vector: Sequence[Fraction]) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers with the same direction."""
    v = _to_fraction_row(vector)
    mult = lcm(*(f.denominator for f in v)) if v else 1
    ints = [int(f * mult) for f in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g > 1:
        ints = [x // g for x in ints]
    return tuple(ints)
