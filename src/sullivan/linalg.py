"""Exact linear algebra over the rationals.

Every rank, echelon form, kernel and span test runs one sparse
Gauss–Jordan elimination over ``Fraction`` (``_echelon``).  Its output is
the reduced row echelon form, which is unique, so kernels come out in the
canonical free-column form and subspace equality is plain tuple equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

Vector = tuple[Fraction, ...]


def _to_fraction_row(row) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in row)


def _subtract(row: dict[int, Fraction], factor: Fraction, other: dict[int, Fraction]) -> None:
    """row -= factor * other, in place, keeping only nonzero entries."""
    for j, x in other.items():
        y = row.get(j, 0) - factor * x
        if y:
            row[j] = y
        else:
            del row[j]


def _echelon(rows: Iterable[dict[int, Fraction]]) -> tuple[list[dict[int, Fraction]], tuple[int, ...]]:
    """Sparse Gauss–Jordan: the RREF rows as {column: value}, and their pivots.

    Each row is copied and reduced by the pivot rows found so far.  A
    nonzero remainder is scaled to a leading 1 and its pivot column is
    cleared from the other pivot rows.  No pivot row has an entry left of
    its pivot, so the rows sorted by pivot are the reduced row echelon form.
    """
    reduced: dict[int, dict[int, Fraction]] = {}
    for row in rows:
        row = dict(row)
        for c in [c for c in row if c in reduced]:
            _subtract(row, row[c], reduced[c])
        if not row:
            continue
        pivot = min(row)
        lead = row[pivot]
        row = {j: x / lead for j, x in row.items()}
        for other in reduced.values():
            if pivot in other:
                _subtract(other, other[pivot], row)
        reduced[pivot] = row
    pivots = tuple(sorted(reduced))
    return [reduced[p] for p in pivots], pivots


def _dense(rows: Iterable[dict[int, Fraction]], cols: int) -> tuple[Vector, ...]:
    zero = Fraction(0)
    return tuple(tuple(row.get(j, zero) for j in range(cols)) for row in rows)


class RationalMatrix:
    """Sparse matrix of Fractions, each row a {column: value} dict of its
    nonzero entries (the form the elimination takes); immutable."""

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
        return len(_echelon(self._entries)[1])

    def rref(self) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
        """Reduced row echelon form (nonzero rows only) and its pivot columns."""
        rows, pivots = _echelon(self._entries)
        return _dense(rows, self.cols), pivots

    def kernel_basis(self) -> tuple[Vector, ...]:
        """Canonical basis of the right null space (one vector per free column)."""
        rows, pivots = _echelon(self._entries)
        pivot_set = set(pivots)
        basis = []
        for fc in range(self.cols):
            if fc in pivot_set:
                continue
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for row, pc in zip(rows, pivots):
                if fc in row:
                    v[pc] = -row[fc]
            basis.append(tuple(v))
        return tuple(basis)


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


def reduce_mod_rows(v: Sequence, rref_rows: Sequence[Vector], pivots: Sequence[int]):
    """Reduce v modulo a row space given in RREF with known pivot columns."""
    v = list(_to_fraction_row(v))
    for row, pc in zip(rref_rows, pivots):
        factor = v[pc]
        if factor:
            for j in range(len(v)):
                v[j] -= factor * row[j]
    return tuple(v)


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
