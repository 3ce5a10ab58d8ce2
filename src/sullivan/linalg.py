"""Exact linear algebra over the rationals.

Rank and echelon forms use fraction-free (Bareiss-style) forward
elimination on integer-scaled rows, with a final rational normalization
pass for the reduced echelon form.  Kernels come out in the canonical
free-column form, so subspace equality is plain tuple equality.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]


def _to_fraction_row(row) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in row)


def _exact_div(num: int, den: int) -> int:
    q, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("inexact division in fraction-free elimination")
    return q


class RationalMatrix:
    """Dense matrix of Fractions; immutable after construction."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows: int, cols: int, data: Sequence[Sequence]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("data does not match the stated dimensions")
        self.rows = rows
        self.cols = cols
        self.data = tuple(_to_fraction_row(r) for r in data)

    @classmethod
    def from_rows(cls, data: Sequence[Sequence], cols: int | None = None) -> "RationalMatrix":
        data = [list(r) for r in data]
        if cols is None:
            cols = len(data[0]) if data else 0
        return cls(len(data), cols, data)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(
            self.cols, self.rows, [[self.data[r][c] for r in range(self.rows)] for c in range(self.cols)]
        )

    def apply(self, v: Sequence) -> Vector:
        v = _to_fraction_row(v)
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(row[j] * v[j] for j in range(self.cols)) for row in self.data)

    # -- elimination ---------------------------------------------------

    def _integer_rows(self) -> list[list[int]]:
        out = []
        for row in self.data:
            mult = lcm(*(f.denominator for f in row)) if row else 1
            out.append([int(f * mult) for f in row])
        return out

    def _bareiss(self) -> tuple[list[list[int]], list[int]]:
        """Fraction-free row echelon form; returns (matrix, pivot columns)."""
        m = self._integer_rows()
        pivots: list[int] = []
        prev = 1
        r = 0
        for c in range(self.cols):
            pivot_row = next((i for i in range(r, self.rows) if m[i][c] != 0), None)
            if pivot_row is None:
                continue
            if pivot_row != r:
                m[r], m[pivot_row] = m[pivot_row], m[r]
            for i in range(r + 1, self.rows):
                for j in range(self.cols):
                    if j == c:
                        continue
                    m[i][j] = _exact_div(m[i][j] * m[r][c] - m[i][c] * m[r][j], prev)
                m[i][c] = 0
            prev = m[r][c]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return m, pivots

    def rank(self) -> int:
        return len(self._bareiss()[1])

    def rref(self) -> tuple[tuple[Vector, ...], tuple[int, ...]]:
        """Reduced row echelon form (nonzero rows only) and its pivot columns."""
        m, pivots = self._bareiss()
        rows = [[Fraction(x) for x in m[r]] for r in range(len(pivots))]
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            inv = rows[r][c]
            rows[r] = [x / inv for x in rows[r]]
            for above in range(r):
                factor = rows[above][c]
                if factor:
                    rows[above] = [x - factor * y for x, y in zip(rows[above], rows[r])]
        return tuple(tuple(row) for row in rows), tuple(pivots)

    def kernel_basis(self) -> tuple[Vector, ...]:
        """Canonical basis of the right null space (one vector per free column)."""
        rref, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        basis = []
        for fc in free:
            v = [Fraction(0)] * self.cols
            v[fc] = Fraction(1)
            for r, pc in enumerate(pivots):
                v[pc] = -rref[r][fc]
            basis.append(tuple(v))
        return tuple(basis)


def in_span(v: Sequence, basis: Iterable[Sequence]) -> tuple[bool, Vector | None]:
    """Membership of v in the rational span of basis, with coordinates on success."""
    v = _to_fraction_row(v)
    basis = [_to_fraction_row(b) for b in basis]
    if any(len(b) != len(v) for b in basis):
        raise ValueError("vectors of inconsistent dimensions")
    if not basis:
        return (all(x == 0 for x in v), () if all(x == 0 for x in v) else None)
    # columns are the basis vectors, augmented with v
    aug = RationalMatrix.from_rows(
        [[b[i] for b in basis] + [v[i]] for i in range(len(v))]
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
    rows = [list(r) for r in rows]
    if not rows:
        return ()
    matrix = RationalMatrix.from_rows(rows, cols)
    rref, _ = matrix.rref()
    return rref


def reduce_mod_rows(v: Sequence, rref_rows: Sequence[Vector], pivots: Sequence[int]):
    """Reduce v modulo a row space given in RREF with known pivot columns."""
    v = list(_to_fraction_row(v))
    for row, pc in zip(rref_rows, pivots):
        factor = v[pc]
        if factor:
            for j in range(len(v)):
                v[j] -= factor * row[j]
    return tuple(v)


def pivot_columns_of_rref(rref_rows: Sequence[Vector]) -> tuple[int, ...]:
    pivots = []
    for row in rref_rows:
        for j, x in enumerate(row):
            if x != 0:
                pivots.append(j)
                break
    return tuple(pivots)


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
