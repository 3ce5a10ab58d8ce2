"""Exact arithmetic in free graded-commutative algebras over Q.

An algebra is presented by an ordered table of named generators with
positive integer degrees.  Even-degree generators commute and generate a
polynomial algebra, odd-degree generators anticommute and square to zero.
Monomials are exponent tuples aligned with the table; elements are finite
Fraction-linear combinations of monomials with Koszul signs handled during
multiplication.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from numbers import Rational
from operator import add
from typing import Iterable, Iterator


class TableMismatchError(ValueError):
    """Two elements over different generator tables were combined."""


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise TypeError(f"expected a rational coefficient, got {value!r}")


class GeneratorTable:
    """Ordered table of generators; the order fixes all canonical monomial orders."""

    __slots__ = ("names", "degrees", "_positions", "_even", "_odd")

    def __init__(self, entries: Iterable[tuple[str, int]]):
        names = []
        degrees = []
        for name, degree in entries:
            if not isinstance(name, str) or not name:
                raise ValueError(f"generator name must be a nonempty string, got {name!r}")
            if not isinstance(degree, int) or degree < 1:
                raise ValueError(f"generator {name!r} must have integer degree >= 1, got {degree!r}")
            names.append(name)
            degrees.append(degree)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        self.names = tuple(names)
        self.degrees = tuple(degrees)
        self._positions = {name: i for i, name in enumerate(names)}
        self._even = tuple(i for i, d in enumerate(degrees) if d % 2 == 0)
        self._odd = tuple(i for i, d in enumerate(degrees) if d % 2 == 1)

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GeneratorTable)
            and self.names == other.names
            and self.degrees == other.degrees
        )

    def __hash__(self) -> int:
        return hash((self.names, self.degrees))

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}:{d}" for n, d in zip(self.names, self.degrees))
        return f"GeneratorTable({inner})"

    def index(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise KeyError(f"unknown generator {name!r}") from None

    def even_indices(self) -> tuple[int, ...]:
        return self._even

    def odd_indices(self) -> tuple[int, ...]:
        return self._odd

    # -- element constructors ----------------------------------------

    def zero(self) -> AlgebraElement:
        return AlgebraElement(self, {})

    def one(self) -> AlgebraElement:
        return AlgebraElement(self, {(0,) * len(self.names): Fraction(1)})

    def scalar(self, value) -> AlgebraElement:
        value = _as_fraction(value)
        if value == 0:
            return self.zero()
        return AlgebraElement(self, {(0,) * len(self.names): value})

    def generator(self, name_or_index) -> AlgebraElement:
        i = name_or_index if isinstance(name_or_index, int) else self.index(name_or_index)
        expo = [0] * len(self.names)
        expo[i] = 1
        return AlgebraElement(self, {tuple(expo): Fraction(1)})

    def element(self, terms: dict[tuple[int, ...], Fraction]) -> AlgebraElement:
        clean = {}
        n = len(self.names)
        for mono, coeff in terms.items():
            coeff = _as_fraction(coeff)
            if coeff == 0:
                continue
            if len(mono) != n:
                raise ValueError(f"monomial {mono!r} does not match table size {n}")
            for i, e in enumerate(mono):
                if e < 0 or (self.degrees[i] % 2 == 1 and e > 1):
                    raise ValueError(f"invalid exponent {e} for generator {self.names[i]!r}")
            clean[tuple(mono)] = coeff
        return AlgebraElement(self, clean)

    # -- monomial helpers --------------------------------------------

    def monomial_degree(self, mono: tuple[int, ...]) -> int:
        return sum(e * d for e, d in zip(mono, self.degrees))

    def monomial_word_length(self, mono: tuple[int, ...]) -> int:
        return sum(mono)


def _mul_monomials(table: GeneratorTable, m1, m2):
    """Product of two monomials: (sign, monomial) or None when an odd factor repeats.

    The sign counts inversions between the odd factors of m1 and m2; odd
    generators all have odd degree, so each transposition contributes -1.
    """
    sign = 1
    later_m1_odds = 0
    for i in reversed(table.odd_indices()):
        if m1[i]:
            if m2[i]:
                return None
            later_m1_odds += 1
        elif m2[i] and later_m1_odds % 2:
            # this odd factor of m2 must jump over every later odd factor of m1
            sign = -sign
    return sign, tuple(map(add, m1, m2))


class AlgebraElement:
    """Immutable Q-linear combination of monomials over a fixed generator table."""

    __slots__ = ("table", "terms")

    def __init__(self, table: GeneratorTable, terms: dict[tuple[int, ...], Fraction]):
        self.table = table
        self.terms = terms  # owned; never mutated after construction

    # -- basics -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, AlgebraElement)
            and self.table == other.table
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.table, frozenset(self.terms.items())))

    def _check(self, other: AlgebraElement) -> None:
        if self.table != other.table:
            raise TableMismatchError("elements live over different generator tables")

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: AlgebraElement) -> AlgebraElement:
        self._check(other)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = terms.get(mono, 0) + coeff
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
        return AlgebraElement(self.table, terms)

    def __neg__(self) -> AlgebraElement:
        return AlgebraElement(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: AlgebraElement) -> AlgebraElement:
        return self + (-other)

    def scale(self, value) -> AlgebraElement:
        value = _as_fraction(value)
        if value == 0:
            return self.table.zero()
        return AlgebraElement(self.table, {m: c * value for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return multiply(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, exponent: int) -> AlgebraElement:
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.table.one()
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return result

    # -- degree -------------------------------------------------------

    def degree(self):
        """Common degree of all terms, the string "mixed", or "zero"."""
        if not self.terms:
            return "zero"
        degs = {self.table.monomial_degree(m) for m in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return "mixed"

    def is_homogeneous(self) -> bool:
        return self.degree() != "mixed"

    def homogeneous_part(self, k: int) -> AlgebraElement:
        table = self.table
        return AlgebraElement(
            table, {m: c for m, c in self.terms.items() if table.monomial_degree(m) == k}
        )

    def coefficient(self, mono: tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def min_word_length(self) -> int | None:
        if not self.terms:
            return None
        return min(sum(m) for m in self.terms)

    # -- presentation ---------------------------------------------------

    def ordered_terms(self) -> list[tuple[tuple[int, ...], Fraction]]:
        monos = sorted_monomials(self.table, self.terms)
        return [(m, self.terms[m]) for m in monos]

    def __repr__(self) -> str:
        from .parsing import render_element  # local import to avoid a cycle

        return f"<{render_element(self)}>"


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """Graded-commutative product with Koszul signs."""
    if a.table != b.table:
        raise TableMismatchError("elements live over different generator tables")
    table = a.table
    terms: dict[tuple[int, ...], Fraction] = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            prod = _mul_monomials(table, m1, m2)
            if prod is None:
                continue
            sign, mono = prod
            acc = terms.get(mono, 0) + sign * c1 * c2
            if acc:
                terms[mono] = acc
            else:
                terms.pop(mono, None)
    return AlgebraElement(table, terms)


def sorted_monomials(table: GeneratorTable, monos) -> list[tuple[int, ...]]:
    """Canonical order: degree, then even part by descending grevlex, then odd part lex."""
    evens = table.even_indices()
    odds = table.odd_indices()

    def key(m):
        even_part = tuple(m[i] for i in evens)
        odd_part = tuple(i for i in odds if m[i])
        # ascending sort of this key walks the even parts in descending grevlex
        return (table.monomial_degree(m), -sum(even_part), tuple(reversed(even_part)), odd_part)

    return sorted(monos, key=key)


def _even_exponent_vectors(weights: tuple[int, ...], total: int) -> Iterator[tuple[int, ...]]:
    if not weights:
        if total == 0:
            yield ()
        return
    head = weights[0]
    for e in range(total // head + 1):
        for rest in _even_exponent_vectors(weights[1:], total - e * head):
            yield (e,) + rest


def monomial_basis(table: GeneratorTable, k: int) -> list[tuple[int, ...]]:
    """All monomials of degree k in canonical order."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    evens = table.even_indices()
    odds = table.odd_indices()
    even_weights = tuple(table.degrees[i] for i in evens)
    n = len(table.names)
    out = []
    for size in range(len(odds) + 1):
        for subset in combinations(odds, size):
            rem = k - sum(table.degrees[i] for i in subset)
            if rem < 0:
                continue
            for even_vec in _even_exponent_vectors(even_weights, rem):
                mono = [0] * n
                for i in subset:
                    mono[i] = 1
                for pos, e in zip(evens, even_vec):
                    mono[pos] = e
                out.append(tuple(mono))
    return sorted_monomials(table, out)
