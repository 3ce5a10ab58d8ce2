"""Exact arithmetic in free graded-commutative algebras over Q.

An algebra is presented by an ordered table of named generators with
positive integer degrees.  Even-degree generators commute and generate a
polynomial algebra, odd-degree generators anticommute and square to zero.
Monomials are exponent tuples aligned with the table; elements are finite
rational linear combinations of monomials with Koszul signs handled during
multiplication.  A whole coefficient is stored as an ``int`` and any other
as a ``Fraction``, never a float: the constructors normalise with
``linalg.rational``, and products of whole coefficients stay ``int``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from operator import add, itemgetter
from typing import Iterable

from .linalg import LinearCombination, Parent, rational


class TableMismatchError(ValueError):
    """Two elements over different generator tables were combined."""


class GeneratorTable(Parent):
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

    def generator(self, name_or_index) -> AlgebraElement:
        i = name_or_index if isinstance(name_or_index, int) else self.index(name_or_index)
        expo = [0] * len(self.names)
        expo[i] = 1
        return AlgebraElement(self, {tuple(expo): 1})

    def element(self, terms: dict[tuple[int, ...], Fraction]) -> AlgebraElement:
        clean = {}
        n = len(self.names)
        for mono, coeff in terms.items():
            coeff = rational(coeff)
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


class AlgebraElement(LinearCombination):
    """Immutable Q-linear combination of monomials over a fixed generator table."""

    __slots__ = ("table", "terms")
    _MISMATCH = (TableMismatchError, "elements live over different generator tables")

    def __init__(self, table: GeneratorTable, terms: dict[tuple[int, ...], Fraction]):
        self.table = table
        self.terms = terms  # owned; never mutated after construction

    @property
    def _parent(self) -> GeneratorTable:
        return self.table

    def _times(self, m1, m2):
        return _mul_monomials(self.table, m1, m2)

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

    def min_word_length(self) -> int | None:
        if not self.terms:
            return None
        return min(sum(m) for m in self.terms)

    # -- presentation ---------------------------------------------------

    def __repr__(self) -> str:
        from .parsing import render_element  # local import to avoid a cycle

        return f"<{render_element(self)}>"


GeneratorTable._element = AlgebraElement


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


def _even_exponent_vectors(weights: tuple[int, ...], total: int) -> list[tuple[int, ...]]:
    """Exponent vectors e with sum(e_i * weights_i) == total, extended one weight at a time."""
    if not weights:
        return [()] if total == 0 else []
    partial = [((), total)]
    for w in weights[:-1]:
        partial = [(v + (e,), r - e * w) for v, r in partial for e in range(r // w + 1)]
    last = weights[-1]
    return [v + (r // last,) for v, r in partial if r % last == 0]


def monomial_basis(table: GeneratorTable, k: int) -> list[tuple[int, ...]]:
    """All monomials of degree k in canonical order (that of sorted_monomials).

    The order is emitted directly: only the even parts are sorted, and each
    is followed by its odd subsets in lex order, all of degree k minus the
    even part's weighted degree.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    degrees = table.degrees
    evens = table.even_indices()
    odds = table.odd_indices()
    subsets_of_degree: dict[int, list[tuple[int, ...]]] = {}
    for size in range(len(odds) + 1):
        for subset in combinations(odds, size):
            s = sum(degrees[i] for i in subset)
            if s <= k:
                subsets_of_degree.setdefault(s, []).append(subset)
    weights = tuple(degrees[i] for i in evens)
    parts = []
    for s, subsets in subsets_of_degree.items():
        subsets.sort()
        parts.extend(((-sum(v), v[::-1]), v, subsets) for v in _even_exponent_vectors(weights, k - s))
    # each even part has one weighted degree, hence one group of subsets: the keys are distinct
    parts.sort(key=itemgetter(0))
    n = len(degrees)
    out = []
    for _, vec, subsets in parts:
        even = [0] * n
        for i, e in zip(evens, vec):
            even[i] = e
        for subset in subsets:
            mono = even.copy()
            for i in subset:
                mono[i] = 1
            out.append(tuple(mono))
    return out
