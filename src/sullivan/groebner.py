"""Groebner bases over Q for homogeneous ideals, under a fixed grevlex order.

Provides reduced bases (Buchberger), normal forms, the zero-dimensionality
test for homogeneous ideals, Hilbert functions by standard-monomial
counting, Krull dimension of the quotient, and the regular-sequence
decision via codimension.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from numbers import Rational
from typing import Iterable, Sequence

Monomial = tuple[int, ...]


def _grevlex_key(m: Monomial):
    # ascending in this key == ascending in graded reverse-lexicographic order
    return (sum(m), tuple(-e for e in reversed(m)))


def _divides(m1: Monomial, m2: Monomial) -> bool:
    return all(a <= b for a, b in zip(m1, m2))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(a + b for a, b in zip(m1, m2))


def _mono_div(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(a - b for a, b in zip(m1, m2))


def _mono_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(m1, m2))


class PolyRing:
    """Polynomial ring Q[x1..xn] with the grevlex monomial order baked in."""

    __slots__ = ("variables",)

    def __init__(self, variables: Iterable[str]):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("variable names must be unique")
        self.variables = variables

    def __len__(self) -> int:
        return len(self.variables)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyRing) and self.variables == other.variables

    def __hash__(self) -> int:
        return hash(self.variables)

    def __repr__(self) -> str:
        return f"PolyRing({', '.join(self.variables)})"

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * len(self.variables): Fraction(1)})

    def scalar(self, value) -> "Polynomial":
        value = Fraction(value)
        if value == 0:
            return self.zero()
        return Polynomial(self, {(0,) * len(self.variables): value})

    def variable(self, name_or_index) -> "Polynomial":
        if isinstance(name_or_index, int):
            i = name_or_index
        else:
            try:
                i = self.variables.index(name_or_index)
            except ValueError:
                raise KeyError(f"unknown variable {name_or_index!r}") from None
        expo = [0] * len(self.variables)
        expo[i] = 1
        return Polynomial(self, {tuple(expo): Fraction(1)})

    def monomial(self, expo: Sequence[int], coeff=1) -> "Polynomial":
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.zero()
        if len(expo) != len(self.variables) or any(e < 0 for e in expo):
            raise ValueError(f"bad exponent vector {expo!r}")
        return Polynomial(self, {tuple(expo): coeff})

    def from_terms(self, terms: dict[Monomial, Fraction]) -> "Polynomial":
        return Polynomial(self, {tuple(m): Fraction(c) for m, c in terms.items() if c != 0})

    def monomials_of_degree(self, d: int) -> list[Monomial]:
        """All degree-d monomials, descending grevlex."""
        n = len(self.variables)
        if n == 0:
            return [()] if d == 0 else []
        out = []

        def rec(prefix, remaining, slot):
            if slot == n - 1:
                out.append(tuple(prefix + [remaining]))
                return
            for e in range(remaining, -1, -1):
                rec(prefix + [e], remaining - e, slot + 1)

        rec([], d, 0)
        return sorted(out, key=_grevlex_key, reverse=True)


class Polynomial:
    """Sparse multivariate polynomial with Fraction coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[Monomial, Fraction]):
        self.ring = ring
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.terms.items())))

    def _check(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        terms = dict(self.terms)
        for m, c in other.terms.items():
            acc = terms.get(m, 0) + c
            if acc:
                terms[m] = acc
            else:
                terms.pop(m, None)
        return Polynomial(self.ring, terms)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def scale(self, value) -> "Polynomial":
        value = Fraction(value)
        if value == 0:
            return self.ring.zero()
        return Polynomial(self.ring, {m: c * value for m, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Rational):
            return self.scale(other)
        self._check(other)
        terms: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _mono_mul(m1, m2)
                acc = terms.get(m, 0) + c1 * c2
                if acc:
                    terms[m] = acc
                else:
                    terms.pop(m, None)
        return Polynomial(self.ring, terms)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, exponent: int) -> "Polynomial":
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = self.ring.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- structure ------------------------------------------------------

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return max(self.terms, key=_grevlex_key)

    def leading_coefficient(self) -> Fraction:
        return self.terms[self.leading_monomial()]

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.leading_coefficient()
        return self.scale(Fraction(1) / lc)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def homogeneous_part(self, d: int) -> "Polynomial":
        return Polynomial(self.ring, {m: c for m, c in self.terms.items() if sum(m) == d})

    def coefficient(self, mono: Sequence[int]) -> Fraction:
        return self.terms.get(tuple(mono), Fraction(0))

    def derivative(self, var: int) -> "Polynomial":
        terms: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m[var]
            if e == 0:
                continue
            dm = list(m)
            dm[var] = e - 1
            terms[tuple(dm)] = c * e
        return Polynomial(self.ring, terms)

    def compose(self, images: Sequence["Polynomial"]) -> "Polynomial":
        """Substitute images[i] for variable i."""
        if len(images) != len(self.ring.variables):
            raise ValueError("need one image per variable")
        ring = images[0].ring if images else self.ring
        result = ring.zero()
        for m, c in self.terms.items():
            term = ring.scalar(c)
            for i, e in enumerate(m):
                if e:
                    term = term * (images[i] ** e)
            result = result + term
        return result

    def ordered_terms(self) -> list[tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda t: _grevlex_key(t[0]), reverse=True)

    def __repr__(self) -> str:
        from .parsing import render_polynomial

        return f"<{render_polynomial(self)}>"


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    lmf, lmg = f.leading_monomial(), g.leading_monomial()
    l = _mono_lcm(lmf, lmg)
    mf = f.ring.monomial(_mono_div(l, lmf), Fraction(1) / f.leading_coefficient())
    mg = g.ring.monomial(_mono_div(l, lmg), Fraction(1) / g.leading_coefficient())
    return mf * f - mg * g


def _reduce(p: Polynomial, basis: Sequence[Polynomial]) -> Polynomial:
    """Fully reduced remainder of p modulo basis (every term reduced)."""
    ring = p.ring
    remainder: dict[Monomial, Fraction] = {}
    work = p
    while work.terms:
        lm = work.leading_monomial()
        lc = work.terms[lm]
        for g in basis:
            glm = g.leading_monomial()
            if _divides(glm, lm):
                factor = ring.monomial(_mono_div(lm, glm), lc / g.leading_coefficient())
                work = work - factor * g
                break
        else:
            remainder[lm] = lc
            work = Polynomial(ring, {m: c for m, c in work.terms.items() if m != lm})
    return Polynomial(ring, remainder)


class GroebnerBasis:
    """Reduced Groebner basis of a homogeneous ideal under grevlex."""

    __slots__ = ("ring", "generators")

    def __init__(self, ring: PolyRing, generators: Sequence[Polynomial]):
        self.ring = ring
        self.generators = tuple(generators)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.generators == other.generators
        )

    def __repr__(self) -> str:
        return f"GroebnerBasis({len(self.generators)} generators over {self.ring!r})"

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(g.leading_monomial() for g in self.generators)

    def normal_form(self, p: Polynomial) -> Polynomial:
        if p.ring != self.ring:
            raise ValueError("polynomial lives in a different ring")
        return _reduce(p, self.generators)

    def is_zero_ideal(self) -> bool:
        return not self.generators

    def contains_unit(self) -> bool:
        return any(sum(m) == 0 for m in self.leading_monomials())

    def is_finite_dimensional(self) -> bool:
        """Quotient finite-dimensional: every variable has a pure power among the lead terms."""
        n = len(self.ring.variables)
        if n == 0 or self.contains_unit():
            return True
        lms = self.leading_monomials()
        for i in range(n):
            if not any(m[i] > 0 and all(e == 0 for j, e in enumerate(m) if j != i) for m in lms):
                return False
        return True

    def standard_monomials(self, d: int) -> list[Monomial]:
        lms = self.leading_monomials()
        return [m for m in self.ring.monomials_of_degree(d) if not any(_divides(l, m) for l in lms)]

    def hilbert_function(self, max_degree: int) -> tuple[int, ...]:
        return tuple(len(self.standard_monomials(d)) for d in range(max_degree + 1))

    def krull_dimension(self) -> int:
        """Dimension of the quotient: largest variable set supporting no lead term."""
        n = len(self.ring.variables)
        if self.contains_unit():
            return -1
        supports = [frozenset(i for i, e in enumerate(m) if e) for m in self.leading_monomials()]
        best = -1
        for size in range(n, -1, -1):
            for subset in combinations(range(n), size):
                s = frozenset(subset)
                if not any(sup <= s for sup in supports):
                    return size
        return best


def buchberger(polys: Iterable[Polynomial], ring: PolyRing | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by the inputs.

    Zero polynomials are dropped; an empty list yields the zero ideal.
    All inputs must be homogeneous (the only case this package needs).
    """
    polys = [p for p in polys if not p.is_zero()]
    if ring is None:
        if not polys:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring = polys[0].ring
    for p in polys:
        if p.ring != ring:
            raise ValueError("generators live in different rings")
        if not p.is_homogeneous():
            raise ValueError("generators must be homogeneous")
    basis = [p.monic() for p in polys]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop()
        f, g = basis[i], basis[j]
        lmf, lmg = f.leading_monomial(), g.leading_monomial()
        if _mono_lcm(lmf, lmg) == _mono_mul(lmf, lmg):
            continue  # coprime leads: S-polynomial reduces to zero
        r = _reduce(s_polynomial(f, g), basis)
        if r.is_zero():
            continue
        basis.append(r.monic())
        pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # interreduce to the unique reduced basis
    minimal = []
    lms = [g.leading_monomial() for g in basis]
    for i, g in enumerate(basis):
        if any(j != i and _divides(lms[j], lms[i]) and (lms[j] != lms[i] or j < i) for j in range(len(basis))):
            continue
        minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        r = _reduce(g, others) if others else g
        if not r.is_zero():
            reduced.append(r.monic())
    reduced.sort(key=lambda g: _grevlex_key(g.leading_monomial()))
    return GroebnerBasis(ring, reduced)


def is_regular_sequence(polys: Sequence[Polynomial], ring: PolyRing) -> bool:
    """Whether a homogeneous sequence is regular in Q[x1..xn].

    Decided by codimension: a length-k homogeneous sequence is regular iff
    the quotient has Krull dimension n - k.  The empty sequence is regular;
    zero entries or more entries than variables are not.
    """
    polys = list(polys)
    for p in polys:
        if p.ring != ring:
            raise ValueError("sequence entries live in a different ring")
        if not p.is_homogeneous():
            raise ValueError("sequence entries must be homogeneous")
        if p.terms and p.degree() == 0:
            raise ValueError("sequence entries must have positive degree")
    if any(p.is_zero() for p in polys):
        return False
    n = len(ring.variables)
    k = len(polys)
    if k == 0:
        return True
    if k > n:
        return False
    return buchberger(polys, ring).krull_dimension() == n - k
