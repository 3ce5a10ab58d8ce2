"""Groebner bases over Q for homogeneous ideals, under a fixed grevlex order.

A ``Polynomial`` stores each whole coefficient as an ``int`` and any other
as a ``Fraction``, never a float, and no zero one; its constructor and the
ring's normalise with ``linalg.rational``, and bases and normal forms
divide over ``int``.

Provides reduced bases (Buchberger), normal forms, the Hilbert function,
Krull dimension and multiplicity of the quotient, the finiteness test and
the regular-sequence decision.  Reduction is fraction-free, on primitive
integer terms.  The pair loop starts from the inputs, each reduced by the
earlier ones when an earlier lead divides its lead, so a duplicate drops
out, and it queues only pairs whose leads share a variable.  It stops
once its leads contain every monomial of the degree of the least pending
pair, as every pair left would then reduce to zero; only the leads of a
finite quotient can do that.  The basis keeps that degree as `covered`.
A basis whose leads include 1 or a pure power of every variable, as the
leads of a finite quotient do, carries such a degree however its loop
ends.  From `covered` on every reading is known without work: a normal
form, standard monomial, coordinate or Hilbert value there is zero.  All
Hilbert data is read from the Hilbert series of the lead-term ideal,
whose numerator comes from the Bayer-Stillman recursion on the packed
leads, cut at the degree whose Hilbert values are asked for, or below
`covered`.

Finiteness of the quotient (and so a regular sequence of n forms in n
variables) needs no reduced basis: a finite quotient of forms of degrees
d1 >= d2 >= ... vanishes from degree (d1 - 1) + ... + (dn - 1) + 1 on
(Lazard, EUROCAL '83, LNCS 162), so a Buchberger run stopped at that
degree has the leads that decide it.  A run, stopped at a degree or not,
is kept as a `GroebnerBasis`, which reads Hilbert values and normal forms
up to that degree; only `buchberger` interreduces it.

Inside the engine (the pair loop, S-polynomials, reduction, interreduction,
the finiteness test, normal forms and Hilbert data) each monomial is one
``int``, packed as in Monagan and Pearce, "Polynomial division using dynamic
arrays, heaps, and packed exponent vectors" (CASC 2007, LNCS 4770).  Every
field has `width` value bits and a guard bit on top.  The low n fields hold
the exponents of x1..xn, and the high n fields their prefix sums x1,
x1 + x2, ..., with the degree highest.  The prefix sums decide grevlex, so
integer ``<`` is the monomial order, a product is ``+``, b divided by a is
``b - a``, and a divides b exactly when ``b - a`` has no exponent guard bit
set.  The width is worked out from the inputs: at least `_MIN_WIDTH`, and
enough for twice the largest input degree and for the cap in the pair loop.
A pair whose lcm outgrows the width restarts the pair loop at twice the
width, and a normal form, standard monomial or coordinate asked in a
degree that outgrows a basis's width packs its generators again, wide
enough (`_pack`).  A normal form drops, unreduced, every term of degree
`covered` or more.
The public ``Polynomial`` and ``GroebnerBasis`` API keeps tuple exponent
vectors; monomials are packed on the way in and unpacked on the way out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import comb, gcd
from operator import add, neg
from typing import Iterable, Sequence

from .algebra import _even_exponent_vectors
from .linalg import LinearCombination, Parent, _clear_denominators, _primitive, _ratio, rational

Monomial = tuple[int, ...]


def _grevlex_key(m: Monomial):
    # ascending in this key == ascending in graded reverse-lexicographic order
    return (sum(m), tuple(map(neg, reversed(m))))


# the least number of value bits per packed field: degrees up to 127 in
# fields of one byte
_MIN_WIDTH = 7


def _width(degree: int) -> int:
    """Value bits per field for packed monomials of degree at most `degree`."""
    return max(_MIN_WIDTH, degree.bit_length())


class _Packing:
    """Monomials in n variables as one ``int`` each, with `width` value bits
    and a guard bit per field (see the module docstring).  Every packed
    monomial has degree below 2**width; products of two of them and their
    lcm stay exact in their fields, whose guard bits then show the overflow."""

    __slots__ = ("n", "width", "field", "mask", "guard", "low", "spread", "full", "degree_shift")

    def __init__(self, n: int, width: int):
        self.n = n
        self.width = width
        self.field = field = width + 1
        self.mask = (1 << width) - 1  # the value bits of a field
        ones = sum(1 << (field * i) for i in range(n))
        self.guard = ones << width  # the guard bits of the exponent fields
        self.low = (1 << (field * n)) - 1  # the exponent fields
        # e * spread, cut to 2n fields, puts the prefix sums of the exponent
        # fields e above them
        self.spread = (ones << (field * n)) | 1
        self.full = (1 << (2 * field * n)) - 1
        self.degree_shift = field * max(2 * n - 1, 0)

    def pack(self, m: Monomial) -> int:
        e = 0
        for x in reversed(m):
            e = (e << self.field) | x
        return (e * self.spread) & self.full

    def unpack(self, k: int) -> Monomial:
        return tuple((k >> (self.field * i)) & self.mask for i in range(self.n))

    def degree(self, k: int) -> int:
        return k >> self.degree_shift

    def lcm(self, a: int, b: int) -> int:
        """The packed lcm: a guard bit set in (a | guard) - b marks a field
        where a's exponent is at least b's, and there the field of the
        difference is added to b."""
        a &= self.low
        b &= self.low
        diff = (a | self.guard) - b
        at_least = diff & self.guard
        return ((b + (diff & (at_least - (at_least >> self.width)))) * self.spread) & self.full

    def support(self, k: int) -> int:
        """The guard bits of the nonzero exponent fields of k: v + 2**width − 1 sets the guard bit iff v > 0."""
        return ((k & self.low) + self.guard - (self.guard >> self.width)) & self.guard

    def pack_terms(self, terms: dict[Monomial, Fraction]) -> dict[int, Fraction]:
        return {self.pack(m): c for m, c in terms.items()}


class PolyRing(Parent):
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
        return Polynomial._exact(self, {tuple(expo): 1})

    def monomial(self, expo: Sequence[int], coeff=1) -> "Polynomial":
        coeff = rational(coeff)
        if coeff == 0:
            return self.zero()
        return Polynomial._exact(self, {self._exponents(expo): coeff})

    def _exponents(self, expo: Sequence[int]) -> Monomial:
        """expo as a tuple; ValueError unless it has one ``int`` exponent >= 0 per variable."""
        m = tuple(expo)
        if len(m) != len(self.variables) or [e for e in m if type(e) is not int or e < 0]:
            raise ValueError(f"bad exponent vector {expo!r}")
        return m

    def from_terms(self, terms: dict[Monomial, Fraction]) -> "Polynomial":
        return Polynomial(self, terms)

    def monomials_of_degree(self, d: int) -> list[Monomial]:
        """All degree-d monomials, descending grevlex."""
        return sorted(_even_exponent_vectors((1,) * len(self.variables), d), key=_grevlex_key, reverse=True)


class Polynomial(LinearCombination):
    """Sparse multivariate polynomial with rational coefficients: ``int``
    when whole, ``Fraction`` otherwise.

    The constructor, which ``PolyRing.from_terms`` calls, checks each
    monomial (``PolyRing._exponents``: ``ValueError`` unless it has one
    ``int`` exponent >= 0 per variable), normalises each coefficient with
    ``linalg.rational`` (``TypeError`` on a float) and drops the zero ones.
    Arithmetic and the engine, whose terms are exact and nonzero already,
    build through `_exact`, which takes them as they are."""

    __slots__ = ("ring", "terms")
    _MISMATCH = (ValueError, "polynomials live in different rings")

    def __init__(self, ring: PolyRing, terms: dict[Monomial, Fraction]):
        self.ring = ring
        self.terms = out = {}
        exponents = ring._exponents
        for m, c in terms.items():
            m = exponents(m)
            if c := rational(c):
                out[m] = c

    @classmethod
    def _exact(cls, ring: PolyRing, terms: dict[Monomial, int | Fraction]) -> "Polynomial":
        """The polynomial of exact nonzero `terms`, which it keeps as they are."""
        p = object.__new__(cls)
        p.ring = ring
        p.terms = terms
        return p

    def _new(self, terms: dict) -> "Polynomial":
        return self._exact(self.ring, terms)

    @property
    def _parent(self) -> PolyRing:
        return self.ring

    def _times(self, m1: Monomial, m2: Monomial) -> tuple[int, Monomial]:
        return 1, tuple(map(add, m1, m2))

    # -- structure ------------------------------------------------------

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading monomial")
        return max(self.terms, key=_grevlex_key)

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.terms}
        return len(degs) <= 1

    def derivative(self, var: int) -> "Polynomial":
        terms: dict[Monomial, Fraction] = {}
        for m, c in self.terms.items():
            e = m[var]
            if e == 0:
                continue
            dm = list(m)
            dm[var] = e - 1
            terms[tuple(dm)] = rational(c * e)
        return self._new(terms)

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

    def __repr__(self) -> str:
        from .parsing import render_polynomial

        return f"<{render_polynomial(self)}>"


PolyRing._element = Polynomial._exact  # its constants are exact and nonzero


def _s_polynomial(f: dict[int, int], lf: int, g: dict[int, int], lg: int, lcm: int) -> dict[int, int]:
    """Terms of a·(lcm/lf)·f − b·(lcm/lg)·g for integer f and g on packed
    monomials with leading monomials lf and lg, where a and b are their
    leading coefficients divided by their gcd, crosswise, so that the
    leading terms cancel."""
    d = gcd(f[lf], g[lg])
    a, b = g[lg] // d, f[lf] // d
    shift = lcm - lf
    work = {m + shift: a * c for m, c in f.items() if m != lf}
    shift = lcm - lg
    for m, c in g.items():
        if m != lg:
            m += shift
            c = work.get(m, 0) - b * c
            if c:
                work[m] = c
            else:
                del work[m]
    return work


def _reduce(
    work: dict[int, int], basis: Sequence[dict[int, int]], leads: Sequence[int], guard: int
) -> tuple[dict[int, int], int]:
    """Fully reduced remainder of the integer terms `work` modulo basis, and
    the factor by which it is a multiple of the true remainder.  Monomials
    are packed, with exponent guard bits `guard`.  The basis elements are
    primitive integer terms with positive coefficients at their leading
    monomials `leads` (`linalg._primitive` with its lead), so no scaling is
    by a negative factor and a monic element needs none; `work` is
    consumed in place.

    Fraction-free: to remove a term c·x^lm by a basis element g, what is
    left of `work` and the remainder so far are scaled by a = lc(g)/gcd,
    and b·x^shift·g is subtracted, b = c/gcd; the factor returned is the
    product of the a's.  Terms are taken largest first from a heap of
    negated packed monomials.  Subtracting a multiple of a basis element
    only creates terms below the one removed, so a heap entry whose term
    has since cancelled is simply skipped, and the remainder comes back with
    its terms in descending order.
    """
    remainder: dict[int, int] = {}
    multiplier = 1
    heap = [-m for m in work]
    heapify(heap)
    while heap:
        lm = -heappop(heap)
        c = work.pop(lm, None)
        if c is None:
            continue
        for g, glm in zip(basis, leads):
            shift = lm - glm
            if not shift & guard:
                break
        else:
            remainder[lm] = c
            continue
        d = gcd(c, g[glm])
        a, b = g[glm] // d, c // d
        if a != 1:
            multiplier *= a
            work = {m: a * x for m, x in work.items()}
            remainder = {m: a * x for m, x in remainder.items()}
        for m, x in g.items():
            if m == glm:
                continue
            m += shift
            x = b * x
            old = work.get(m)
            if old is None:
                work[m] = -x
                heappush(heap, -m)
            elif old == x:
                del work[m]
            else:
                work[m] = old - x
    return remainder, multiplier


def _minimal(leads: Iterable[int], guard: int) -> list[int]:
    """Minimal generators, no one dividing another, of the ideal of the packed `leads` with exponent
    guard bits `guard`.  Ascending packed order is grevlex, which refines degree, so divisors come first."""
    out: list[int] = []
    for m in sorted(set(leads)):
        if all((m - g) & guard for g in out):
            out.append(m)
    return out


def _shifted_sum(p: dict[int, int], q: dict[int, int], shift: int, sign: int, top: int) -> dict[int, int]:
    """p + sign·t^shift·q mod t^(top + 1), p of degree at most top, on polynomials in t as {exponent: coefficient}."""
    out = dict(p)
    for k, c in q.items():
        k += shift
        if k > top:
            continue
        c = out.get(k, 0) + sign * c
        if c:
            out[k] = c
        else:
            del out[k]
    return out


def _hilbert_numerator(leads: Iterable[int], code: _Packing, top: int) -> dict[int, int]:
    """K(t) mod t^(top + 1) as {exponent: nonzero coefficient}, empty when
    it is 0, where K(t)/(1 − t)^n is the Hilbert series of Q[x1..xn] modulo
    the monomial ideal generated by the leads, packed by `code`.  K mod
    t^(top + 1) is fixed by the Hilbert values up to top, which the leads of
    degree above top leave alone, so every such lead is dropped, and the
    minimal generators of the rest go to `_minimal_numerator`.

    Weights come free.  Let every x_i-exponent of the leads be a multiple
    of a positive w_i, and give x_i weight w_i.  Then K(t)/prod (1 − t^{w_i})
    is the Hilbert series of Q[x] modulo the leads divided by w: the
    recursion picks only such exponents e, and x^{w·a} has degree the
    weighted degree of x^a, so it runs step for step as it would on the
    leads divided by w in the weighted grading (`_hilbert_values` expands it).
    """
    if top < 0:
        return {}  # no degree up to top
    limit = (top + 1) << code.degree_shift  # the least packed monomial of degree above top
    return _minimal_numerator(_minimal([g for g in leads if g < limit], code.guard), code, top)


def _minimal_numerator(gens: list[int], code: _Packing, top: int) -> dict[int, int]:
    """`_hilbert_numerator` of minimal generators `gens` of degree at most
    top >= 0, in ascending packed order, by the recursion of Bayer and
    Stillman (JSC 1992): K(I + (m)) = K(I) − t^{deg m}·K(I : m) for every
    monomial m, with every term above top dropped.

    Pairwise coprime generators, whose supports (`_Packing.support`) share
    no bit, give prod (1 − t^{deg}).  Otherwise m = x_i^e, with x_i in the
    most generators (the lowest i on a tie) and e its least positive
    exponent among them: then I + (m) is (m) plus the generators free of
    x_i, coprime to m and still minimal, and I : m lowers every x_i-exponent
    by e, which frees at least one generator of x_i, so the recursion ends.
    Only the colon is filtered at top − e and made minimal again.
    """
    if gens and not gens[0]:
        return {}  # the unit ideal
    supports = list(map(code.support, gens))
    seen = shared = 0  # the variables of some generator, and of two
    for support in supports:
        shared |= seen & support
        seen |= support
    if not shared:
        numerator = {0: 1}
        for g in gens:
            numerator = _shifted_sum(numerator, numerator, code.degree(g), -1, top)
        return numerator
    best = 0
    while shared:
        bit = shared & -shared  # lowest index first, so a tie keeps it
        if (count := sum(1 for support in supports if support & bit)) > best:
            best, pivot = count, bit
        shared ^= bit
    s = (pivot >> code.width).bit_length() - 1  # the shift of x_i's field
    fields = [g >> s & code.mask for g in gens]
    e = min(x for x in fields if x)
    unit = ((1 << s) * code.spread) & code.full  # x_i packed
    free = _minimal_numerator([g for g, x in zip(gens, fields) if not x], code, top)
    colon = _hilbert_numerator([g - min(x, e) * unit for g, x in zip(gens, fields)], code, top - e)
    return _shifted_sum(_shifted_sum(free, free, e, -1, top), colon, e, 1, top)


def _hilbert_values(numerator: dict[int, int], weights: Sequence[int], max_degree: int) -> list[int]:
    """The coefficients of t^0..t^max_degree in K(t)/prod (1 − t^{w_i}):
    one running sum with stride w_i per weight."""
    values = [numerator.get(k, 0) for k in range(max_degree + 1)]
    for w in weights:
        for k in range(w, max_degree + 1):
            values[k] += values[k - w]
    return values


def _covered(d: int, powers: dict[int, int], others: list[int], code: _Packing, budget: int) -> bool:
    """Whether every monomial of degree d, below 2**width, is a multiple of
    a lead; False also when more than `budget` monomials would have to be
    looked at.  The leads are filed as `_pairs` files them: `powers` maps
    the support bit of x_i to the least a with x_i^a a lead, and 0 to 0 for
    the lead 1, and `others` holds the leads that are neither.

    The test needs 1, or a pure power of every variable, among the leads (a
    finite quotient has them): x_i^d is standard when x_i has no pure
    power, and 1 is when there are no variables.  With x_i^{a_i} the least
    pure power of x_i among the leads, only the e with e_i < a_i for every i
    can be standard, and there is none of degree d when d exceeds the sum
    of the a_i − 1.  Otherwise each monomial of degree d in that box is
    looked at, in one pass over `others`; past `budget` of them the test
    gives up.
    """
    if 0 in powers:
        return True  # the unit ideal
    n = code.n
    if not n or len(powers) < n:
        return False
    tops = [powers[1 << (code.field * i + code.width)] - 1 for i in range(n)]
    if d > sum(tops):
        return True
    after = [sum(tops[i + 1 :]) for i in range(n)]  # the room left past x_i
    units = [((1 << code.field * i) * code.spread) & code.full for i in range(n)]  # x_i packed
    guard = code.guard

    def points(i: int, r: int, k: int):
        # k times each monomial of degree r in the box on the variables
        # from index i on; e_i leaves no more than the room past it, so
        # every branch ends in a point
        if i == n - 1:
            yield k + r * units[i]
            return
        for e in range(max(0, r - after[i]), min(tops[i], r) + 1):
            yield from points(i + 1, r - e, k + e * units[i])

    for k in points(0, d, 0):
        if not budget or all((k - g) & guard for g in others):
            return False  # a standard monomial, or the budget spent
        budget -= 1
    return True


@dataclass(slots=True, eq=False)
class GroebnerBasis:
    """Q[x1..xn] modulo a homogeneous ideal, held as a Groebner basis under
    grevlex: primitive integer terms on packed monomials, with their packing
    and packed leads.  `buchberger` interreduces it to the reduced basis;
    `_pair_loop` returns it not interreduced: the inputs, each reduced by
    the earlier ones when an earlier lead divides its lead, and the reduced
    S-polynomials.  Normal forms and
    Hilbert data depend only on the lead ideal, so they read the same off
    either.  A pair loop capped at D has the leads of the ideal up to
    degree D, so its readings are exact up to D, and the Hilbert values of
    a finite quotient (`_finite_basis`) in every degree.  A pair loop that
    ends because its leads cover a whole degree (`_pairs`) holds the same
    basis as one run to the end.

    `covered`, when not None, is a degree from which every monomial is a
    multiple of a lead: the degree at which `_pairs` stopped by coverage,
    or else the one past the box of the pure-power leads.  A monomial of
    degree d + 1 is a multiple of one of degree d, so every higher degree
    is covered too.  Each reading in such a degree answers with no
    enumeration and no reduction: the normal form drops the component,
    there is no standard monomial, a coordinate is 0 and a Hilbert value
    is 0.  `_pairs` leaves it None exactly when some variable has no pure
    power among the leads and 1 is not one; on a full basis, that is when
    the quotient is not finite.  Only the engine sets it (`_pairs`, and the
    bases that keep its leads: `buchberger` and `_fitting`), and no
    reading checks it: a degree set too low makes those readings wrong.
    `_pack` of arbitrary inputs leaves it None, and every reading below
    `covered`, or with none, reduces or enumerates."""

    ring: PolyRing
    code: _Packing
    basis: list[dict[int, int]]
    leads: list[int]
    covered: int | None = field(default=None, kw_only=True)

    def __eq__(self, other) -> bool:
        """The same ring and generators, in order: for reduced bases, the same ideal."""
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and self.generators == other.generators
        )

    def __repr__(self) -> str:
        return f"GroebnerBasis({len(self.basis)} generators over {self.ring!r})"

    @property
    def generators(self) -> tuple[Polynomial, ...]:
        """The basis as monic polynomials."""
        unpack = self.code.unpack
        return tuple(
            Polynomial._exact(self.ring, {unpack(m): _ratio(c, g[lead]) for m, c in g.items()})
            for g, lead in zip(self.basis, self.leads)
        )

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(map(self.code.unpack, self.leads))

    def _fitting(self, degree: int) -> GroebnerBasis:
        """This basis, or, when degree outgrows its packing, its generators packed wide enough for it."""
        width = _width(degree)
        return self if width <= self.code.width else _pack(self.generators, self.ring, width, self.covered)

    def _past_covered(self, d: int) -> bool:
        """Whether d is at least the `covered` degree, where every reading is zero."""
        return self.covered is not None and d >= self.covered

    def normal_form(self, p: Polynomial) -> Polynomial:
        """The remainder of p on division by the basis, in which no lead divides a term.

        The terms of degree `covered` or more are dropped, and the rest go
        to one `_reduce`; when nothing is left the result is zero with no
        reduction at all.  The result is the same as that of reducing all
        of p.  Every basis element is homogeneous, so a step of `_reduce`
        on a term of degree d subtracts only terms of degree d, and the
        degrees never mix.  When every monomial of degree d is divisible by
        a lead, no degree-d term ever reaches the remainder.  That holds
        for any list of homogeneous elements, a Groebner basis or not, such
        as a capped `_pair_loop`.  The other terms reduce as before; the
        remainder's values are exact rationals, so they are unchanged in
        value and in ``int`` or ``Fraction`` type.
        """
        if p.ring != self.ring:
            raise ValueError("polynomial lives in a different ring")
        terms = {m: c for m, c in p.terms.items() if not self._past_covered(sum(m))}
        if not terms:
            return self.ring.zero()
        q = self._fitting(max(map(sum, terms)))
        work, den = _clear_denominators(q.code.pack_terms(terms))
        remainder, multiplier = _reduce(work, q.basis, q.leads, q.code.guard)
        den *= multiplier
        return Polynomial._exact(self.ring, {q.code.unpack(m): _ratio(c, den) for m, c in remainder.items()})

    def is_finite_dimensional(self) -> bool:
        """Whether the quotient is a finite-dimensional vector space."""
        return self.krull_dimension() <= 0

    def is_standard(self, m: Monomial) -> bool:
        """Whether no lead divides the monomial m; ValueError unless m is an exponent vector of the ring."""
        m = self.ring._exponents(m)
        return self._fitting(sum(m))._standard(m)

    def _standard(self, m: Monomial) -> bool:
        """`is_standard` of an exponent vector of degree below 2**width."""
        k = self.code.pack(m)
        return all((k - lead) & self.code.guard for lead in self.leads)

    def standard_monomials(self, d: int) -> list[Monomial]:
        """The monomials of degree d that no lead divides, descending grevlex; from `covered` on there
        are none, and that is told with no enumeration."""
        if self._past_covered(d):
            return []
        return list(filter(self._fitting(d)._standard, self.ring.monomials_of_degree(d)))

    def coordinate(self, m: Monomial) -> int | Fraction:
        """The normal form of the monomial m, in a degree of dimension at most one, as a multiple of
        its standard monomial: the sum of `_reduce`'s remainder over its multiplier, and 0 in a degree
        from `covered` on.  ValueError unless m is an exponent vector of the ring."""
        return self._coordinate(self.ring._exponents(m))

    def _coordinate(self, m: Monomial) -> int | Fraction:
        """`coordinate` of an exponent vector of the ring."""
        d = sum(m)
        if self._past_covered(d):
            return 0
        q = self._fitting(d)
        remainder, multiplier = _reduce({q.code.pack(m): 1}, q.basis, q.leads, q.code.guard)
        return _ratio(sum(remainder.values()), multiplier)

    def hilbert_function(self, max_degree: int, weights: Sequence[int] | None = None) -> tuple[int, ...]:
        """Dimensions of the quotient in degrees 0..max_degree, from the series K(t)/prod (1 − t^{w_i})
        with K truncated there, x_i of weight weights[i] (1 by default) dividing every x_i-exponent of
        the leads (`_hilbert_numerator`); ValueError unless there is one positive ``int`` weight per
        variable, each dividing.  Every value from `covered` on is 0, so K is cut below it and the
        rest is zeros: K mod t^(top + 1) is fixed by the values up to top."""
        n = self.code.n
        if weights is None:
            weights = (1,) * n
        elif len(weights) != n or not all(type(w) is int and w > 0 for w in weights):
            raise ValueError(f"need one positive integer weight for each of the {n} variables, got {weights!r}")
        if max(weights, default=1) > 1 and any(  # every exponent is a multiple of 1
            e % w for lead in map(self.code.unpack, self.leads) for e, w in zip(lead, weights)
        ):
            raise ValueError("a weight does not divide an exponent of its variable in the leading monomials")
        top = max_degree if self.covered is None else min(max_degree, self.covered - 1)
        values = _hilbert_values(_hilbert_numerator(self.leads, self.code, top), weights, top)
        return tuple(values) + (0,) * (max_degree - top)

    def _order_at_one(self) -> tuple[int, int] | None:
        """(s, Q(1)) with K(t) = (1 − t)^s·Q(t) and Q(1) ≠ 0 for the whole numerator K, of degree at most
        the sum of the lead degrees; None for K = 0.  The j-th Taylor coefficient of K at t = 1 is the sum
        of c·C(k, j) over its terms c·t^k, and the s-th, the first nonzero one, is (−1)^s·Q(1)."""
        numerator = _hilbert_numerator(self.leads, self.code, sum(map(self.code.degree, self.leads)))
        if not numerator:
            return None
        s = 0
        while not (value := sum(c * comb(k, s) for k, c in numerator.items())):
            s += 1
        return s, (-1) ** s * value

    def krull_dimension(self) -> int:
        """Dimension of the quotient: n minus the order of t = 1 as a root of
        K(t), the Hilbert series numerator; -1 for the unit ideal."""
        order = self._order_at_one()
        return -1 if order is None else self.code.n - order[0]

    def multiplicity(self) -> int:
        """Degree of the quotient: Q(1), where K(t) = (1 − t)^(n − dim)·Q(t)
        is the Hilbert series numerator.  That is the vector-space dimension
        when it is finite, and otherwise (dim − 1)! times the leading
        coefficient of the Hilbert polynomial; 0 for the unit ideal."""
        order = self._order_at_one()
        return 0 if order is None else order[1]


def _form_degree(p: Polynomial) -> int | None:
    """The degree of p when it is homogeneous, -1 when it is zero, and None otherwise."""
    degrees = {sum(m) for m in p.terms}
    if len(degrees) > 1:
        return None
    return degrees.pop() if degrees else -1


def _checked(polys: Iterable[Polynomial], ring: PolyRing | None) -> tuple[list[Polynomial], PolyRing, list[int]]:
    """The nonzero inputs, their ring and their degrees, after checking that
    they share the ring and are homogeneous."""
    polys = [p for p in polys if not p.is_zero()]
    if ring is None:
        if not polys:
            raise ValueError("cannot infer the ring from an empty generator list")
        ring = polys[0].ring
    degrees = []
    for p in polys:
        if p.ring != ring:
            raise ValueError("generators live in different rings")
        if (degree := _form_degree(p)) is None:
            raise ValueError("generators must be homogeneous")
        degrees.append(degree)
    return polys, ring, degrees


def _pack(polys: Sequence[Polynomial], ring: PolyRing, width: int, covered: int | None = None) -> GroebnerBasis:
    """The nonzero polynomials of degree below 2**width as they are, each
    as primitive integer terms packed `width` bits wide: a Groebner basis
    when they are one, and the inputs that `_pairs` starts from.  It
    carries the degree `covered` only when given one, by a basis that
    proved it for these leads."""
    code = _Packing(len(ring.variables), width)
    terms = [_clear_denominators(code.pack_terms(p.terms))[0] for p in polys]
    leads = list(map(max, terms))
    return GroebnerBasis(ring, code, list(map(_primitive, terms, leads)), leads, covered=covered)


def _pair_loop(
    polys: Iterable[Polynomial], ring: PolyRing | None, cap: int | None = None, degrees: list[int] | None = None
) -> GroebnerBasis:
    """A Groebner basis, not interreduced, of the homogeneous inputs, up to
    the cap when one is given (`_pairs`); zero inputs are dropped, and the
    ring is that of the inputs when none is given.  Given their `degrees`,
    the inputs are taken as `_checked` leaves them, and not checked again.

    The packing starts wide enough for twice the largest input degree and
    for the cap, so a capped loop never outgrows it.  A pair whose lcm has
    outgrown it restarts the loop at twice the width.
    """
    if degrees is None:
        polys, ring, degrees = _checked(polys, ring)
    width = _width(max(2 * max(degrees, default=0), cap or 0))
    while (found := _pairs(_pack(polys, ring, width), cap)) is None:
        width *= 2
    return found


def _pairs(start: GroebnerBasis, cap: int | None) -> GroebnerBasis | None:
    """The body of `_pair_loop` from the packed inputs `start`; None once a
    pair to be reduced has an lcm of degree 2**width or more.

    The inputs join the basis in turn.  One whose lead an earlier lead
    divides is first reduced by the elements before it and made primitive
    at its new lead, as a reduced S-polynomial is; one that reduces to
    zero, such as a duplicate, drops out.  The ideal is the same, and the
    loop's leads up to the cap are those of the ideal whatever generators
    it starts from, so every reading of the basis is unchanged.  Without
    it, inputs that share a lead would be cleared pairwise by S-pairs of
    their own degree, and each would stay in the basis and form more pairs.
    An input whose lead no earlier lead divides is taken as it is, after
    one pass over the leads.

    Pairs are taken by the normal strategy: the pending pair whose lcm is
    least in grevlex goes first, ties broken by index, so pairs leave the
    heap in ascending degree.  With a cap, the loop stops once the least
    pending lcm has degree above it: every S-polynomial of degree at most
    the cap has then been reduced, so the leads are those of the ideal in
    every degree up to the cap (a basis truncated at that degree).

    The loop also stops once every monomial of the pending degree d, the
    degree of the least pending lcm, is a multiple of a lead (`_covered`
    describes the test), and the basis carries d as its `covered` degree.
    This is exact.  Every pair left has degree at least d, and every
    monomial of degree at least d is then a multiple of a lead too.  A
    pair's S-polynomial is homogeneous of its degree, and each step of its
    reduction removes its leading term and leaves only terms of that same
    degree, each again a multiple of a lead; so it reduces to zero.  No
    pair left would add an element, so the basis is element for element
    the one the whole loop returns, and when there is no cap, or d is at
    most the cap, it is a full Groebner basis.

    The test runs only once 1, or a pure power of every variable, is a
    lead, and at most once per degree and number of leads.  A capped loop
    runs it only at the cap: the quotient of n forms, when finite, is
    nonzero in every degree below Lazard's bound, the cap of
    `_finite_basis`, so no lower degree can be covered.  Its budget is the
    number of pairs pending, as a pair's chain test passes over the leads;
    past it the test gives up, with no stop.

    A loop that ends otherwise carries Σ (a_i − 1) + 1 as its `covered`
    degree when x_i^{a_i} is the least pure power of x_i among its leads,
    one for each variable, and 0 when 1 is a lead; past the box those
    powers span, every monomial has some e_i >= a_i.  That is a fact about
    the leads alone, so it holds for a capped loop too.  Otherwise, when
    some variable has no pure power, `covered` is None.
    """
    code = start.code
    basis: list[dict[int, int]] = []
    leads: list[int] = []
    supports: list[int] = []  # code.support of each lead
    queue: list[tuple[int, int, int]] = []  # heap of (lcm, i, j)
    pending: set[tuple[int, int]] = set()
    guard = code.guard
    overflow = 1 << (code.degree_shift + code.width)  # the least packed monomial of degree 2**width
    powers: dict[int, int] = {}  # support bit of x_i -> least a with x_i^a a lead; 0 -> 0 for the lead 1
    others: list[int] = []  # the leads that are neither 1 nor a pure power
    tested = None  # (degree, number of leads) of the last coverage test
    covered = None  # the degree at which the loop stopped by coverage, if it did

    def boxed() -> bool:
        """Whether 1, or a pure power of every variable, is a lead."""
        return 0 in powers or len(powers) == code.n

    def add_generator(g: dict[int, int], lead: int) -> None:
        j = len(basis)
        basis.append(g)
        leads.append(lead)
        supports.append(support := code.support(lead))
        for i in range(j):
            if supports[i] & support:  # leads that share no variable make no pair
                heappush(queue, (code.lcm(leads[i], lead), i, j))
                pending.add((i, j))
        if support & (support - 1):
            others.append(lead)
        else:
            a = code.degree(lead)
            powers[support] = min(a, powers.get(support, a))

    def add_remainder(work: dict[int, int]) -> None:
        """Reduce `work` by the basis, consuming it, and add a nonzero remainder, primitive at its lead."""
        r = _reduce(work, basis, leads, guard)[0]
        if r:
            lead = max(r)
            add_generator(_primitive(r, lead), lead)

    def chain(i: int, j: int, lcm: int) -> bool:
        return any(
            k != i
            and k != j
            and not (lcm - lead) & guard
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, lead in enumerate(leads)
        )

    for g, lead in zip(start.basis, start.leads):
        if any(not (lead - h) & guard for h in leads):
            add_remainder(dict(g))
        else:
            add_generator(g, lead)
    while queue:
        if cap is not None and code.degree(queue[0][0]) > cap:
            break
        if boxed() and queue[0][0] < overflow:
            d = code.degree(queue[0][0])
            if (cap is None or d == cap) and (d, len(leads)) != tested:
                tested = d, len(leads)
                if _covered(d, powers, others, code, len(pending)):
                    covered = d
                    break  # every pair left reduces to zero
        lcm, i, j = heappop(queue)
        pending.remove((i, j))
        # the lcm's exponent fields never overflow, so the chain criterion
        # holds at any degree; the S-polynomial's terms need the width
        if chain(i, j, lcm):
            continue  # the S-polynomial reduces to zero
        if lcm >= overflow:
            return None
        add_remainder(_s_polynomial(basis[i], leads[i], basis[j], leads[j], lcm))
    if covered is None and boxed():
        covered = 0 if 0 in powers else sum(powers.values()) - code.n + 1
    return GroebnerBasis(start.ring, code, basis, leads, covered=covered)


def buchberger(polys: Iterable[Polynomial], ring: PolyRing | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by the inputs.

    Zero polynomials are dropped; an empty list yields the zero ideal.
    All inputs must be homogeneous (the only case this package needs).

    Pairs are taken by the normal strategy (least lcm in grevlex first) and
    dropped by Buchberger's two criteria (Gebauer and Moeller, JSC 1988).  A
    pair with coprime leading monomials is never queued: its S-polynomial
    has an lcm representation once the pair is formed (Cox, Little and
    O'Shea, §2.9), so it is never pending and the chain criterion may count
    it as treated.  A queued pair is skipped when a third leading monomial
    divides its lcm and neither of that element's pairs with the two is
    pending.  The loop ends early once the leads contain every monomial of
    the least pending degree, since every pair left then reduces to zero
    (`_pairs`).  The loop starts from the inputs, each reduced by the
    earlier ones when an earlier lead divides its lead, so a duplicate
    drops out.  Basis elements are primitive integer terms throughout, and
    `generators` makes them monic.  The reduced basis has the lead ideal of
    the loop's, so it carries the loop's `covered` degree.
    """
    found = _pair_loop(polys, ring)
    basis, leads, guard = found.basis, found.leads, found.code.guard
    # interreduce to the unique reduced basis, smallest lead first: a term
    # below a lead can only be divisible by a smaller lead
    reduced: list[dict[int, int]] = []
    reduced_leads: list[int] = []
    for lead in _minimal(leads, guard):
        reduced.append(_primitive(_reduce(dict(basis[leads.index(lead)]), reduced, reduced_leads, guard)[0], lead))
        reduced_leads.append(lead)
    return GroebnerBasis(found.ring, found.code, reduced, reduced_leads, covered=found.covered)


def has_finite_quotient(polys: Iterable[Polynomial], ring: PolyRing | None = None) -> bool:
    """Whether Q[x1..xn] modulo the homogeneous inputs is finite-dimensional,
    the same verdict as ``buchberger(polys, ring).is_finite_dimensional()``;
    decided by `_finite_basis`."""
    return _finite_basis(polys, ring) is not None


def _finite_basis(
    polys: Iterable[Polynomial], ring: PolyRing | None = None, degrees: list[int] | None = None
) -> GroebnerBasis | None:
    """A Groebner basis, not interreduced, of the ideal of the homogeneous
    inputs when Q[x1..xn] modulo it is finite-dimensional, and None when
    it is not.

    Fewer than n nonzero forms, none of them a constant, cut out a variety
    of dimension at least 1 (Krull's principal ideal theorem).  Otherwise,
    if forms of degrees d1 >= d2 >= ... give a finite quotient, it is zero
    in every degree from D = (d1 - 1) + ... + (dn - 1) + 1 on, over the n
    largest degrees (Lazard, EUROCAL '83, LNCS 162; for n forms this is the
    complete-intersection bound).  So the quotient is finite exactly when
    every variable has a pure power, or 1 is, among the leads of a basis
    truncated at degree D; the pair loop stops there, and neither
    interreduction nor the Hilbert series is needed.

    When it is finite, that truncated basis G is a full Groebner basis, so
    it needs no second run.  Every S-polynomial of degree at most D has
    been reduced, so the leads of G span the lead ideal in every degree up
    to D.  The quotient is zero in degree D, so every monomial of degree D
    is a lead of the ideal, hence a multiple of a lead of G; then so is
    every monomial of higher degree, and the leads of G generate the whole
    lead ideal.  The pair loop may end before the pairs of degree D are
    popped, once the leads of G already cover every monomial of D (see
    `_pairs`); G is then the same basis and still a full one.

    So G is finite exactly when it carries a `covered` degree (`_pairs`):
    D when its loop stopped by coverage, which a loop capped at D tests at
    D alone, and otherwise the degree past the box of its pure powers.

    Given their `degrees`, the inputs are taken as `_checked` leaves them.
    """
    if degrees is None:
        polys, ring, degrees = _checked(polys, ring)
    n = len(ring.variables)
    if len(polys) < n and 0 not in degrees:
        return None
    cap = sum(sorted(degrees, reverse=True)[:n]) - n + 1
    found = _pair_loop(polys, ring, cap, degrees)
    return found if found.covered is not None else None


def is_regular_sequence(polys: Sequence[Polynomial], ring: PolyRing) -> bool:
    """Whether a homogeneous sequence is regular in Q[x1..xn].

    Decided by codimension: a length-k homogeneous sequence is regular iff
    the quotient has Krull dimension n - k.  For k = n that says the
    quotient is finite, which `_finite_basis` decides from a basis
    truncated at Lazard's degree (d1 - 1) + ... + (dn - 1) + 1; for k < n
    the dimension is read from the leads of a whole pair loop, with no
    interreduction.  The empty sequence is regular; zero entries or more
    entries than variables are not.  The entries are checked here, once,
    and their degrees passed on.
    """
    polys = list(polys)
    degrees = []
    for p in polys:
        if p.ring != ring:
            raise ValueError("sequence entries live in a different ring")
        if (degree := _form_degree(p)) is None:
            raise ValueError("sequence entries must be homogeneous")
        if degree == 0:
            raise ValueError("sequence entries must have positive degree")
        degrees.append(degree)
    if -1 in degrees:
        return False  # a zero entry
    n = len(ring.variables)
    k = len(polys)
    if k == 0:
        return True
    if k > n:
        return False
    if k == n:
        return _finite_basis(polys, ring, degrees) is not None
    return _pair_loop(polys, ring, None, degrees).krull_dimension() == n - k
