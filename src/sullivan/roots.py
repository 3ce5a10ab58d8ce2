"""Univariate polynomials over Q and exact real-root isolation.

Polynomials are coefficient tuples, constant term first, each coefficient
an ``int`` when whole and a ``Fraction`` otherwise.  Isolation uses Sturm
sequences and exact bisection, and decides every sign over ``int``: each
polynomial whose signs are read is scaled once by a positive rational to
coprime integers (the same signs, the same roots), and the sign of p(a/b)
with b > 0 is that of the sum of c_i a^i b^(n-i), taken by Horner's rule.
Rational roots are recognized exactly via the denominator bound from the
leading coefficient, so no integer factorization is ever needed.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Sequence

from .linalg import integerized, rational

UPoly = tuple[int | Fraction, ...]


def upoly(coeffs: Sequence) -> UPoly:
    out = [rational(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(p: UPoly) -> int:
    return len(p) - 1


def neg(p: UPoly) -> UPoly:
    return tuple(-c for c in p)


def mul(p: UPoly, q: UPoly) -> UPoly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return upoly(out)


def scale(p: UPoly, c) -> UPoly:
    c = rational(c)
    if c == 0:
        return ()
    return tuple(x * c for x in p)


def evaluate(p: UPoly, x) -> Fraction:
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def derivative(p: UPoly) -> UPoly:
    return upoly([c * i for i, c in enumerate(p)][1:])


def divmod_poly(p: UPoly, q: UPoly) -> tuple[UPoly, UPoly]:
    if not q:
        raise ZeroDivisionError("division by the zero polynomial")
    rem = list(p)
    quo = [0] * max(len(p) - len(q) + 1, 0)
    dq = len(q) - 1
    lc = q[-1]
    while len(rem) - 1 >= dq and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        shift = len(rem) - 1 - dq
        factor = Fraction(rem[-1], lc)
        quo[shift] = factor
        for i in range(len(q)):
            rem[shift + i] -= factor * q[i]
        rem.pop()
    return upoly(quo), upoly(rem)


def _positive_remainder(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """The remainder of p by q, for integer p and q, scaled by a positive
    rational to coprime integers: each step multiplies what is left by
    |lc(q)|/g > 0 before it cancels the leading term, so no Fraction arises."""
    rem = list(p)
    dq = len(q) - 1
    lc = q[-1]
    while len(rem) > dq:
        c = rem.pop()
        if c:
            shift = len(rem) - dq
            g = gcd(c, lc)
            a, b = abs(lc) // g, (c if lc > 0 else -c) // g
            if a != 1:
                rem = [a * x for x in rem]
            for i in range(dq):
                rem[shift + i] -= b * q[i]
    while rem and rem[-1] == 0:
        rem.pop()
    return integerized(rem)


def poly_gcd(p: UPoly, q: UPoly) -> UPoly:
    """The greatest common divisor as coprime integers with a positive lead."""
    a, b = integerized(p), integerized(q)
    while b:
        a, b = b, _positive_remainder(a, b)
    return neg(a) if a and a[-1] < 0 else a


def squarefree_part(p: UPoly) -> UPoly:
    if degree(p) < 1:
        return p
    g = poly_gcd(p, derivative(p))
    if degree(g) < 1:
        return p
    return divmod_poly(p, g)[0]


def sturm_chain(p: UPoly) -> list[tuple[int, ...]]:
    """Sturm sequence of p, each member scaled by a positive rational to
    coprime integers (scaling by positive factors keeps every sign)."""
    chain = [integerized(p)]
    chain.append(integerized(derivative(chain[0])))
    while chain[-1] and degree(chain[-1]) > 0:
        rem = _positive_remainder(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(neg(rem))
    return [c for c in chain if c]


def _sign_at(p: Sequence, x) -> int:
    """Sign of p at the rational x = a/b, b > 0: that of the sum of
    c_i a^i b^(n-i) = b^n p(x), by Horner's rule (over int for integer p)."""
    a, b = x.numerator, x.denominator
    acc = 0
    power = 1
    for c in reversed(p):
        acc = acc * a + c * power
        power *= b
    return (acc > 0) - (acc < 0)


def sign_variations(chain: Sequence[UPoly], x) -> int:
    signs = [s for q in chain if (s := _sign_at(q, x))]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_between(chain: Sequence[UPoly], a, b) -> int:
    """Number of distinct real roots in (a, b] for a square-free polynomial."""
    return sign_variations(chain, a) - sign_variations(chain, b)


def root_bound(p: UPoly) -> Fraction:
    """Cauchy bound: every real root lies strictly inside (-M, M)."""
    return 1 + Fraction(max(map(abs, p[:-1]), default=0), abs(p[-1]))


def isolate_real_roots(p: UPoly) -> list[tuple[Fraction, Fraction]]:
    """Disjoint intervals, one distinct real root each; exact roots come out as (r, r).

    The input is replaced by its square-free part, so multiplicities do not
    matter.  Open intervals (lo, hi) have p(lo) != 0 != p(hi).
    """
    return _isolate_squarefree(squarefree_part(p))


def _isolate_squarefree(p: UPoly) -> list[tuple[Fraction, Fraction]]:
    """`isolate_real_roots` of a polynomial that is already square-free."""
    if degree(p) < 1:
        return []
    chain = sturm_chain(p)
    ints = chain[0]  # p itself, scaled to coprime integers
    bound = root_bound(ints)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-bound, bound)]
    while stack:
        lo, hi = stack.pop()
        n = count_roots_between(chain, lo, hi)
        if n == 0:
            continue
        if n == 1 and _sign_at(ints, hi) != 0:
            out.append((lo, hi))
            continue
        mid = Fraction(lo + hi, 2)
        if _sign_at(ints, mid) == 0:
            out.append((mid, mid))
            eps = Fraction(hi - lo, 4)
            while (
                _sign_at(ints, mid - eps) == 0
                or _sign_at(ints, mid + eps) == 0
                or count_roots_between(chain, mid - eps, mid + eps) > 1
            ):
                eps /= 2
            stack.append((lo, mid - eps))
            stack.append((mid + eps, hi))
        else:
            stack.append((lo, mid))
            stack.append((mid, hi))
    return sorted(out)


def refine_interval(p: UPoly, lo: Fraction, hi: Fraction, width: Fraction) -> tuple[Fraction, Fraction]:
    """Shrink an isolating interval of a square-free p below the given width."""
    if lo == hi:
        return (lo, hi)
    ints = integerized(p)
    sign_lo = 1 if _sign_at(ints, lo) > 0 else -1
    while hi - lo > width:
        mid = Fraction(lo + hi, 2)
        v = _sign_at(ints, mid)
        if v == 0:
            return (mid, mid)
        if v == sign_lo:
            lo = mid
        else:
            hi = mid
    return (lo, hi)


def rational_root_in_interval(p: UPoly, lo: Fraction, hi: Fraction) -> Fraction | None:
    """Exact rational root inside an isolating interval, if the root is rational.

    Any rational root of the primitive integer form of p has denominator
    dividing the leading coefficient; once the interval is narrower than
    1/(2*lc) the root is the nearest multiple of 1/lc, which is then
    verified by exact evaluation.
    """
    ints = integerized(p)
    if lo == hi:
        return lo if _sign_at(ints, lo) == 0 else None
    lc = abs(ints[-1])
    lo, hi = refine_interval(p, lo, hi, Fraction(1, 2 * lc))
    if lo == hi:
        return lo
    mid = Fraction(lo + hi, 2)
    candidate = Fraction(round(mid * lc), lc)
    if lo < candidate < hi and _sign_at(ints, candidate) == 0:
        return candidate
    return None
