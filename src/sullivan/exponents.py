"""Elliptic exponent pairs: the arithmetic condition and the numeric constraints.

An exponent pair is a sorted tuple a of half-degrees of even generators and
a sorted tuple b with (degree+1)/2 of the odd generators.  The arithmetic
condition asks, for every subset of a, for enough entries of b that are
nonnegative integer combinations of the subset with coefficient sum at
least two.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from typing import Iterable, Iterator


class ExponentPair:
    """Sorted exponent tuples (a; b) with positive a entries and b entries >= 2."""

    __slots__ = ("a", "b")

    def __init__(self, a: Iterable[int], b: Iterable[int]):
        a = tuple(sorted(a))
        b = tuple(sorted(b))
        if any(not isinstance(x, int) or x < 1 for x in a):
            raise ValueError("entries of a must be integers >= 1")
        if any(not isinstance(x, int) or x < 2 for x in b):
            raise ValueError("entries of b must be integers >= 2")
        self.a = a
        self.b = b

    @property
    def q(self) -> int:
        return len(self.a)

    @property
    def r(self) -> int:
        return len(self.b)

    def formal_dimension(self) -> int:
        return 2 * (sum(self.b) - sum(self.a)) - (self.r - self.q)

    def sort_key(self):
        return (self.q, self.a, self.b)

    def __eq__(self, other) -> bool:
        return isinstance(other, ExponentPair) and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __lt__(self, other: "ExponentPair") -> bool:
        return self.sort_key() < other.sort_key()

    def __repr__(self) -> str:
        return f"ExponentPair(a={self.a}, b={self.b})"

    def __str__(self) -> str:
        a = ",".join(map(str, self.a))
        b = ",".join(map(str, self.b))
        return f"a=({a}) b=({b})"


# the largest entry of b that `check_sac` takes: its bitsets have
# max(b) + 1 bits, 2 MB each at most
MAX_SAC_ENTRY = 1 << 24

# the most work `check_sac` does before it gives up, counted in bits of
# the bitset operations of its subset search (see there): at most about
# 2.5 s in CPython 3.11 on one Intel Xeon core
MAX_SAC_WORK = 1 << 35

# the cost of one bitset operation on top of its bits: the interpreter's
# per-operation overhead, about that of a few thousand bits of work
_OPERATION_COST = 1 << 12


def check_sac(pair: ExponentPair) -> bool:
    """The arithmetic condition on (a; b): every nonempty subset S of a has
    at least |S| entries of b that are nonnegative integer combinations of
    S with coefficient sum at least two.

    Whether an entry is such a combination depends only on the distinct
    values in S, and the more values, the more entries are; so each set D
    of distinct values of a is checked once, against its largest size, the
    number of entries of a in D.  The sets are searched depth first, values
    added in increasing order.  Each set keeps its sums, the combinations up
    to max(b), as one bitset: adding a value w closes it under +w in
    doubling steps.  The sums with coefficient sum at least two are those
    sums shifted by two values of D.  A set short of entries ends the search
    with False; a set with at least as many entries as any set below it in
    the search can hold skips them.  The search keeps its own stack, so the
    sets it holds at once are those on one path, however many values a has.

    Each bitset operation costs its max(b) + 1 bits plus `_OPERATION_COST`.
    A search that would pass `MAX_SAC_WORK`, or an entry of b above
    `MAX_SAC_ENTRY`, raises ValueError.
    """
    counts = Counter(pair.a)
    values = sorted(counts)
    top = max(pair.b, default=0)
    if top > MAX_SAC_ENTRY:
        raise ValueError(f"the arithmetic condition takes entries of b up to {MAX_SAC_ENTRY}, not {top}")
    later = list(accumulate(counts[w] for w in reversed(values)))[::-1] + [0]  # entries of a from values[i] on
    layers: dict[int, int] = {}  # multiplicity in b -> the bitset of the entries of b with it
    for value, c in Counter(pair.b).items():
        layers[c] = layers.get(c, 0) | 1 << value
    work = 0
    mask = (1 << (top + 1)) - 1
    stack = [(0, 1, (), 0)]  # (position in values, the sums of the set, the set, its size)
    while stack:
        i, sums, chosen, size = stack.pop()
        if i == len(values):
            continue
        stack.append((i + 1, sums, chosen, size))  # the same set without values[i]
        w = values[i]
        subset, needed = chosen + (w,), size + counts[w]
        work += (max(top // w, 1).bit_length() + 2 * len(subset) + len(layers)) * (top + 1 + _OPERATION_COST)
        if work > MAX_SAC_WORK:
            raise ValueError(f"the arithmetic condition needs more than {MAX_SAC_WORK} bits of subset search")
        shift = w
        while shift <= top:
            sums |= (sums << shift) & mask
            shift <<= 1
        once = twice = 0
        for u in subset:
            once |= sums << u
        for u in subset:
            twice |= once << u
        good = sum(c * (twice & bits).bit_count() for c, bits in layers.items())
        if good < needed:
            return False
        if good < needed + later[i + 1]:
            stack.append((i + 1, sums, subset, needed))
    return True


def check_constraints(pair: ExponentPair, n: int) -> bool:
    """The four numeric constraints at formal dimension n."""
    if pair.q > pair.r:
        return False
    if 2 * sum(pair.a) > n:
        return False
    if sum(2 * x - 1 for x in pair.b) > 2 * n - 1:
        return False
    return pair.formal_dimension() == n


def _sorted_tuples_bounded(min_value: int, weight, budget: int) -> Iterator[tuple[int, ...]]:
    """Nondecreasing tuples whose total weight stays within the budget."""
    yield ()
    value = min_value
    while weight(value) <= budget:
        for rest in _sorted_tuples_bounded(value, weight, budget - weight(value)):
            yield (value,) + rest
        value += 1


def enumerate_exponents(n: int) -> list[ExponentPair]:
    """All exponent pairs of formal dimension n, canonically ordered.

    The search region is cut out by the even-degree and odd-degree bounds;
    candidates are filtered by the dimension identity and the arithmetic
    condition.
    """
    if not (1 <= n <= 12):
        raise ValueError("supported dimensions are 1 <= n <= 12")
    out = []
    for a in _sorted_tuples_bounded(1, lambda v: 2 * v, n):
        for b in _sorted_tuples_bounded(2, lambda v: 2 * v - 1, 2 * n - 1):
            if len(a) > len(b):
                continue
            pair = ExponentPair(a, b)
            if pair.formal_dimension() != n:
                continue
            if check_sac(pair):
                out.append(pair)
    return sorted(set(out))


def exponents_of_model(m) -> ExponentPair:
    """Exponents read off the generator degrees of a model."""
    a = []
    b = []
    for deg in m.table.degrees:
        if deg % 2 == 0:
            a.append(deg // 2)
        else:
            b.append((deg + 1) // 2)
    return ExponentPair(a, b)
