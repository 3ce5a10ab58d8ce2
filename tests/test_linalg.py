"""Exact linear algebra: rank, kernels, span membership."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan.linalg import RationalMatrix, _echelon, _kernel, _primitive, in_span


def test_rank_examples():
    assert RationalMatrix.from_rows([[1, 0], [0, 1]]).rank() == 2
    assert RationalMatrix.from_rows([[1, 2], [2, 4]]).rank() == 1
    assert RationalMatrix.from_rows([[0] * 5 for _ in range(3)]).rank() == 0


def test_kernel_examples():
    kernel = RationalMatrix.from_rows([[1, 1]]).kernel_basis()
    assert len(kernel) == 1
    v = kernel[0]
    assert v[0] + v[1] == 0 and v != (0, 0)

    assert RationalMatrix.from_rows([[1, 0], [0, 1]]).kernel_basis() == ()

    kernel = RationalMatrix.from_rows([[1, 1, 1]]).kernel_basis()
    assert len(kernel) == 2
    for v in kernel:
        assert sum(v) == 0


def test_kernel_vectors_annihilate():
    rng = random.Random(5)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 6)
        m = RationalMatrix.from_rows(
            [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(cols)] for _ in range(rows)]
        )
        kernel = m.kernel_basis()
        assert m.rank() + len(kernel) == cols
        for v in kernel:
            assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m.data)


def test_rank_permutation_invariant():
    rng = random.Random(6)
    for _ in range(20):
        rows = rng.randint(2, 5)
        cols = rng.randint(2, 5)
        data = [[Fraction(rng.randint(-3, 3)) for _ in range(cols)] for _ in range(rows)]
        m = RationalMatrix.from_rows(data)
        shuffled_rows = data[:]
        rng.shuffle(shuffled_rows)
        perm = list(range(cols))
        rng.shuffle(perm)
        permuted = [[row[j] for j in perm] for row in shuffled_rows]
        assert RationalMatrix.from_rows(permuted).rank() == m.rank()


def test_in_span_examples():
    ok, coords = in_span((2, 2), [(1, 1)])
    assert ok and coords == (Fraction(2),)
    ok, coords = in_span((1, 0), [(1, 1)])
    assert not ok and coords is None
    ok, coords = in_span((0, 0, 0), [])
    assert ok and coords == ()
    ok, _ = in_span((1, 0, 0), [])
    assert not ok


def test_in_span_coordinates_reconstruct():
    rng = random.Random(7)
    for _ in range(20):
        dim = rng.randint(2, 5)
        basis = [
            tuple(Fraction(rng.randint(-3, 3)) for _ in range(dim)) for _ in range(rng.randint(1, 3))
        ]
        weights = [Fraction(rng.randint(-3, 3)) for _ in basis]
        v = tuple(sum(w * b[i] for w, b in zip(weights, basis)) for i in range(dim))
        ok, coords = in_span(v, basis)
        assert ok
        rebuilt = tuple(sum(c * b[i] for c, b in zip(coords, basis)) for i in range(dim))
        assert rebuilt == v


def test_sparse_constructor_is_exact():
    m = RationalMatrix(1, 2, [{0: 1, 1: 2}])
    rref, pivots = m.rref()
    assert rref == ((1, 2),) and pivots == (0,)
    assert all(type(x) is Fraction for row in rref + m.data for x in row)


def test_sparse_constructor_drops_zeros():
    m = RationalMatrix(1, 2, [{0: 0, 1: 1}])
    assert m.rank() == 1
    assert m.rref() == (((0, 1),), (1,))
    assert m == RationalMatrix.from_rows([[0, 1]])


def test_entries_that_are_not_rational_raise_type_error():
    """A float or a string is not an exact rational, as in ``rational``."""
    for bad in (0.5, 1.0, "1/2"):
        with pytest.raises(TypeError):
            RationalMatrix.from_rows([[bad, 1]])
        with pytest.raises(TypeError):
            RationalMatrix(1, 2, [{1: bad}])
        with pytest.raises(TypeError):
            in_span((bad,), [(1,)])
        with pytest.raises(TypeError):
            in_span((1,), [(bad,)])
    assert in_span((Fraction(1, 2),), [(1,)]) == (True, (Fraction(1, 2),))


@pytest.mark.parametrize(
    "rows,cols,sparse",
    [(1, 2, [{2: 1}]), (1, 2, [{-1: 1}]), (2, 2, [{0: 1}]), (1, 2, [{0: 1}, {1: 1}]), (0, -1, [])],
    ids=["column-past-end", "negative-column", "too-few-rows", "too-many-rows", "negative-width"],
)
def test_sparse_constructor_checks_its_shape(rows, cols, sparse):
    with pytest.raises(ValueError):
        RationalMatrix(rows, cols, sparse)


# -- properties that do not lean on a second kernel ---------------------------

entries = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
nonzero = entries.filter(bool)


@st.composite
def dense_matrices(draw):
    rows = draw(st.integers(0, 6))
    cols = draw(st.integers(0, 6))
    row = st.lists(entries, min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows)), cols


@st.composite
def sparse_matrices(draw):
    """1-2 nonzeros per column, like the differentials of a Sullivan model."""
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(0, 8))
    data = [[Fraction(0)] * cols for _ in range(rows)]
    for c in range(cols):
        for r in draw(st.sets(st.integers(0, rows - 1), min_size=1, max_size=2)):
            data[r][c] = draw(nonzero)
    return data, cols


matrices = dense_matrices() | sparse_matrices()
properties = settings(deadline=None)


def _transpose(data, cols):
    return [[row[c] for row in data] for c in range(cols)]


def _combination(coeffs, vectors, length):
    return [sum((a * v[j] for a, v in zip(coeffs, vectors)), Fraction(0)) for j in range(length)]


@properties
@given(matrices)
def test_sparse_rows_give_the_same_matrix_as_dense_rows(matrix):
    data, cols = matrix
    dense = RationalMatrix.from_rows(data, cols)
    # whole-number entries as int, and the zeros written out
    sparse = [{j: int(x) if x.denominator == 1 else x for j, x in enumerate(row)} for row in data]
    m = RationalMatrix(len(data), cols, sparse)
    assert m == dense
    assert m.data == dense.data == tuple(tuple(row) for row in data)
    assert all(type(x) is Fraction for row in m.data for x in row)


int_matrices = st.integers(0, 6).flatmap(
    lambda cols: st.tuples(
        st.lists(st.lists(st.integers(-4, 4), min_size=cols, max_size=cols), max_size=6), st.just(cols)
    )
)


@properties
@given(int_matrices)
def test_int_rows_give_the_same_matrix_as_fraction_rows(matrix):
    data, cols = matrix
    ints = RationalMatrix(len(data), cols, [{j: x for j, x in enumerate(row) if x} for row in data])
    fractions = RationalMatrix(len(data), cols, [{j: Fraction(x) for j, x in enumerate(row)} for row in data])
    assert ints == fractions
    assert ints.rank() == fractions.rank()
    assert ints.rref() == fractions.rref()
    assert ints.kernel_basis() == fractions.kernel_basis()
    rref, _ = ints.rref()
    assert all(type(x) is Fraction for v in ints.data + rref + ints.kernel_basis() for x in v)


@properties
@given(matrices)
def test_rank_equals_rank_of_transpose(matrix):
    data, cols = matrix
    rank = RationalMatrix.from_rows(data, cols).rank()
    assert rank == RationalMatrix.from_rows(_transpose(data, cols), len(data)).rank()
    assert rank <= min(len(data), cols)


@properties
@given(matrices)
def test_rank_nullity_and_kernel_annihilates(matrix):
    data, cols = matrix
    m = RationalMatrix.from_rows(data, cols)
    kernel = m.kernel_basis()
    assert m.rank() + len(kernel) == cols
    for v in kernel:
        assert len(v) == cols
        assert all(sum(x * y for x, y in zip(row, v)) == 0 for row in m.data)


@properties
@given(matrices)
def test_rref_is_reduced_echelon_form_of_the_row_space(matrix):
    data, cols = matrix
    rref, pivots = RationalMatrix.from_rows(data, cols).rref()
    assert len(rref) == len(pivots) == RationalMatrix.from_rows(data, cols).rank()
    assert all(a < b for a, b in zip(pivots, pivots[1:]))
    for r, (row, pc) in enumerate(zip(rref, pivots)):
        assert len(row) == cols
        assert all(x == 0 for x in row[:pc])
        assert row[pc] == 1
        assert all(other[pc] == 0 for s, other in enumerate(rref) if s != r)
    # each row of the input is the combination of the RREF rows given by its
    # entries in the pivot columns
    for row in data:
        assert _combination([row[pc] for pc in pivots], rref, cols) == row


@properties
@given(matrices, st.randoms(use_true_random=False), nonzero, st.lists(entries, max_size=6))
def test_rref_depends_only_on_the_row_space(matrix, rng, scale, coeffs):
    data, cols = matrix
    expected = RationalMatrix.from_rows(data, cols).rref()
    shuffled = data[:]
    rng.shuffle(shuffled)
    assert RationalMatrix.from_rows(shuffled, cols).rref() == expected
    if data:
        r = rng.randrange(len(data))
        scaled = data[:r] + [[scale * x for x in data[r]]] + data[r + 1 :]
        assert RationalMatrix.from_rows(scaled, cols).rref() == expected
    appended = data + [_combination(coeffs, data, cols)]
    assert RationalMatrix.from_rows(appended, cols).rref() == expected


@properties
@given(matrices, st.lists(entries, max_size=6), st.lists(entries, max_size=6))
def test_in_span_coordinates_rebuild_the_vector(matrix, coeffs, other):
    data, cols = matrix
    inside = _combination(coeffs, data, cols)
    arbitrary = (other + [Fraction(0)] * cols)[:cols]
    for v in (inside, arbitrary):
        ok, coords = in_span(v, data)
        assert ok or v is not inside
        if ok:
            assert _combination(coords, data, cols) == v
        else:
            assert coords is None
            rank = RationalMatrix.from_rows(data, cols).rank()
            assert RationalMatrix.from_rows(data + [v], cols).rank() == rank + 1


# -- the fraction-free kernel on rows with unlike denominators ----------------

MERSENNE_61 = 2**61 - 1


@st.composite
def fractional_matrices(draw):
    """Entries with denominators up to 12, so each row is scaled before elimination."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    entry = st.builds(Fraction, st.integers(-9, 9), st.integers(2, 12))
    return [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)], cols


def _rank_mod_p(data, cols, p=MERSENNE_61):
    """Rank over GF(p) of the rows scaled to integers: a cross-check, never the answer."""
    rows = []
    for row in data:
        scale = lcm(*(x.denominator for x in row)) if row else 1
        rows.append([int(x * scale) % p for x in row])
    rank = 0
    for c in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][c], -1, p)
        for r in range(len(rows)):
            if r != rank and rows[r][c]:
                f = rows[r][c] * inverse % p
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@properties
@given(fractional_matrices() | matrices)
def test_forward_rank_agrees_with_the_full_rref(matrix):
    data, cols = matrix
    m = RationalMatrix.from_rows(data, cols)
    assert m.rank() == len(m.rref()[1])


@properties
@given(fractional_matrices() | matrices)
def test_rank_modulo_a_prime_is_at_most_the_rank(matrix):
    data, cols = matrix
    assert _rank_mod_p(data, cols) <= RationalMatrix.from_rows(data, cols).rank()


# -- the integer forms behind the public Fraction ones --------------------------


@st.composite
def mixed_sparse_rows(draw):
    """Sparse rows whose nonzero entries are ints or Fractions, as the
    elimination kernel reads them."""
    rows = draw(st.integers(0, 7))
    cols = draw(st.integers(0, 7))
    value = st.integers(-6, 6).filter(bool) | nonzero
    if not cols:
        return [{} for _ in range(rows)], cols
    row = st.dictionaries(st.integers(0, cols - 1), value, max_size=cols)
    return [draw(row) for _ in range(rows)], cols


def _scaled(vector, den, cols):
    return tuple(Fraction(vector.get(j, 0), den) for j in range(cols))


@properties
@given(mixed_sparse_rows())
def test_integer_rref_rows_are_the_rref_scaled_to_primitive_integers(matrix):
    rows, cols = matrix
    before = [dict(row) for row in rows]
    echelon = _echelon(rows)
    rref, pivots = RationalMatrix(len(rows), cols, rows).rref()
    assert tuple(echelon) == pivots
    for (p, row), expected in zip(echelon.items(), rref):
        assert all(type(x) is int for x in row.values())
        assert row[p] > 0 and gcd(*row.values()) == 1
        assert _scaled(row, row[p], cols) == expected
    # the integer rows may be the input's own dicts, which stay as they were
    assert rows == before


@properties
@given(mixed_sparse_rows())
def test_integer_kernel_vectors_are_the_canonical_kernel_scaled_to_primitive_integers(matrix):
    rows, cols = matrix
    kernel = _kernel(rows, cols)
    m = RationalMatrix(len(rows), cols, rows)
    free = [c for c in range(cols) if c not in m.rref()[1]]
    assert [max(v) for v in kernel] == free
    assert len(kernel) == len(m.kernel_basis())
    for v, expected in zip(kernel, m.kernel_basis()):
        fc = max(v)
        assert all(type(x) is int for x in v.values())
        assert v[fc] > 0 and gcd(*v.values()) == 1
        assert list(v) == sorted(v)
        assert _scaled(v, v[fc], cols) == expected
        # canonical: 1 at its own free column, 0 at every other one
        assert all(expected[c] == (c == fc) for c in free)
        assert all(sum(x * v.get(j, 0) for j, x in row.items()) == 0 for row in rows)


def test_primitive_divides_out_the_content_and_signs_the_lead():
    assert _primitive({0: -4, 3: 6}) == {0: -2, 3: 3}
    assert _primitive({0: -4, 3: 6}, 0) == {0: 2, 3: -3}
    assert _primitive({0: -4, 3: 6}, 3) == {0: -2, 3: 3}
    assert _primitive({2: -1, 5: 1}, 2) == {2: 1, 5: -1}
    row = {1: 3, 2: -5}
    assert _primitive(row) is row and _primitive(row, 1) is row
