"""Exponent pairs: the arithmetic condition, constraints, enumeration."""

import random
from itertools import combinations, product

import pytest

from sullivan import exponents
from sullivan.catalog import (
    EXPECTED_EXPONENTS,
    cp_model,
    dim6_b2_model,
    dim7_sigma_model,
    sphere_model,
)
from sullivan.exponents import (
    ExponentPair,
    check_constraints,
    check_sac,
    enumerate_exponents,
    exponents_of_model,
)


def test_check_sac_examples():
    assert check_sac(ExponentPair((1, 1), (2, 3)))
    assert check_sac(ExponentPair((), (2, 2)))
    assert not check_sac(ExponentPair((1, 2), (2, 2)))


def test_check_constraints_examples():
    assert check_constraints(ExponentPair((1, 1), (2, 3)), 6)
    assert check_constraints(ExponentPair((1,), (2,)), 2)
    assert check_constraints(ExponentPair((4,), (8,)), 8)
    assert not check_constraints(ExponentPair((1, 1), (2, 3)), 7)


def test_enumerate_matches_recorded_tables():
    for n, expected in EXPECTED_EXPONENTS.items():
        got = enumerate_exponents(n)
        assert set(got) == set(expected)
        assert len(got) == len(expected)


def test_enumerate_low_dimensions():
    assert enumerate_exponents(2) == [ExponentPair((1,), (2,))]
    assert [len(enumerate_exponents(n)) for n in range(2, 10)] == [1, 1, 3, 2, 6, 4, 13, 9]


def test_enumerate_rejects_out_of_range():
    with pytest.raises(ValueError):
        enumerate_exponents(0)
    with pytest.raises(ValueError):
        enumerate_exponents(13)


# -- an independent brute-force oracle over the constraint region -----------


def _oracle_sac(a, b):
    for s in range(1, len(a) + 1):
        for idx in combinations(range(len(a)), s):
            avals = [a[i] for i in idx]
            witnesses = 0
            for value in b:
                hit = False
                for gammas in product(range(0, value + 1), repeat=s):
                    if sum(g * w for g, w in zip(gammas, avals)) == value and sum(gammas) >= 2:
                        hit = True
                        break
                if hit:
                    witnesses += 1
            if witnesses < s:
                return False
    return True


def test_check_sac_answers_or_refuses_large_inputs(monkeypatch):
    """A large entry of b costs a bitset of its size, and many entries of a
    cost subsets only where they are not pruned; past its limits the
    search raises instead of running on."""
    assert check_sac(ExponentPair((2, 4), (4, 8, 100001)))
    assert check_sac(ExponentPair(range(1, 17), range(2, 61)))
    assert not check_sac(ExponentPair(range(1, 17), range(2, 17)))
    with pytest.raises(ValueError, match=r"entries of b up to 16777216, not 16777217$"):
        check_sac(ExponentPair((2,), (exponents.MAX_SAC_ENTRY + 1,)))
    monkeypatch.setattr(exponents, "MAX_SAC_WORK", 1 << 20)
    with pytest.raises(ValueError, match=r"needs more than 1048576 bits of subset search$"):
        check_sac(ExponentPair(range(31, 61), range(62, 122, 2)))


def _oracle_enumerate(n):
    found = set()
    max_a_len = n // 2
    a_candidates = [()]
    for length in range(1, max_a_len + 1):
        for combo in product(range(1, n // 2 + 1), repeat=length):
            if sum(2 * v for v in combo) <= n:
                a_candidates.append(tuple(sorted(combo)))
    max_b_len = (2 * n - 1) // 3
    b_candidates = [()]
    for length in range(1, max_b_len + 1):
        for combo in product(range(2, n + 1), repeat=length):
            if sum(2 * v - 1 for v in combo) <= 2 * n - 1:
                b_candidates.append(tuple(sorted(combo)))
    for a in set(a_candidates):
        for b in set(b_candidates):
            if len(a) > len(b) or not b and a:
                continue
            if not b:
                continue
            if 2 * (sum(b) - sum(a)) - (len(b) - len(a)) != n:
                continue
            if _oracle_sac(a, b):
                found.add((a, b))
    return found


@pytest.mark.parametrize("n,count", [(2, 1), (3, 1), (4, 3), (5, 2)])
def test_low_dimension_counts_match_oracle(n, count):
    oracle = _oracle_enumerate(n)
    got = {(p.a, p.b) for p in enumerate_exponents(n)}
    assert got == oracle
    assert len(oracle) == count


def test_product_closure():
    tables = {n: set(enumerate_exponents(n)) for n in range(2, 8)}
    for n1 in range(2, 8):
        for n2 in range(2, 8):
            if n1 + n2 > 9:
                continue
            combined = set(enumerate_exponents(n1 + n2))
            for p1 in tables[n1]:
                for p2 in tables[n2]:
                    merged = ExponentPair(p1.a + p2.a, p1.b + p2.b)
                    assert merged in combined


def test_sac_permutation_invariant():
    rng = random.Random(55)
    for _ in range(200):
        a = [rng.randint(1, 4) for _ in range(rng.randint(0, 3))]
        b = [rng.randint(2, 6) for _ in range(rng.randint(max(1, len(a)), 4))]
        reference = check_sac(ExponentPair(a, b))
        assert reference == _oracle_sac(tuple(sorted(a)), tuple(sorted(b)))
        rng.shuffle(a)
        rng.shuffle(b)
        assert check_sac(ExponentPair(a, b)) == reference


def test_every_enumerated_pair_satisfies_constraints():
    for n in range(2, 10):
        for pair in enumerate_exponents(n):
            assert pair.q <= pair.r
            assert pair.formal_dimension() == n
            assert check_constraints(pair, n)


def test_canonical_order():
    pairs = enumerate_exponents(8)
    keys = [p.sort_key() for p in pairs]
    assert keys == sorted(keys)


def test_exponents_of_model_examples():
    assert exponents_of_model(dim6_b2_model(1, (0, 0, 0, 1))) == ExponentPair((1, 1), (2, 3))
    assert exponents_of_model(dim7_sigma_model(2)) == ExponentPair((1, 1), (2, 2, 2))
    assert exponents_of_model(sphere_model(7)) == ExponentPair((), (4,))
    assert exponents_of_model(cp_model(3)) == ExponentPair((1,), (4,))
