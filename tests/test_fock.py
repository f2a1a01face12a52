import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditcat.fock
from quditcat.fock import (
    CapacityError,
    FockBasis,
    exact_multinomial,
    log_factorial,
    log_multinomial,
    shared_basis,
)


def test_enumeration_order_d2():
    basis = FockBasis(2, 2)
    assert basis.states.tolist() == [[2, 0], [1, 1], [0, 2]]


def test_enumeration_size_d3_n20():
    basis = FockBasis(3, 20)
    assert basis.size == 231 == math.comb(22, 2)


def test_empty_condensate():
    basis = FockBasis(3, 0)
    assert basis.states.tolist() == [[0, 0, 0]]


def test_condensate_is_index_zero():
    basis = FockBasis(4, 9)
    assert basis.states[0].tolist() == [9, 0, 0, 0]


def test_rejects_single_level():
    with pytest.raises(ValueError):
        FockBasis(1, 3)


def test_rejects_negative_n():
    with pytest.raises(ValueError):
        FockBasis(3, -1)


def test_capacity_cap():
    with pytest.raises(CapacityError):
        FockBasis(3, 20, max_states=100)


def test_rank_first_and_last():
    basis = FockBasis(2, 2)
    assert basis.rank([2, 0]) == 0
    assert basis.rank([0, 2]) == 2


def test_rank_rejects_bad_vectors():
    basis = FockBasis(3, 5)
    with pytest.raises(ValueError):
        basis.rank([5, 0])  # wrong length
    with pytest.raises(ValueError):
        basis.rank([4, 0, 0])  # wrong sum
    with pytest.raises(ValueError):
        basis.rank([6, -1, 0])  # negative entry


def test_rank_unrank_roundtrip_exhaustive():
    basis = FockBasis(3, 20)
    for i in range(basis.size):
        assert basis.rank(basis.unrank(i)) == i


@pytest.mark.parametrize("D", [2, 3, 4, 5])
@pytest.mark.parametrize("N", [0, 1, 7, 30])
def test_batched_rank_matches_enumeration_and_scalar_calls(D, N):
    basis = FockBasis(D, N)
    ranks = basis.rank(basis.states)
    assert np.array_equal(ranks, np.arange(basis.size))
    step = max(1, basis.size // 40)
    for i in range(0, basis.size, step):
        scalar = basis.rank(basis.states[i])
        assert isinstance(scalar, int) and scalar == ranks[i]


def test_batched_rank_rejects_an_invalid_row_like_the_scalar_call():
    basis = FockBasis(3, 5)
    good = basis.states[:4]
    for bad in ([4, 0, 0], [6, -1, 0]):
        with pytest.raises(ValueError) as scalar:
            basis.rank(bad)
        with pytest.raises(ValueError) as batched:
            basis.rank(np.vstack([good[:2], bad, good[2:]]))
        assert str(batched.value) == str(scalar.value)
    with pytest.raises(ValueError) as scalar:
        basis.rank([5, 0])
    with pytest.raises(ValueError) as batched:
        basis.rank(np.zeros((3, 2), dtype=int))
    assert str(batched.value) == str(scalar.value)


@pytest.mark.parametrize("D, N", [(D, N) for D in range(2, 6) for N in (0, 1, 2, 5, 9)])
def test_enumeration_matches_brute_force_compositions(D, N):
    # every occupation vector with the right total, in descending lex order
    want = sorted(
        (n for n in itertools.product(range(N + 1), repeat=D) if sum(n) == N),
        reverse=True,
    )
    basis = FockBasis(D, N)
    assert basis.states.tolist() == [list(n) for n in want]
    assert len({tuple(n) for n in basis.states.tolist()}) == basis.size
    assert np.array_equal(basis.rank(basis.states), np.arange(basis.size))


def test_size_matches_binomial_full_grid():
    for D in range(2, 6):
        for N in range(0, 31):
            assert FockBasis(D, N).size == math.comb(N + D - 1, D - 1)


def test_roundtrip_exhaustive_grid():
    for D in range(2, 5):
        for N in range(0, 13):
            basis = FockBasis(D, N)
            for i in range(basis.size):
                n = basis.unrank(i)
                assert basis.rank(n) == i
                assert np.array_equal(basis.unrank(basis.rank(n)), n)


@settings(deadline=None, max_examples=20)
@given(st.integers(2, 4), st.integers(0, 12))
def test_roundtrip_property(D, N):
    basis = FockBasis(D, N)
    idx = np.linspace(0, basis.size - 1, min(basis.size, 25), dtype=int)
    for i in idx:
        assert basis.rank(basis.unrank(int(i))) == int(i)


def test_log_multinomial_trivial():
    assert log_multinomial([7, 0, 0]) == 0.0
    assert np.isclose(log_multinomial([1, 1]), math.log(2.0), atol=1e-14)


def test_log_multinomial_20_10_5_5():
    expected = math.log(exact_multinomial([10, 5, 5]))
    assert abs(log_multinomial([10, 5, 5]) - expected) < 1e-12 * abs(expected)


@settings(deadline=None, max_examples=60)
@given(st.lists(st.integers(0, 10), min_size=2, max_size=5))
def test_log_multinomial_vs_exact(n):
    if sum(n) > 20:
        n = [v % 3 for v in n]
    expected = math.log(exact_multinomial(n))
    got = float(log_multinomial(n))
    assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_log_factorial_table_is_lgamma_bitwise_after_growth(monkeypatch):
    # start from the 3-entry table, so the lookups below grow it twice
    start = np.array([math.lgamma(k + 1) for k in range(3)])
    monkeypatch.setattr(quditcat.fock, "_log_factorials", start)
    small = log_factorial([0, 1, 2, 5])
    k = np.arange(3001)
    table = log_factorial(k)
    assert len(quditcat.fock._log_factorials) >= 3001
    want = np.array([math.lgamma(int(v) + 1) for v in k])
    assert np.array_equal(table, want)
    assert np.array_equal(small, want[[0, 1, 2, 5]])
    assert log_factorial(7) == math.lgamma(8)


def test_log_factorial_matches_40_digit_mpmath():
    k = np.arange(0, 3001, 7)
    got = log_factorial(k)
    with mpmath.workdps(40):
        want = [mpmath.loggamma(int(v) + 1) for v in k]
    for v, g, w in zip(k, got, want):
        assert abs(g - w) <= 5e-16 * abs(w), v


def test_log_multinomial_matches_exact_at_n300():
    basis = shared_basis(3, 300)
    idx = np.arange(0, basis.size, 97)
    logs = log_multinomial(basis.states[idx])
    for n, got in zip(basis.states[idx], logs):
        expected = math.log(exact_multinomial(n))
        assert abs(got - expected) <= 1e-13 * max(1.0, expected), n.tolist()


def test_vectorized_log_multinomial():
    basis = FockBasis(3, 12)
    logs = basis.log_multinomials
    for i in (0, 5, basis.size - 1):
        assert np.isclose(
            logs[i], math.log(exact_multinomial(basis.states[i])), rtol=1e-12
        )


def test_multinomial_exact_for_every_vector_up_to_n20():
    basis = FockBasis(3, 20)
    for n, logval in zip(basis.states, basis.log_multinomials):
        exact = exact_multinomial(n)
        assert abs(math.exp(logval) - exact) <= 1e-12 * exact


def test_states_are_immutable():
    basis = shared_basis(3, 6)
    with pytest.raises(ValueError):
        basis.states[0, 0] = 99
