import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditcat.coherent import (
    SymmetricState,
    cs_expectation,
    cs_quadratic_expectation,
    dscs,
    dscs_coefficients,
    overlap,
    spin_matrix,
)
from quditcat.fock import FockBasis, shared_basis

from conftest import random_phase_point

coords = st.complex_numbers(max_magnitude=2.0, allow_infinity=False, allow_nan=False)


def test_dscs_condensate_limit():
    basis = shared_basis(3, 20)
    state = dscs(basis, [0.0, 0.0])
    assert state.coeffs[0] == 1.0
    assert np.all(state.coeffs[1:] == 0.0)


def test_dscs_d2_n1_z1():
    state = dscs(shared_basis(2, 1), [1.0])
    assert np.allclose(state.coeffs, [1 / math.sqrt(2)] * 2, atol=1e-15)


@settings(deadline=None, max_examples=25)
@given(st.lists(coords, min_size=2, max_size=2))
def test_dscs_unit_norm(z):
    basis = shared_basis(3, 20)
    state = dscs(basis, z)
    assert abs(state.norm() - 1.0) <= 1e-12


@pytest.mark.parametrize("N, z", [(300, -10.45), (1000, -1.9)])
def test_dscs_unit_norm_far_from_the_origin(N, z):
    # the raw log-space coefficients drift from norm 1 by 1.8e-13 and
    # -5.5e-13 here; the state is renormalized
    coeffs = dscs(shared_basis(2, N), [z]).coeffs
    assert abs(np.vdot(coeffs, coeffs).real - 1.0) <= 4 * np.finfo(float).eps


def test_overlap_self_is_one():
    z = np.array([0.7 + 0.2j, -0.4j])
    assert abs(overlap(z, z, 37) - 1.0) < 1e-12


def test_overlap_antipodal_d2():
    assert overlap([1.0], [-1.0], 2) == 0.0


def test_overlap_matches_fock_inner_product(rng):
    for N in (20, 50):
        basis = shared_basis(3, N)
        for _ in range(5):
            z1 = random_phase_point(rng, 3)
            z2 = random_phase_point(rng, 3)
            expected = dscs(basis, z1).inner(dscs(basis, z2))
            assert abs(overlap(z1, z2, N) - expected) < 1e-10


@settings(deadline=None, max_examples=40)
@given(
    st.lists(coords, min_size=2, max_size=2),
    st.lists(coords, min_size=2, max_size=2),
)
def test_overlap_bounded_by_one(z1, z2):
    value = abs(overlap(z1, z2, 15))
    assert value <= 1.0 + 1e-12
    if not np.allclose(z1, z2):
        assert value < 1.0 + 1e-12


def test_overlap_unity_only_at_equal_points(rng):
    z = random_phase_point(rng, 3)
    w = z + 0.05
    assert abs(overlap(z, w, 25)) < 1.0 - 1e-6


def test_spin_matrix_number_operator():
    basis = shared_basis(3, 7)
    for i in range(3):
        diag = spin_matrix(basis, i, i).toarray().diagonal()
        assert np.array_equal(diag, basis.states[:, i].astype(float))


def test_spin_matrix_single_hop_d2():
    basis = FockBasis(2, 1)
    s01 = spin_matrix(basis, 0, 1).toarray()
    src = basis.rank([0, 1])
    dst = basis.rank([1, 0])
    assert s01[dst, src] == 1.0
    assert np.count_nonzero(s01) == 1


def test_spin_matrix_one_entry_per_column():
    basis = shared_basis(3, 9)
    for i, j in itertools.permutations(range(3), 2):
        mat = spin_matrix(basis, i, j).tocsc()
        per_col = np.diff(mat.indptr)
        assert per_col.max() <= 1


def test_spin_matrix_matches_per_state_loop():
    # the batched construction against one scalar rank call per state
    basis = shared_basis(4, 6)
    for i, j in itertools.permutations(range(4), 2):
        expected = np.zeros((basis.size, basis.size))
        for col, n in enumerate(basis.states):
            if n[j] > 0:
                m = n.copy()
                m[i] += 1
                m[j] -= 1
                expected[basis.rank(m), col] = np.sqrt((n[i] + 1.0) * n[j])
        assert np.array_equal(spin_matrix(basis, i, j).toarray(), expected)


def test_spin_matrix_rejects_bad_levels():
    basis = shared_basis(3, 4)
    with pytest.raises(ValueError):
        spin_matrix(basis, 0, 3)


def test_commutation_relations_d3():
    basis = shared_basis(3, 6)
    ops = {(i, j): spin_matrix(basis, i, j) for i in range(3) for j in range(3)}
    for (i, j), (k, l) in itertools.product(ops, repeat=2):
        lhs = (ops[i, j] @ ops[k, l] - ops[k, l] @ ops[i, j]).toarray()
        rhs = np.zeros_like(lhs)
        if j == k:
            rhs += ops[i, l].toarray()
        if i == l:
            rhs -= ops[k, j].toarray()
        assert np.abs(lhs - rhs).max() <= 1e-12


def test_cs_expectation_condensate():
    z0 = np.zeros(2)
    assert cs_expectation(z0, z0, 0, 0, 11) == 11
    assert cs_expectation(z0, z0, 1, 1, 11) == 0
    assert cs_expectation(z0, z0, 2, 2, 11) == 0


def test_cs_expectation_matches_matrix_sandwich(rng):
    basis = shared_basis(3, 10)
    for _ in range(3):
        z1 = random_phase_point(rng, 3)
        z2 = random_phase_point(rng, 3)
        s1 = dscs(basis, z1)
        s2 = dscs(basis, z2)
        for i in range(3):
            for j in range(3):
                mat = spin_matrix(basis, i, j)
                expected = np.vdot(s1.coeffs, mat @ s2.coeffs)
                got = cs_expectation(z1, z2, i, j, 10)
                assert abs(got - expected) < 1e-10


def test_cs_quadratic_condensate_number_squared():
    z0 = np.zeros(2)
    assert cs_quadratic_expectation(z0, z0, 0, 0, 0, 0, 9) == 81


def test_cs_quadratic_matches_matrix_sandwich(rng):
    basis = shared_basis(3, 8)
    z1 = random_phase_point(rng, 3)
    z2 = random_phase_point(rng, 3)
    s1 = dscs(basis, z1)
    s2 = dscs(basis, z2)
    for i, j, k, l in itertools.product(range(3), repeat=4):
        mat = spin_matrix(basis, i, j) @ spin_matrix(basis, k, l)
        expected = np.vdot(s1.coeffs, mat @ s2.coeffs)
        got = cs_quadratic_expectation(z1, z2, i, j, k, l, 8)
        assert abs(got - expected) < 1e-10


def test_fluctuations_vanish_with_n():
    z = np.array([0.5 + 0.0j, 0.3 + 0.0j])
    ratios = []
    for N in (10, 100, 1000):
        quad = cs_quadratic_expectation(z, z, 1, 0, 0, 1, N)
        e1 = cs_expectation(z, z, 1, 0, N)
        e2 = cs_expectation(z, z, 0, 1, N)
        ratios.append(abs(quad / (e1 * e2) - 1.0))
    assert ratios[0] > ratios[1] > ratios[2]
    assert ratios[2] < 2e-3


# pairs of D = 3 phase points with moduli from 1e-3 to 1e3: near and far
# pairs, exact zero coordinates, and an antipodal pair where rho = 0
WIDE_PAIRS = [
    ([1e-3, -2e-3j], [3e-3 + 1e-3j, 1e-3]),
    ([0.4 + 0.3j, -0.8], [0.5j, 0.9 - 0.2j]),
    ([0.4 + 0.3j, -0.8], [0.41 + 0.3j, -0.8]),
    ([1e3, 2e2j], [1.0001e3, 2e2j]),
    ([1e3, 2e2j], [-3e2 + 1e2j, 1e3]),
    ([1e-3, 1e3j], [1e3, -1e-3]),
    ([0.0, 0.7j], [1e-3, 0.0]),
    ([3.0, 4.0j], [-0.12, -0.16j]),
]


@pytest.mark.parametrize("N", [20, 100, 300])
def test_closed_forms_match_fock_sums_over_wide_range(N):
    # errors scaled by the size of each element: 1, N and N^2
    assert any(1.0 + np.vdot(z1, z2) == 0.0 for z1, z2 in WIDE_PAIRS)
    basis = shared_basis(3, N)
    ops = {(i, j): spin_matrix(basis, i, j) for i in range(3) for j in range(3)}
    for z1, z2 in WIDE_PAIRS:
        c1 = dscs_coefficients(basis, z1)
        c2 = dscs_coefficients(basis, z2)
        # S_ij^+ = S_ji, so <z1|S_ij S_kl|z2> = (S_ji c1)^+ (S_kl c2)
        left = {(i, j): ops[j, i] @ c1 for i, j in ops}
        right = {key: op @ c2 for key, op in ops.items()}
        assert abs(overlap(z1, z2, N) - np.vdot(c1, c2)) <= 1e-11
        for (i, j), s_c2 in right.items():
            got = cs_expectation(z1, z2, i, j, N)
            assert abs(got - np.vdot(c1, s_c2)) <= 1e-11 * N
        for (i, j), (k, l) in itertools.product(ops, repeat=2):
            got = cs_quadratic_expectation(z1, z2, i, j, k, l, N)
            expected = np.vdot(left[i, j], right[k, l])
            assert abs(got - expected) <= 1e-11 * N**2


def test_batched_coefficients_match_single(rng):
    basis = shared_basis(3, 15)
    zs = np.stack([random_phase_point(rng, 3) for _ in range(4)])
    batch = dscs_coefficients(basis, zs)
    for row, z in zip(batch, zs):
        assert np.allclose(row, dscs(basis, z).coeffs, atol=1e-14)


def test_state_norm_validation():
    basis = shared_basis(2, 3)
    with pytest.raises(ValueError):
        SymmetricState(basis, np.ones(basis.size))
    SymmetricState(basis, np.ones(basis.size), normalized=False)


def test_state_norm_validation_rejects_nan():
    basis = shared_basis(3, 6)
    coeffs = dscs(basis, [0.3, 0.5]).coeffs.copy()
    coeffs[4] = np.nan
    with pytest.raises(ValueError, match="norm"):
        SymmetricState(basis, coeffs)
