import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditcat.coherent import SymmetricState, dscs
from quditcat.fock import shared_basis
from quditcat.parity import (
    CatSpec,
    all_parity_labels,
    apply_parity_flip,
    cat_norm,
    cat_norm_sq,
    character,
    dcat,
    parity_of,
    project_parity,
    sector_mask,
)

from conftest import random_phase_point


def random_state(rng, basis):
    vec = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    return SymmetricState(basis, vec / np.linalg.norm(vec))


# ---------------------------------------------------------------- characters


def test_character_of_zero_label():
    for D in range(2, 7):
        zero = (0,) * (D - 1)
        for b in all_parity_labels(D):
            assert character(zero, b) == 1


def test_character_sum_identity():
    for D in range(2, 7):
        labels = all_parity_labels(D)
        for b in labels:
            total = sum(character(c, b) for c in labels)
            assert total == (2 ** (D - 1) if not any(b) else 0)


def test_character_product_identity():
    for D in range(2, 5):
        labels = all_parity_labels(D)
        for b, c1, c2 in itertools.product(labels, repeat=3):
            csum = tuple((x + y) % 2 for x, y in zip(c1, c2))
            assert character(c1, b) * character(c2, b) == character(csum, b)


def test_character_length_mismatch():
    with pytest.raises(ValueError):
        character((0, 1), (1,))


# ------------------------------------------------------------------ parity_of


def test_parity_of_condensate():
    assert parity_of([20, 0, 0]) == (0, 0)


def test_parity_of_by_inspection():
    assert parity_of([17, 2, 1]) == (0, 1)
    assert parity_of([9, 1]) == (1,)


# ----------------------------------------------------------------- projection


def test_projection_idempotent(rng, basis_3_20):
    state = random_state(rng, basis_3_20)
    projected, _ = project_parity(state, (1, 0))
    again, norm = project_parity(projected, (1, 0))
    assert abs(norm - 1.0) < 1e-12
    assert np.allclose(again.coeffs, projected.coeffs, atol=1e-14)


def test_projection_completeness(rng, basis_3_20):
    state = random_state(rng, basis_3_20)
    total = sum(
        norm**2 for _, norm in (project_parity(state, c) for c in all_parity_labels(3))
    )
    assert abs(total - 1.0) < 1e-12


def test_projection_masks_partition(basis_3_20):
    total = np.zeros(basis_3_20.size, dtype=int)
    for c in all_parity_labels(3):
        total += sector_mask(basis_3_20, c)
    assert np.all(total == 1)


def test_projection_zero_flag(basis_3_20):
    state = dscs(basis_3_20, [0.0, 0.0])
    projected, norm = project_parity(state, (1, 1))
    assert projected is None
    assert norm == 0.0


def test_projections_mutually_orthogonal_d4(rng):
    basis = shared_basis(4, 6)
    state = random_state(rng, basis)
    for c in all_parity_labels(4):
        projected, norm = project_parity(state, c)
        if projected is None:
            continue
        for c2 in all_parity_labels(4):
            reproj, norm2 = project_parity(projected, c2)
            if c2 == c:
                assert abs(norm2 - 1.0) < 1e-12
                assert np.allclose(reproj.coeffs, projected.coeffs, atol=1e-14)
            else:
                assert reproj is None and norm2 == 0.0


# ------------------------------------------------------------------- cat_norm


def test_cat_norm_condensate_even():
    assert cat_norm(CatSpec([0.0], (0,), 12)) == 1.0


def test_cat_norm_odd_vanishes_like_sqrt_n_z():
    N = 30
    for z in (1e-3, 1e-4):
        value = cat_norm(CatSpec([z], (1,), N))
        assert abs(value / z - math.sqrt(N)) < 0.01 * math.sqrt(N)
    assert cat_norm(CatSpec([0.0], (1,), N)) == 0.0


def test_cat_norm_matches_four_term_formula():
    z1, z2, N = 0.5, 0.5, 20
    u, v = z1**2, z2**2
    base = 1.0 + u + v
    for c in all_parity_labels(3):
        expected = (
            base**N
            + (-1) ** c[0] * (1 - u + v) ** N
            + (-1) ** c[1] * (1 + u - v) ** N
            + (-1) ** (c[0] + c[1]) * (1 - u - v) ** N
        ) / (4 * base**N)
        assert abs(cat_norm_sq(CatSpec([z1, z2], c, N)) - expected) < 1e-12


def test_cat_norm_matches_projection_norm(rng, basis_3_20):
    for _ in range(3):
        z = random_phase_point(rng, 3)
        state = dscs(basis_3_20, z)
        for c in all_parity_labels(3):
            _, norm = project_parity(state, c)
            assert abs(norm - cat_norm(CatSpec(z, c, 20))) < 1e-10


# ----------------------------------------------------------------------- dcat


def test_dcat_even_odd_d2(rng):
    N = 50
    basis = shared_basis(2, N)
    for _ in range(3):
        z = complex(rng.uniform(0.1, 1.0), rng.uniform(-0.5, 0.5))
        plus = dscs(basis, [z]).coeffs + dscs(basis, [-z]).coeffs
        minus = dscs(basis, [z]).coeffs - dscs(basis, [-z]).coeffs
        ratio = ((1 - abs(z) ** 2) / (1 + abs(z) ** 2)) ** N
        even = plus / math.sqrt(2 + 2 * ratio)
        odd = minus / math.sqrt(2 - 2 * ratio)
        got_even = dcat(basis, CatSpec([z], (0,), N)).coeffs
        got_odd = dcat(basis, CatSpec([z], (1,), N)).coeffs
        assert np.abs(got_even - even).max() < 1e-10
        assert np.abs(got_odd - odd).max() < 1e-10


def test_dcat_zero_limit_d2():
    basis = shared_basis(2, 10)
    cat = dcat(basis, CatSpec([0.0], (1,), 10))
    expected = np.zeros(basis.size)
    expected[basis.rank([9, 1])] = 1.0
    assert np.array_equal(cat.coeffs.real, expected)


def test_dcat_zero_limit_d3_all_sectors(basis_3_20):
    for c in all_parity_labels(3):
        cat = dcat(basis_3_20, CatSpec([0.0, 0.0], c, 20))
        target = [20 - c[0] - c[1], c[0], c[1]]
        expected = np.zeros(basis_3_20.size)
        expected[basis_3_20.rank(target)] = 1.0
        assert np.array_equal(cat.coeffs.real, expected)


def test_dcat_four_branch_superposition(rng):
    for D, N in ((2, 20), (3, 20), (4, 12)):
        basis = shared_basis(D, N)
        z = random_phase_point(rng, D)
        for c in all_parity_labels(D):
            acc = np.zeros(basis.size, dtype=complex)
            for b in all_parity_labels(D):
                sign = character(c, b)
                acc += sign * dscs(basis, apply_parity_flip(b, z)).coeffs
            norm = np.linalg.norm(acc)
            if norm < 1e-12:
                continue
            acc /= norm
            got = dcat(basis, CatSpec(z, c, N)).coeffs
            assert np.abs(got - acc).max() < 1e-10


def test_dcat_off_sector_coefficients_vanish_exactly(rng):
    # N = 500 at |z| = 4 spans hundreds of decades of amplitude
    z_far = 4.0 * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2))
    for N, z in ((20, random_phase_point(rng, 3)), (500, z_far)):
        basis = shared_basis(3, N)
        for c in all_parity_labels(3):
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                cat = dcat(basis, CatSpec(z, c, N))
            assert np.all(np.isfinite(cat.coeffs))
            assert abs(cat.norm() - 1.0) < 1e-12
            off = ~sector_mask(basis, c)
            assert np.all(cat.coeffs[off] == 0.0)


def test_dcat_continuity_at_branch_switch(basis_3_20):
    limit = dcat(basis_3_20, CatSpec([0.0, 0.7], (1, 0), 20))
    for eps in (1e-12, 3e-9, 1e-6):
        near = dcat(basis_3_20, CatSpec([eps, 0.7], (1, 0), 20))
        assert abs(near.inner(limit)) ** 2 >= 1.0 - 1e-10


def test_dcat_reduced_limit_is_order_independent():
    basis = shared_basis(4, 12)
    c = (1, 0, 1)
    target = dcat(basis, CatSpec([0.0, 0.6, 0.0], c, 12))
    approach_a = dcat(basis, CatSpec([1e-7, 0.6, 1e-12], c, 12))
    approach_b = dcat(basis, CatSpec([1e-12, 0.6, 1e-7], c, 12))
    assert abs(target.inner(approach_a)) ** 2 > 1.0 - 1e-4
    assert abs(target.inner(approach_b)) ** 2 > 1.0 - 1e-4


def test_dcat_reduced_matches_manual_embedding():
    # one zeroed odd coordinate: cat of N-1 particles plus one quantum
    N = 14
    basis = shared_basis(3, N)
    reduced = shared_basis(3, N - 1)
    inner = dcat(reduced, CatSpec([0.0, 0.45], (0, 1), N - 1))
    embedded = np.zeros(basis.size, dtype=complex)
    for idx in np.nonzero(inner.coeffs)[0]:
        n = reduced.states[idx].copy()
        n[1] += 1
        embedded[basis.rank(n)] = inner.coeffs[idx]
    got = dcat(basis, CatSpec([0.0, 0.45], (1, 1), N))
    assert np.abs(got.coeffs - embedded).max() < 1e-12


# ----------------------------------------------------------------- sign flips


def test_apply_parity_flip_identity_and_negation():
    z = np.array([0.3 + 0.1j, -0.2])
    assert np.array_equal(apply_parity_flip((0, 0), z), z)
    assert np.array_equal(apply_parity_flip((1, 1), z), -z)


@settings(deadline=None, max_examples=15)
@given(st.tuples(st.integers(0, 1), st.integers(0, 1)))
def test_flip_matches_fock_sign_pattern(b):
    basis = shared_basis(3, 9)
    z = np.array([0.4 + 0.2j, 0.6 - 0.1j])
    flipped = dscs(basis, apply_parity_flip(b, z)).coeffs
    signs = (-1.0) ** (basis.states[:, 1:] @ np.asarray(b))
    assert np.abs(flipped - signs * dscs(basis, z).coeffs).max() < 1e-14
