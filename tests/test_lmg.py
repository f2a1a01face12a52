import csv
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import quditcat.lmg
from quditcat.cli import EXIT_CONFIG, main
from quditcat.coherent import SymmetricState
from quditcat.fock import shared_basis
from quditcat.lmg import (
    DiagonalizationError,
    LMGParams,
    build_hamiltonian,
    classify_parity,
    diagonalize,
)
from quditcat.parity import CatSpec, all_parity_labels, dcat, parity_of, sector_mask
from quditcat.variational import finite_N_energy

from conftest import random_phase_point

EXPECTED_LOW_PARITIES = [(0, 0), (1, 0), (0, 0), (0, 1), (1, 0), (1, 1)]


def test_params_validation():
    with pytest.raises(ValueError):
        LMGParams(1, 5)
    with pytest.raises(ValueError):
        LMGParams(3, 0)
    with pytest.raises(ValueError):
        LMGParams(3, 1)  # density normalization needs two particles


def test_free_spectrum_d2():
    basis = shared_basis(2, 2)
    H = build_hamiltonian(LMGParams(2, 2, 1.0, 0.0), basis).toarray()
    assert np.allclose(np.sort(np.linalg.eigvalsh(H)), [-1.0, 0.0, 1.0], atol=1e-14)


def test_free_spectrum_d3_lowest():
    basis = shared_basis(3, 20)
    H = build_hamiltonian(LMGParams(3, 20, 1.0, 0.0), basis)
    spec = diagonalize(H, basis, k=2)
    assert abs(spec.eigenvalues[0] + 1.0) < 1e-14
    assert abs(spec.eigenvalues[1] + 19 / 20) < 1e-14


def test_hamiltonian_is_exactly_symmetric_and_real():
    basis = shared_basis(3, 11)
    H = build_hamiltonian(LMGParams(3, 11, 1.0, 0.75), basis).toarray()
    assert H.dtype == np.float64
    assert np.array_equal(H, H.T)


def test_hamiltonian_parity_blocks_exact():
    basis = shared_basis(3, 10)
    H = build_hamiltonian(LMGParams(3, 10, 1.0, 1.3), basis).toarray()
    codes = basis.sector_codes
    cross = codes[:, None] != codes[None, :]
    assert np.all(H[cross] == 0.0)


def test_hamiltonian_commutes_with_level_parities():
    basis = shared_basis(3, 9)
    H = build_hamiltonian(LMGParams(3, 9, 1.0, 2.0), basis).toarray()
    for j in range(1, 3):
        signs = np.where(basis.states[:, j] % 2 == 1, -1.0, 1.0)
        assert np.all(H * signs[None, :] - signs[:, None] * H == 0.0)


def test_diagonalize_free_case_matches_diagonal():
    basis = shared_basis(3, 8)
    H = build_hamiltonian(LMGParams(3, 8, 1.0, 0.0), basis).toarray()
    spec = diagonalize(H, basis)
    assert np.allclose(spec.eigenvalues, np.sort(np.diag(H)), atol=1e-14)


def test_diagonalize_residuals_and_orthonormality():
    basis = shared_basis(3, 15)
    H = build_hamiltonian(LMGParams(3, 15, 1.0, 1.2), basis)
    spec = diagonalize(H, basis, k=8)
    for e, state in zip(spec.eigenvalues, spec.eigenstates):
        assert np.linalg.norm(H @ state.coeffs - e * state.coeffs) < 1e-10 * np.abs(H).sum(axis=1).max()
    overlap = np.array(
        [[abs(a.inner(b)) for a in spec.eigenstates] for b in spec.eigenstates]
    )
    assert np.allclose(overlap, np.eye(8), atol=1e-10)


def test_subset_matches_full_decomposition():
    basis = shared_basis(3, 10)
    H = build_hamiltonian(LMGParams(3, 10, 1.0, 0.8), basis)
    full = diagonalize(H, basis)
    head = diagonalize(H, basis, k=5)
    assert np.allclose(full.eigenvalues[:5], head.eigenvalues, atol=1e-12)


def test_parity_multiset_through_the_phases():
    basis = shared_basis(3, 20)
    expected = sorted(EXPECTED_LOW_PARITIES)
    for lam in (0.1, 1.0, 2.5):
        H = build_hamiltonian(LMGParams(3, 20, 1.0, lam), basis)
        spec = diagonalize(H, basis, k=6)
        assert sorted(spec.parities) == expected
        for label, state in zip(spec.parities, spec.eigenstates):
            assert classify_parity(state) == (label, pytest.approx(1.0, abs=1e-8))


def test_parity_sequence_in_phase_one():
    # strict energy-ordered sequence before any level crossing
    basis = shared_basis(3, 20)
    H = build_hamiltonian(LMGParams(3, 20, 1.0, 0.1), basis)
    spec = diagonalize(H, basis, k=6)
    assert spec.parities == EXPECTED_LOW_PARITIES


def test_exactly_degenerate_free_levels_get_deterministic_labels():
    basis = shared_basis(3, 20)
    H = build_hamiltonian(LMGParams(3, 20, 1.0, 0.0), basis)
    spec = diagonalize(H, basis, k=6)
    assert spec.parities == EXPECTED_LOW_PARITIES
    for state in spec.eigenstates:
        assert classify_parity(state)[1] >= 1.0 - 1e-12


def _diagonal_spectrum(placed: dict) -> list:
    """Labels of the four lowest levels of a diagonal H over (D=3, N=10).

    `placed` maps occupation vectors to their energies; every other state
    sits at 1 or above.
    """
    basis = shared_basis(3, 10)
    diag = 1.0 + np.arange(basis.size) / basis.size
    for occ, energy in placed.items():
        diag[basis.rank(occ)] = energy
    return diagonalize(sparse.diags_array(diag), basis, k=4).parities


def test_real_cross_sector_splitting_is_ordered_by_energy():
    # a (1,1) level 1e-11 below a (0,0) one is a resolved splitting, far
    # above solver accuracy, so energy order wins over label order
    labels = _diagonal_spectrum(
        {(10, 0, 0): 0.0, (8, 1, 1): -1e-11, (9, 1, 0): 0.5, (9, 0, 1): 0.5}
    )
    assert labels == [(1, 1), (0, 0), (0, 1), (1, 0)]


def test_exact_cross_sector_ties_are_ordered_by_label():
    labels = _diagonal_spectrum(
        {(8, 1, 1): -1.0, (9, 1, 0): -1.0, (9, 0, 1): -1.0, (10, 0, 0): -1.0}
    )
    assert labels == [(0, 0), (0, 1), (1, 0), (1, 1)]


@pytest.mark.parametrize("lam", [0.2, 1.0, 2.5])
def test_sector_solve_is_complete_and_labels_are_exact(lam):
    basis = shared_basis(3, 30)
    H = build_hamiltonian(LMGParams(3, 30, 1.0, lam), basis)
    spec = diagonalize(H, basis)
    assert np.allclose(
        spec.eigenvalues, np.linalg.eigvalsh(H.toarray()), rtol=0.0, atol=1e-12
    )
    for label, state in zip(spec.parities, spec.eigenstates):
        measured, weight = classify_parity(state)
        assert measured == label
        assert abs(weight - 1.0) < 1e-12


@pytest.mark.parametrize("lam", [0.1, 1.0, 2.5])
def test_ground_states_are_each_sectors_lowest_level(lam):
    basis = shared_basis(3, 20)
    H = build_hamiltonian(LMGParams(3, 20, 1.0, lam), basis)
    full = diagonalize(H, basis)
    for spec in (full, diagonalize(H, basis, k=1)):
        assert sorted(spec.ground_states) == all_parity_labels(3)
        for label, state in spec.ground_states.items():
            first = full.parities.index(label)
            energy = np.vdot(state.coeffs, H @ state.coeffs).real
            assert abs(energy - full.eigenvalues[first]) < 1e-12
            assert abs(abs(state.inner(full.eigenstates[first])) - 1.0) < 1e-10
            assert classify_parity(state) == (label, pytest.approx(1.0, abs=1e-12))


def test_nan_eigenpair_fails_the_residual_check(monkeypatch):
    real_eigh = quditcat.lmg.scipy.linalg.eigh

    def nan_eigh(*args, **kwargs):
        vals, vecs = real_eigh(*args, **kwargs)
        vecs[:, 0] = np.nan
        return vals, vecs

    monkeypatch.setattr(quditcat.lmg.scipy.linalg, "eigh", nan_eigh)
    basis = shared_basis(3, 8)
    H = build_hamiltonian(LMGParams(3, 8, 1.0, 1.0), basis)
    with pytest.raises(DiagonalizationError, match="residual"):
        diagonalize(H, basis, k=2)


def test_doublet_gap_shrinks_with_coupling():
    basis = shared_basis(3, 20)
    gaps = {}
    for lam in (0.25, 2.5):
        H = build_hamiltonian(LMGParams(3, 20, 1.0, lam), basis)
        spec = diagonalize(H, basis, k=2)
        gaps[lam] = spec.eigenvalues[1] - spec.eigenvalues[0]
    assert gaps[2.5] < 0.01 * gaps[0.25]


def test_classify_parity_fock_state(basis_3_20):
    coeffs = np.zeros(basis_3_20.size)
    coeffs[basis_3_20.rank([19, 1, 0])] = 1.0
    label, certainty = classify_parity(SymmetricState(basis_3_20, coeffs))
    assert label == (1, 0)
    assert certainty == 1.0


def test_classify_parity_cat(basis_3_20):
    cat = dcat(basis_3_20, CatSpec([0.4, 0.7], (0, 1), 20))
    label, certainty = classify_parity(cat)
    assert label == (0, 1)
    assert abs(certainty - 1.0) < 1e-12


def test_classify_parity_equal_mixture(basis_3_20):
    a = np.zeros(basis_3_20.size)
    a[basis_3_20.rank([20, 0, 0])] = 1.0
    b = np.zeros(basis_3_20.size)
    b[basis_3_20.rank([19, 1, 0])] = 1.0
    mix = SymmetricState(basis_3_20, (a + b) / np.sqrt(2))
    label, certainty = classify_parity(mix)
    assert abs(certainty - 0.5) < 1e-12
    assert label == (0, 0)  # lexicographic tie-break


@pytest.mark.parametrize("D", [2, 3, 4, 5])
def test_sector_encodings_agree_on_every_basis_state(D):
    N = 5  # enough particles to populate all 2^(D-1) sectors at D = 5
    basis = shared_basis(D, N)
    labels = all_parity_labels(D)
    own = [parity_of(n) for n in basis.states]
    assert [labels[code] for code in basis.sector_codes] == own
    for label in labels:
        assert np.array_equal(sector_mask(basis, label), [p == label for p in own])
    for i, label in enumerate(own):
        coeffs = np.zeros(basis.size)
        coeffs[i] = 1.0
        assert classify_parity(SymmetricState(basis, coeffs)) == (label, 1.0)
    spec = diagonalize(build_hamiltonian(LMGParams(D, N, 1.0, 0.8), basis), basis)
    assert sorted(set(spec.parities)) == labels
    for label, state in zip(spec.parities, spec.eigenstates):
        assert all(own[i] == label for i in np.nonzero(state.coeffs)[0])


def test_spectrum_sweep_rows_and_errors(tmp_path):
    def sweep(grid, out):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return main(
                ["spectrum", "--N", "12", "--lambda-values", grid,
                 "--levels", "4", "--out", str(out)]
            )

    out = tmp_path / "sweep.csv"
    assert sweep("0.0,1.0,2.5", out) == 0
    rows = list(csv.DictReader(Path(out).read_text().splitlines()[1:]))
    assert [float(r["lambda"]) for r in rows] == [0.0, 1.0, 2.5]
    assert abs(float(rows[0]["E0"]) + 1.0) < 1e-12
    # ground densities never exceed the free value -1 once coupling is on
    for row in rows:
        assert float(row["E0"]) <= -1.0 + 1e-12
    # a non-finite coupling is rejected before any row is solved or written
    bad = tmp_path / "bad.csv"
    assert sweep("0.0,1.0,nan,2.5", bad) == EXIT_CONFIG
    assert not bad.exists()


@settings(deadline=None, max_examples=10)
@given(st.floats(0.05, 3.0))
def test_variational_bound(lam):
    basis = shared_basis(3, 12)
    params = LMGParams(3, 12, 1.0, lam)
    H = build_hamiltonian(params, basis)
    e0 = diagonalize(H, basis, k=1).eigenvalues[0]
    rng = np.random.default_rng(int(lam * 1e4))
    for _ in range(4):
        z = random_phase_point(rng, 3)
        assert e0 <= finite_N_energy(z, params) + 1e-12


def test_spectrum_invariant_under_basis_relabeling(rng):
    basis = shared_basis(3, 9)
    H = build_hamiltonian(LMGParams(3, 9, 1.0, 1.1), basis).toarray()
    perm = rng.permutation(basis.size)
    shuffled = H[np.ix_(perm, perm)]
    assert np.allclose(
        np.linalg.eigvalsh(H), np.linalg.eigvalsh(shuffled), atol=1e-10
    )
