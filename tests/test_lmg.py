import csv
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import ArpackNoConvergence, eigsh
from hypothesis import given, settings
from hypothesis import strategies as st

import quditcat.lmg
from quditcat.cli import EXIT_CONFIG, main
from quditcat.coherent import SymmetricState, spin_matrix
from quditcat.fock import shared_basis
from quditcat.lmg import (
    DENSE_BLOCK_MAX,
    RESIDUAL_TOL,
    TIE_ULPS,
    DiagonalizationError,
    LMGParams,
    build_hamiltonian,
    classify_parity,
    diagonalize,
)
from quditcat.parity import CatSpec, all_parity_labels, dcat, parity_of, sector_mask
from quditcat.variational import critical_point, finite_N_energy

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


@pytest.mark.parametrize("lam", [0.0, 0.37, 2.5])
@pytest.mark.parametrize("D, N", [(2, 7), (3, 12), (4, 8)])
def test_hamiltonian_matches_the_definition_over_every_ordered_pair(D, N, lam):
    # (eps/N)(S_{D-1,D-1} - S_00) - lam/(N(N-1)) sum_{i != j} S_ij^2, from
    # every ordered pair and then symmetrized, the same bits as the build
    # from pair hops and their transposes
    basis = shared_basis(D, N)
    one_body = (spin_matrix(basis, D - 1, D - 1) - spin_matrix(basis, 0, 0)).astype(float)
    pairs = [spin_matrix(basis, i, j) for i in range(D) for j in range(D) if i != j]
    pair_hop = sum(s @ s for s in pairs)
    H = (1.0 / N) * one_body - (lam / (N * (N - 1))) * pair_hop
    expected = ((H + H.T) / 2.0).toarray()
    assert np.array_equal(build_hamiltonian(LMGParams(D, N, 1.0, lam), basis).toarray(), expected)


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
    with pytest.raises(DiagonalizationError, match="residual"):
        diagonalize(H, basis, k=1, sector=(1, 0))


def _sector_blocks(H, basis):
    """(label, indices, block) for every non-empty sector, in code order."""
    H = sparse.csr_array(H)
    for code, label in enumerate(all_parity_labels(basis.D)):
        idx = np.nonzero(basis.sector_codes == code)[0]
        if idx.size:
            yield label, idx, H[idx][:, idx]


def _dense_sector_levels(H, basis, k):
    """Lowest min(k, n_c) levels of each sector block from dense eigh.

    Returns the merged energies in ascending order with their labels.
    """
    energies, labels = [], []
    for label, _, block in _sector_blocks(H, basis):
        vals = scipy.linalg.eigh(
            block.toarray(), eigvals_only=True,
            subset_by_index=(0, min(k, block.shape[0]) - 1),
        )
        energies.extend(vals)
        labels.extend([label] * vals.size)
    order = np.argsort(energies, kind="stable")
    return np.asarray(energies)[order], [labels[i] for i in order]


def _assert_matches_dense_sector_levels(spec, H, basis, k):
    energies, labels = _dense_sector_levels(H, basis, k)
    assert np.all(np.abs(spec.eigenvalues - energies[:k]) <= 1e-12)
    # levels closer than the energy tolerance form one cluster, whose
    # members either solver may order differently
    cluster = np.cumsum(np.r_[0, np.diff(energies) > 1e-12])
    for c in np.unique(cluster[:k]):
        got = sorted(spec.parities[i] for i in np.nonzero(cluster[:k] == c)[0])
        want = sorted(labels[i] for i in np.nonzero(cluster == c)[0])
        if np.all(cluster[k:] != c):
            assert got == want
        else:  # the cluster is cut at k: any of its members may be kept
            assert all(got.count(x) <= want.count(x) for x in got)


def _spy_on_dense_solves(monkeypatch) -> list:
    """Record the block size of every dense eigh call diagonalize makes."""
    sizes = []
    real_eigh = quditcat.lmg.scipy.linalg.eigh

    def spy(a, *args, **kwargs):
        sizes.append(a.shape[0])
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(quditcat.lmg.scipy.linalg, "eigh", spy)
    return sizes


@pytest.mark.parametrize(
    "D, N, lam, k",
    [(3, 100, 0.3, 6), (3, 100, 1.0, 6), (3, 100, 2.5, 6),
     (2, 700, 1.0, 6), (4, 24, 1.0, 6)],
)
def test_lanczos_blocks_match_dense_eigh(monkeypatch, D, N, lam, k):
    basis = shared_basis(D, N)
    H = build_hamiltonian(LMGParams(D, N, 1.0, lam), basis)
    dense_sizes = _spy_on_dense_solves(monkeypatch)
    spec = diagonalize(H, basis, k=k)
    # every block above the bound kept its Lanczos solve
    sizes = [idx.size for _, idx, _ in _sector_blocks(H, basis)]
    assert any(n > DENSE_BLOCK_MAX for n in sizes)
    assert dense_sizes == [n for n in sizes if n <= DENSE_BLOCK_MAX]
    monkeypatch.undo()
    _assert_matches_dense_sector_levels(spec, H, basis, k)
    for label, state in spec.ground_states.items():
        assert classify_parity(state) == (label, pytest.approx(1.0, abs=1e-12))


def _eigsh_from_all_ones(*args, **kwargs):
    # on a diagonal block the all-ones start vector, and so its whole Krylov
    # space, holds one direction per degenerate level: the copies are missed
    kwargs["v0"] = np.ones(args[0].shape[0])
    return eigsh(*args, **kwargs)


@pytest.mark.parametrize("start", ["seeded", "all-ones"])
def test_degenerate_free_levels_keep_their_multiplicities(monkeypatch, start):
    # at lam = 0 each sector block is diagonal with many exactly degenerate
    # levels; a Lanczos solve that misses a copy must fail the inertia count
    # and give way to dense eigh
    basis = shared_basis(3, 60)
    H = build_hamiltonian(LMGParams(3, 60, 1.0, 0.0), basis)
    if start == "all-ones":
        monkeypatch.setattr(quditcat.lmg, "eigsh", _eigsh_from_all_ones)
    dense_sizes = _spy_on_dense_solves(monkeypatch)
    spec = diagonalize(H, basis, k=20)
    assert len(dense_sizes) == (4 if start == "all-ones" else 0)
    monkeypatch.undo()
    # energies to 1e-12 on levels 1/60 apart: the same multiplicities
    _assert_matches_dense_sector_levels(spec, H, basis, 20)


def test_arpack_failure_falls_back_to_dense(monkeypatch):
    basis = shared_basis(3, 60)
    H = build_hamiltonian(LMGParams(3, 60, 1.0, 1.0), basis)
    calls = []

    def failing_eigsh(*args, **kwargs):
        calls.append(args[0].shape[0])
        raise ArpackNoConvergence("no convergence", np.empty(0), np.empty((0, 0)))

    monkeypatch.setattr(quditcat.lmg, "eigsh", failing_eigsh)
    spec = diagonalize(H, basis, k=4)
    assert len(calls) == 4
    energies, labels = _dense_sector_levels(H, basis, 4)
    assert np.array_equal(spec.eigenvalues, energies[:4])
    assert spec.parities == labels[:4]
    for label, idx, block in _sector_blocks(H, basis):
        vecs = scipy.linalg.eigh(block.toarray(), subset_by_index=(0, 3))[1]
        assert np.array_equal(spec.ground_states[label].coeffs[idx], vecs[:, 0])


def test_nan_lanczos_eigenpair_fails_the_residual_check(monkeypatch):
    def nan_eigsh(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        vecs[:, 0] = np.nan
        return vals, vecs

    monkeypatch.setattr(quditcat.lmg, "eigsh", nan_eigsh)
    basis = shared_basis(3, 60)
    H = build_hamiltonian(LMGParams(3, 60, 1.0, 1.0), basis)
    with pytest.raises(DiagonalizationError, match="residual"):
        diagonalize(H, basis, k=2)


@pytest.mark.parametrize("N, dense", [(20, True), (50, False)])
@pytest.mark.parametrize("lam", [0.3, 1.0, 2.5])
def test_one_sector_solve_is_the_full_solve_bit_for_bit(monkeypatch, N, dense, lam):
    # one coupling per phase; every block is dense at N = 20 and Lanczos at 50
    basis = shared_basis(3, N)
    H = build_hamiltonian(LMGParams(3, N, 1.0, lam), basis)
    full = diagonalize(H, basis, k=1)
    dense_sizes = _spy_on_dense_solves(monkeypatch)
    for label in all_parity_labels(3):
        one = diagonalize(H, basis, k=1, sector=label)
        assert list(one.ground_states) == one.parities == [label]
        state = one.ground_states[label]
        assert np.array_equal(state.coeffs, full.ground_states[label].coeffs)
        assert abs(one.eigenvalues[0] - np.vdot(state.coeffs, H @ state.coeffs)) < 1e-12
    assert len(dense_sizes) == (4 if dense else 0)


def test_one_sector_solve_rejects_a_bad_or_empty_sector():
    basis = shared_basis(4, 2)
    H = sparse.diags_array(np.arange(basis.size, dtype=float))
    with pytest.raises(ValueError, match="excitations"):
        diagonalize(H, basis, k=1, sector=(1, 1, 1))
    with pytest.raises(ValueError, match="bits"):
        diagonalize(H, basis, k=1, sector=(1, 1))


def test_cut_cluster_rule_needs_the_levels_below_it_clear_of_the_cluster(
    monkeypatch,
):
    # a solve that misses the lowest level and returns one level within a
    # margin of the top cluster's lower edge passes the count below that
    # edge; it must still give way to dense eigh
    n, scale = 400, 400.0
    margin = RESIDUAL_TOL * scale
    found = 2.0 + margin * np.array([-2.4, -1.9, 0.0])
    diag = np.r_[1.0, found, np.arange(3.0, n - 1)]

    def missing_the_lowest(block, k, **kwargs):
        return diag[1 : k + 1], np.eye(n)[:, 1 : k + 1]

    monkeypatch.setattr(quditcat.lmg, "eigsh", missing_the_lowest)
    vals, _ = quditcat.lmg._lowest_levels(sparse.diags_array(diag).tocsr(), 3, scale)
    assert np.allclose(vals, np.r_[1.0, found[:2]], rtol=0, atol=1e-12)


@pytest.mark.parametrize("lam", [1.0, 2.5])
def test_large_n_sector_ground_energies_match_shift_invert_lanczos(lam):
    # shift-invert Lanczos below the whole spectrum iterates with LU solves,
    # not with products by the block, so it shares no solver path with
    # diagonalize
    basis = shared_basis(3, 200)
    params = LMGParams(3, 200, 1.0, lam)
    H = build_hamiltonian(params, basis)
    spec = diagonalize(H, basis, k=1)
    scale = max(float(np.abs(H).sum(axis=1).max()), 1.0)
    for label, _, block in _sector_blocks(H, basis):
        ref = eigsh(
            block, 1, sigma=-scale - 1.0, which="LM", tol=0,
            return_eigenvectors=False,
        )[0]
        state = spec.ground_states[label]
        energy = np.vdot(state.coeffs, H @ state.coeffs).real
        assert abs(energy - ref) < 1e-10
    cp = critical_point(1.0, lam)
    assert spec.eigenvalues[0] <= finite_N_energy([cp.z1, cp.z2], params)


def test_large_blocks_use_plain_lanczos_with_one_inertia_count(monkeypatch):
    # every block at N = 60 is above the dense bound; a shift-invert solve
    # would pass sigma and factor the block once more
    basis = shared_basis(3, 60)
    H = build_hamiltonian(LMGParams(3, 60, 1.0, 1.0), basis)
    eigsh_kwargs, splu_sizes = [], []
    real_eigsh, real_splu = quditcat.lmg.eigsh, quditcat.lmg.splu

    def eigsh_spy(*args, **kwargs):
        eigsh_kwargs.append(kwargs)
        return real_eigsh(*args, **kwargs)

    def splu_spy(a, *args, **kwargs):
        splu_sizes.append(a.shape[0])
        return real_splu(a, *args, **kwargs)

    monkeypatch.setattr(quditcat.lmg, "eigsh", eigsh_spy)
    monkeypatch.setattr(quditcat.lmg, "splu", splu_spy)
    diagonalize(H, basis, k=4)
    sizes = [idx.size for _, idx, _ in _sector_blocks(H, basis)]
    assert min(sizes) > DENSE_BLOCK_MAX
    assert len(eigsh_kwargs) == len(sizes)
    assert all("sigma" not in kwargs for kwargs in eigsh_kwargs)
    assert splu_sizes == sizes


def test_degenerate_cluster_cut_at_k_keeps_the_lanczos_solve(monkeypatch):
    # at lam = 0 and k = 8 the top cluster of every block is cut at k, so
    # the count above it exceeds k; the count below it accepts the solve
    basis = shared_basis(3, 100)
    H = build_hamiltonian(LMGParams(3, 100, 1.0, 0.0), basis)
    dense_sizes = _spy_on_dense_solves(monkeypatch)
    spec = diagonalize(H, basis, k=8)
    assert dense_sizes == []
    monkeypatch.undo()
    _assert_matches_dense_sector_levels(spec, H, basis, 8)


def test_cross_sector_doublets_below_the_tie_threshold_come_in_label_order():
    # deep in phase III at N = 100 the four lowest levels are two doublets,
    # (00, 10) and (01, 11), each split by less than the tie threshold
    basis = shared_basis(3, 100)
    H = build_hamiltonian(LMGParams(3, 100, 1.0, 2.5), basis)
    spec = diagonalize(H, basis, k=4)
    tie = TIE_ULPS * np.finfo(float).eps * np.abs(H).sum(axis=1).max()
    E = spec.eigenvalues
    assert abs(E[1] - E[0]) <= tie and abs(E[3] - E[2]) <= tie
    assert E[2] - E[1] > 1e-6
    assert spec.parities == [(0, 0), (1, 0), (0, 1), (1, 1)]


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
