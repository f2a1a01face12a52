"""D-level LMG Hamiltonian: assembly, diagonalization, parity bookkeeping.

The density-normalized Hamiltonian acting on the symmetric N-quDit space is

    H = (eps/N) (S_{D-1,D-1} - S_00) - lam/(N(N-1)) sum_{i != j} S_ij^2,

with a one-body ladder of equally spaced levels and a two-body term that
scatters particle pairs between levels.  Pair scattering conserves every
level-population parity, so H is block diagonal over the Z2^(D-1) sectors.
H is assembled as a sparse matrix and each sector block is solved on its
own, so every eigenstate carries its sector label by construction, and
each sector's lowest state comes straight from its own solve.  Small
blocks, and requests for nearly a whole block, use dense eigh; larger
blocks use Lanczos (ARPACK) for their smallest algebraic eigenvalues,
which needs only products with the sparse block, checked by a sparse
inertia count that a missed or duplicated level cannot pass.  Levels are
merged in energy order; only levels that tie within the solver's accuracy
are ordered by label, which keeps exactly degenerate clusters
deterministic.

Level indices are 0-based throughout: for D = 3 the one-body term reads
(eps/N)(S_22 - S_00).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.sparse.linalg import ArpackError, eigsh, splu

from .coherent import SymmetricState, spin_matrix
from .fock import FockBasis
from .parity import all_parity_labels, sector_indices

RESIDUAL_TOL = 1e-10
# levels closer than TIE_ULPS * eps * scale are equal to solver accuracy
TIE_ULPS = 64
# sector blocks up to this size are solved with dense eigh, which beats
# Lanczos plus the inertia count there (D = 3: every block up to N = 47)
DENSE_BLOCK_MAX = 300


class DiagonalizationError(Exception):
    """Eigensolver failed to meet its residual contract."""


@dataclass(frozen=True)
class LMGParams:
    """Model parameters of the density-normalized Hamiltonian.

    The one-body gap eps is divided by N and the two-body coupling lam by
    the pair count N(N-1), so eigenvalues are energy densities in eps units.
    """

    D: int
    N: int
    epsilon: float = 1.0
    lam: float = 0.0

    def __post_init__(self):
        if self.D < 2:
            raise ValueError("need at least two levels")
        if self.N < 2:
            raise ValueError("the Hamiltonian normalizes by N(N-1); need N >= 2")


def build_hamiltonian(params: LMGParams, basis: FockBasis) -> sparse.csr_array:
    """Sparse real symmetric LMG Hamiltonian over the symmetric Fock basis.

    The one-body term is the diagonal (eps/N)(n_{D-1} - n_0).  Since
    S_ji = S_ij^T, each S_ji^2 is the transpose of S_ij^2, so the pair term
    is sum_{i<j} (h_ij + h_ij^T) with h_ij = S_ij^2.  Every entry of h_ij
    is one product of two operator entries, and h_ij^T holds the same
    products, so H is exactly symmetric by construction.
    """
    if basis.D != params.D or basis.N != params.N:
        raise ValueError("basis does not match parameters")
    D, N = params.D, params.N
    occ = basis.states
    one_body = sparse.diags_array((params.epsilon / N) * (occ[:, D - 1] - occ[:, 0]))
    hops = (spin_matrix(basis, i, j) for i in range(D) for j in range(i + 1, D))
    pair_hop = sum(h + h.T for h in (s @ s for s in hops))
    return sparse.csr_array(one_body - (params.lam / (N * (N - 1))) * pair_hop)


@dataclass
class SpectrumResult:
    """Lowest eigenpairs in ascending order with their parity labels.

    `ground_states` maps the label of every non-empty sector to that
    sector's lowest eigenstate, whatever the number of merged levels.
    """

    basis: FockBasis
    eigenvalues: np.ndarray
    eigenstates: list[SymmetricState]
    parities: list[tuple[int, ...]]
    ground_states: dict[tuple[int, ...], SymmetricState]


def classify_parity(state: SymmetricState) -> tuple[tuple[int, ...], float]:
    """Most probable parity sector and its weight <psi|Pi_c|psi>.

    Ties break toward the lexicographically smallest label.
    """
    basis = state.basis
    weights = np.bincount(
        basis.sector_codes,
        weights=np.abs(state.coeffs) ** 2,
        minlength=2 ** (basis.D - 1),
    )
    code = int(np.argmax(weights))
    return all_parity_labels(basis.D)[code], float(weights[code])


def _count_below(block: sparse.sparray, t: float) -> int | None:
    """Number of eigenvalues of the symmetric block below t.

    By Sylvester's law of inertia it is the number of negative pivots of a
    symmetric LDL^T factorization of block - t I.  SuperLU gives one when
    it permutes rows and columns alike; None when it did not, or when the
    shifted block is exactly singular.
    """
    shifted = sparse.csc_array(block - t * sparse.eye_array(block.shape[0]))
    try:
        lu = splu(
            shifted,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError:
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))


def _lowest_levels(
    block: sparse.sparray, k: int, scale: float
) -> tuple[np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of one sector block, in ascending order.

    A block larger than DENSE_BLOCK_MAX, asked for fewer than all but one
    of its levels, goes to Lanczos for the smallest algebraic eigenvalues,
    which needs only products with the block.  A single start vector
    cannot see a second copy of a level that is degenerate inside the
    block, and the residual check cannot catch a missed level, so the
    result stands only if exactly k eigenvalues lie below the highest one
    found (plus the residual bound).  When more lie there, the top cluster
    of found levels, those within twice the bound of the highest, may have
    been cut at k; the result then stands if the count below that cluster
    equals the number of levels found below it.  Otherwise, or when ARPACK
    fails, the block is solved with dense eigh.
    """
    n = block.shape[0]
    if n > DENSE_BLOCK_MAX and k < n - 1:
        # a fixed start vector makes reruns bit-identical
        v0 = np.random.default_rng(0).standard_normal(n)
        try:
            vals, vecs = eigsh(block, k, which="SA", v0=v0)
        except ArpackError:
            pass
        else:
            order = np.argsort(vals)
            vals, vecs = vals[order], vecs[:, order]
            margin = RESIDUAL_TOL * scale
            above = _count_below(block, vals[-1] + margin)
            if above == k:
                return vals, vecs
            # the top cluster starts at j; the levels found below it must
            # lie clear of its lower edge, or the second count proves nothing
            j = int(np.searchsorted(vals, vals[-1] - 2.0 * margin))
            clear = j == 0 or vals[j - 1] < vals[j] - 2.0 * margin
            if (
                above is not None
                and above > k
                and clear
                and _count_below(block, vals[j] - margin) == j
            ):
                return vals, vecs
    return scipy.linalg.eigh(block.toarray(), subset_by_index=(0, k - 1))


def diagonalize(
    H: sparse.sparray | np.ndarray,
    basis: FockBasis,
    k: int | None = None,
    sector=None,
) -> SpectrumResult:
    """Lowest k eigenpairs (all when k is None), solved per parity sector.

    Each sector block of H is solved on its own (`_lowest_levels`: dense
    eigh for small blocks, Lanczos checked by an inertia count for large
    ones) and embedded back into the full basis, so labels are exact.
    Levels come back in ascending energy; levels within TIE_ULPS * eps *
    scale of each other are ordered by parity label instead, so repeated
    runs give identical labels even for numerically degenerate states.
    Each sector's lowest eigenstate is also kept in `ground_states`.

    With a parity label `sector`, only that sector's block is solved, and
    the result holds its levels alone.  The solve is the one the full call
    makes for that block, so its states are the same bit for bit.  A
    malformed label, or one whose sector is empty, raises ValueError.
    """
    dim = H.shape[0]
    if H.shape != (dim, dim) or dim != basis.size:
        raise ValueError("matrix does not match basis size")
    if k is None:
        k = dim
    elif not 1 <= k <= dim:
        raise ValueError(f"k must lie in 1..{dim}")
    H = sparse.csr_array(H)
    scale = max(float(abs(H).sum(axis=1).max()), 1.0)

    def embed(idx, vec) -> SymmetricState:
        coeffs = np.zeros(dim)
        coeffs[idx] = vec
        return SymmetricState(basis, coeffs)

    labels = all_parity_labels(basis.D)
    codes = basis.sector_codes
    if sector is None:
        blocks = [np.nonzero(codes == code)[0] for code in range(len(labels))]
    else:
        blocks = [sector_indices(basis, sector)]
    energies, sectors, columns, ground_states = [], [], [], {}
    for idx in blocks:
        if idx.size == 0:
            continue
        code = codes[idx[0]]
        block = H[idx][:, idx]
        vals, vecs = _lowest_levels(block, min(k, idx.size), scale)
        residual = np.linalg.norm(block @ vecs - vecs * vals[None, :], axis=0)
        # written so that a NaN residual fails too
        if not np.all(residual <= RESIDUAL_TOL * scale):
            raise DiagonalizationError(
                f"eigenpair residual {residual.max():.3e} exceeds "
                f"{RESIDUAL_TOL * scale:.3e}"
            )
        energies.append(vals)
        sectors.append(np.full(vals.size, code))
        columns.extend((idx, vecs[:, i]) for i in range(vals.size))
        ground_states[labels[code]] = embed(idx, vecs[:, 0])
    energies = np.concatenate(energies)
    sectors = np.concatenate(sectors)

    # clusters break where neighbouring levels are further apart than the
    # solver can resolve; inside a cluster the parity label decides
    tie = TIE_ULPS * np.finfo(float).eps * scale
    by_energy = np.argsort(energies, kind="stable")
    cluster = np.empty_like(by_energy)
    cluster[by_energy] = np.cumsum(np.r_[0, np.diff(energies[by_energy]) > tie])
    order = np.lexsort((energies, sectors, cluster))[:k]

    return SpectrumResult(
        basis=basis,
        eigenvalues=energies[order],
        eigenstates=[embed(*columns[i]) for i in order],
        parities=[labels[c] for c in sectors[order]],
        ground_states=ground_states,
    )
