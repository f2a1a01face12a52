"""D-level LMG Hamiltonian: assembly, diagonalization, parity bookkeeping.

The density-normalized Hamiltonian acting on the symmetric N-quDit space is

    H = (eps/N) (S_{D-1,D-1} - S_00) - lam/(N(N-1)) sum_{i != j} S_ij^2,

with a one-body ladder of equally spaced levels and a two-body term that
scatters particle pairs between levels.  Pair scattering conserves every
level-population parity, so H is block diagonal over the Z2^(D-1) sectors.
H is assembled as a sparse matrix and each sector block is solved on its
own, so every eigenstate carries its sector label by construction.  Levels
are merged in energy order; only levels that tie within the solver's
accuracy are ordered by label, which keeps exactly degenerate clusters
deterministic.

Level indices are 0-based throughout: for D = 3 the one-body term reads
(eps/N)(S_22 - S_00).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy import sparse

from .coherent import SymmetricState, spin_matrix
from .fock import FockBasis
from .parity import all_parity_labels

RESIDUAL_TOL = 1e-10
# levels closer than TIE_ULPS * eps * scale are equal to solver accuracy
TIE_ULPS = 64


class DiagonalizationError(Exception):
    """Eigensolver failed to meet its residual contract."""


@dataclass(frozen=True)
class LMGParams:
    """Model parameters; density mode unless lambda1/lambda2 are given.

    In density mode the one-body gap eps is divided by N and the two-body
    coupling lam by the pair count N(N-1), so eigenvalues are energy
    densities in eps units.  Supplying lambda1/lambda2 switches to the
    unnormalized general Hamiltonian
    eps (S_{D-1,D-1} - S_00) + sum_{i != j} (lambda1 S_ij^2 + lambda2 S_ij S_ji).
    """

    D: int
    N: int
    epsilon: float = 1.0
    lam: float = 0.0
    lambda1: float | None = None
    lambda2: float | None = None

    def __post_init__(self):
        if self.D < 2:
            raise ValueError("need at least two levels")
        if self.N < 1:
            raise ValueError("need at least one particle")
        if not self.general and self.N < 2:
            raise ValueError("density mode normalizes by N(N-1); need N >= 2")

    @property
    def general(self) -> bool:
        return self.lambda1 is not None or self.lambda2 is not None


def build_hamiltonian(
    params: LMGParams, basis: FockBasis | None = None
) -> sparse.csr_array:
    """Sparse real symmetric LMG Hamiltonian over the symmetric Fock basis."""
    if basis is None:
        basis = FockBasis(params.D, params.N)
    if basis.D != params.D or basis.N != params.N:
        raise ValueError("basis does not match parameters")
    D, N = params.D, params.N

    one_body = (spin_matrix(basis, D - 1, D - 1) - spin_matrix(basis, 0, 0)).astype(
        float
    )
    pair_hop = None
    exchange = None
    need_exchange = params.general and params.lambda2 not in (None, 0.0)
    for i in range(D):
        for j in range(D):
            if i == j:
                continue
            s_ij = spin_matrix(basis, i, j)
            term = s_ij @ s_ij
            pair_hop = term if pair_hop is None else pair_hop + term
            if need_exchange:
                term2 = s_ij @ spin_matrix(basis, j, i)
                exchange = term2 if exchange is None else exchange + term2

    if params.general:
        lam1 = params.lambda1 or 0.0
        lam2 = params.lambda2 or 0.0
        H = params.epsilon * one_body + lam1 * pair_hop
        if need_exchange:
            H = H + lam2 * exchange
    else:
        H = (params.epsilon / N) * one_body - (
            params.lam / (N * (N - 1))
        ) * pair_hop
    return sparse.csr_array((H + H.T) / 2.0)


@dataclass
class SpectrumResult:
    """Eigenpairs in ascending order with their parity classification."""

    basis: FockBasis
    eigenvalues: np.ndarray
    eigenstates: list[SymmetricState]
    parities: list[tuple[int, ...]]
    certainties: np.ndarray  # 1 throughout: labels come from the sector solve
    mixed: np.ndarray  # False throughout: no eigenstate mixes sectors


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


def diagonalize(
    H: sparse.sparray | np.ndarray, basis: FockBasis, k: int | None = None
) -> SpectrumResult:
    """Lowest k eigenpairs (all when k is None), solved per parity sector.

    Each sector block of H is solved with dense eigh and embedded back into
    the full basis, so labels are exact.  Levels come back in ascending
    energy; levels within TIE_ULPS * eps * scale of each other are ordered
    by parity label instead, so repeated runs give identical labels even
    for numerically degenerate states.
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

    codes = basis.sector_codes
    energies, sectors, columns = [], [], []
    for code in range(2 ** (basis.D - 1)):
        idx = np.nonzero(codes == code)[0]
        if idx.size == 0:
            continue
        block = H[idx][:, idx]
        vals, vecs = scipy.linalg.eigh(
            block.toarray(), subset_by_index=(0, min(k, idx.size) - 1)
        )
        residual = np.linalg.norm(block @ vecs - vecs * vals[None, :], axis=0)
        if np.any(residual > RESIDUAL_TOL * scale):
            raise DiagonalizationError(
                f"eigenpair residual {residual.max():.3e} exceeds "
                f"{RESIDUAL_TOL * scale:.3e}"
            )
        energies.append(vals)
        sectors.append(np.full(vals.size, code))
        columns.extend((idx, vecs[:, i]) for i in range(vals.size))
    energies = np.concatenate(energies)
    sectors = np.concatenate(sectors)

    # clusters break where neighbouring levels are further apart than the
    # solver can resolve; inside a cluster the parity label decides
    tie = TIE_ULPS * np.finfo(float).eps * scale
    by_energy = np.argsort(energies, kind="stable")
    cluster = np.empty_like(by_energy)
    cluster[by_energy] = np.cumsum(np.r_[0, np.diff(energies[by_energy]) > tie])
    order = np.lexsort((energies, sectors, cluster))[:k]

    labels = all_parity_labels(basis.D)
    states = []
    for i in order:
        idx, vec = columns[i]
        coeffs = np.zeros(dim)
        coeffs[idx] = vec
        states.append(SymmetricState(basis, coeffs))
    return SpectrumResult(
        basis=basis,
        eigenvalues=energies[order],
        eigenstates=states,
        parities=[labels[c] for c in sectors[order]],
        certainties=np.ones(order.size),
        mixed=np.zeros(order.size, dtype=bool),
    )

