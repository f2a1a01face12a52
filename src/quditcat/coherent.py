"""U(D)-spin coherent states (DSCS) and their operator matrix elements.

A DSCS is the D-mode generalization of the binomial atomic coherent state:
an N-particle condensate of the single-particle mode
(a0+ + z_1 a1+ + ... + z_{D-1} a{D-1}+)/sqrt(1+z'z), labeled by the D-1
complex projective coordinates z of the patch that fixes the level-0
homogeneous coordinate to 1.  Expanded over the symmetric Fock basis the
coefficients are

    c_n(z) = sqrt(N!/prod n_i!) * prod_i z_i^{n_i} / (1+z'z)^{N/2},

which this module always evaluates as log-modulus plus accumulated phase,
so powers like (1+z'z)^N never overflow for particle numbers in the
hundreds.

Also provided: the collective quDit operators S_ij = a_i+ a_j as sparse
matrices over a FockBasis, and the closed-form coherent-state matrix
elements of S_ij and S_ij S_kl used by the variational energy surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .fock import FockBasis

# exp(_LOG_ZERO * n) underflows to exactly 0.0 for any n >= 1 while staying
# finite, which sidesteps 0 * (-inf) = nan in occupation-weighted sums
_LOG_ZERO = -1.0e30

NORM_TOL = 1e-10


class NormError(ValueError):
    """A state that should be unit-norm is not, or its norm is not finite.

    A numerical failure rather than bad input; it stays a ValueError for
    callers that check states.
    """


def as_phase_point(z, D: int | None = None) -> np.ndarray:
    """Validate and convert z to a complex vector of projective coordinates."""
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.ndim != 1:
        raise ValueError("phase point must be one-dimensional")
    if D is not None and z.shape[0] != D - 1:
        raise ValueError(f"phase point needs {D - 1} coordinates, got {z.shape[0]}")
    if not np.all(np.isfinite(z)):
        raise ValueError("phase point coordinates must be finite")
    return z


@dataclass(eq=False)
class SymmetricState:
    """Coefficient vector over a FockBasis, the universal state container.

    States are unit-norm unless constructed with normalized=False.
    """

    basis: FockBasis
    coeffs: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != (self.basis.size,):
            raise ValueError(
                f"coefficient vector has length {self.coeffs.shape}, "
                f"basis size is {self.basis.size}"
            )
        # written so that a NaN norm fails the check too
        if self.normalized and not abs(self.norm() - 1.0) <= NORM_TOL:
            raise NormError(f"state norm {self.norm()} not 1 within {NORM_TOL}")

    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def inner(self, other: "SymmetricState") -> complex:
        """<self|other> over a shared basis."""
        if other.basis is not self.basis and (
            other.basis.D != self.basis.D or other.basis.N != self.basis.N
        ):
            raise ValueError("states live on different bases")
        return complex(np.vdot(self.coeffs, other.coeffs))


def log_dscs_coefficients(basis: FockBasis, z) -> tuple[np.ndarray, np.ndarray]:
    """Log-modulus and phase of the DSCS Fock coefficients.

    z may be a single phase point (D-1,) or a batch (m, D-1).
    Returns (logmag, phase) with trailing axis of length basis.size.
    """
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    zb = z[None, :] if single else z
    if zb.shape[1] != basis.D - 1:
        raise ValueError(f"phase point needs {basis.D - 1} coordinates")

    occ1 = basis.states[:, 1:].astype(float)
    mag = np.abs(zb)
    with np.errstate(divide="ignore"):
        logmag_z = np.where(mag > 0.0, np.log(np.where(mag > 0.0, mag, 1.0)), _LOG_ZERO)
    phase_z = np.angle(zb)
    log_norm = 0.5 * basis.N * np.log1p(np.sum(mag * mag, axis=1))

    logmag = (
        0.5 * basis.log_multinomials[None, :]
        + logmag_z @ occ1.T
        - log_norm[:, None]
    )
    phase = phase_z @ occ1.T
    if single:
        return logmag[0], phase[0]
    return logmag, phase


def dscs_coefficients(basis: FockBasis, z) -> np.ndarray:
    """DSCS Fock coefficients c_n(z); batched when z has shape (m, D-1)."""
    logmag, phase = log_dscs_coefficients(basis, z)
    return np.exp(logmag + 1j * phase)


def dscs(basis: FockBasis, z) -> SymmetricState:
    """The U(D)-spin coherent state |z> on the given basis (unit norm)."""
    z = as_phase_point(z, basis.D)
    return SymmetricState(basis, dscs_coefficients(basis, z))


def log_overlap(z1, z2, N: int) -> complex:
    """log <z1|z2>, i.e. N log(1+z1'z2) - (N/2)[log(1+|z1|^2)+log(1+|z2|^2)].

    The real part may be -inf when the overlap is exactly zero.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    if z1.shape != z2.shape:
        raise ValueError("phase points have mismatched dimensions")
    cross = 1.0 + np.vdot(z1, z2)
    with np.errstate(divide="ignore"):
        log_cross = np.log(cross) if cross != 0.0 else complex(-np.inf, 0.0)
    return N * log_cross - 0.5 * N * (
        np.log1p(np.vdot(z1, z1).real) + np.log1p(np.vdot(z2, z2).real)
    )


def overlap(z1, z2, N: int) -> complex:
    """Coherent-state overlap <z1|z2> = (1+z1'z2)^N / normalizers."""
    lo = log_overlap(z1, z2, N)
    if lo.real == -np.inf:
        return 0.0 + 0.0j
    return complex(np.exp(lo))


def spin_matrix(basis: FockBasis, i: int, j: int) -> sparse.csc_array:
    """Collective operator S_ij = a_i+ a_j over the Fock basis.

    Diagonal n_i for i == j, off-diagonal sqrt((n_i+1) n_j) between
    occupation vectors that differ by a single j -> i hop; each column
    holds at most one non-zero entry.
    """
    D = basis.D
    if not (0 <= i < D and 0 <= j < D):
        raise ValueError(f"levels must lie in 0..{D - 1}, got ({i}, {j})")
    if i == j:
        return sparse.csc_array(
            sparse.diags_array(basis.states[:, i].astype(float))
        )
    src = np.nonzero(basis.states[:, j] > 0)[0]
    n = basis.states[src]
    hopped = n.copy()
    hopped[:, i] += 1
    hopped[:, j] -= 1
    data = np.sqrt((n[:, i] + 1.0) * n[:, j])
    return sparse.csc_array(
        (data, (basis.rank(hopped), src)), shape=(basis.size, basis.size)
    )


def _extended(z) -> np.ndarray:
    """Prepend the fixed homogeneous coordinate z_0 = 1."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([[1.0 + 0.0j], z])


def cs_expectation(z1, z2, i: int, j: int, N: int) -> complex:
    """<z1|S_ij|z2> in closed form.

    Equals N conj(z1)_i (z2)_j (1+z1'z2)^{N-1} / normalizers with the
    z_0 = 1 patch convention applied to both arguments.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    D = z1.shape[0] + 1
    if not (0 <= i < D and 0 <= j < D):
        raise ValueError(f"levels must lie in 0..{D - 1}, got ({i}, {j})")
    a = np.conj(_extended(z1)[i]) * _extended(z2)[j]
    if a == 0.0:
        return 0.0 + 0.0j
    cross = 1.0 + np.vdot(z1, z2)
    if cross == 0.0 and N > 1:
        return 0.0 + 0.0j
    log_part = (N - 1) * (np.log(cross) if cross != 0.0 else 0.0) - 0.5 * N * (
        np.log1p(np.vdot(z1, z1).real) + np.log1p(np.vdot(z2, z2).real)
    )
    return complex(N * a * np.exp(log_part))


def cs_quadratic_expectation(
    z1, z2, i: int, j: int, k: int, l: int, N: int
) -> complex:
    """<z1|S_ij S_kl|z2> in closed form.

    Mathematically delta_jk <S_il> + (N-1)/N <S_ij><S_kl>/<z1|z2>; the
    quotient is combined analytically into a single exponent
    (1+z1'z2)^{N-2}, so no intermediate overlap can underflow.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    D = z1.shape[0] + 1
    for lvl in (i, j, k, l):
        if not (0 <= lvl < D):
            raise ValueError(f"levels must lie in 0..{D - 1}")
    first = 0.0 + 0.0j
    if j == k:
        first = cs_expectation(z1, z2, i, l, N)
    e1 = _extended(z1)
    e2 = _extended(z2)
    a = np.conj(e1[i]) * e2[j] * np.conj(e1[k]) * e2[l]
    if a == 0.0 or N < 2:
        return complex(first)
    cross = 1.0 + np.vdot(z1, z2)
    if cross == 0.0 and N > 2:
        return complex(first)
    log_part = (N - 2) * (np.log(cross) if cross != 0.0 else 0.0) - 0.5 * N * (
        np.log1p(np.vdot(z1, z1).real) + np.log1p(np.vdot(z2, z2).real)
    )
    return complex(first + N * (N - 1) * a * np.exp(log_part))
