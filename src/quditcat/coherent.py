"""U(D)-spin coherent states (DSCS) and their operator matrix elements.

A DSCS is the D-mode generalization of the binomial atomic coherent state:
an N-particle condensate of the single-particle mode
(a0+ + z_1 a1+ + ... + z_{D-1} a{D-1}+)/sqrt(1+z'z), labeled by the D-1
complex projective coordinates z of the patch that fixes the level-0
homogeneous coordinate to 1.  Expanded over the symmetric Fock basis the
coefficients are

    c_n(z) = sqrt(N!/prod n_i!) * prod_i z_i^{n_i} / (1+z'z)^{N/2},

which this module evaluates as log-modulus plus accumulated phase, because
the multinomials and the powers z^n alone overflow for particle numbers in
the hundreds.

Also provided: the collective quDit operators S_ij = a_i+ a_j as sparse
matrices over a FockBasis, and the closed-form coherent-state overlap and
matrix elements of S_ij and S_ij S_kl used by the variational energy
surfaces.  Each of those is a monomial in the unit vectors
u = (1, z)/|(1, z)| times a power of the unit overlap rho = u1'u2.  Since
|rho| <= 1 they cannot overflow and are evaluated directly; an exact zero
needs no special case, as 0^0 = 1 and 0^k = 0.
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


def dscs_coefficients(basis: FockBasis, z) -> np.ndarray:
    """DSCS Fock coefficients c_n(z); batched when z has shape (m, D-1)."""
    z = np.asarray(z, dtype=complex)
    single = z.ndim == 1
    zb = z[None, :] if single else z
    if zb.shape[1] != basis.D - 1:
        raise ValueError(f"phase point needs {basis.D - 1} coordinates")

    occ1 = basis.states[:, 1:].astype(float)
    mag = np.abs(zb)
    with np.errstate(divide="ignore"):
        logmag_z = np.where(mag > 0.0, np.log(np.where(mag > 0.0, mag, 1.0)), _LOG_ZERO)
    log_norm = 0.5 * basis.N * np.log1p(np.sum(mag * mag, axis=1))

    logmag = (
        0.5 * basis.log_multinomials[None, :]
        + logmag_z @ occ1.T
        - log_norm[:, None]
    )
    coeffs = np.exp(logmag + 1j * (np.angle(zb) @ occ1.T))
    return coeffs[0] if single else coeffs


def dscs(basis: FockBasis, z) -> SymmetricState:
    """The U(D)-spin coherent state |z> on the given basis (unit norm).

    Renormalized, since far from the origin the log-space coefficients
    drift from norm 1 by more than rounding (1.8e-13 at D = 2, N = 300).
    """
    z = as_phase_point(z, basis.D)
    coeffs = dscs_coefficients(basis, z)
    return SymmetricState(basis, coeffs / np.linalg.norm(coeffs))


def _unit_pair(z1, z2) -> tuple[np.ndarray, np.ndarray, complex]:
    """Unit vectors u = (1, z)/|(1, z)| of two phase points and rho = u1'u2.

    rho is formed as (1 + z1'z2)/sqrt((1+|z1|^2)(1+|z2|^2)) rather than as
    u1'u2, so it is exactly 0 wherever 1 + z1'z2 is.
    """
    z1 = np.asarray(z1, dtype=complex)
    z2 = np.asarray(z2, dtype=complex)
    if z1.shape != z2.shape:
        raise ValueError("phase points have mismatched dimensions")
    n1 = np.sqrt(1.0 + np.vdot(z1, z1).real)
    n2 = np.sqrt(1.0 + np.vdot(z2, z2).real)
    u1 = np.concatenate([[1.0], z1]) / n1
    u2 = np.concatenate([[1.0], z2]) / n2
    return u1, u2, complex((1.0 + np.vdot(z1, z2)) / (n1 * n2))


def overlap(z1, z2, N: int) -> complex:
    """Coherent-state overlap <z1|z2> = rho^N."""
    return _unit_pair(z1, z2)[2] ** N


def _check_levels(D: int, *levels: int) -> None:
    if not all(0 <= lvl < D for lvl in levels):
        raise ValueError(f"levels must lie in 0..{D - 1}, got {levels}")


def spin_matrix(basis: FockBasis, i: int, j: int) -> sparse.csc_array:
    """Collective operator S_ij = a_i+ a_j over the Fock basis.

    Diagonal n_i for i == j, off-diagonal sqrt((n_i+1) n_j) between
    occupation vectors that differ by a single j -> i hop; each column
    holds at most one non-zero entry.
    """
    _check_levels(basis.D, i, j)
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


def cs_expectation(z1, z2, i: int, j: int, N: int) -> complex:
    """<z1|S_ij|z2> = N conj(u1_i) u2_j rho^(N-1) in closed form."""
    u1, u2, rho = _unit_pair(z1, z2)
    _check_levels(len(u1), i, j)
    return complex(N * np.conj(u1[i]) * u2[j] * rho ** max(N - 1, 0))


def cs_quadratic_expectation(
    z1, z2, i: int, j: int, k: int, l: int, N: int
) -> complex:
    """<z1|S_ij S_kl|z2> in closed form.

    delta_jk <S_il> + N(N-1) conj(u1_i u1_k) u2_j u2_l rho^(N-2).
    """
    u1, u2, rho = _unit_pair(z1, z2)
    _check_levels(len(u1), i, j, k, l)
    first = cs_expectation(z1, z2, i, l, N) if j == k else 0.0
    pair = np.conj(u1[i] * u1[k]) * u2[j] * u2[l]
    return complex(first + N * (N - 1) * pair * rho ** max(N - 2, 0))
