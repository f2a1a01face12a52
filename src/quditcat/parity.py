"""Z2^(D-1) parity machinery: characters, sectors, projectors, and cat states.

The level-population parities Pi_j = exp(i pi S_jj), j = 1..D-1, generate
the finite group Z2^(D-1) (the level-0 parity is fixed by the total
particle number).  Its 2^(D-1) characters chi_c(b) = (-1)^(c.b) label
invariant subspaces; projecting a coherent state |z> onto the sector c and
renormalizing yields a generalized Schroedinger cat, a superposition of
the 2^(D-1) sign-flipped coherent branches |z^b>.

A sector's code is its label's index in `all_parity_labels(D)`;
`FockBasis.sector_codes` holds it for every basis state.

On sector c the coherent amplitudes sqrt(N!/prod n_i!) z^n all carry the
common factor z^c, because n_i - c_i is even.  Dividing it out leaves
amplitudes sqrt(N!/prod n_i!) |z|^(n-c) e^(i n.arg z) that stay finite when
a coordinate vanishes; at z_i = 0 only n_i = c_i survives, which is the
reduced-cat limit: a cat of the non-zero coordinates with one particle
created in each level i where z_i = 0 and c_i = 1.  `cat_amplitudes`
resolves a sector once and returns this one formula as a map of z, so
every (z, c) pair maps to a well-defined unit-norm state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .coherent import SymmetricState, as_phase_point
from .fock import FockBasis

PROJECTION_TOL = 1e-12


def all_parity_labels(D: int) -> list[tuple[int, ...]]:
    """The 2^(D-1) parity labels in lexicographic order."""
    return list(itertools.product((0, 1), repeat=D - 1))


def _as_bits(label, D: int | None = None) -> np.ndarray:
    bits = np.asarray(label, dtype=np.int64)
    if bits.ndim != 1 or np.any((bits != 0) & (bits != 1)):
        raise ValueError(f"parity label must be a flat 0/1 string, got {label}")
    if D is not None and bits.shape[0] != D - 1:
        raise ValueError(f"parity label needs {D - 1} bits, got {bits.shape[0]}")
    return bits


def character(c, b) -> int:
    """Group character chi_c(b) = (-1)^(c.b), always +1 or -1."""
    c = _as_bits(c)
    b = _as_bits(b)
    if c.shape != b.shape:
        raise ValueError("parity labels have different lengths")
    return -1 if int(c @ b) % 2 else 1


def parity_of(n) -> tuple[int, ...]:
    """Parity sector of an occupation vector: (n_1, ..., n_{D-1}) mod 2."""
    n = np.asarray(n, dtype=np.int64)
    if np.any(n < 0):
        raise ValueError("occupation numbers must be non-negative")
    return tuple(int(v) for v in n[1:] % 2)


def sector_mask(basis: FockBasis, c) -> np.ndarray:
    """Boolean mask of the basis states belonging to parity sector c."""
    label = tuple(int(v) for v in _as_bits(c, basis.D))
    return basis.sector_codes == all_parity_labels(basis.D).index(label)


def project_parity(
    state: SymmetricState, c, zero_tolerance: float = PROJECTION_TOL
) -> tuple[SymmetricState | None, float]:
    """Apply the sector projector Pi_c and renormalize.

    Returns (projected state, norm of the raw projection).  When the
    projection norm falls below `zero_tolerance` the state slot is None
    rather than an ill-defined division result.
    """
    mask = sector_mask(state.basis, c)
    projected = np.where(mask, state.coeffs, 0.0)
    norm = float(np.linalg.norm(projected))
    if norm < zero_tolerance:
        return None, norm
    return SymmetricState(state.basis, projected / norm), norm


def apply_parity_flip(b, z) -> np.ndarray:
    """Coordinate action of Pi^b on a phase point: flip z_i where b_i = 1."""
    b = _as_bits(b)
    z = np.asarray(z, dtype=complex)
    if z.shape != b.shape:
        raise ValueError("parity label and phase point have different lengths")
    signs = np.where(b == 1, -1.0, 1.0)
    return signs * z


@dataclass(frozen=True)
class CatSpec:
    """Defining data of a parity-adapted coherent state |z>_c of N particles.

    Any finite z is valid, including coordinates that are exactly zero,
    where the cat is the reduced-cat limit (see `cat_amplitudes`).
    """

    z: tuple
    c: tuple
    N: int

    def __init__(self, z, c, N: int):
        z = as_phase_point(z)
        c = tuple(int(v) for v in _as_bits(c))
        if len(c) != z.shape[0]:
            raise ValueError("phase point and parity label have different lengths")
        object.__setattr__(self, "z", tuple(complex(v) for v in z))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "N", int(N))

    @property
    def D(self) -> int:
        return len(self.z) + 1


def cat_norm_sq(spec: CatSpec) -> float:
    """Squared sector norm ||Pi_c |z>||^2 = 2^(1-D) sum_b chi_c(b) rho_b^N.

    rho_b = <z|z^b>^(1/N) = (1 + sum_i (-1)^(b_i) |z_i|^2)/(1 + |z|^2) is
    real and lies in [-1, 1], so every term is evaluated directly.
    """
    labels = np.asarray(all_parity_labels(spec.D))
    mag2 = np.abs(np.asarray(spec.z)) ** 2
    rho = (1.0 + (1 - 2 * labels) @ mag2) / (1.0 + mag2.sum())
    chi = 1 - 2 * (labels @ np.asarray(spec.c) % 2)
    value = 2.0 ** (1 - spec.D) * float(chi @ rho**spec.N)
    # tiny negative values are cancellation residue of an exact zero
    return max(value, 0.0)


def cat_norm(spec: CatSpec) -> float:
    """Sector norm N(z)_c = ||Pi_c |z>||; may legitimately be zero."""
    return float(np.sqrt(cat_norm_sq(spec)))


def sector_indices(basis: FockBasis, c) -> np.ndarray:
    """Indices of the basis states in sector c, which must hold a state.

    Raises ValueError for a malformed label and when N < |c|, where the
    sector is empty.
    """
    c = _as_bits(c, basis.D)
    if basis.N < c.sum():
        raise ValueError(
            f"cannot place {int(c.sum())} excitations with only {basis.N} particles"
        )
    return np.nonzero(sector_mask(basis, c))[0]


def cat_amplitudes(basis: FockBasis, c):
    """Indices of sector c and the map z -> the cat's amplitudes on them.

    c is checked and its sector resolved here, once.  amplitudes(z) does not
    check z; it returns sqrt(N!/prod n_i!) |z|^(n-c) e^(i n.arg z), the
    coherent amplitudes with the common factor z^c divided out, in log space
    and scaled so that the largest modulus is 1.  A coordinate that is
    exactly zero keeps only the states with n_i = c_i (0^0 = 1); the state
    n = (N - |c|, c) always survives.
    """
    idx = sector_indices(basis, c)
    n = basis.states[idx, 1:]
    # on the sector c_i = n_i mod 2
    excess = n - n % 2
    log_weight = 0.5 * basis.log_multinomials[idx]

    def amplitudes(z: np.ndarray) -> np.ndarray:
        mag = np.abs(z)
        log_amp = log_weight + excess @ np.log(np.where(mag > 0.0, mag, 1.0))
        log_amp[np.any(excess[:, mag == 0.0] > 0, axis=1)] = -np.inf
        return np.exp(log_amp - log_amp.max() + 1j * (n @ np.angle(z)))

    return idx, amplitudes


def dcat(basis: FockBasis, spec: CatSpec) -> SymmetricState:
    """Parity-adapted coherent state |z>_c, always unit norm.

    The normalized sector amplitudes of `cat_amplitudes` embedded in the
    full (D, N) basis: the renormalized projection of |z> onto sector c,
    and its reduced-cat limit where coordinates vanish.
    """
    if basis.D != spec.D or basis.N != spec.N:
        raise ValueError(
            f"spec (D={spec.D}, N={spec.N}) does not match basis "
            f"(D={basis.D}, N={basis.N})"
        )
    idx, amplitudes = cat_amplitudes(basis, spec.c)
    amps = amplitudes(np.asarray(spec.z))
    coeffs = np.zeros(basis.size, dtype=complex)
    coeffs[idx] = amps / np.linalg.norm(amps)
    return SymmetricState(basis, coeffs)
