"""Z2^(D-1) parity machinery: characters, projectors, and cat states.

The level-population parities Pi_j = exp(i pi S_jj), j = 1..D-1, generate
the finite group Z2^(D-1) (the level-0 parity is fixed by the total
particle number).  Its 2^(D-1) characters chi_c(b) = (-1)^(c.b) label
invariant subspaces; projecting a coherent state |z> onto the sector c and
renormalizing yields a generalized Schroedinger cat, a superposition of
the 2^(D-1) sign-flipped coherent branches |z^b>.

When some coordinate z_i vanishes with c_i = 1, the projection itself
vanishes and the cat is defined by its limit instead: a cat of the reduced
parity group on the non-zero coordinates, with one extra particle created
in each level i where z_i = 0 and c_i = 1.  `dcat` switches between the
two branches automatically, so every (z, c) pair maps to a well-defined
unit-norm state.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .coherent import SymmetricState, as_phase_point, dscs_coefficients
from .fock import FockBasis, shared_basis

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
    bits = _as_bits(c, basis.D)
    return np.all(basis.parity_bits == bits.astype(np.int8), axis=1)


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
    """Defining data of a parity-adapted coherent state.

    zero_tolerance sets the |z_i| threshold below which a coordinate is
    treated as exactly zero and the reduced-cat limit branch is taken.
    The sector norm scales like (2 sqrt(N) |z_i|)^{c_i} near zero, so for
    N up to ~1e3 the exact-projection branch stays numerically safe for
    any |z_i| above the 1e-9 default.
    """

    z: tuple
    c: tuple
    N: int
    zero_tolerance: float = 1e-9

    def __init__(self, z, c, N: int, zero_tolerance: float = 1e-9):
        z = as_phase_point(z)
        c = tuple(int(v) for v in _as_bits(c))
        if len(c) != z.shape[0]:
            raise ValueError("phase point and parity label have different lengths")
        if zero_tolerance <= 0:
            raise ValueError("zero_tolerance must be positive")
        object.__setattr__(self, "z", tuple(complex(v) for v in z))
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "N", int(N))
        object.__setattr__(self, "zero_tolerance", float(zero_tolerance))

    @property
    def D(self) -> int:
        return len(self.z) + 1

    def zero_set(self) -> np.ndarray:
        """Indices (0-based into z) of coordinates treated as zero."""
        mag = np.abs(np.asarray(self.z))
        return np.nonzero(mag <= self.zero_tolerance)[0]


def cat_norm_sq(spec: CatSpec) -> float:
    """Squared sector norm ||Pi_c |z>||^2 via the alternating branch sum.

    The 2^(D-1) terms (1 + z'z^b)^N differ by factors exp(O(N)), so the
    sum is evaluated as a signed log-sum-exp: magnitudes in log space,
    signs accumulated separately.
    """
    z = np.asarray(spec.z)
    c = np.asarray(spec.c)
    mag2 = np.abs(z) ** 2
    total = float(mag2.sum())
    logmags = []
    signs = []
    for b in itertools.product((0, 1), repeat=len(spec.c)):
        b = np.asarray(b)
        # z'z^b is real: sum of (-1)^{b_i} |z_i|^2
        base = 1.0 + float(np.where(b == 1, -mag2, mag2).sum())
        chi = -1.0 if int(c @ b) % 2 else 1.0
        if base == 0.0:
            continue
        sign = chi * (1.0 if base > 0 else (-1.0) ** spec.N)
        logmags.append(spec.N * np.log(abs(base)))
        signs.append(sign)
    if not logmags:
        return 0.0
    logmags = np.asarray(logmags)
    signs = np.asarray(signs)
    top = logmags.max()
    acc = float(np.sum(signs * np.exp(logmags - top)))
    value = 2.0 ** (1 - spec.D) * acc * np.exp(top - spec.N * np.log1p(total))
    # tiny negative values are cancellation residue of an exact zero
    return max(value, 0.0)


def cat_norm(spec: CatSpec) -> float:
    """Sector norm N(z)_c = ||Pi_c |z>||; may legitimately be zero."""
    return float(np.sqrt(cat_norm_sq(spec)))


def dcat(basis: FockBasis, spec: CatSpec) -> SymmetricState:
    """Parity-adapted coherent state |z>_c, always unit norm.

    With every |z_i| above spec.zero_tolerance this is the renormalized
    projection of the coherent state onto sector c.  When a subset L of
    coordinates is (numerically) zero, the projection may vanish and the
    state is built from its limit instead: a reduced cat over the
    non-zero coordinates with N - sum(c_L) particles, with one particle
    created in each level i in L that has c_i = 1.  The result is
    embedded in the full (D, N) basis either way.
    """
    if basis.D != spec.D or basis.N != spec.N:
        raise ValueError(
            f"spec (D={spec.D}, N={spec.N}) does not match basis "
            f"(D={basis.D}, N={basis.N})"
        )
    zero_idx = spec.zero_set()
    z = np.asarray(spec.z)
    c = np.asarray(spec.c, dtype=np.int64)

    if zero_idx.size == 0:
        raw = dscs_coefficients(basis, z)
        mask = sector_mask(basis, spec.c)
        coeffs = np.where(mask, raw, 0.0)
        norm = np.linalg.norm(coeffs)
        if norm == 0.0:
            raise ValueError(
                "projection vanished despite non-zero coordinates; "
                "increase zero_tolerance"
            )
        return SymmetricState(basis, coeffs / norm)

    # limit branch: reduced cat on the non-zero coordinates, then one
    # creation operator per zeroed coordinate with odd parity demand
    added = c[zero_idx]
    n_added = int(added.sum())
    if basis.N < n_added:
        raise ValueError(
            f"cannot place {n_added} excitations with only {basis.N} particles"
        )
    reduced_basis = shared_basis(basis.D, basis.N - n_added)
    z_limit = z.copy()
    z_limit[zero_idx] = 0.0
    raw = dscs_coefficients(reduced_basis, z_limit)

    keep = np.ones(reduced_basis.size, dtype=bool)
    nonzero_idx = np.setdiff1d(np.arange(basis.D - 1), zero_idx)
    for i in nonzero_idx:
        keep &= reduced_basis.parity_bits[:, i] == c[i]
    coeffs_reduced = np.where(keep, raw, 0.0)
    norm = np.linalg.norm(coeffs_reduced)
    if norm == 0.0:
        raise ValueError("reduced projection vanished; invalid cat specification")
    coeffs_reduced /= norm

    shift = np.zeros(basis.D, dtype=np.int64)
    shift[1:][zero_idx] = added
    coeffs = np.zeros(basis.size, dtype=complex)
    src = np.nonzero(coeffs_reduced)[0]
    coeffs[basis.rank(reduced_basis.states[src] + shift)] = coeffs_reduced[src]
    return SymmetricState(basis, coeffs)
