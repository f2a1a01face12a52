"""Variational treatment of the three-level LMG model.

Coherent states make exact variational ground states in the N -> infinity
limit, where the energy surface <z|H|z> has a closed form for D = 3.  Its
minima move through three phases as the coupling lam grows, with
second-order transitions at lam = eps/2 and 3 eps/2: the condensate
z = (0, 0), then a symmetry-broken pair (+-z1, 0), then a quadruplet
(+-z1, +-z2).  At finite N parity is restored by projecting the coherent
state at the critical point onto a parity sector (a cat state), which
reproduces the low-lying eigenstates; where that leaves fidelity on the
table, a direct overlap maximization over the phase-space coordinates
recovers it.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .coherent import SymmetricState, cs_expectation, cs_quadratic_expectation
from .fock import FockBasis
from .lmg import LMGParams, build_hamiltonian
from .parity import CatSpec, all_parity_labels, apply_parity_flip, cat_amplitudes, dcat

# overlap search: GRID_POINTS^2 starts on [0, GRID_MAX]^2, Nelder-Mead from each
GRID_POINTS = 5
GRID_MAX = 1.2
# options of every Nelder-Mead search over cat coordinates
NELDER_MEAD = {"xatol": 1e-8, "fatol": 1e-12, "maxiter": 500}

# low-lying eigenstates tracked by parity sector, indexed by their
# position in the non-interacting spectrum
TRACKED_STATES = {0: (0, 0), 1: (1, 0), 3: (0, 1), 5: (1, 1)}


@dataclass(frozen=True)
class CriticalPoint:
    """Minimizing coherent-state coordinates (positive branch) at coupling lam."""

    z1: float
    z2: float
    phase: str  # "I", "II" or "III"
    lam: float


def energy_surface(z, epsilon: float, lam: float) -> float:
    """Coherent-state energy density of the D = 3 model in the large-N limit.

    E(z) = eps (|z2|^2 - 1)/(1+|z1|^2+|z2|^2)
           - lam [z1^2 (conj(z2)^2 + 1) + z2^2 + c.c.] / (1+|z1|^2+|z2|^2)^2

    Invariant under either sign flip z_i -> -z_i.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape != (2,):
        raise ValueError("the closed-form surface is for D = 3 (two coordinates)")
    z1, z2 = z
    denom = 1.0 + abs(z1) ** 2 + abs(z2) ** 2
    quartic = z1**2 * (np.conj(z2) ** 2 + 1.0) + z2**2
    return float(
        epsilon * (abs(z2) ** 2 - 1.0) / denom
        - lam * 2.0 * quartic.real / denom**2
    )


def finite_N_energy(z, params: LMGParams) -> float:
    """<z|H|z> at finite N from the closed coherent-state matrix elements.

    Converges to energy_surface(z) as N grows (fluctuations die as 1/N).
    """
    if params.general:
        raise ValueError("finite-N surface is defined for the density Hamiltonian")
    z = np.asarray(z, dtype=complex)
    D, N = params.D, params.N
    one_body = (
        cs_expectation(z, z, D - 1, D - 1, N) - cs_expectation(z, z, 0, 0, N)
    ).real
    two_body = 0.0
    for i in range(D):
        for j in range(D):
            if i != j:
                two_body += cs_quadratic_expectation(z, z, i, j, i, j, N).real
    return float(
        params.epsilon / N * one_body - params.lam / (N * (N - 1)) * two_body
    )


def critical_point(epsilon: float, lam: float) -> CriticalPoint:
    """Piecewise-closed-form minimum of the energy surface (positive branch)."""
    if lam < 0:
        raise ValueError("coupling must be non-negative")
    if lam <= epsilon / 2.0:
        return CriticalPoint(0.0, 0.0, "I", lam)
    if lam <= 1.5 * epsilon:
        z1 = np.sqrt((2.0 * lam - epsilon) / (2.0 * lam + epsilon))
        return CriticalPoint(float(z1), 0.0, "II", lam)
    z1 = np.sqrt(2.0 * lam / (2.0 * lam + 3.0 * epsilon))
    z2 = np.sqrt((2.0 * lam - 3.0 * epsilon) / (2.0 * lam + 3.0 * epsilon))
    return CriticalPoint(float(z1), float(z2), "III", lam)


def branch_centers(D: int, lam: float, epsilon: float = 1.0) -> np.ndarray:
    """Distinct sign flips of the critical point, the cat's branch points, ascending."""
    if D != 3:
        raise ValueError("branch centers use the D = 3 critical point")
    cp = critical_point(epsilon, lam)
    z = np.array([cp.z1, cp.z2])
    # + 0.0 turns the -0.0 of a flipped zero coordinate into +0.0
    points = {tuple(apply_parity_flip(b, z).real + 0.0) for b in all_parity_labels(3)}
    return np.asarray(sorted(points), dtype=complex)


def gs_energy_limit(epsilon: float, lam: float) -> float:
    """Ground-state energy density in the large-N limit (D = 3).

    Continuous with continuous slope; the curvature jumps at eps/2 and
    3 eps/2, the two second-order transition points.
    """
    if lam < 0:
        raise ValueError("coupling must be non-negative")
    if lam <= epsilon / 2.0:
        return -float(epsilon)
    if lam <= 1.5 * epsilon:
        return -((2.0 * lam + epsilon) ** 2) / (8.0 * lam)
    return -(4.0 * lam**2 + 3.0 * epsilon**2) / (6.0 * lam)


def variational_cat(
    lam: float,
    c,
    params: LMGParams,
    basis: FockBasis | None = None,
    minimize_energy: bool = False,
) -> SymmetricState:
    """Parity-restored coherent approximation to a low-lying eigenstate.

    Default is projection after minimization: take the large-N critical
    point for this coupling, then project onto sector c (with the reduced
    cat limit whenever a critical coordinate vanishes, i.e. phases I/II).
    With minimize_energy=True the cat's finite-N energy expectation is
    re-minimized over real coordinates before projecting.
    """
    if params.D != 3:
        raise ValueError("variational cats use the D = 3 closed forms")
    if basis is None:
        basis = FockBasis(params.D, params.N)
    cp = critical_point(params.epsilon, lam)
    z = np.array([cp.z1, cp.z2], dtype=complex)
    if minimize_energy:
        H = build_hamiltonian(LMGParams(3, params.N, params.epsilon, lam), basis)
        idx, amplitudes = cat_amplitudes(basis, c)
        H_cc = H[idx][:, idx]

        def cat_energy(x):
            a = amplitudes(np.abs(x))
            return float(np.vdot(a, H_cc @ a).real / np.vdot(a, a).real)

        best = minimize(cat_energy, x0=z.real, method="Nelder-Mead", options=NELDER_MEAD)
        z = np.abs(best.x).astype(complex)
    return dcat(basis, CatSpec(z, c, params.N))


def fidelity(a: SymmetricState, b: SymmetricState) -> float:
    """|<a|b>|^2 between two states over the same basis."""
    return min(abs(a.inner(b)) ** 2, 1.0)


def sector_minima(spectrum) -> dict[tuple[int, ...], int]:
    """Index of the lowest eigenstate of each parity sector in a spectrum."""
    first: dict[tuple[int, ...], int] = {}
    for idx, label in enumerate(spectrum.parities):
        first.setdefault(label, idx)
    return first


def maximize_overlap(
    psi: SymmetricState,
    c,
    extra_starts=(),
) -> tuple[np.ndarray, float]:
    """Best-fidelity cat coordinates for a given eigenstate.

    Maximizes F(z) = |<z_c|psi>|^2 over real (z1, z2) with Nelder-Mead
    from a fixed grid of starts on [0, GRID_MAX]^2 plus any extra starts
    (e.g. the critical point), so the result is deterministic.  F has the
    closed form |<a|psi_c>|^2 / <a|a> in the sector amplitudes a of
    `cat_amplitudes`, built once, so no state or sector is built per step.
    The objective has mirror-image maxima at all sign flips; coordinates
    are reported in the non-negative quadrant.

    Returns (z_max, F_max).  Raises if every start fails to converge.
    """
    basis = psi.basis
    if basis.D != 3:
        raise ValueError("overlap maximization uses the D = 3 search space")
    idx, amplitudes = cat_amplitudes(basis, c)
    psi_c = psi.coeffs[idx]

    def neg_fidelity(x):
        a = amplitudes(np.abs(x))
        return -min(abs(np.vdot(a, psi_c)) ** 2 / np.vdot(a, a).real, 1.0)

    axis = np.linspace(0.0, GRID_MAX, GRID_POINTS)
    starts = [np.array([a, b]) for a in axis for b in axis]
    starts.extend(np.asarray(s, dtype=float) for s in extra_starts)

    best_x, best_f = None, np.inf
    failures = 0
    for x0 in starts:
        res = minimize(neg_fidelity, x0=x0, method="Nelder-Mead", options=NELDER_MEAD)
        if not res.success:
            failures += 1
            if not np.isfinite(res.fun):
                continue
        x = np.abs(res.x)
        # deterministic tie-break: smaller fidelity loss, then lex order on z
        if res.fun < best_f - 1e-12 or (
            abs(res.fun - best_f) <= 1e-12
            and best_x is not None
            and tuple(x) < tuple(best_x)
        ):
            best_x, best_f = x, res.fun
    if best_x is None:
        raise RuntimeError(f"all {failures} starts failed to converge")
    if failures:
        warnings.warn(
            f"{failures} of {len(starts)} starts did not converge", stacklevel=2
        )
    return best_x, -best_f
