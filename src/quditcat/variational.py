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
from .parity import (
    CatSpec,
    all_parity_labels,
    apply_parity_flip,
    cat_amplitudes,
    dcat,
    sector_indices,
)

# overlap search: GRID_POINTS^2 starts on [0, GRID_MAX]^2, Nelder-Mead from each
GRID_POINTS = 5
GRID_MAX = 1.2
# options of every Nelder-Mead search over cat coordinates
NELDER_MEAD = {"xatol": 1e-8, "fatol": 1e-12, "maxiter": 2000}

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


def overlap_objective(psi: SymmetricState, c):
    """The map x -> F(x) = |<x_c|psi>|^2 over real cat coordinates (D = 3).

    On sector c the cat amplitudes at real x are sqrt(N!/prod n_i!) u^k with
    u = (1, x1^2, x2^2) and half-excess k = n // 2 (so 2 k_i = n_i - c_i for
    i >= 1), homogeneous of degree K = (N - |c|) // 2.  Dividing by u_p^K for
    the largest u_p leaves ratios r = u / u_p <= 1, so with t_i = r_i^(0..K)
    on the two non-pivot modes a, b,

        F(x) = |t_a G_p t_b|^2 / ((t_a^2) M_p (t_b^2)),

    where M_p holds the multinomials over the largest one, indexed by
    (k_a, k_b), and G_p their square roots times conj(psi_c).  The six grids
    are built here, once; F takes no exp, log or phase per sector state, and
    no term exceeds 1.  The denominator is at least the smallest entry of M,
    at a corner of the grid; where that is below the smallest normal double
    (N > 650 at D = 3) building the grids raises FloatingPointError rather
    than let F become 0/0.
    """
    basis = psi.basis
    if basis.D != 3:
        raise ValueError("overlap maximization uses the D = 3 search space")
    idx = sector_indices(basis, c)
    k = basis.states[idx] // 2
    log_mult = basis.log_multinomials[idx]
    weight = np.exp(log_mult - log_mult.max())
    if weight.min() < np.finfo(float).tiny:
        raise FloatingPointError(
            f"overlap grid at N = {basis.N} leaves the double range: "
            "its smallest multinomial ratio underflows"
        )
    amp = np.sqrt(weight) * np.conj(psi.coeffs[idx])
    if not amp.imag.any():
        amp = amp.real
    size = int(k[0].sum()) + 1
    powers = np.arange(float(size))
    grids = []
    for p in range(3):
        a, b = (i for i in range(3) if i != p)
        G = np.zeros((size, size), dtype=amp.dtype)
        M = np.zeros((size, size))
        G[k[:, a], k[:, b]] = amp
        M[k[:, a], k[:, b]] = weight
        grids.append((a, b, G, M))

    def fidelity_at(x: np.ndarray) -> float:
        x1, x2 = x.tolist()
        u = (1.0, x1 * x1, x2 * x2)
        p = u.index(max(u))
        a, b, G, M = grids[p]
        t_a = (u[a] / u[p]) ** powers
        t_b = (u[b] / u[p]) ** powers
        num = t_a @ G @ t_b
        return min(abs(num) ** 2 / ((t_a * t_a) @ M @ (t_b * t_b)), 1.0)

    return fidelity_at


def maximize_overlap(
    psi: SymmetricState,
    c,
    extra_starts=(),
) -> tuple[np.ndarray, float]:
    """Best-fidelity cat coordinates for a given eigenstate.

    Maximizes F(z) = |<z_c|psi>|^2 over real (z1, z2) with Nelder-Mead
    from a fixed grid of starts on [0, GRID_MAX]^2 plus any extra starts
    (e.g. the critical point), so the result is deterministic.  F is the
    bilinear form of `overlap_objective`, built once per search, so no
    amplitude vector is built per step.  The objective has mirror-image
    maxima at all sign flips; coordinates are reported in the non-negative
    quadrant.

    Returns (z_max, F_max).  Raises if every start fails to converge.
    """
    fidelity_at = overlap_objective(psi, c)

    def neg_fidelity(x):
        return -fidelity_at(x)

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
