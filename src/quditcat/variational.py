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

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .coherent import SymmetricState, cs_expectation, cs_quadratic_expectation
from .fock import FockBasis
from .lmg import LMGParams
from .parity import CatSpec, all_parity_labels, apply_parity_flip, dcat, sector_indices

# overlap search: F on a SCAN_POINTS x SCAN_POINTS grid over [0, GRID_MAX]^2,
# then the compass search of `minimize` from the grid's best point and from
# each extra start; MAX_STEPS only ends a search whose F rises for ever
SCAN_POINTS = 49
GRID_MAX = 1.2
STENCIL = 9
SHRINK = 4.0
STEP_MIN = 1e-12
MAX_STEPS = 500

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


def branch_centers(lam: float, epsilon: float = 1.0) -> np.ndarray:
    """Distinct sign flips of the critical point, the cat's branch points, ascending."""
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
    lam: float, c, params: LMGParams, basis: FockBasis | None = None
) -> SymmetricState:
    """Parity-restored coherent approximation to a low-lying eigenstate.

    Projection after minimization: take the large-N critical point for this
    coupling, then project onto sector c (with the reduced cat limit
    whenever a critical coordinate vanishes, i.e. phases I/II).
    """
    if params.D != 3:
        raise ValueError("variational cats use the D = 3 closed forms")
    if basis is None:
        basis = FockBasis(params.D, params.N)
    cp = critical_point(params.epsilon, lam)
    z = np.array([cp.z1, cp.z2], dtype=complex)
    return dcat(basis, CatSpec(z, c, params.N))


def fidelity(a: SymmetricState, b: SymmetricState) -> float:
    """|<a|b>|^2 between two states over the same basis."""
    return min(abs(a.inner(b)) ** 2, 1.0)


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

    The map takes a batch, shape (m, 2), and returns F at each row, or one
    point, shape (2,), and returns a float.  The rows are grouped by pivot,
    and each group takes four products with (rows, K + 1) power tables.
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

    ones = np.ones(size)

    def fidelity_at(x):
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return float(fidelity_at(x[None])[0])
        u = np.ones((len(x), 3))
        u[:, 1:] = x * x
        pivot = u.argmax(axis=1)
        F = np.empty(len(x))
        for p in set(pivot.tolist()):
            rows = pivot == p
            a, b, G, M = grids[p]
            r = u[rows] / u[rows, p, None]
            t_a = r[:, a, None] ** powers
            t_b = r[:, b, None] ** powers
            num = (t_a @ G * t_b) @ ones
            F[rows] = abs(num) ** 2 / (((t_a * t_a) @ M * (t_b * t_b)) @ ones)
        return np.minimum(F, 1.0)

    return fidelity_at


def minimize(fun, x0) -> SimpleNamespace:
    """Compass search for a minimum of fun, a map from points (m, 2) to values (m,).

    Each step calls fun once, on a STENCIL x STENCIL grid of half-width h
    around x, and moves x to the grid's lowest value (the first on a tie)
    if it beats the centre's.  h starts at the scan spacing, is kept while
    the move ends on the grid's edge and otherwise shrinks SHRINK-fold,
    until h < STEP_MIN; success is False if MAX_STEPS calls ran out first.
    """
    axis = np.linspace(-1.0, 1.0, STENCIL)
    stencil = np.column_stack((np.repeat(axis, STENCIL), np.tile(axis, STENCIL)))
    on_edge = np.abs(stencil).max(axis=1) == 1.0
    centre = len(stencil) // 2
    x, h, nfev = np.asarray(x0, dtype=float), GRID_MAX / (SCAN_POINTS - 1), 0
    while h >= STEP_MIN and nfev < MAX_STEPS:
        values = fun(x + h * stencil)
        nfev += 1
        best = centre if values.min() >= values[centre] else int(values.argmin())
        x, f = x + h * stencil[best], float(values[best])
        if not on_edge[best]:
            h /= SHRINK
    return SimpleNamespace(x=x, fun=f, nfev=nfev, success=h < STEP_MIN)


def maximize_overlap(
    psi: SymmetricState,
    c,
    extra_starts=(),
) -> tuple[np.ndarray, float]:
    """Best-fidelity cat coordinates for a given eigenstate.

    Maximizes F(z) = |<z_c|psi>|^2 over real (z1, z2).  F is the bilinear
    form of `overlap_objective`, built once per search, so no amplitude
    vector is built.  The search evaluates F in one batch on a fixed
    SCAN_POINTS x SCAN_POINTS grid over [0, GRID_MAX]^2, then polishes with
    the deterministic compass search of `minimize` from the grid's best
    point (the first in lex order on a tie) and from each extra start (e.g.
    the critical point).  The objective has mirror-image maxima at all sign
    flips; coordinates are reported in the non-negative quadrant.

    Returns (z_max, F_max).
    """
    fidelity_at = overlap_objective(psi, c)
    axis = np.linspace(0.0, GRID_MAX, SCAN_POINTS)
    scan = np.column_stack((np.repeat(axis, SCAN_POINTS), np.tile(axis, SCAN_POINTS)))
    starts = [scan[np.argmax(fidelity_at(scan))]]
    starts.extend(np.asarray(s, dtype=float) for s in extra_starts)

    best_x, best_f = None, np.inf
    for x0 in starts:
        res = minimize(lambda x: -fidelity_at(x), x0)
        x = np.abs(res.x)
        # deterministic tie-break: smaller fidelity loss, then lex order on z
        if res.fun < best_f - 1e-12 or (
            abs(res.fun - best_f) <= 1e-12 and tuple(x) < tuple(best_x)
        ):
            best_x, best_f = x, res.fun
    return best_x, -best_f
