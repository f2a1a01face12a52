"""Husimi function and phase-space localization measures on CP^(D-1).

The Husimi function of a symmetric N-quDit state is Q(z) = |<z|psi>|^2
with |z> a U(D)-spin coherent state.  Under the unitarily invariant
(Fubini-Study) measure normalized so that coherent states resolve the
identity, Q integrates to one, its nu-th moments measure localization
(nu = 2 is the inverse participation ratio), and -int Q ln Q is the Wehrl
entropy, minimized by coherent states.

All of them rest on one fact: <z|psi> is a degree-N polynomial in the
coherent-state coordinates, sum_n sqrt(N!/prod n_i!) psi_n conj(u)^n at
the unit homogeneous vector u = (1, z)/|(1, z)|.  `husimi_values`, the
only Q kernel, evaluates it with the largest coordinate of u factored
out, so every remaining power has modulus at most 1 and no term
overflows at N in the hundreds or far from the origin; every map, hump
count and Monte-Carlo estimate goes through it.  Moments of integer
order are computed exactly from the same amplitudes: their nu-th power,
paired with the monomial norms at particle number N*nu, yields the
moment without any quadrature.  Monte-Carlo backends (uniform Haar
sampling and importance sampling from coherent-branch mixtures) cover
the Wehrl integral, which has no closed form at finite N.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import ndimage
from scipy.special import gammaln, logsumexp

from .coherent import SymmetricState
from .fock import CapacityError, FockBasis, basis_size

DEFAULT_MOMENT_CAP = 10_000_000

# sample-axis chunk of husimi_values, counted in complex elements of its
# per-sample temporaries (power tables and first mode product): 64 MB
_CHUNK_ELEMENTS = 4_000_000


@dataclass(frozen=True)
class IntegrationSpec:
    """Monte-Carlo integration plan; deterministic for a fixed seed."""

    method: str = "haar_mc"
    samples: int = 1_000_000
    seed: int = 0
    batch: int = 200_000

    def __post_init__(self):
        if self.method not in ("haar_mc", "importance_mc"):
            raise ValueError(f"unknown integration method {self.method!r}")
        if self.samples < 1_000:
            raise ValueError("need at least 1000 samples")
        if self.batch < 1:
            raise ValueError("batch size must be positive")


@dataclass(frozen=True)
class MomentReport:
    """A Husimi moment value with its statistical error (0 if analytic)."""

    value: float
    std_error: float
    method: str


@dataclass(frozen=True)
class HusimiGridSpec:
    """Rectangular slice of phase space along real or imaginary axes."""

    points: int = 128
    half_range: float = 1.5
    slice: str = "position"

    def __post_init__(self):
        if self.points < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if self.half_range <= 0:
            raise ValueError("half_range must be positive")
        if self.slice not in ("position", "momentum"):
            raise ValueError(f"unknown slice {self.slice!r}")

    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_range, self.half_range, self.points)


def husimi_values(state: SymmetricState, zs: np.ndarray) -> np.ndarray:
    """Q(z) = |<z|psi>|^2 for a batch of phase points, shape (m, D-1).

    Evaluates the amplitude polynomial <z|psi> = sum_n w_n conj(u)^n,
    w_n = sqrt(N!/prod n_i!) psi_n, at the unit homogeneous vector
    u = (1, z)/|(1, z)|.  Each sample factors out its largest coordinate
    u_p, leaving conj(u_p)^N P_p(conj r) with ratios r_k = u_k/u_p of
    modulus at most 1, so no power overflows however far z lies from the
    origin.  P_p is contracted mode by mode against power tables of the
    ratios on the grid of w_n indexed by the non-pivot occupations; at
    D = 3 that is (T_a @ G_p) dotted row-wise with T_b.  The weights are
    scaled by e^(-s), s = max_n ln|w_n|, and the prefactor is applied as
    exp(N ln|u_p| + s).  A batch is evaluated in chunks of `_chunk_rows`
    samples, each exactly as a call on that chunk alone would be.

    The error contract is absolute: about 1e-15 against the Fock-space sum
    |conj(dscs_coefficients) . psi|^2, and not small relative to Q near
    the zeros of Q (notes/decisions.md).  The prefactor stays finite while
    (N/2) ln D < 709, for every N <= 1292 at D = 3; past that a state can
    make it overflow, which raises FloatingPointError.
    """
    zs = np.asarray(zs, dtype=complex)
    if zs.ndim == 1:
        zs = zs[None, :]
    basis = state.basis
    N = basis.N
    hom = np.concatenate([np.ones((zs.shape[0], 1), dtype=complex), zs], axis=1)
    pivots = np.argmax(np.abs(hom), axis=1)
    chunk = _chunk_rows(basis)
    out = np.empty(zs.shape[0])
    # a weight, a term or a Q below the smallest double is 0 within the
    # absolute error contract, so underflow is no failure here; the
    # prefactor overflows only past (N/2) ln D = 709 (notes/decisions.md),
    # and there it must fail rather than clamp Q to 1
    with np.errstate(under="ignore", over="raise"):
        weights, scale = _amplitude_weights(state)
        grids = {
            p: _weight_grid(basis, weights, p).reshape(N + 1, -1)
            for p in np.unique(pivots)
        }
        for start in range(0, zs.shape[0], chunk):
            for p, grid in grids.items():
                rows = start + np.nonzero(pivots[start : start + chunk] == p)[0]
                if rows.size:
                    out[rows] = _pivot_husimi(hom[rows], p, grid, scale, N)
    return np.minimum(out, 1.0)


def _chunk_rows(basis: FockBasis) -> int:
    """Samples per chunk of husimi_values: the D - 1 power tables and the
    first mode product of one sample hold (D-1)(N+1) + (N+1)^(D-2) values."""
    per_sample = (basis.D - 1) * (basis.N + 1) + (basis.N + 1) ** (basis.D - 2)
    return max(1, _CHUNK_ELEMENTS // per_sample)


def _amplitude_weights(state: SymmetricState) -> tuple[np.ndarray, float]:
    """w_n e^(-s) over the basis, w_n = sqrt(N!/prod n_i!) c_n, s = max ln|w_n|.

    The weights are at most 1 in modulus and the scale s is carried
    separately, so nothing overflows at N in the hundreds.  Coefficients
    below the smallest normal double are dropped: c_n / |c_n| is inf+nanj
    there, and each adds less than 1e-307 to any amplitude.  A non-finite
    coefficient raises FloatingPointError.
    """
    basis = state.basis
    if not np.all(np.isfinite(state.coeffs)):
        raise FloatingPointError("state has a non-finite coefficient")
    mags = np.abs(state.coeffs)
    nz = mags >= np.finfo(float).tiny
    weights = np.zeros(basis.size, dtype=complex)
    log_mag = 0.5 * basis.log_multinomials[nz] + np.log(mags[nz])
    scale = float(log_mag.max())
    weights[nz] = np.exp(log_mag - scale) * (state.coeffs[nz] / mags[nz])
    return weights, scale


def _weight_grid(basis: FockBasis, weights: np.ndarray, p: int) -> np.ndarray:
    """Weights laid out on the grid of the occupations of every level but p."""
    grid = np.zeros((basis.N + 1,) * (basis.D - 1), dtype=complex)
    grid[tuple(np.delete(basis.states, p, axis=1).T)] = weights
    return grid


def _pivot_husimi(
    hom: np.ndarray, p: int, grid: np.ndarray, scale: float, N: int
) -> np.ndarray:
    """Q at homogeneous points hom (rows) whose largest coordinate is p."""
    m = hom.shape[0]
    ratios = (np.delete(hom, p, axis=1) / hom[:, p : p + 1]).conj()
    log_up = -0.5 * np.log1p(np.sum(np.abs(ratios) ** 2, axis=1))
    tables = np.empty((ratios.shape[1], m, N + 1), dtype=complex)
    tables[:, :, 0] = 1.0
    tables[:, :, 1:] = ratios.T[:, :, None]
    np.cumprod(tables, axis=2, out=tables)
    poly = tables[0] @ grid
    for table in tables[1:]:
        poly = np.einsum("mk,mkr->mr", table, poly.reshape(m, N + 1, -1))
    amp = np.exp(N * log_up + scale) * poly[:, 0]
    return amp.real**2 + amp.imag**2


def husimi_value(state: SymmetricState, z) -> float:
    """Husimi function of a normalized state at a single phase point."""
    return float(husimi_values(state, np.asarray(z, dtype=complex))[0])


def haar_sample(D: int, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Haar-uniform points of CP^(D-1) in the z_0 = 1 patch.

    Draws a standard complex normal D-vector c and returns c_{1:}/c_0,
    redrawing on the measure-zero event that c_0 nearly vanishes.
    """
    m = 1 if size is None else size
    z = _affine_points(lambda n: _complex_normal(rng, (n, D)), m)
    return z[0] if size is None else z


def _complex_normal(rng: np.random.Generator, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _affine_points(draw, size: int) -> np.ndarray:
    """z_{1:}/z_0 for `size` homogeneous points z, drawn by draw(n) n at a time.

    Rows with |z_0|^2 < 1e-12 |z|^2, a measure-zero event, are redrawn
    until none is left.
    """
    hom = draw(size)
    while True:
        bad = np.abs(hom[:, 0]) ** 2 < 1e-12 * np.sum(np.abs(hom) ** 2, axis=1)
        if not np.any(bad):
            return hom[:, 1:] / hom[:, 0:1]
        hom[bad] = draw(int(bad.sum()))


def _branch_unitary(w: np.ndarray) -> np.ndarray:
    """Unitary sending the homogeneous basis vector e_0 to (1, w)/|(1, w)|."""
    D = w.shape[0] + 1
    q = np.concatenate([[1.0 + 0.0j], w])
    q /= np.linalg.norm(q)
    u = np.zeros(D, dtype=complex)
    u[0] = 1.0
    u -= q
    nrm2 = np.vdot(u, u).real
    if nrm2 < 1e-30:
        return np.eye(D, dtype=complex)
    return np.eye(D, dtype=complex) - 2.0 * np.outer(u, u.conj()) / nrm2


def sample_dscs_husimi(
    w, N: int, rng: np.random.Generator, size: int
) -> np.ndarray:
    """Draw phase points distributed as the Husimi density of the DSCS |w>.

    At w = 0 the target density over the invariant measure is proportional
    to (1+|z|^2)^(-N), obtained exactly as z = v/sqrt(s) with v standard
    complex normal and s ~ Gamma(N+1); a unitary Moebius map then recenters
    the cloud on any other w.
    """
    w = np.asarray(w, dtype=complex)
    D = w.shape[0] + 1

    def centred(n):
        # homogeneous points (1, v/sqrt(s)) of the cloud at w = 0
        s = rng.gamma(N + 1.0, 1.0, n)
        v = _complex_normal(rng, (n, D - 1))
        return np.concatenate(
            [np.ones((n, 1), dtype=complex), v / np.sqrt(s)[:, None]], axis=1
        )

    if not np.any(w):
        return centred(size)[:, 1:]
    U = _branch_unitary(w)
    return _affine_points(lambda n: centred(n) @ U.T, size)


def _log_branch_husimi(zs: np.ndarray, centers: np.ndarray, N: int) -> np.ndarray:
    """log Q_{|w_b>}(z) for each sample (rows) and branch center (cols)."""
    cross = 1.0 + zs.conj() @ centers.T
    with np.errstate(divide="ignore"):
        log_cross = np.log(np.abs(cross))
    return (
        2.0 * N * log_cross
        - N * np.log1p(np.sum(np.abs(zs) ** 2, axis=1))[:, None]
        - N * np.log1p(np.sum(np.abs(centers) ** 2, axis=1))[None, :]
    )


def phase_space_expectation(
    state: SymmetricState,
    integrand,
    spec: IntegrationSpec,
    centers=None,
) -> tuple[float, float]:
    """Monte-Carlo estimate of int f(Q_psi(z)) dmu(z) with jackknife error.

    integrand maps an array of Husimi values to the array of f(Q).  With
    haar_mc the estimator is dim * mean f(Q) over uniform samples; with
    importance_mc samples come from an equal-weight mixture of coherent
    Husimi densities at the supplied branch `centers` and the integrand is
    reweighted by the mixture density.
    """
    basis = state.basis
    dim = basis.size
    if spec.method == "importance_mc":
        if centers is None or len(centers) == 0:
            raise ValueError("importance_mc requires at least one branch center")
        centers = np.asarray(centers, dtype=complex).reshape(-1, basis.D - 1)

    n_batches = max(2, -(-spec.samples // spec.batch))
    sizes = [len(part) for part in np.array_split(np.arange(spec.samples), n_batches)]
    streams = np.random.SeedSequence(spec.seed).spawn(n_batches)

    sums = np.empty(n_batches)
    for b, (n_b, ss) in enumerate(zip(sizes, streams)):
        rng = np.random.default_rng(ss)
        if spec.method == "haar_mc":
            zs = haar_sample(basis.D, rng, n_b)
            vals = dim * integrand(husimi_values(state, zs))
        else:
            which = rng.integers(0, centers.shape[0], n_b)
            zs = np.empty((n_b, basis.D - 1), dtype=complex)
            for idx in range(centers.shape[0]):
                mask = which == idx
                if np.any(mask):
                    zs[mask] = sample_dscs_husimi(
                        centers[idx], basis.N, rng, int(mask.sum())
                    )
            log_p = logsumexp(
                _log_branch_husimi(zs, centers, basis.N), axis=1
            ) - np.log(centers.shape[0])
            vals = integrand(husimi_values(state, zs)) * np.exp(-log_p)
        sums[b] = float(np.sum(vals))

    sizes = np.asarray(sizes, dtype=float)
    total = sums.sum()
    n = sizes.sum()
    estimate = total / n
    loo = (total - sums) / (n - sizes)
    se = math.sqrt((n_batches - 1) / n_batches * float(np.sum((loo - loo.mean()) ** 2)))
    return estimate, se


def moment_analytic(
    state: SymmetricState, nu: int, cap: int = DEFAULT_MOMENT_CAP
) -> MomentReport:
    """Exact nu-th Husimi moment of a normalized state.

    Forms the amplitude polynomial p_n = sqrt(N!/prod n_i!) c_n on the
    (n_1, ..., n_{D-1}) grid, convolves it nu times, and contracts the
    squared coefficients with the multinomial norms of the N*nu particle
    sector.  All weights are carried in log space with a single scale
    offset so the method works unchanged at N in the hundreds.
    """
    if int(nu) != nu or nu < 2:
        raise ValueError("analytic moments need integer nu >= 2")
    nu = int(nu)
    basis = state.basis
    N, D = basis.N, basis.D
    M = N * nu
    if basis_size(D, M) > cap:
        raise CapacityError(
            f"moment order {nu} at (D={D}, N={N}) needs sector size "
            f"{basis_size(D, M)} > cap {cap}"
        )

    p, scale = _amplitude_weights(state)
    grid = _weight_grid(basis, p, 0)
    if np.all(grid.imag == 0.0):
        grid = grid.real

    # exact convolution by shifted accumulation over the occupied simplex
    # cells only; an FFT here would smear its absolute error across the
    # huge dynamic range of the coefficients and break the 1e-10 contract
    kernel_idx = basis.states[:, 1:]
    kernel_vals = grid[tuple(kernel_idx.T)]
    occupied = kernel_vals != 0.0
    kernel_idx = kernel_idx[occupied]
    kernel_vals = kernel_vals[occupied]
    result = grid
    for step in range(1, nu):
        out = np.zeros((step * N + N + 1,) * (D - 1), dtype=result.dtype)
        for val, idx in zip(kernel_vals, kernel_idx):
            window = tuple(
                slice(int(i), int(i) + result.shape[d]) for d, i in enumerate(idx)
            )
            out[window] += val * result
        result = out
    if not np.all(np.isfinite(result)):
        raise FloatingPointError(f"moment convolution of order {nu} is not finite")

    ks = np.indices(result.shape, dtype=np.int64)
    ksum = ks.sum(axis=0)
    k0 = M - ksum
    valid = (k0 >= 0) & (np.abs(result) > 0.0)
    if not np.any(valid):
        return MomentReport(0.0, 0.0, "analytic")
    log_w = gammaln(k0[valid] + 1.0) - gammaln(M + 1.0)
    for axis_k in ks:
        log_w += gammaln(axis_k[valid] + 1.0)
    log_terms = 2.0 * np.log(np.abs(result[valid])) + 2.0 * nu * scale + log_w
    log_ratio = math.log(basis_size(D, N)) - math.log(basis_size(D, M))
    value = float(np.exp(logsumexp(log_terms) + log_ratio))
    return MomentReport(value, 0.0, "analytic")


def moment_mc(
    state: SymmetricState,
    nu: float,
    spec: IntegrationSpec,
    centers=None,
) -> MomentReport:
    """Monte-Carlo nu-th Husimi moment with jackknife standard error."""
    if nu <= 1:
        raise ValueError("moments are defined for nu > 1")
    value, se = phase_space_expectation(state, lambda q: q**nu, spec, centers)
    return MomentReport(value, se, spec.method)


def wehrl_entropy(
    state: SymmetricState,
    spec: IntegrationSpec,
    centers=None,
) -> tuple[float, float]:
    """Wehrl entropy -int Q ln Q dmu by Monte-Carlo, with standard error.

    0 ln 0 is taken as 0 and Q is clamped at 1e-300 before the log.
    For importance_mc, `centers` should hold the coherent branch points of
    the state (e.g. the sign flips of a cat's label) so the proposal
    mixture covers the Husimi mass.
    """

    def integrand(q):
        return np.where(q > 0.0, -q * np.log(np.maximum(q, 1e-300)), 0.0)

    return phase_space_expectation(state, integrand, spec, centers)


def renyi_wehrl(
    state: SymmetricState,
    nu: float,
    spec: IntegrationSpec | None = None,
    centers=None,
) -> float:
    """Renyi-Wehrl entropy ln(M_nu)/(1-nu).

    The moment is analytic when spec is None and otherwise integrated by
    Monte-Carlo with spec.method.
    """
    if nu == 1:
        raise ValueError("nu = 1 is the Wehrl limit; use wehrl_entropy")
    if spec is None:
        report = moment_analytic(state, nu)
    else:
        report = moment_mc(state, nu, spec, centers)
    return math.log(report.value) / (1.0 - nu)


def cat_moment_limit(D: int, nu: float, m: int) -> float:
    """Large-N moment (2^m)^(1-nu)/nu^(D-1) of a state of 2^m separated branches.

    m = 0 for a DSCS, D-1 for a full cat and k+w for a reduced cat.
    """
    return (2.0**m) ** (1 - nu) / float(nu) ** (D - 1)


def cat_wehrl_limit(D: int, m: int) -> float:
    """Large-N Wehrl entropy (D-1) + m ln 2 of a state of 2^m separated branches."""
    return (D - 1) + m * math.log(2.0)


def dscs_moment_exact(D: int, N: int, nu: float) -> float:
    """Finite-N DSCS moment prod_{j=1..D-1} (N+j)/(N nu + j); exact for int nu."""
    out = 1.0
    for j in range(1, D):
        out *= (N + j) / (N * nu + j)
    return out


def dscs_wehrl_exact(D: int, N: int) -> float:
    """Finite-N DSCS Wehrl entropy N sum_{j=1..D-1} 1/(N+j)."""
    return N * sum(1.0 / (N + j) for j in range(1, D))


def husimi_grid(
    state: SymmetricState, spec: HusimiGridSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Husimi values on a rectangular real slice of phase space.

    Returns (points, q): points has one row per grid node (row-major over
    the D-1 axes) holding the real slice coordinates, and q the Husimi
    value there.  The position slice evaluates Q at z = x (real), the
    momentum slice at z = i p.
    """
    n_axes = state.basis.D - 1
    if n_axes > 2:
        raise ValueError("grid slices are supported for D = 2 and D = 3 only")
    axis = spec.axis()
    grids = np.meshgrid(*([axis] * n_axes), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    zs = pts.astype(complex) if spec.slice == "position" else 1j * pts
    q = husimi_values(state, zs)
    return pts, q


def count_humps(state: SymmetricState, spec: HusimiGridSpec) -> int:
    """Number of local maxima of Q on the real position grid.

    Plateau cells tied with their neighbours are merged into a single
    hump (8-connectivity), implementing the closer-than-one-cell merge
    rule.  A warning is raised when two humps only one cell apart differ
    by less than 1e-6 in Q, where the merge decision is ambiguous; equal
    humps further apart, such as the mirror images of a cat, are distinct.
    """
    if spec.slice != "position":
        raise ValueError("hump counting is defined on the position slice")
    _, q = husimi_grid(state, spec)
    return count_map_humps(q.reshape((spec.points,) * (state.basis.D - 1)))


def count_map_humps(q: np.ndarray) -> int:
    """Number of local maxima of a Husimi map already on its position grid.

    q holds the values of `husimi_grid` reshaped to one axis per grid
    dimension; the merge rule and the warning are those of `count_humps`.
    """
    if min(q.shape) < 64:
        raise ValueError("hump counting needs at least 64 points per axis")
    n_axes = q.ndim

    padded = np.pad(q, 1, mode="constant", constant_values=-np.inf)
    is_max = np.ones_like(q, dtype=bool)
    offsets = (
        [(-1,), (1,)]
        if n_axes == 1
        else [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0)]
    )
    core = (slice(1, -1),) * n_axes
    for off in offsets:
        shifted = padded[tuple(slice(1 + o, padded.shape[d] - 1 + o) for d, o in enumerate(off))]
        is_max &= q >= shifted
    # edge nodes cannot be certified as maxima
    border = np.ones_like(is_max)
    border[core] = False
    is_max &= ~border
    # floating-point dust along exact zero curves of Q must not register;
    # genuine humps of normalized states sit many decades above it
    top = float(q.max())
    if top <= 0.0:
        return 0
    is_max &= q > 1e-9 * top

    structure = np.ones((3,) * n_axes, dtype=int)
    labels, count = ndimage.label(is_max, structure=structure)
    peaks = ndimage.maximum(q, labels, index=np.arange(1, count + 1))
    reach = np.ones((5,) * n_axes, dtype=bool)  # cells at most two apart
    for i in range(1, count):
        near = np.unique(labels[ndimage.binary_dilation(labels == i, reach)])
        near = near[near > i]
        if np.any(np.abs(peaks[near - 1] - peaks[i - 1]) < 1e-6):
            warnings.warn(
                "merge ambiguity: two humps one cell apart differ by less "
                "than 1e-6 in Q",
                stacklevel=2,
            )
            break
    return int(count)
