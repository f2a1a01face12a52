"""Husimi function and phase-space localization measures on CP^(D-1).

The Husimi function of a symmetric N-quDit state is Q(z) = |<z|psi>|^2
with |z> a U(D)-spin coherent state.  Under the unitarily invariant
(Fubini-Study) measure normalized so that coherent states resolve the
identity, Q integrates to one, its nu-th moments measure localization
(nu = 2 is the inverse participation ratio), and -int Q ln Q is the Wehrl
entropy, minimized by coherent states.

All of them rest on one fact: <z|psi> is a degree-N polynomial in the
coherent-state coordinates, sum_n sqrt(N!/prod n_i!) psi_n conj(u)^n at
the unit homogeneous vector u = (1, z)/|(1, z)|.  `husimi_values`
evaluates it with the largest coordinate of u factored out, so every
remaining power has modulus at most 1 and no term overflows at N in the
hundreds or far from the origin, and on the half-excess grid n = c' + 2k
of each parity class c' the state holds, a quarter of the full grid at
D = 3 for a parity-pure state; every Monte-Carlo estimate and single
point goes through it.  On a real slice of phase space the polynomial is
a bilinear form in the power tables of the two axes, so `husimi_grid`
evaluates a whole map, and the hump count on it, as one matrix product,
and passes its nodes to `husimi_values` only where those unpivoted powers
could overflow.  Moments of integer order are computed exactly from the
same amplitudes: their nu-th power, paired with the monomial norms at
particle number N*nu, yields the moment without any quadrature.
Monte-Carlo backends (uniform Haar sampling and importance sampling from
coherent-branch mixtures) cover the Wehrl integral, which has no closed
form at finite N.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .coherent import SymmetricState
from .fock import CapacityError, FockBasis, basis_size, shared_basis

DEFAULT_MOMENT_CAP = 10_000_000

# sample-axis chunk of husimi_values, counted in complex elements of its
# per-sample temporaries (power tables and first mode product): 64 MB
_CHUNK_ELEMENTS = 4_000_000

# a Husimi map is one tensor product while dim max(1, max|axis|)^N, the
# largest entry its unpivoted power tables can sum to, is below 2^1021:
# then nothing overflows, and a prefactor below the smallest normal double
# costs at most 2^-53 of the amplitude (notes/decisions.md)
_TENSOR_LOG_BOUND = 1021 * math.log(2.0)

# Monte-Carlo batches are evaluated in runs of whole consecutive batches of
# about this many of those elements (4 MB), one kernel call per run
_BLOCK_ELEMENTS = 250_000

# the values IntegrationSpec.method and HusimiGridSpec.slice accept
INTEGRATION_METHODS = ("haar_mc", "importance_mc")
GRID_SLICES = ("position", "momentum")


@dataclass(frozen=True)
class IntegrationSpec:
    """Monte-Carlo integration plan; deterministic for a fixed seed.

    `batch` is the number of samples per jackknife batch, each drawn from
    its own `SeedSequence` stream.  It does not set the size of a kernel
    call: `phase_space_expectation` evaluates whole consecutive batches in
    runs of about `_BLOCK_ELEMENTS`, and a larger batch on its own.
    """

    method: str = "haar_mc"
    samples: int = 1_000_000
    seed: int = 0
    batch: int = 200_000

    def __post_init__(self):
        if self.method not in INTEGRATION_METHODS:
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
        if not self.half_range > 0:  # nan included
            raise ValueError(f"half_range must be positive, not {self.half_range!r}")
        # inf, or a half_range near the largest double, overflows the spacing
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(self.axis())):
                raise ValueError(f"half_range {self.half_range!r} gives a non-finite grid axis")
        if self.slice not in GRID_SLICES:
            raise ValueError(f"unknown slice {self.slice!r}")

    def axis(self) -> np.ndarray:
        return np.linspace(-self.half_range, self.half_range, self.points)


def husimi_values(state: SymmetricState | _KernelState, zs: np.ndarray) -> np.ndarray:
    """Q(z) = |<z|psi>|^2 for a batch of phase points, shape (m, D-1).

    `state` is a SymmetricState, or the `_KernelState` an integral
    prepares once for all of its blocks.  Evaluates the amplitude
    polynomial <z|psi> = sum_n w_n conj(u)^n,
    w_n = sqrt(N!/prod n_i!) psi_n, at the unit homogeneous vector
    u = (1, z)/|(1, z)|.  Each sample factors out its largest coordinate
    u_p, leaving conj(u_p)^N P_p(conj r) with ratios r_k = u_k/u_p of
    modulus at most 1, so no power overflows however far z lies from the
    origin.  Every non-pivot occupation is n_j = c'_j + 2 k_j with parity
    c'_j, so P_p is a sum over the parity classes c' present in psi of
    r^c' times a polynomial in r^2 on the half-excess grid k, of side
    N // 2 + 1 (`_sector_grids`); a parity-pure state has one class.  The
    class grids are stacked and contracted mode by mode against one table
    of the powers of r^2: at D = 3 one product with T_b, then a row-wise
    dot with T_a.  The weights are scaled by e^(-s), s = max_n ln|w_n|,
    and the prefactor is applied as exp(N ln|u_p| + s).  A batch is
    evaluated in chunks of `_chunk_rows` samples, each exactly as a call
    on that chunk alone would be.

    The error contract is absolute: within 1e-13 of the Fock-space sum
    |conj(dscs_coefficients) . psi|^2 for N up to 500, about 1e-15 at
    modest N, and not small relative to Q near the zeros of Q
    (notes/decisions.md).  Past N = 500 the rounding of the weights' log
    multinomials, which grow to N ln D, costs more: a few 1e-13 at
    N = 1000.  That limit is apart from the range of the prefactor, which
    stays finite while (N/2) ln D < 709, for every N <= 1292 at D = 3;
    past that a state can make it overflow, which raises
    FloatingPointError.
    """
    kernel = state if isinstance(state, _KernelState) else _KernelState(state)
    zs = np.asarray(zs, dtype=complex)
    if zs.ndim == 1:
        zs = zs[None, :]
    basis = kernel.basis
    N = basis.N
    hom = np.concatenate([np.ones((zs.shape[0], 1), dtype=complex), zs], axis=1)
    pivots = np.argmax(np.abs(hom), axis=1)
    chunk = _chunk_rows(basis, _CHUNK_ELEMENTS)
    out = np.empty(zs.shape[0])
    # a term or a Q below the smallest double is 0 within the absolute
    # error contract, so underflow is no failure here; the prefactor
    # overflows only past (N/2) ln D = 709 (notes/decisions.md), and there
    # it must fail rather than clamp Q to 1
    with np.errstate(under="ignore", over="raise"):
        grids = {p: kernel.grids(p) for p in np.unique(pivots)}
        for start in range(0, zs.shape[0], chunk):
            for p, (classes, grid) in grids.items():
                rows = start + np.nonzero(pivots[start : start + chunk] == p)[0]
                if rows.size:
                    out[rows] = _pivot_husimi(hom[rows], p, classes, grid, kernel.scale, N)
    return np.minimum(out, 1.0)


class _KernelState:
    """What `husimi_values` reads of a state: its basis, its weights and
    scale (`_amplitude_weights`) and, built on first use, each pivot's
    class grids (`_sector_grids`).  An integral builds one and passes it
    to every block, so none of them is rebuilt per block."""

    def __init__(self, state: SymmetricState):
        self.basis = state.basis
        # a weight below the smallest double is 0 within the kernel's
        # absolute error contract
        with np.errstate(under="ignore"):
            self.weights, self.scale = _amplitude_weights(state)
        self._grids: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def grids(self, p: int) -> tuple[np.ndarray, np.ndarray]:
        if p not in self._grids:
            self._grids[p] = _sector_grids(self.basis, self.weights, p)
        return self._grids[p]


def _chunk_rows(basis: FockBasis, elements: int) -> int:
    """Samples of husimi_values whose temporaries fit in `elements`, counted
    as (D-1)(N+1) + (N+1)^(D-2) complex values per sample.  The
    temporaries are the D - 1 tables of r^2, (D-1)K values with
    K = N//2 + 1, and the stacked first mode product, S K^(D-2) values for
    S parity classes.  At D = 3 that is 3K for a parity-pure state, about
    half the count, and at most 6K, within 3 of it; at D = 4 a state with
    all 8 classes takes up to twice the count.  At least one sample."""
    per_sample = (basis.D - 1) * (basis.N + 1) + (basis.N + 1) ** (basis.D - 2)
    return max(1, elements // per_sample)


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


def _weight_grid(basis: FockBasis, weights: np.ndarray) -> np.ndarray:
    """Weights laid out on the grid of the occupations of levels 1..D-1."""
    grid = np.zeros((basis.N + 1,) * (basis.D - 1), dtype=complex)
    grid[tuple(basis.states[:, 1:].T)] = weights
    return grid


def _sector_grids(
    basis: FockBasis, weights: np.ndarray, p: int
) -> tuple[np.ndarray, np.ndarray]:
    """Weights split by the parity classes of the levels other than p.

    Each occupation of such a level is c'_j + 2 k_j.  Returns the classes
    c' that hold a non-zero weight, shape (S, D-1), and their weights on
    the k grid, shape (S, K, ..., K) with K = N // 2 + 1.  A parity-pure
    state has one class for every pivot.
    """
    D, K = basis.D, basis.N // 2 + 1
    # each state's class c' and k, both flattened with the first level highest
    code = np.zeros(basis.size, dtype=np.int64)
    k = np.zeros(basis.size, dtype=np.int64)
    for j in range(D):
        if j != p:
            n = basis.states[:, j]
            code = 2 * code + (n & 1)
            k = K * k + (n >> 1)
    stacked = np.zeros((2 ** (D - 1), K ** (D - 1)), dtype=complex)
    stacked[code, k] = weights
    present = np.flatnonzero(stacked.any(axis=1))
    classes = (present[:, None] >> np.arange(D - 2, -1, -1)) & 1
    return classes, stacked[present].reshape((-1,) + (K,) * (D - 1))


def _pivot_husimi(
    hom: np.ndarray, p: int, classes: np.ndarray, grids: np.ndarray, scale: float, N: int
) -> np.ndarray:
    """Q at homogeneous points hom (rows) whose largest coordinate is p."""
    m = hom.shape[0]
    K = grids.shape[1]
    ratios = (np.delete(hom, p, axis=1) / hom[:, p : p + 1]).conj()
    log_up = -0.5 * np.log1p(np.sum(np.abs(ratios) ** 2, axis=1))
    # tables[k, j] = r_j^(2k), a running product over k
    sq = (ratios * ratios).T
    tables = np.empty((K, ratios.shape[1], m), dtype=complex)
    tables[0] = 1.0
    for k in range(1, K):
        np.multiply(tables[k - 1], sq, out=tables[k])
    # every class's grid in one product with the last mode's table, then
    # row-wise dots with the earlier modes' tables
    poly = grids.reshape(-1, K) @ tables[:, -1]
    for j in range(ratios.shape[1] - 2, -1, -1):
        poly = np.einsum("akm,km->am", poly.reshape(-1, K, m), tables[:, j])
    total = 0.0
    for bits, part in zip(classes, poly):
        for j in np.flatnonzero(bits):
            part = part * ratios[:, j]
        total = total + part
    amp = np.exp(N * log_up + scale) * total
    return amp.real**2 + amp.imag**2


def husimi_value(state: SymmetricState, z) -> float:
    """Husimi function of a normalized state at a single phase point."""
    return float(husimi_values(state, np.asarray(z, dtype=complex))[0])


def haar_sample(D: int, rng: np.random.Generator, size: int) -> np.ndarray:
    """`size` Haar-uniform points of CP^(D-1) in the z_0 = 1 patch.

    Draws standard complex normal D-vectors c and returns c_{1:}/c_0,
    redrawing on the measure-zero event that c_0 nearly vanishes.
    """
    return _affine_points(lambda n: _complex_normal(rng, (n, D)), size)


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
    return _dscs_sampler(w, N)(rng, size)


def _dscs_sampler(w, N: int):
    """sample_dscs_husimi at the center w as a function of (rng, size),
    with the branch unitary of w computed once."""
    w = np.asarray(w, dtype=complex)
    D = w.shape[0] + 1
    U = _branch_unitary(w)

    def sample(rng: np.random.Generator, size: int) -> np.ndarray:
        def centred(n):
            # homogeneous points (1, v/sqrt(s)) of the cloud at w = 0
            s = rng.gamma(N + 1.0, 1.0, n)
            v = _complex_normal(rng, (n, D - 1))
            return np.concatenate(
                [np.ones((n, 1), dtype=complex), v / np.sqrt(s)[:, None]], axis=1
            )

        return _affine_points(lambda n: centred(n) @ U.T, size)

    return sample


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


def _logsumexp(a, axis=None) -> np.ndarray:
    """ln sum exp(a) over `axis` (every entry if None), shifted by the max;
    a non-finite max shifts by 0, so an all -inf slice gives -inf quietly."""
    a = np.asarray(a, dtype=float)
    shift = np.max(a, axis=axis, keepdims=True)
    shift[~np.isfinite(shift)] = 0.0
    with np.errstate(divide="ignore"):
        out = np.log(np.sum(np.exp(a - shift), axis=axis, keepdims=True)) + shift
    return np.squeeze(out, axis=axis)


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

    The samples fall into jackknife batches of about `spec.batch`, each
    drawn from its own `SeedSequence` stream; their sizes differ by at
    most one.  Whole consecutive batches are evaluated together, one
    `husimi_values` call per run of as many batches as `_BLOCK_ELEMENTS`
    holds of the smallest (a larger batch is a run of its own), and each
    batch is then summed over its own slice.  Where the sizes differ, a
    run can pass the budget by at most as many samples as it has
    batches.  Every sample's f(Q) and mixture density are independent of
    its run mates, so the result does not depend on the block budget.

    Integrals with equal spec, centers and basis share one draw: the
    samples and their mixture density are drawn once (`_draws`) and read
    by each state integrated after, as the localization sweep does for a
    coupling's cat and ground state.  The state's kernel weights are
    prepared once per integral and read by every run.
    """
    basis = state.basis
    if spec.method == "importance_mc":
        if centers is None or len(centers) == 0:
            raise ValueError("importance_mc requires at least one branch center")
        centers = np.asarray(centers, dtype=complex).reshape(-1, basis.D - 1)
        centers = tuple(centers.ravel().tolist())
    else:
        centers = None
    rows = _chunk_rows(basis, _BLOCK_ELEMENTS)
    sizes, runs = _draws(spec, centers, basis.D, basis.N, rows)
    kernel = _KernelState(state)
    sums = []
    for zs, inv_density, cuts in runs:
        vals = integrand(husimi_values(kernel, zs))
        vals = basis.size * vals if inv_density is None else vals * inv_density
        sums.extend(map(np.sum, np.split(vals, cuts)))

    sums = np.asarray(sums)
    n_batches = len(sizes)
    total = sums.sum()
    n = sizes.sum()
    estimate = total / n
    loo = (total - sums) / (n - sizes)
    se = math.sqrt((n_batches - 1) / n_batches * float(np.sum((loo - loo.mean()) ** 2)))
    return estimate, se


@functools.lru_cache(maxsize=1)
def _draws(spec: IntegrationSpec, centers: tuple | None, D: int, N: int, rows: int):
    """The samples of `phase_space_expectation`, grouped in runs of batches.

    `centers` is None for haar_mc, else the flattened branch centers, and
    `rows` is the run budget in samples, `_chunk_rows(basis,
    _BLOCK_ELEMENTS)`.  Returns the batch sizes and, per run of whole
    consecutive batches, its samples zs, their inverse mixture density
    1/p(z) (None for haar_mc) and the cut points of its batches.  The last
    key is memoized, so the integrals of a coupling's states draw once;
    the arrays are read-only, since every caller gets the same ones.
    """
    n_batches = max(2, -(-spec.samples // spec.batch))
    # the first `extra` batches hold one sample more than the rest
    smallest, extra = divmod(spec.samples, n_batches)
    sizes = np.full(n_batches, smallest)
    sizes[:extra] += 1
    streams = np.random.SeedSequence(spec.seed).spawn(n_batches)
    if centers is not None:
        centers = np.array(centers, dtype=complex).reshape(-1, D - 1)
        samplers = [_dscs_sampler(w, N) for w in centers]

    def draw(n_b, ss):
        rng = np.random.default_rng(ss)
        if centers is None:
            return haar_sample(D, rng, n_b)
        which = rng.integers(0, centers.shape[0], n_b)
        zs = np.empty((n_b, D - 1), dtype=complex)
        for idx, sample in enumerate(samplers):
            mask = which == idx
            if np.any(mask):
                zs[mask] = sample(rng, int(mask.sum()))
        return zs

    # runs of as many whole consecutive batches as the budget holds of the
    # smallest one, at least one batch per run
    per_run = max(1, rows // smallest)
    runs = []
    for first in range(0, n_batches, per_run):
        run = slice(first, first + per_run)
        zs = np.concatenate([draw(n_b, ss) for n_b, ss in zip(sizes[run], streams[run])])
        inv_density = None
        if centers is not None:
            log_branch = _log_branch_husimi(zs, centers, N)
            log_p = _logsumexp(log_branch, axis=1) - np.log(centers.shape[0])
            inv_density = np.exp(-log_p)
        runs.append((zs, inv_density, np.cumsum(sizes[run])[:-1]))
    for a in [sizes] + [a for run in runs for a in run if a is not None]:
        a.flags.writeable = False
    return sizes, tuple(runs)


def moment_analytic(
    state: SymmetricState, nu: int, cap: int = DEFAULT_MOMENT_CAP
) -> MomentReport:
    """Exact nu-th Husimi moment of a normalized state.

    Forms the amplitude polynomial p_n = sqrt(N!/prod n_i!) c_n on the
    (n_1, ..., n_{D-1}) grid and convolves it nu times, one product with
    a Toeplitz matrix per non-zero line of p along its last axis.  The
    result is a state of N*nu particles: its coefficients, read at the
    occupations of that Fock basis, are contracted with its multinomial
    norms.  All weights are carried in log space with a single scale
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
    grid = _weight_grid(basis, p)
    if np.all(grid.imag == 0.0):
        grid = grid.real

    # exact convolution as sums of products: each non-zero line of the grid
    # along its last axis acts as the Toeplitz matrix T[a, b] = line[b - a];
    # an FFT here would smear its absolute error across the huge dynamic
    # range of the coefficients and break the 1e-10 contract
    result = grid
    for step in range(1, nu):
        R = step * N + 1
        out = np.zeros((R + N,) * (D - 1), dtype=result.dtype)
        for idx in np.ndindex(grid.shape[:-1]):
            if np.any(grid[idx] != 0.0):
                T = sliding_window_view(np.pad(grid[idx], R - 1), R + N)[::-1]
                out[tuple(slice(i, i + R) for i in idx)] += result @ T
        result = out
    if not np.all(np.isfinite(result)):
        raise FloatingPointError(f"moment convolution of order {nu} is not finite")

    power = shared_basis(D, M)
    coeffs = np.abs(result[tuple(power.states[:, 1:].T)])
    valid = coeffs > 0.0
    if not np.any(valid):
        return MomentReport(0.0, 0.0, "analytic")
    log_terms = (
        2.0 * np.log(coeffs[valid]) + 2.0 * nu * scale - power.log_multinomials[valid]
    )
    log_ratio = math.log(basis.size) - math.log(power.size)
    value = float(np.exp(_logsumexp(log_terms) + log_ratio))
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

    On the slice the amplitude is (1+|z|^2)^(-N/2) e^s times the bilinear
    form T W T^T (T W at D = 2), where W holds the pivot-0 weights of
    `husimi_values` on the (n_1, n_2) grid and T[i, n] = conj(a_i)^n is
    the power table of the axis values a = x or i p: one matrix product
    per map, with the prefactor and the clamp at 1 of `husimi_values`.
    The sum of the moduli of its terms reaches dim max(1, max|a|)^N;
    where that passes `_TENSOR_LOG_BOUND` the nodes go through
    `husimi_values` instead, pivot by pivot (notes/decisions.md).
    """
    basis = state.basis
    n_axes = basis.D - 1
    if n_axes > 2:
        raise ValueError("grid slices are supported for D = 2 and D = 3 only")
    axis = spec.axis()
    grids = np.meshgrid(*([axis] * n_axes), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    top = float(np.max(np.abs(axis)))
    if basis.N * math.log(max(1.0, top)) + math.log(basis.size) >= _TENSOR_LOG_BOUND:
        zs = pts.astype(complex) if spec.slice == "position" else 1j * pts
        return pts, husimi_values(state, zs)
    return pts, _tensor_husimi(state, axis, spec.slice == "momentum").ravel()


def _tensor_husimi(state: SymmetricState, axis: np.ndarray, momentum: bool) -> np.ndarray:
    """Q on the tensor grid of z = `axis` values, or i `axis` if `momentum`."""
    basis = state.basis
    N = basis.N
    n = np.arange(N + 1)
    sq = axis**2
    with np.errstate(under="ignore", over="raise"):
        table = axis[:, None] ** n
        if momentum:
            # conj(i p)^n = (-i)^n p^n, the phases exact
            table = table * np.array([1.0, -1.0j, -1.0, 1.0j])[n % 4]
        weights, scale = _amplitude_weights(state)
        grid = _weight_grid(basis, weights)
        if basis.D == 2:
            poly, r2 = table @ grid, sq
        else:
            poly, r2 = table @ grid @ table.T, np.add.outer(sq, sq)
        amp = np.exp(N * (-0.5 * np.log1p(r2)) + scale) * poly
    return np.minimum(amp.real**2 + amp.imag**2, 1.0)


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


def _neighbours(a: np.ndarray, reach: int, fill) -> list[np.ndarray]:
    """a shifted by every non-zero offset of at most `reach` cells per axis,
    with `fill` beyond the edge."""
    padded = np.pad(a, reach, constant_values=fill)
    return [
        padded[tuple(slice(reach + o, reach + o + n) for o, n in zip(off, a.shape))]
        for off in itertools.product(range(-reach, reach + 1), repeat=a.ndim)
        if any(off)
    ]


def count_map_humps(q: np.ndarray) -> int:
    """Number of local maxima of a Husimi map already on its position grid.

    q holds the values of `husimi_grid` reshaped to one axis per grid
    dimension; the merge rule and the warning are those of `count_humps`.
    """
    if min(q.shape) < 64:
        raise ValueError("hump counting needs at least 64 points per axis")
    # nodes as high as every neighbour, off the edge, where none can be
    # certified, and above the dust along exact zero curves of Q
    is_max = np.all([q >= s for s in _neighbours(q, 1, -np.inf)], axis=0)
    is_max = np.pad(is_max[(slice(1, -1),) * q.ndim], 1) & (q > 1e-9 * q.max())
    # number the maxima, then let each take the largest number among its
    # neighbouring maxima until none changes: one number per hump
    labels = np.where(is_max, np.arange(1, q.size + 1).reshape(q.shape), 0)
    previous = None
    while not np.array_equal(labels, previous):
        previous = labels
        labels = np.where(is_max, np.max([labels, *_neighbours(labels, 1, 0)], axis=0), 0)
    # neighbouring maxima are equal, so a hump is as high as any of its cells
    height = np.where(is_max, q, np.nan)
    for other, other_height in zip(_neighbours(labels, 2, 0), _neighbours(height, 2, np.nan)):
        # a hump at most two cells away whose height is within 1e-6
        if np.any((other != labels) & (np.abs(other_height - height) < 1e-6)):
            msg = "merge ambiguity: two humps one cell apart differ by less than 1e-6 in Q"
            warnings.warn(msg, stacklevel=2)
            break
    return len(np.unique(labels[is_max]))
