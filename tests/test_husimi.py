import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest

import quditcat.husimi
from quditcat.coherent import SymmetricState, dscs, dscs_coefficients
from quditcat.fock import CapacityError, exact_multinomial, shared_basis
from quditcat.husimi import (
    HusimiGridSpec,
    IntegrationSpec,
    cat_moment_limit,
    cat_wehrl_limit,
    count_humps,
    count_map_humps,
    dscs_moment_exact,
    dscs_wehrl_exact,
    haar_sample,
    husimi_grid,
    husimi_value,
    husimi_values,
    moment_analytic,
    moment_mc,
    phase_space_expectation,
    renyi_wehrl,
    sample_dscs_husimi,
    wehrl_entropy,
)
from quditcat.parity import CatSpec, all_parity_labels, dcat

from conftest import random_phase_point


def random_state(rng, basis):
    vec = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    return SymmetricState(basis, vec / np.linalg.norm(vec))


# -------------------------------------------------------------- husimi values


def test_husimi_self_overlap(basis_3_20, rng):
    z = random_phase_point(rng, 3)
    assert abs(husimi_value(dscs(basis_3_20, z), z) - 1.0) < 1e-12


def test_husimi_of_condensate_closed_form(basis_3_20, rng):
    state = dscs(basis_3_20, [0.0, 0.0])
    for _ in range(5):
        z = random_phase_point(rng, 3)
        expected = (1.0 + np.vdot(z, z).real) ** (-20)
        assert abs(husimi_value(state, z) - expected) < 1e-12 * expected + 1e-15


def test_husimi_cat_closed_form(basis_3_20, rng):
    # branch-sum formula for the cat Husimi function
    N = 20
    z = np.array([0.45, 0.8])
    for c in all_parity_labels(3):
        cat = dcat(basis_3_20, CatSpec(z, c, N))
        for _ in range(4):
            zp = random_phase_point(rng, 3)
            num = 0.0 + 0.0j
            den = 0.0
            for b in itertools.product((0, 1), repeat=2):
                chi = (-1.0) ** np.dot(c, b)
                zb = z * np.where(np.asarray(b) == 1, -1.0, 1.0)
                num += chi * (1.0 + np.vdot(z, zp * np.where(np.asarray(b) == 1, -1.0, 1.0))) ** N
                den += chi * (1.0 + np.vdot(z, zb).real) ** N
            q_expected = (
                2.0 ** (1 - 3)
                * abs(num) ** 2
                / ((1.0 + np.vdot(zp, zp).real) ** N * den)
            )
            got = husimi_value(cat, zp)
            assert abs(got - q_expected) < 1e-10


def test_husimi_values_in_unit_interval(basis_3_20, rng):
    state = random_state(rng, basis_3_20)
    zs = np.stack([random_phase_point(rng, 3, 2.0) for _ in range(50)])
    q = husimi_values(state, zs)
    assert np.all(q >= 0.0) and np.all(q <= 1.0)


def log_spread_points(rng, D, m):
    """Phase points with every |z_k| log-uniform in [1e-3, 1e3], random phases."""
    mags = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), (m, D - 1)))
    return mags * np.exp(2j * np.pi * rng.random((m, D - 1)))


def oracle_states(rng, basis):
    """A parity-pure, a mixed-sector and a complex random state."""
    codes = basis.sector_codes
    pure = np.where(codes == 1, rng.standard_normal(basis.size), 0.0)
    mixed = np.where(codes <= 1, rng.standard_normal(basis.size), 0.0)
    full = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    return [SymmetricState(basis, v / np.linalg.norm(v)) for v in (pure, mixed, full)]


@pytest.mark.parametrize(
    "D, N", [(2, 1), (2, 40), (2, 500), (3, 2), (3, 30), (3, 500), (4, 3), (4, 40)]
)
def test_husimi_values_match_fock_space_oracle(D, N):
    rng = np.random.default_rng(1000 * D + N)
    basis = shared_basis(D, N)
    zs = log_spread_points(rng, D, 40)
    zs[0] = 0.0
    zs[1, 0] = 0.0  # an exactly vanishing coordinate
    for state in oracle_states(rng, basis):
        expected = np.abs(dscs_coefficients(basis, zs).conj() @ state.coeffs) ** 2
        if N == 500:
            with np.errstate(all="raise"):
                q = husimi_values(state, zs)
        else:
            q = husimi_values(state, zs)
        assert np.all(np.isfinite(q))
        assert np.max(np.abs(q - expected)) <= 1e-13


@pytest.mark.parametrize("pivot", [None, 0, 2])
def test_husimi_values_chunk_boundary_is_exact(basis_3_20, rng, pivot):
    # pivot None mixes samples of all three pivots (largest coordinate of
    # (1, z)); 0 and 2 put every sample on one (|z_k| < 1, or |z_2| largest)
    state = random_state(rng, basis_3_20)
    chunk = quditcat.husimi._chunk_rows(basis_3_20)
    shape = (chunk + 5, 2)
    zs = rng.uniform(-3.0, 3.0, shape) + 1j * rng.uniform(-3.0, 3.0, shape)
    if pivot == 0:
        zs *= 0.2
    elif pivot == 2:
        zs[:, 1] = 10.0 * np.exp(1j * rng.uniform(0.0, 2 * np.pi, len(zs)))
    hom = np.concatenate([np.ones((len(zs), 1)), np.abs(zs)], axis=1)
    pivots = set(np.argmax(hom, axis=1).tolist())
    assert pivots == ({0, 1, 2} if pivot is None else {pivot})
    whole = husimi_values(state, zs)
    halves = np.concatenate(
        [husimi_values(state, zs[:chunk]), husimi_values(state, zs[chunk:])]
    )
    assert np.array_equal(whole, halves)


def test_husimi_values_raise_past_the_prefactor_range():
    # (N/2) ln 2 > 709 at N = 2100: the prefactor of the evenly spread
    # coherent state overflows at z = 0, which must not clamp Q to 1
    state = dscs(shared_basis(2, 2100), [1.0])
    with pytest.raises(FloatingPointError):
        husimi_values(state, np.zeros((1, 1)))


def mpmath_husimi(state, z) -> float:
    """|sum_n sqrt(N!/prod n_i!) psi_n conj(u)^n|^2 summed with 60 digits."""
    basis = state.basis
    with mpmath.workdps(60):
        hom = [mpmath.mpc(1)] + [mpmath.mpc(complex(v)) for v in z]
        norm = mpmath.sqrt(mpmath.fsum(abs(v) ** 2 for v in hom))
        powers = [[mpmath.mpc(1)] for _ in hom]
        for k, v in enumerate(hom):
            for _ in range(basis.N):
                powers[k].append(powers[k][-1] * mpmath.conj(v / norm))
        amp = mpmath.mpc(0)
        for n, c in zip(basis.states.tolist(), state.coeffs.tolist()):
            if c:
                term = mpmath.sqrt(exact_multinomial(n)) * mpmath.mpc(c)
                for k, nk in enumerate(n):
                    term *= powers[k][nk]
                amp += term
        return float(abs(amp) ** 2)


def test_husimi_values_match_mpmath_sum():
    basis = shared_basis(3, 100)
    far = np.array([300.0 * np.exp(0.4j), -120.0 * np.exp(1.1j)])
    coherent = dscs(basis, far)
    cat = dcat(basis, CatSpec([0.6, 0.5], (1, 0), 100))
    cases = [
        (coherent, far),  # Q = 1 at |z| = 325
        (coherent, far * np.array([1.0, 1.05])),
        (cat, np.array([0.6, 0.5])),  # a hump, Q = 1/4
        (cat, np.array([0.02, 0.4])),
        (cat, np.array([2.0, -3.0j])),
    ]
    for state, z in cases:
        assert abs(husimi_value(state, z) - mpmath_husimi(state, z)) <= 1e-13


# -------------------------------------------------------------- haar sampling


def test_haar_reproducibility():
    a = haar_sample(3, np.random.default_rng(5), 100)
    b = haar_sample(3, np.random.default_rng(5), 100)
    assert np.array_equal(a, b)


def test_haar_homogeneous_coordinate_symmetry():
    # on CP^1 both homogeneous coordinates carry equal average weight
    rng = np.random.default_rng(12)
    z = haar_sample(2, rng, 200_000)
    w = (np.abs(z[:, 0]) ** 2 / (1.0 + np.abs(z[:, 0]) ** 2)).real
    se = w.std() / math.sqrt(len(w))
    assert abs(w.mean() - 0.5) < 3 * se


def test_haar_mean_husimi_is_inverse_dimension():
    basis = shared_basis(3, 6)
    state = dscs(basis, [0.0, 0.0])
    rng = np.random.default_rng(77)
    q = husimi_values(state, haar_sample(3, rng, 200_000))
    se = q.std() / math.sqrt(len(q))
    assert abs(q.mean() - 1.0 / basis.size) < 3 * se


class ForcedDraws:
    """A generator whose first draws are passed through given edits.

    Each edit maps the array a call would return to the one it returns;
    `calls` logs (method, size) of every call.
    """

    def __init__(self, seed, normal_edits=(), gamma_edits=()):
        self.rng = np.random.default_rng(seed)
        self.edits = {"standard_normal": list(normal_edits), "gamma": list(gamma_edits)}
        self.calls = []

    def _draw(self, name, *args):
        out = getattr(self.rng, name)(*args)
        self.calls.append((name, args[-1]))
        return self.edits[name].pop(0)(out.copy()) if self.edits[name] else out

    def standard_normal(self, shape):
        return self._draw("standard_normal", shape)

    def gamma(self, shape, scale, size):
        return self._draw("gamma", shape, scale, size)


def _set_rows(value, col=None):
    """Edit setting the first three rows, or their column `col`, to value."""

    def edit(a):
        a[(slice(0, 3),) if col is None else (slice(0, 3), col)] = value
        return a

    return edit


def test_haar_sample_redraws_points_at_infinity():
    # three rows with c_0 = 0 are redrawn; the other rows are kept
    forced = ForcedDraws(5, [_set_rows(0.0, 0)] * 2)
    z = haar_sample(3, forced, 50)
    assert forced.calls[2:] == [("standard_normal", (3, 3))] * 2
    assert np.all(np.isfinite(z))
    assert np.array_equal(z[3:], haar_sample(3, np.random.default_rng(5), 50)[3:])


def test_recentred_sampler_redraws_points_at_infinity():
    # the cloud point z = -1 (s = 1, v = -1) is sent to infinity by the
    # map that recentres the cloud on w = 1
    forced = ForcedDraws(
        4, [_set_rows(-math.sqrt(2.0)), _set_rows(0.0)], [_set_rows(1.0)]
    )
    z = sample_dscs_husimi(np.array([1.0]), 10, forced, 40)
    assert forced.calls[3:] == [
        ("gamma", 3), ("standard_normal", (3, 1)), ("standard_normal", (3, 1))
    ]
    assert np.all(np.isfinite(z))


def test_dscs_husimi_sampler_matches_density():
    # moments of |z|^2/(1+|z|^2) under the coherent Husimi cloud at w=0:
    # E[u] = (D-1)/(N+D) for u = |z|^2/(1+|z|^2) via the beta-like law
    N, D = 12, 3
    rng = np.random.default_rng(3)
    z = sample_dscs_husimi(np.zeros(D - 1), N, rng, 150_000)
    u = (np.sum(np.abs(z) ** 2, axis=1) / (1.0 + np.sum(np.abs(z) ** 2, axis=1))).real
    se = u.std() / math.sqrt(len(u))
    assert abs(u.mean() - (D - 1) / (N + D)) < 3.5 * se


def test_recentred_sampler_matches_translated_cloud(rng):
    # sampling z from the Husimi cloud of |w> and averaging that same
    # Husimi function gives its second moment: E[Q_w] = M_2
    N, D = 10, 3
    basis = shared_basis(D, N)
    w = np.array([0.6, -0.3])
    state = dscs(basis, w)
    z = sample_dscs_husimi(w, N, np.random.default_rng(8), 120_000)
    q = husimi_values(state, z)
    expected = dscs_moment_exact(D, N, 2)
    se = q.std() / math.sqrt(len(q))
    assert abs(q.mean() - expected) < 3.5 * se


# ------------------------------------------------------------------- moments


def test_moment_analytic_single_particle():
    basis = shared_basis(3, 1)
    report = moment_analytic(dscs(basis, [0.0, 0.0]), 2)
    assert abs(report.value - 0.5) < 1e-14
    assert report.std_error == 0.0


def test_non_finite_coefficient_raises_in_the_kernel_and_the_moments():
    # normalized=False skips the norm check, so the kernels must catch it
    basis = shared_basis(3, 6)
    coeffs = dscs(basis, [0.3, 0.5]).coeffs.copy()
    coeffs[4] = np.nan
    state = SymmetricState(basis, coeffs, normalized=False)
    with pytest.raises(FloatingPointError):
        husimi_values(state, np.array([[0.1, 0.2]]))
    with pytest.raises(FloatingPointError):
        moment_analytic(state, 2)


def test_moment_analytic_raises_on_non_finite_convolution(monkeypatch):
    basis = shared_basis(3, 6)
    weights, scale = quditcat.husimi._amplitude_weights(dscs(basis, [0.3, 0.5]))
    weights[4] = np.nan
    monkeypatch.setattr(
        quditcat.husimi, "_amplitude_weights", lambda state: (weights, scale)
    )
    with pytest.raises(FloatingPointError, match="not finite"):
        moment_analytic(dscs(basis, [0.3, 0.5]), 2)


def test_moment_analytic_z_independent(basis_3_10, rng):
    values = [
        moment_analytic(dscs(basis_3_10, random_phase_point(rng, 3)), 2).value
        for _ in range(6)
    ]
    assert max(values) - min(values) < 1e-10


def test_moment_analytic_matches_closed_form_grid(rng):
    for D in (2, 3, 4):
        for N in (1, 5, 20):
            basis = shared_basis(D, N)
            z = random_phase_point(rng, D)
            state = dscs(basis, z)
            for nu in (2, 3):
                got = moment_analytic(state, nu).value
                expected = dscs_moment_exact(D, N, nu)
                assert abs(got - expected) < 1e-10 * expected


def test_cat_moments_approach_quarter_of_dscs():
    target = cat_moment_limit(3, 2, 2)
    assert abs(target - 1 / 16) < 1e-15
    dists = []
    for N in (10, 20, 40):
        basis = shared_basis(3, N)
        cat = dcat(basis, CatSpec([0.6, 0.6], (0, 0), N))
        dists.append(moment_analytic(cat, 2).value - target)
    assert dists[0] > dists[1] > dists[2] > 0


def test_moment_rejects_nu_one(basis_3_10, rng):
    with pytest.raises(ValueError):
        moment_analytic(dscs(basis_3_10, [0.1, 0.2]), 1)


def test_moment_capacity_cap(basis_3_10):
    with pytest.raises(CapacityError):
        moment_analytic(dscs(basis_3_10, [0.0, 0.0]), 2, cap=10)


def test_moment_mc_agrees_with_analytic(basis_3_10, rng):
    state = dcat(basis_3_10, CatSpec([0.5, 0.5], (0, 0), 10))
    exact = moment_analytic(state, 2).value
    spec = IntegrationSpec("haar_mc", samples=200_000, seed=4, batch=50_000)
    report = moment_mc(state, 2, spec)
    assert abs(report.value - exact) < 3 * report.std_error


def test_moment_mc_closed_form_two_levels():
    basis = shared_basis(2, 5)
    state = dscs(basis, [0.4])
    spec = IntegrationSpec("haar_mc", samples=1_000_000, seed=15, batch=250_000)
    report = moment_mc(state, 2, spec)
    assert abs(report.value - dscs_moment_exact(2, 5, 2)) < 3 * report.std_error


def test_moment_mc_agrees_for_eigenstate():
    from quditcat.lmg import LMGParams, build_hamiltonian, diagonalize

    basis = shared_basis(3, 12)
    H = build_hamiltonian(LMGParams(3, 12, 1.0, 1.0), basis)
    ground = diagonalize(H, basis, k=1).eigenstates[0]
    exact = moment_analytic(ground, 2).value
    report = moment_mc(
        ground, 2, IntegrationSpec("haar_mc", samples=200_000, seed=16, batch=50_000)
    )
    assert abs(report.value - exact) < 3 * report.std_error


def test_moment_mc_importance_backend(basis_3_10):
    state = dcat(basis_3_10, CatSpec([0.5, 0.5], (0, 0), 10))
    exact = moment_analytic(state, 2).value
    centers = [[0.5, 0.5], [-0.5, 0.5], [0.5, -0.5], [-0.5, -0.5]]
    spec = IntegrationSpec("importance_mc", samples=100_000, seed=4, batch=25_000)
    report = moment_mc(state, 2, spec, centers=centers)
    assert abs(report.value - exact) < 3 * report.std_error
    assert report.std_error < 5e-4


def test_cat_moment_below_dscs_moment(basis_3_20):
    spec = IntegrationSpec("haar_mc", samples=100_000, seed=9, batch=25_000)
    dscs_m = moment_mc(dscs(basis_3_20, [0.6, 0.6]), 2, spec).value
    cat_m = moment_mc(dcat(basis_3_20, CatSpec([0.6, 0.6], (0, 0), 20)), 2, spec).value
    assert cat_m < dscs_m


def test_mc_error_scales_with_samples(basis_3_10):
    # 20 jackknife batches in both runs keep the error estimates stable
    state = dscs(basis_3_10, [0.3, 0.2])
    small = moment_mc(state, 2, IntegrationSpec("haar_mc", 50_000, 21, 2_500))
    large = moment_mc(state, 2, IntegrationSpec("haar_mc", 200_000, 22, 10_000))
    ratio = small.std_error / large.std_error
    assert 1.4 < ratio < 2.9  # expect about 2 for a 4x sample increase


def test_importance_requires_centers(basis_3_10):
    state = dscs(basis_3_10, [0.1, 0.1])
    with pytest.raises(ValueError):
        moment_mc(state, 2, IntegrationSpec("importance_mc", 10_000, 1, 5_000))


# ------------------------------------------------------------- normalization


def test_husimi_normalization_mc(basis_3_10, rng):
    spec = IntegrationSpec("haar_mc", samples=150_000, seed=6, batch=50_000)
    for _ in range(3):
        state = random_state(rng, basis_3_10)
        value, se = phase_space_expectation(state, lambda q: q, spec)
        assert abs(value - 1.0) < 3 * se


# ------------------------------------------------------------ wehrl entropy


def test_wehrl_entropy_of_dscs(basis_3_10):
    exact = dscs_wehrl_exact(3, 10)
    assert abs(exact - (10 / 11 + 10 / 12)) < 1e-14
    spec = IntegrationSpec("haar_mc", samples=400_000, seed=13, batch=100_000)
    value, se = wehrl_entropy(dscs(basis_3_10, [0.0, 0.0]), spec)
    assert abs(value - exact) < 3 * se


def test_wehrl_dscs_trend_to_lieb_floor():
    values = [dscs_wehrl_exact(2, N) for N in (5, 20, 80)]
    assert values[0] < values[1] < values[2] < 1.0
    assert 1.0 - values[2] < 0.015


def test_wehrl_importance_matches_haar(basis_3_20):
    cat = dcat(basis_3_20, CatSpec([0.7, 0.5], (0, 0), 20))
    centers = [
        [s1 * 0.7, s2 * 0.5] for s1 in (1, -1) for s2 in (1, -1)
    ]
    haar = wehrl_entropy(cat, IntegrationSpec("haar_mc", 400_000, 3, 25_000))
    imp = wehrl_entropy(
        cat, IntegrationSpec("importance_mc", 100_000, 3, 10_000), centers
    )
    assert abs(haar[0] - imp[0]) < 3 * math.hypot(haar[1], imp[1])
    assert imp[1] < haar[1]  # proposal matched to the state beats uniform


def test_full_cat_wehrl_approaches_limit():
    target = cat_wehrl_limit(3, 2)
    assert abs(target - 2 * (1 + math.log(2))) < 1e-15
    dists = []
    for N in (12, 30):
        basis = shared_basis(3, N)
        cat = dcat(basis, CatSpec([0.7, 0.7], (0, 0), N))
        centers = [[s1 * 0.7, s2 * 0.7] for s1 in (1, -1) for s2 in (1, -1)]
        value, se = wehrl_entropy(
            cat, IntegrationSpec("importance_mc", 150_000, 14, 50_000), centers
        )
        assert se < 0.01
        dists.append(abs(value - target))
    assert dists[1] < dists[0]


# -------------------------------------------------------------- renyi-wehrl


def test_renyi_wehrl_single_qubit():
    basis = shared_basis(2, 1)
    value = renyi_wehrl(dscs(basis, [0.0]), 2)
    assert abs(value - math.log(1.5)) < 1e-12


def test_renyi_order_extrapolation_brackets_wehrl(basis_3_10):
    state = dscs(basis_3_10, [0.0, 0.0])
    exact = dscs_wehrl_exact(3, 10)
    s2 = renyi_wehrl(state, 2)
    s3 = renyi_wehrl(state, 3)
    s4 = renyi_wehrl(state, 4)
    # Renyi orders increase toward the Wehrl value as nu -> 1
    assert s4 < s3 < s2 < exact
    quad = 3 * s2 - 3 * s3 + s4  # quadratic extrapolation to nu = 1
    assert abs(quad - exact) < abs(s2 - exact)


def test_cat_exceeds_dscs_renyi(basis_3_20):
    z = [0.6, 0.6]
    cat_entropy = renyi_wehrl(dcat(basis_3_20, CatSpec(z, (0, 0), 20)), 2)
    cs_entropy = renyi_wehrl(dscs(basis_3_20, z), 2)
    assert cat_entropy > cs_entropy


def test_renyi_analytic_backend_rejects_non_integer_order(basis_3_10):
    state = dscs(basis_3_10, [0.3, -0.2])
    with pytest.raises(ValueError, match="integer"):
        renyi_wehrl(state, 2.5)
    # the Monte-Carlo backends take any order nu > 1
    spec = IntegrationSpec("importance_mc", 20_000, 3, 5_000)
    value = renyi_wehrl(state, 2.5, spec, [[0.3, -0.2]])
    exact = math.log(dscs_moment_exact(3, 10, 2.5)) / (1.0 - 2.5)
    assert abs(value - exact) < 1e-2


def test_renyi_rejects_nu_one(basis_3_10):
    with pytest.raises(ValueError):
        renyi_wehrl(dscs(basis_3_10, [0.0, 0.0]), 1)


# ---------------------------------------------------------- limit references


def test_limit_reference_values():
    assert cat_moment_limit(2, 2, 0) == 0.5
    assert cat_moment_limit(3, 2, 2) == 1 / 16
    # a reduced cat has m = k + w: here k = 1, w = 0
    assert abs(cat_wehrl_limit(3, 1) - (2 + math.log(2))) < 1e-15
    assert cat_wehrl_limit(3, 0) == 2.0
    assert abs(dscs_wehrl_exact(3, 10) - (10 / 11 + 10 / 12)) < 1e-14
    # k = 1, w = 1
    assert abs(cat_moment_limit(3, 2, 2) - 1 / 16) < 1e-15
    assert abs(dscs_moment_exact(3, 1, 2) - 0.5) < 1e-15


# -------------------------------------------------------------- grid + humps


def test_grid_row_count_and_range(basis_3_10, rng):
    state = random_state(rng, basis_3_10)
    spec = HusimiGridSpec(points=24, half_range=1.0)
    pts, q = husimi_grid(state, spec)
    assert pts.shape == (24 * 24, 2)
    assert q.shape == (24 * 24,)
    assert np.all(q >= 0.0) and np.all(q <= 1.0)


def test_grid_parity_symmetry(basis_3_20):
    cat = dcat(basis_3_20, CatSpec([0.6, 0.4], (1, 0), 20))
    spec = HusimiGridSpec(points=32, half_range=1.2)
    pts, q = husimi_grid(cat, spec)
    grid = q.reshape(32, 32)
    assert np.allclose(grid, grid[::-1, :], atol=1e-12)
    assert np.allclose(grid, grid[:, ::-1], atol=1e-12)


def test_momentum_slice_same_shape(basis_3_20):
    cat = dcat(basis_3_20, CatSpec([0.6, 0.4], (0, 0), 20))
    pos = husimi_grid(cat, HusimiGridSpec(points=16, slice="position"))
    mom = husimi_grid(cat, HusimiGridSpec(points=16, slice="momentum"))
    assert pos[0].shape == mom[0].shape
    assert not np.allclose(pos[1], mom[1])


def test_count_humps_single_packet(basis_3_20):
    state = dscs(basis_3_20, [0.5, 0.4])
    assert count_humps(state, HusimiGridSpec(points=64)) == 1


def test_count_humps_full_cat(basis_3_20):
    cat = dcat(basis_3_20, CatSpec([0.6, 0.6], (0, 0), 20))
    assert count_humps(cat, HusimiGridSpec(points=128)) == 4


def test_count_humps_fock_limit(basis_3_20):
    cat = dcat(basis_3_20, CatSpec([0.0, 0.0], (1, 0), 20))
    assert count_humps(cat, HusimiGridSpec(points=128)) == 2


def test_count_humps_requires_resolution(basis_3_20):
    state = dscs(basis_3_20, [0.5, 0.4])
    with pytest.raises(ValueError):
        count_humps(state, HusimiGridSpec(points=32))


def test_count_humps_mirror_symmetric_cat_does_not_warn(basis_3_20):
    # the four humps of a symmetric cat are exactly equal in height, but
    # they lie far apart, so counting them is not ambiguous
    cat = dcat(basis_3_20, CatSpec([0.6, 0.6], (0, 0), 20))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert count_humps(cat, HusimiGridSpec(points=64)) == 4


def test_count_map_humps_warns_on_equal_maxima_one_cell_apart():
    q = np.zeros((64, 64))
    q[30, 30] = q[30, 32] = 1.0
    q[30, 31] = 0.5
    with pytest.warns(UserWarning, match="merge ambiguity"):
        assert count_map_humps(q) == 2
    # two cells between them: two distinct humps, nothing to warn about
    q[30, 32], q[30, 33] = 0.0, 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert count_map_humps(q) == 2
