import itertools
import math

import numpy as np
import pytest
from scipy.optimize import minimize

import quditcat.parity
import quditcat.variational
from quditcat.coherent import SymmetricState, dscs
from quditcat.fock import shared_basis
from quditcat.lmg import LMGParams, build_hamiltonian, diagonalize
from quditcat.parity import CatSpec, all_parity_labels, dcat
from quditcat.variational import (
    MAX_STEPS,
    TRACKED_STATES,
    critical_point,
    energy_surface,
    fidelity,
    finite_N_energy,
    gs_energy_limit,
    maximize_overlap,
    minimize as compass_search,
    overlap_objective,
    variational_cat,
)

from conftest import random_phase_point


# -------------------------------------------------------------- energy surface


def test_surface_at_origin():
    assert energy_surface([0.0, 0.0], 1.0, 0.7) == -1.0


def test_surface_parity_invariance(rng):
    for _ in range(5):
        z = random_phase_point(rng, 3)
        base = energy_surface(z, 1.0, 1.3)
        assert energy_surface([-z[0], z[1]], 1.0, 1.3) == pytest.approx(base, abs=1e-14)
        assert energy_surface([z[0], -z[1]], 1.0, 1.3) == pytest.approx(base, abs=1e-14)


def test_surface_phase_two_value():
    z = [1.0 / math.sqrt(3.0), 0.0]
    assert abs(energy_surface(z, 1.0, 1.0) + 9.0 / 8.0) < 1e-14


# ------------------------------------------------------------- finite-N energy


def test_finite_energy_condensate():
    for N in (2, 17, 123):
        assert abs(finite_N_energy([0.0, 0.0], LMGParams(3, N, 1.0, 0.9)) + 1.0) < 1e-13


def test_finite_energy_matches_matrix_sandwich(rng):
    basis = shared_basis(3, 50)
    params = LMGParams(3, 50, 1.0, 1.4)
    H = build_hamiltonian(params, basis)
    for _ in range(3):
        z = random_phase_point(rng, 3)
        state = dscs(basis, z)
        sandwich = float(np.real(np.vdot(state.coeffs, H @ state.coeffs)))
        assert abs(finite_N_energy(z, params) - sandwich) < 1e-10


def test_finite_energy_equals_surface_for_all_n(rng):
    # the density normalization pairs eps with N and lam with N(N-1), so
    # the coherent expectation value carries no N dependence at all: the
    # large-N limit is reached identically, not just as O(1/N)
    z = random_phase_point(rng, 3, radius=0.7)
    limit = energy_surface(z, 1.0, 1.2)
    for N in (10, 100, 1000):
        assert abs(finite_N_energy(z, LMGParams(3, N, 1.0, 1.2)) - limit) < 1e-12


def test_cat_energy_degeneracy_across_sign_flips():
    lam = 2.5
    cp = critical_point(1.0, lam)
    values = {
        energy_surface([s1 * cp.z1, s2 * cp.z2], 1.0, lam)
        for s1, s2 in itertools.product((1, -1), repeat=2)
    }
    assert len(values) == 1
    finite = {
        round(finite_N_energy([s1 * cp.z1, s2 * cp.z2], LMGParams(3, 30, 1.0, lam)), 14)
        for s1, s2 in itertools.product((1, -1), repeat=2)
    }
    assert len(finite) == 1


# -------------------------------------------------------------- critical point


def test_critical_point_phases():
    p1 = critical_point(1.0, 0.25)
    assert (p1.z1, p1.z2, p1.phase) == (0.0, 0.0, "I")
    p2 = critical_point(1.0, 1.0)
    assert abs(p2.z1 - math.sqrt(1.0 / 3.0)) < 1e-15 and p2.z2 == 0.0
    assert p2.phase == "II"
    p3 = critical_point(1.0, 2.5)
    assert abs(p3.z1 - math.sqrt(5.0 / 8.0)) < 1e-15
    assert abs(p3.z2 - 0.5) < 1e-15
    assert p3.phase == "III"


def test_critical_point_is_global_minimum_of_surface(rng):
    # multi-start BFGS over (Re z1, Im z1, Re z2, Im z2); phase III has
    # other stationary points, so some starts stop above the global minimum
    for lam in (0.1, 0.4, 0.8, 1.0, 1.4, 1.6, 2.5, 5.0):
        cp = critical_point(1.0, lam)
        e_cp = energy_surface([cp.z1, cp.z2], 1.0, lam)

        def surface(x):
            return energy_surface([complex(x[0], x[1]), complex(x[2], x[3])], 1.0, lam)

        runs = [
            minimize(surface, rng.uniform(-1.5, 1.5, 4), method="BFGS")
            for _ in range(24)
        ]
        best = min(runs, key=lambda r: r.fun)
        assert best.fun >= e_cp - 1e-12, f"lam={lam}: surface dips below critical point"
        assert best.fun <= e_cp + 1e-9, f"lam={lam}: no start reached the minimum"
        moduli = np.abs(best.x[0::2] + 1j * best.x[1::2])
        assert np.allclose(moduli, [cp.z1, cp.z2], atol=1e-4)


def test_critical_point_continuity_at_boundaries():
    for boundary in (0.5, 1.5):
        below = critical_point(1.0, boundary - 1e-12)
        above = critical_point(1.0, boundary + 1e-12)
        assert abs(below.z1 - above.z1) < 1e-5
        assert abs(below.z2 - above.z2) < 1e-5


def test_critical_point_rejects_negative_coupling():
    with pytest.raises(ValueError):
        critical_point(1.0, -0.1)


# ---------------------------------------------------------------- energy limit


def test_gs_energy_limit_values():
    assert gs_energy_limit(1.0, 0.25) == -1.0
    assert abs(gs_energy_limit(1.0, 1.0) + 1.125) < 1e-15
    assert abs(gs_energy_limit(1.0, 2.5) + 28.0 / 15.0) < 1e-15


def test_gs_energy_limit_is_c1():
    h = 1e-7
    for boundary in (0.5, 1.5):
        left = (gs_energy_limit(1.0, boundary) - gs_energy_limit(1.0, boundary - h)) / h
        right = (gs_energy_limit(1.0, boundary + h) - gs_energy_limit(1.0, boundary)) / h
        assert abs(left - right) < 1e-5


def test_gs_energy_limit_curvature_jumps():
    h = 1e-3
    lams = np.arange(0.1, 2.0 + h / 2, h)
    energies = np.array([gs_energy_limit(1.0, lam) for lam in lams])
    second = (energies[2:] - 2 * energies[1:-1] + energies[:-2]) / h**2
    jumps = np.abs(np.diff(second))
    detected = lams[np.nonzero(jumps > 0.05)[0] + 2]
    groups = np.split(detected, np.nonzero(np.diff(detected) > 5 * h)[0] + 1)
    located = [float(np.mean(g)) for g in groups]
    assert len(located) == 2
    assert abs(located[0] - 0.5) < 2e-3
    assert abs(located[1] - 1.5) < 2e-3


# ------------------------------------------------------------- variational cat


def test_variational_cat_collapses_to_fock_states():
    basis = shared_basis(3, 20)
    params = LMGParams(3, 20, 1.0, 1e-9)
    even = variational_cat(1e-9, (0, 0), params, basis)
    assert even.coeffs[basis.rank([20, 0, 0])] == 1.0
    dbl_odd = variational_cat(1e-9, (1, 1), params, basis)
    assert dbl_odd.coeffs[basis.rank([18, 1, 1])] == 1.0


def test_variational_cat_phase_two_is_reduced_cat():
    basis = shared_basis(3, 20)
    params = LMGParams(3, 20, 1.0, 1.0)
    cp = critical_point(1.0, 1.0)
    got = variational_cat(1.0, (1, 0), params, basis)
    manual = dcat(basis, CatSpec([cp.z1, 0.0], (1, 0), 20))
    assert abs(fidelity(got, manual) - 1.0) < 1e-12


# -------------------------------------------------------------------- fidelity


def test_fidelity_self_and_cross_parity(basis_3_20):
    a = dcat(basis_3_20, CatSpec([0.5, 0.4], (0, 0), 20))
    b = dcat(basis_3_20, CatSpec([0.5, 0.4], (1, 0), 20))
    assert abs(fidelity(a, a) - 1.0) < 1e-12
    assert fidelity(a, b) == 0.0  # disjoint sectors share no coefficients


def test_fidelity_weak_coupling_ground_state():
    basis = shared_basis(3, 20)
    params = LMGParams(3, 20, 1.0, 1e-3)
    spec = diagonalize(build_hamiltonian(params, basis), basis, k=1)
    cat = variational_cat(1e-3, (0, 0), params, basis)
    assert fidelity(cat, spec.eigenstates[0]) >= 0.999


# ---------------------------------------------------------- overlap maximizer


def test_maximize_overlap_recovers_cat_label(basis_3_20):
    target = dcat(basis_3_20, CatSpec([0.45, 0.75], (1, 1), 20))
    z_max, f_max = maximize_overlap(target, (1, 1))
    assert f_max >= 1.0 - 1e-8
    assert np.allclose(np.abs(z_max), [0.45, 0.75], atol=1e-4)


def test_maximize_overlap_finds_reduced_cats_on_the_axes(basis_3_20):
    for z, c in (([0.0, 0.45], (1, 1)), ([0.6, 0.0], (0, 1))):
        target = dcat(basis_3_20, CatSpec(z, c, 20))
        z_max, f_max = maximize_overlap(target, c)
        assert f_max >= 1.0 - 1e-10
        zero = z.index(0.0)
        assert abs(z_max[zero]) < 1e-4
        rebuilt = dcat(basis_3_20, CatSpec(z_max, c, 20))
        assert abs(f_max - fidelity(rebuilt, target)) < 1e-12


def test_maximize_overlap_tracks_critical_point_at_extremes():
    basis = shared_basis(3, 20)
    for lam in (0.01, 15.0):
        params = LMGParams(3, 20, 1.0, lam)
        spec = diagonalize(build_hamiltonian(params, basis), basis, k=1)
        cp = critical_point(1.0, lam)
        z_max, f_max = maximize_overlap(
            spec.eigenstates[0], (0, 0), extra_starts=[(cp.z1, cp.z2)]
        )
        assert f_max > 0.85
        assert np.allclose(z_max, [cp.z1, cp.z2], atol=0.12)


def test_maximize_overlap_resolves_the_sector_once_per_search(monkeypatch):
    # the sector of c is checked and resolved when the search starts; neither
    # the scan nor a compass step repeats it, however many steps the polish
    # takes
    calls = {"_as_bits": 0, "sector_mask": 0}
    for name in calls:
        original = getattr(quditcat.parity, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(quditcat.parity, name, counted)
    steps = []
    real_minimize = quditcat.variational.minimize

    def counted_minimize(*args, **kwargs):
        res = real_minimize(*args, **kwargs)
        steps[-1] += res.nfev
        return res

    monkeypatch.setattr(quditcat.variational, "minimize", counted_minimize)

    basis = shared_basis(3, 8)
    params = LMGParams(3, 8, 1.0, 1.0)
    target = diagonalize(build_hamiltonian(params, basis), basis, k=1).eigenstates[0]
    per_search = []
    for extra in ((), [(0.3, 0.2), (0.9, 0.1), (0.5, 0.5)]):
        steps.append(0)
        for name in calls:
            calls[name] = 0
        maximize_overlap(target, (0, 0), extra_starts=extra)
        per_search.append(dict(calls))
    # the extra starts add compass steps to the polish
    assert steps[1] > steps[0] > 0
    assert per_search[0] == per_search[1]
    assert 1 <= per_search[0]["sector_mask"] <= 2


def test_maximize_overlap_builds_its_grids_once_per_search(monkeypatch, basis_3_20):
    # the G/M grids are built when the search starts, and neither the scan
    # nor a compass step builds a cat
    builds = []
    real_objective = quditcat.variational.overlap_objective

    def counted_objective(*args, **kwargs):
        builds.append(1)
        return real_objective(*args, **kwargs)

    def no_cat(*args, **kwargs):
        raise AssertionError("an overlap search built a cat")

    steps = []
    real_minimize = quditcat.variational.minimize

    def counted_minimize(*args, **kwargs):
        res = real_minimize(*args, **kwargs)
        steps[-1] += res.nfev
        return res

    monkeypatch.setattr(quditcat.variational, "overlap_objective", counted_objective)
    monkeypatch.setattr(quditcat.variational, "dcat", no_cat)
    monkeypatch.setattr(quditcat.variational, "minimize", counted_minimize)
    target = dcat(basis_3_20, CatSpec([0.45, 0.75], (1, 1), 20))
    for extra in ((), [(0.3, 0.2), (0.9, 0.1)]):
        steps.append(0)
        builds.clear()
        maximize_overlap(target, (1, 1), extra_starts=extra)
        assert builds == [1]
    # the extra starts add compass steps to the polish
    assert steps[1] > steps[0] > 0


# the Nelder-Mead options of the search before the compass polish
NELDER_MEAD = {"xatol": 1e-8, "fatol": 1e-12, "maxiter": 2000}


def grid_start_search(psi, c, extra_starts):
    """The overlap search before the batched scan: scipy's Nelder-Mead from
    each of the 5 x 5 starts on [0, 1.2]^2 and each extra start, same
    tie-break."""
    objective = overlap_objective(psi, c)
    axis = np.linspace(0.0, 1.2, 5)
    starts = [np.array([a, b]) for a in axis for b in axis]
    starts.extend(np.asarray(s, dtype=float) for s in extra_starts)
    best_x, best_f = None, np.inf
    for x0 in starts:
        res = minimize(
            lambda x: -objective(x), x0=x0, method="Nelder-Mead", options=NELDER_MEAD
        )
        assert res.success
        x = np.abs(res.x)
        if res.fun < best_f - 1e-12 or (
            abs(res.fun - best_f) <= 1e-12 and tuple(x) < tuple(best_x)
        ):
            best_x, best_f = x, res.fun
    return best_x, -best_f


@pytest.mark.parametrize("N", [20, 50])
def test_maximize_overlap_matches_the_grid_start_search(N):
    # every fourth coupling of criterion 8c's grid, all four tracked sectors,
    # the critical point as the extra start, as the fidelity sweep runs it
    basis = shared_basis(3, N)
    for lam in np.geomspace(0.01, 20.0, 20)[::4]:
        lam = float(lam)
        spec = diagonalize(build_hamiltonian(LMGParams(3, N, 1.0, lam), basis), basis, k=1)
        cp = critical_point(1.0, lam)
        for label in TRACKED_STATES.values():
            target = spec.ground_states[label]
            extra = [(cp.z1, cp.z2)]
            z_max, f_max = maximize_overlap(target, label, extra_starts=extra)
            z_ref, f_ref = grid_start_search(target, label, extra)
            assert abs(f_max - f_ref) < 1e-12, (N, lam, label)
            assert np.max(np.abs(z_max - z_ref)) < 1e-6, (N, lam, label)


# ----------------------------------------------------------- overlap objective


def log_space_fidelity(psi, c):
    """F(x) from the log-space amplitudes of `dcat`, which the grid replaced."""
    basis = psi.basis

    def fidelity_at(x):
        return fidelity(dcat(basis, CatSpec(np.abs(x), c, basis.N)), psi)

    return fidelity_at


@pytest.mark.parametrize("N", [20, 100, 500])
def test_overlap_objective_matches_log_space_amplitudes(rng, N):
    # |x_i| log-uniform over [1e-3, 1e3] with random signs, plus exact zeros
    # (the reduced-cat limit); a random complex state, whose F is small,
    # and a real cat, whose F reaches 1 at its own coordinates
    basis = shared_basis(3, N)
    x = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), (60, 2)))
    x *= rng.choice([-1.0, 1.0], x.shape)
    z_cat = [0.6, 0.35]
    x = np.vstack(
        [x, [[0.0, 0.0], [0.0, 0.45], [0.6, 0.0], [0.0, 1e3], [1e3, 0.0], [1.0, 1.0], z_cat]]
    )
    for c in all_parity_labels(3):
        v = rng.normal(size=basis.size) + 1j * rng.normal(size=basis.size)
        states = [SymmetricState(basis, v / np.linalg.norm(v)), dcat(basis, CatSpec(z_cat, c, N))]
        for psi in states:
            oracle = log_space_fidelity(psi, c)
            want = np.array([oracle(p) for p in x])
            with np.errstate(over="raise", invalid="raise"):
                objective = overlap_objective(psi, c)
                got = np.array([objective(p) for p in x])
                # one (m, 2) call: its rows mix all three pivots, exact
                # zeros and |x_i| up to 1e3
                batch = objective(x)
            assert np.max(np.abs(got - want)) < 1e-13, (N, c)
            assert batch.shape == (len(x),)
            assert np.max(np.abs(batch - want)) < 1e-13, (N, c)
            assert np.max(np.abs(batch - got)) < 1e-15, (N, c)
        assert got[-1] > 1.0 - 1e-12


def test_overlap_objective_raises_past_the_double_range():
    # at N = 660 the smallest multinomial over the largest is below the
    # smallest normal double, so the denominator could underflow to 0
    basis = shared_basis(3, 660)
    psi = SymmetricState(basis, np.eye(1, basis.size, 0)[0])
    with pytest.raises(FloatingPointError, match="N = 660"):
        overlap_objective(psi, (0, 0))


@pytest.mark.parametrize("lam_index, x0", [(9, (1.2, 0.0)), (10, (0.9, 0.0))])
def test_slow_overlap_starts_converge_to_the_search_best(lam_index, x0):
    # criterion 8c's grid, state 5, sector (1, 1) at N = 20: from these two
    # starts scipy's simplex needed about 780 and 670 iterations; the
    # compass search reaches the search's best F from them
    lam = float(np.geomspace(0.01, 20.0, 20)[lam_index])
    basis = shared_basis(3, 20)
    spec = diagonalize(build_hamiltonian(LMGParams(3, 20, 1.0, lam), basis), basis, k=1)
    target = spec.ground_states[(1, 1)]
    cp = critical_point(1.0, lam)
    _, f_best = maximize_overlap(target, (1, 1), extra_starts=[(cp.z1, cp.z2)])
    objective = overlap_objective(target, (1, 1))
    res = compass_search(lambda x: -objective(x), np.array(x0))
    assert res.success and res.nfev < MAX_STEPS
    assert abs(-res.fun - f_best) < 1e-10


def test_compass_search_stops_on_a_maximum_at_infinity():
    # F of the Fock state (0, N, 0) rises for ever along x1, so the search
    # moves one step edge after edge until MAX_STEPS runs out, and still
    # ends above where it started
    basis = shared_basis(3, 20)
    psi = SymmetricState(basis, np.eye(1, basis.size, basis.rank([0, 20, 0]))[0])
    objective = overlap_objective(psi, (0, 0))
    x0 = np.array([1.2, 0.0])
    res = compass_search(lambda x: -objective(x), x0)
    assert not res.success and res.nfev == MAX_STEPS
    assert res.x[0] > 10.0 and -res.fun > objective(x0)
    z_max, f_max = maximize_overlap(psi, (0, 0))
    assert np.array_equal(z_max, res.x) and f_max == -res.fun
