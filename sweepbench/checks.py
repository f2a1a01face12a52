"""Independent checks of the CSVs the four sweeps write.

Nothing here is imported from quditcat.  The references are computed from
the D = 3 model itself with NumPy/SciPy: the LMG Hamiltonian is assembled
as a sparse matrix from the S_ij matrix elements and solved block by block
over the four parity sectors, cats are built directly from the coherent
coefficients sqrt(N!/n0!n1!n2!) z1^n1 z2^n2, and the large-N critical
point and energy surface use the closed forms of the three phases.

Every check returns {operation key: [problems]}, one entry per sweep
point (a coupling, or a (coupling, sector) pair for Husimi maps), with an
empty list where the point passed.  A point the CSV does not contain is
reported as missing.
"""

from __future__ import annotations

import csv
import math
from functools import lru_cache

import numpy as np
import scipy.linalg
from scipy import sparse
from scipy.special import gammaln

SECTORS = ((0, 0), (1, 0), (0, 1), (1, 1))
# index of each sector's lowest state in the non-interacting spectrum
TRACKED = {(0, 0): 0, (1, 0): 1, (0, 1): 3, (1, 1): 5}

ENERGY_TOL = 1e-9
FIDELITY_TOL = 1e-8
MOMENT_TOL = 1e-10
MAP_TOL = 1e-12
WEHRL_SIGMAS = 4.0


def bits(label) -> str:
    return "".join(str(b) for b in label)


def read_rows(path) -> list[dict]:
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# quditcat="):
            raise ValueError(f"{path}: missing metadata line")
        reader = csv.reader(fh)
        header = next(reader)
        return [dict(zip(header, record)) for record in reader]


# ---------------------------------------------------------------- physics


def phase(lam: float) -> str:
    return "I" if lam < 0.5 else ("II" if lam < 1.5 else "III")


def critical_point(lam: float) -> tuple[float, float]:
    """Minimum of the large-N energy surface (eps = 1), positive branch."""
    if lam <= 0.5:
        return 0.0, 0.0
    if lam <= 1.5:
        return math.sqrt((2 * lam - 1) / (2 * lam + 1)), 0.0
    return (
        math.sqrt(2 * lam / (2 * lam + 3)),
        math.sqrt((2 * lam - 3) / (2 * lam + 3)),
    )


def energy_surface(z1: float, z2: float, lam: float) -> float:
    """<z|H|z> for real z (eps = 1); the same at every N."""
    s = 1.0 + z1 * z1 + z2 * z2
    return (z2 * z2 - 1.0) / s - 2.0 * lam * (z1 * z1 * z2 * z2 + z1 * z1 + z2 * z2) / s**2


def hump_count(lam: float, label) -> int:
    """2^(k+w): k non-zero critical coordinates, w odd bits on zero ones."""
    z = critical_point(lam)
    k = sum(1 for v in z if v > 0)
    w = sum(1 for v, c in zip(z, label) if v == 0 and c == 1)
    return 2 ** (k + w)


def wehrl_floor(N: int) -> float:
    """Wehrl entropy of a coherent state, the minimum over all states."""
    return N * (1.0 / (N + 1) + 1.0 / (N + 2))


def coherent_m2(N: int) -> float:
    """Second Husimi moment of a coherent state, the maximum over all states."""
    return (N + 1) / (2 * N + 1) * (N + 2) / (2 * N + 2)


@lru_cache(maxsize=4)
def occupations(N: int) -> np.ndarray:
    """All (n0, n1, n2) with n0 + n1 + n2 = N."""
    n1, n2 = np.meshgrid(np.arange(N + 1), np.arange(N + 1), indexing="ij")
    keep = n1 + n2 <= N
    n1, n2 = n1[keep], n2[keep]
    return np.stack([N - n1 - n2, n1, n2], axis=1)


def hamiltonian(N: int, lam: float) -> sparse.csr_array:
    """(1/N)(S_22 - S_00) - lam/(N(N-1)) sum_{i!=j} S_ij^2 over occupations(N)."""
    occ = occupations(N)
    index = np.full((N + 1, N + 1), -1)
    index[occ[:, 1], occ[:, 2]] = np.arange(len(occ))
    rows = [np.arange(len(occ))]
    cols = [np.arange(len(occ))]
    vals = [(occ[:, 2] - occ[:, 0]) / N]
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            src = np.nonzero(occ[:, j] >= 2)[0]
            n = occ[src].astype(float)
            tgt = occ[src].copy()
            tgt[:, i] += 2
            tgt[:, j] -= 2
            # S_ij^2 |n> = sqrt(n_j (n_j - 1) (n_i + 1) (n_i + 2)) |n + 2e_i - 2e_j>
            amp = np.sqrt(n[:, j] * (n[:, j] - 1) * (n[:, i] + 1) * (n[:, i] + 2))
            rows.append(index[tgt[:, 1], tgt[:, 2]])
            cols.append(src)
            vals.append(-lam / (N * (N - 1)) * amp)
    dim = len(occ)
    H = sparse.coo_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    )
    return H.tocsr()


def sector_of(occ: np.ndarray, label) -> np.ndarray:
    """Indices of the occupations with (n1, n2) mod 2 equal to `label`."""
    return np.nonzero((occ[:, 1] % 2 == label[0]) & (occ[:, 2] % 2 == label[1]))[0]


@lru_cache(maxsize=64)
def sector_solve(N: int, lam: float, levels: int):
    """Lowest `levels` eigenpairs of each parity block: {label: (E, vecs, occ)}."""
    occ = occupations(N)
    H = hamiltonian(N, lam)
    coo = H.tocoo()
    if np.any(occ[coo.row, 1:] % 2 != occ[coo.col, 1:] % 2):
        raise AssertionError("reference Hamiltonian couples parity sectors")
    out = {}
    for label in SECTORS:
        sel = sector_of(occ, label)
        k = min(levels, len(sel))
        E, V = scipy.linalg.eigh(H[sel][:, sel].toarray(), subset_by_index=(0, k - 1))
        out[label] = (E, V, occ[sel])
    return out


def cat_vector(occ: np.ndarray, z, label, N: int) -> np.ndarray:
    """Unit cat |z>_c on the sector occupations `occ` (real z >= 0).

    The projection keeps the coherent coefficients of the sector; where a
    coordinate is exactly zero, the limit keeps the lowest power of it the
    parity allows (n_i = c_i) and drops the vanishing factor.
    """
    logc = 0.5 * (gammaln(N + 1.0) - gammaln(occ + 1.0).sum(axis=1))
    keep = np.ones(len(occ), dtype=bool)
    for i in (1, 2):
        zi = float(z[i - 1])
        if zi == 0.0:
            keep &= occ[:, i] == label[i - 1]
        else:
            logc = logc + occ[:, i] * math.log(zi)
    v = np.where(keep, np.exp(logc - logc[keep].max()), 0.0)
    return v / np.linalg.norm(v)


def husimi_map(v: np.ndarray, occ: np.ndarray, axis: np.ndarray, N: int) -> np.ndarray:
    """|<x|v>|^2 on the real grid x = (axis[i], axis[j]), indexed [i, j].

    <x|v> = sum_n sqrt(N!/n0!n1!n2!) x1^n1 x2^n2 v_n / (1+|x|^2)^(N/2) is a
    bilinear form in the power tables of the two axes.
    """
    logm = 0.5 * (gammaln(N + 1.0) - gammaln(occ + 1.0).sum(axis=1))
    weights = np.zeros((N + 1, N + 1))
    weights[occ[:, 1], occ[:, 2]] = np.exp(logm) * v
    powers = axis[:, None] ** np.arange(N + 1)[None, :]
    amp = powers @ weights @ powers.T
    return amp**2 / (1.0 + axis[:, None] ** 2 + axis[None, :] ** 2) ** N


# ---------------------------------------------------------------- checks


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _ops(keys) -> dict:
    return {key: [] for key in keys}


def _missing(result: dict, seen: set) -> dict:
    for key in result:
        if key not in seen:
            result[key].append("missing from the CSV")
    return result


def coupling_key(lam) -> float:
    return round(float(lam), 9)


def check_spectrum(rows: list[dict], N: int, couplings, levels: int) -> dict:
    result = _ops(coupling_key(lam) for lam in couplings)
    seen = set()
    for row in rows:
        lam = float(row["lambda"])
        key = coupling_key(lam)
        if key not in result or key in seen:
            result.setdefault(key, []).append(f"unexpected row at lambda={lam}")
            continue
        seen.add(key)
        bad = result[key]
        E = np.array([float(row[f"E{i}"]) for i in range(levels)])
        labels = [row[f"parity{i}"] for i in range(levels)]
        ref = sector_solve(N, lam, levels)
        levels_ref = sorted(
            (e, bits(label)) for label, (Es, _, _) in ref.items() for e in Es
        )
        E_ref = np.array([e for e, _ in levels_ref])
        if not np.all(np.abs(np.sort(E) - E_ref[:levels]) <= ENERGY_TOL):
            bad.append(f"energies {E.tolist()} differ from {E_ref[:levels].tolist()}")
        # near-degenerate clusters come back ordered by label, so compare
        # their labels as multisets; a cluster cut at `levels` as a subset
        start = 0
        while start < levels:
            stop = start + 1
            while stop < len(E_ref) and E_ref[stop] - E_ref[stop - 1] <= ENERGY_TOL:
                stop += 1
            want = sorted(label for _, label in levels_ref[start:stop])
            got = sorted(labels[start : min(stop, levels)])
            if stop <= levels and got != want:
                bad.append(f"labels {got} at levels {start}..{stop - 1}, want {want}")
            if stop > levels and any(got.count(g) > want.count(g) for g in got):
                bad.append(f"labels {got} at levels {start}.. not among {want}")
            start = stop
        bound = energy_surface(*critical_point(lam), lam)
        if not E.min() <= bound + 1e-12:
            bad.append(f"E0={E.min()} above the coherent-state energy {bound}")
    return _missing(result, seen)


def check_fidelity(rows: list[dict], N: int, couplings) -> dict:
    result = _ops(coupling_key(lam) for lam in couplings)
    seen: dict = {}
    for row in rows:
        lam = float(row["lambda"])
        key = coupling_key(lam)
        label = tuple(int(ch) for ch in row["parity"])
        if key not in result or label not in TRACKED:
            result.setdefault(key, []).append(f"unexpected row {row}")
            continue
        seen.setdefault(key, []).append(label)
        bad = result[key]
        if int(row["state"]) != TRACKED[label]:
            bad.append(f"sector {row['parity']} reported as state {row['state']}")
        f_crit = float(row["F_at_critical"])
        f_max = float(row["F_max"])
        z_max = (float(row["z1_max"]), float(row["z2_max"]))
        if not (0.0 <= f_crit <= 1.0 and 0.0 <= f_max <= 1.0):
            bad.append(f"fidelity outside [0, 1] in sector {row['parity']}")
        if not f_max >= f_crit - 1e-9:
            bad.append(f"F_max={f_max} below F_at_critical={f_crit}")
        if min(z_max) < 0.0:
            bad.append(f"z_max={z_max} outside the non-negative quadrant")
            continue
        _, V, occ = sector_solve(N, lam, 1)[label]
        psi = V[:, 0]
        for name, z, value in (
            ("F_at_critical", critical_point(lam), f_crit),
            ("F_max", z_max, f_max),
        ):
            want = float(cat_vector(occ, z, label, N) @ psi) ** 2
            if not _close(value, want, FIDELITY_TOL):
                bad.append(f"{name}={value} in sector {row['parity']}, recomputed {want}")
    for key, labels in seen.items():
        if sorted(labels) != sorted(SECTORS):
            result[key].append(f"sectors {sorted(labels)}, want one row per sector")
    return _missing(result, set(seen))


def check_localization(rows: list[dict], N: int, couplings) -> dict:
    result = _ops(coupling_key(lam) for lam in couplings)
    seen: dict = {}
    floor = wehrl_floor(N)
    m2_max = coherent_m2(N)
    for row in rows:
        lam = float(row["lambda"])
        key = coupling_key(lam)
        if key not in result or row["state"] != f"00:N={N}":
            result.setdefault(key, []).append(f"unexpected row {row}")
            continue
        seen.setdefault(key, []).append(row["method"])
        bad = result[key]
        m2, m2_err = float(row["M2"]), float(row["M2_err"])
        sw, sw_err = float(row["S_W"]), float(row["S_W_err"])
        tag = f"{row['method']} row"
        if m2_err != 0.0:
            bad.append(f"{tag}: analytic M2 has error {m2_err}")
        if not m2 <= m2_max * (1.0 + 1e-12):
            bad.append(f"{tag}: M2={m2} above the coherent-state maximum {m2_max}")
        if not sw_err > 0.0:
            bad.append(f"{tag}: S_W_err={sw_err} is not positive")
        if not sw >= floor - WEHRL_SIGMAS * sw_err:
            bad.append(f"{tag}: S_W={sw} below the Wehrl floor {floor} - 4 x {sw_err}")
        if phase(lam) == "I" and row["method"] == "variational":
            # the phase-I cat is the coherent state |z = 0>
            if not _close(m2, m2_max, MOMENT_TOL):
                bad.append(f"{tag}: M2={m2}, coherent state has {m2_max}")
            if not _close(sw, floor, WEHRL_SIGMAS * sw_err):
                bad.append(f"{tag}: S_W={sw} not within 4 x {sw_err} of {floor}")
    for key, methods in seen.items():
        if sorted(methods) != ["numerical", "variational"]:
            result[key].append(f"methods {sorted(methods)}, want numerical and variational")
    return _missing(result, set(seen))


def check_husimi(rows: list[dict], N: int, couplings, points: int) -> dict:
    result = _ops((coupling_key(lam), bits(label)) for lam in couplings for label in SECTORS)
    raw: dict = {}
    for row in rows:
        raw.setdefault((row["lambda"], row["parity"]), []).append(row)
    groups = {(coupling_key(lam), parity): group for (lam, parity), group in raw.items()}
    for key, group in groups.items():
        if key not in result:
            result[key] = [f"unexpected map for {key}"]
            continue
        bad = result[key]
        lam = float(group[0]["lambda"])
        label = tuple(int(ch) for ch in key[1])
        x1, x2, q = (np.array([r[c] for r in group], dtype=float) for c in ("x1", "x2", "Q"))
        humps = {int(r["humps"]) for r in group}
        if len(group) != points * points:
            bad.append(f"{len(group)} grid points, want {points * points}")
            continue
        axis = np.unique(x1)
        order = np.lexsort((x2, x1))
        if (
            len(axis) != points
            or not np.array_equal(x1[order], np.repeat(axis, points))
            or not np.array_equal(x2[order], np.tile(axis, points))
            or not np.allclose(axis, -axis[::-1], rtol=0, atol=1e-15)
        ):
            bad.append("points do not form a square grid symmetric about zero")
            continue
        grid = q[order].reshape(points, points)
        if not (np.all(q >= 0.0) and np.all(q <= 1.0)):
            bad.append(f"Q outside [0, 1]: min {q.min()}, max {q.max()}")
        for axis_no in (0, 1):
            flip = np.abs(grid - np.flip(grid, axis=axis_no)).max()
            if not flip <= MAP_TOL:
                bad.append(f"map not symmetric under x{axis_no + 1} -> -x{axis_no + 1}: {flip}")
        if phase(lam) == "I" and label == (0, 0):
            want = (1.0 + x1**2 + x2**2) ** (-N)
            err = np.abs(q - want).max()
            if not err <= MAP_TOL:
                bad.append(f"phase-I 00 map differs from (1+|x|^2)^-N by {err}")
        occ = occupations(N)[sector_of(occupations(N), label)]
        cat = cat_vector(occ, critical_point(lam), label, N)
        err = np.abs(grid - husimi_map(cat, occ, axis, N)).max()
        if not err <= MAP_TOL:
            bad.append(f"map differs from the recomputed cat's by {err}")
        want_humps = hump_count(lam, label)
        if humps != {want_humps}:
            bad.append(f"hump counts {sorted(humps)}, want {want_humps}")
    return _missing(result, set(groups))
