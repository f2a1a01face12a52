"""Each check of checks.py must pass on a real sweep and fail on a corrupted one.

    PYTHONPATH=src python -m pytest -q sweepbench

The sweeps are small versions of the benchmark's workloads, so that the
whole module runs in well under a minute.
"""

import copy
import math
import warnings

import pytest

import checks
from quditcat.cli import main

LAMS = [0.3, 1.0, 3.0]


def sweep(tmp_path_factory, name, args):
    out = tmp_path_factory.mktemp(name) / f"{name}.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(args + ["--workers", "1", "--out", str(out)]) == 0
    return checks.read_rows(out)


def values(lams):
    return ",".join(repr(v) for v in lams)


@pytest.fixture(scope="module")
def spectrum(tmp_path_factory):
    args = ["spectrum", "--N", "12", "--levels", "6", "--lambda-values", values(LAMS)]
    return sweep(tmp_path_factory, "spectrum", args)


@pytest.fixture(scope="module")
def localization(tmp_path_factory):
    args = [
        "localization", "--N", "10", "--parity", "00", "--method", "importance_mc",
        "--samples", "4000", "--batch", "200", "--seed", "3",
        "--lambda-values", values(LAMS),
    ]
    return sweep(tmp_path_factory, "localization", args)


@pytest.fixture(scope="module")
def fidelity(tmp_path_factory):
    args = ["fidelity", "--N", "8", "--lambda-values", values(LAMS)]
    return sweep(tmp_path_factory, "fidelity", args)


@pytest.fixture(scope="module")
def husimi(tmp_path_factory):
    args = [
        "husimi", "--N", "20", "--parity", "00,10,01,11", "--grid-points", "64",
        "--lambda-values", values(LAMS),
    ]
    return sweep(tmp_path_factory, "husimi", args)


def failures(result):
    return {key: msgs for key, msgs in result.items() if msgs}


def check_spectrum(rows):
    return failures(checks.check_spectrum(rows, 12, LAMS, 6))


def check_localization(rows):
    return failures(checks.check_localization(rows, 10, LAMS))


def check_fidelity(rows):
    return failures(checks.check_fidelity(rows, 8, LAMS))


def check_husimi(rows):
    return failures(checks.check_husimi(rows, 20, LAMS, 64))


def test_real_sweeps_pass(spectrum, localization, fidelity, husimi):
    assert check_spectrum(spectrum) == {}
    assert check_localization(localization) == {}
    assert check_fidelity(fidelity) == {}
    assert check_husimi(husimi) == {}


def corrupt(rows, index, **changes):
    rows = copy.deepcopy(rows)
    rows[index].update({k: str(v) for k, v in changes.items()})
    return rows


@pytest.mark.parametrize("level", [0, 3, 5])
def test_spectrum_energy_shift(spectrum, level):
    E = float(spectrum[1][f"E{level}"])
    bad = check_spectrum(corrupt(spectrum, 1, **{f"E{level}": repr(E + 1e-6)}))
    assert list(bad) == [checks.coupling_key(LAMS[1])]


def test_spectrum_wrong_parity_label(spectrum):
    row = spectrum[0]
    other = next(i for i in range(6) if row[f"parity{i}"] != row["parity0"])
    swapped = {"parity0": row[f"parity{other}"], f"parity{other}": row["parity0"]}
    assert check_spectrum(corrupt(spectrum, 0, **swapped))


def test_spectrum_missing_row(spectrum):
    assert list(check_spectrum(spectrum[1:])) == [checks.coupling_key(LAMS[0])]


def test_spectrum_energy_above_variational_bound():
    rows = [{"lambda": "1.0", **{f"E{i}": "0.0" for i in range(6)}}]
    rows[0].update({f"parity{i}": "00" for i in range(6)})
    msgs = checks.check_spectrum(rows, 12, [1.0], 6)[1.0]
    assert any("above the coherent-state energy" in m for m in msgs)


def row_of(rows, lam, method):
    return next(
        i for i, r in enumerate(rows) if float(r["lambda"]) == lam and r["method"] == method
    )


def test_localization_wehrl_below_floor(localization):
    i = row_of(localization, 3.0, "numerical")
    err = float(localization[i]["S_W_err"])
    bad = check_localization(corrupt(localization, i, S_W=checks.wehrl_floor(10) - 5 * err))
    assert list(bad) == [3.0]


def test_localization_m2_above_coherent(localization):
    i = row_of(localization, 1.0, "numerical")
    bad = check_localization(corrupt(localization, i, M2=checks.coherent_m2(10) * 1.001))
    assert list(bad) == [1.0]


def test_localization_zero_error(localization):
    i = row_of(localization, 1.0, "variational")
    assert list(check_localization(corrupt(localization, i, S_W_err=0.0))) == [1.0]


def test_localization_phase_one_cat_is_coherent(localization):
    i = row_of(localization, 0.3, "variational")
    m2 = float(localization[i]["M2"])
    assert list(check_localization(corrupt(localization, i, M2=m2 - 1e-9))) == [0.3]
    sw, err = float(localization[i]["S_W"]), float(localization[i]["S_W_err"])
    assert list(check_localization(corrupt(localization, i, S_W=sw + 5 * err))) == [0.3]


def test_fidelity_max_below_critical(fidelity):
    f_crit = float(fidelity[5]["F_at_critical"])
    assert check_fidelity(corrupt(fidelity, 5, F_max=f_crit - 1e-6))


@pytest.mark.parametrize("column", ["F_at_critical", "F_max"])
def test_fidelity_value_off(fidelity, column):
    value = float(fidelity[6][column])
    assert check_fidelity(corrupt(fidelity, 6, **{column: value - 1e-7}))


def test_fidelity_coordinates_off(fidelity):
    z1 = float(fidelity[9]["z1_max"])
    assert check_fidelity(corrupt(fidelity, 9, z1_max=z1 + 1e-3))


def test_fidelity_above_one(fidelity):
    assert check_fidelity(corrupt(fidelity, 0, F_max=1.0 + 1e-6, F_at_critical=1.0))


def test_fidelity_missing_sector(fidelity):
    assert list(check_fidelity(fidelity[:3] + fidelity[4:])) == [0.3]


def grid_index(rows, lam, parity, x1, x2):
    return next(
        i
        for i, r in enumerate(rows)
        if float(r["lambda"]) == lam
        and r["parity"] == parity
        and math.isclose(float(r["x1"]), x1)
        and math.isclose(float(r["x2"]), x2)
    )


def test_husimi_reflection_broken(husimi):
    axis = sorted({float(r["x1"]) for r in husimi})
    i = grid_index(husimi, 3.0, "01", axis[40], axis[20])
    q = float(husimi[i]["Q"])
    bad = check_husimi(corrupt(husimi, i, Q=q + 1e-10))
    assert list(bad) == [(3.0, "01")]


def test_husimi_phase_one_condensate(husimi):
    axis = sorted({float(r["x1"]) for r in husimi})
    i = grid_index(husimi, 0.3, "00", axis[32], axis[32])
    q = float(husimi[i]["Q"])
    bad = checks.check_husimi(corrupt(husimi, i, Q=q * (1 - 1e-11)), 20, LAMS, 64)
    assert [m for m in bad[(0.3, "00")] if "(1+|x|^2)^-N" in m]


def test_husimi_negative_q(husimi):
    i = grid_index(husimi, 1.0, "11", -1.5, -1.5)
    assert list(check_husimi(corrupt(husimi, i, Q=-1e-3))) == [(1.0, "11")]


def test_husimi_hump_count(husimi):
    rows = copy.deepcopy(husimi)
    for r in rows:
        if float(r["lambda"]) == 1.0 and r["parity"] == "00":
            r["humps"] = "4"
    assert list(check_husimi(rows)) == [(1.0, "00")]


def test_husimi_hump_counts_follow_phases():
    want = {"I": [1, 2, 2, 4], "II": [2, 2, 4, 4], "III": [4, 4, 4, 4]}
    for lam, phase in ((0.3, "I"), (1.0, "II"), (3.0, "III")):
        assert [checks.hump_count(lam, c) for c in checks.SECTORS] == want[phase]
