import csv
import io
import warnings
from contextlib import redirect_stdout
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import quditcat.husimi
import quditcat.lmg
from quditcat import __version__
from quditcat.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    ExperimentConfig,
    _write_csv,
    main,
)
from quditcat.variational import branch_centers, critical_point


def run_cli(args, out_path):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rc = main(args + ["--out", str(out_path)])
    return rc


def read_csv(path):
    lines = Path(path).read_text().splitlines()
    assert lines[0].startswith("# quditcat=")
    rows = list(csv.DictReader(lines[1:]))
    return lines[0], rows


def test_spectrum_command(tmp_path):
    out = tmp_path / "spectrum.csv"
    rc = run_cli(
        [
            "spectrum",
            "--N", "20",
            "--lambda-values", "0.0,1.0,2.5",
            "--levels", "6",
            "--workers", "1",
        ],
        out,
    )
    assert rc == 0
    meta, rows = read_csv(out)
    assert "command=spectrum" in meta
    assert len(rows) == 3
    assert list(rows[0]) == (
        ["lambda"] + [f"E{i}" for i in range(6)] + [f"parity{i}" for i in range(6)]
    )
    assert [float(r["lambda"]) for r in rows] == [0.0, 1.0, 2.5]
    assert float(rows[0]["E0"]) == -1.0
    for row in rows:
        # ground densities never exceed the free value -1 once coupling is on
        assert float(row["E0"]) <= -1.0 + 1e-12
        labels = sorted(row[f"parity{i}"] for i in range(6))
        assert labels == ["00", "00", "01", "10", "10", "11"]


def test_spectrum_deterministic_reruns(tmp_path):
    args = ["spectrum", "--N", "12", "--lambda-values", "0.3,1.7", "--levels", "4"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert run_cli(args, first) == 0
    assert run_cli(args, second) == 0
    assert first.read_bytes() == second.read_bytes()


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--N", "10", "--lambda-values", "0.2,0.9,1.7", "--levels", "3"],
        ["husimi", "--N", "8", "--lambda-values", "0.3,2.5", "--parity", "00,11",
         "--grid-points", "64"],
    ],
    ids=["spectrum", "husimi"],
)
def test_pool_output_matches_serial(tmp_path, args):
    serial = tmp_path / "serial.csv"
    pooled = tmp_path / "pooled.csv"
    assert run_cli(args + ["--workers", "1"], serial) == 0
    assert run_cli(args + ["--workers", "3"], pooled) == 0
    assert pooled.read_bytes() == serial.read_bytes()


@pytest.mark.parametrize(
    "args, named",
    [
        (["spectrum", "--N", "2", "--lambda-values", "1.0", "--levels", "0"], "k must"),
        (["spectrum", "--N", "2", "--lambda-values", "1.0", "--levels", "99"], "k must"),
        (["husimi", "--N", "8", "--lambda-values", "1.0", "--parity", "00",
          "--grid-points", "64", "--workers", "0"], "--workers"),
        (["spectrum", "--N", "8", "--lambda-values", "0.5,nan"], "nan"),
        (["localization", "--N", ",", "--lambda-values", "1.0", "--seed", "1"],
         "particle list"),
        (["spectrum", "--N", "8", "--lambda-values", ","], "at least one point"),
        (["spectrum", "--N", "8,12", "--lambda-values", "1.0"], "--N"),
    ],
    ids=["levels-0", "levels-above-dim", "workers-0", "nan-coupling",
         "empty-particle-list", "empty-coupling-list", "particle-list-for-one-N"],
)
def test_bad_settings_are_config_errors(tmp_path, capsys, args, named):
    assert run_cli(args, tmp_path / "x.csv") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


@pytest.mark.parametrize("grid_slice, per_map", [("position", 1), ("momentum", 2)])
def test_husimi_map_evaluated_once(tmp_path, monkeypatch, grid_slice, per_map):
    calls = []
    values = quditcat.husimi.husimi_values

    def counted(state, zs):
        calls.append(len(zs))
        return values(state, zs)

    monkeypatch.setattr(quditcat.husimi, "husimi_values", counted)
    args = ["husimi", "--N", "8", "--lambda-values", "0.3,2.5", "--parity", "00",
            "--grid-points", "64", "--grid-slice", grid_slice]
    assert run_cli(args, tmp_path / "h.csv") == 0
    # the momentum slice still evaluates the position grid to count humps
    assert calls == [64 * 64] * (2 * per_map)


def format_value(value) -> str:
    """The CSV value format: repr of any float, numpy floats included; str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def test_csv_writer_matches_per_value_format(tmp_path):
    columns = [
        np.array([-0.0, 1e-300, 0.1, 1e16, -2.5e-7]),
        [np.float64(-0.0), np.float64(1e-300), np.float64(1 / 3), 5e-324, 2.0],
        [0, 1, -7, np.int64(12), 10**20],
        [1.5, 2, np.float32(0.1), np.float64(-0.0), 1e-300],
        np.array([3, 4, 1, 2, 0]),
        ["00", "10", "01", "11", "00"],
        np.array(["00", "01", "10", "11", "01"]),
    ]
    header = ["a", "b", "c", "d", "e", "f", "g"]
    cfg = ExperimentConfig("husimi", seed=5, out=str(tmp_path / "w.csv"))
    _write_csv(cfg, header, columns)
    expected = [
        f"# quditcat={__version__} command=husimi config_digest={cfg.digest()} seed=5",
        ",".join(header),
    ] + [",".join(format_value(v) for v in row) for row in zip(*columns)]
    assert (tmp_path / "w.csv").read_bytes() == ("\n".join(expected) + "\n").encode()


def test_digest_hashes_only_the_settings_read():
    base = ExperimentConfig("fidelity", N=(6,), lam_values=(1.0,), levels=1)
    # fidelity ignores --levels, --workers and the Monte-Carlo settings
    for ignored in (
        dict(levels=6), dict(workers=4), dict(seed=3), dict(samples=5_000),
    ):
        assert replace(base, **ignored).digest() == base.digest()
    # the couplings count as the grid they resolve to
    grid = replace(base, lam_values=None, lam_min=1.0, lam_max=1.0, lam_steps=1)
    assert grid.digest() == base.digest()
    for read in (dict(N=(8,)), dict(lam_values=(1.5,))):
        assert replace(base, **read).digest() != base.digest()
    # spectrum reads --levels
    spectrum = replace(base, command="spectrum")
    assert replace(spectrum, levels=6).digest() != spectrum.digest()
    # and the parity sectors count as the list they resolve to
    husimi = replace(base, command="husimi")
    every = ((0, 0), (0, 1), (1, 0), (1, 1))
    assert replace(husimi, parities=every).digest() == husimi.digest()
    assert replace(husimi, parities=((0, 0),)).digest() != husimi.digest()


def test_fidelity_command(tmp_path):
    out = tmp_path / "fidelity.csv"
    rc = run_cli(
        ["fidelity", "--N", "20", "--lambda-values", "0.001,2.5", "--workers", "1"],
        out,
    )
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 8  # four tracked states per coupling
    for row in rows:
        assert float(row["F_max"]) >= float(row["F_at_critical"]) - 1e-9
    weak = [r for r in rows if float(r["lambda"]) < 0.01]
    assert len(weak) == 4
    assert all(float(r["F_at_critical"]) > 0.99 for r in weak)
    assert {r["state"] for r in rows} == {"0", "1", "3", "5"}


def test_fidelity_writes_every_tracked_state_at_one_level(tmp_path):
    # each sector's ground state comes from its own solve, so --levels,
    # which sets the spectrum columns, cannot drop a tracked state
    out = tmp_path / "fidelity.csv"
    rc = run_cli(
        ["fidelity", "--N", "12", "--lambda-values", "0.01,1.0,2.5", "--levels", "1"],
        out,
    )
    assert rc == 0
    _, rows = read_csv(out)
    for lam in (0.01, 1.0, 2.5):
        states = [r["state"] for r in rows if float(r["lambda"]) == lam]
        assert states == ["0", "1", "3", "5"]


def test_localization_writes_both_methods_at_one_level(tmp_path):
    out = tmp_path / "loc.csv"
    rc = run_cli(
        ["localization", "--N", "12", "--parity", "11", "--levels", "1",
         "--samples", "2000", "--batch", "500", "--seed", "1", "--lambda-values", "0.01"],
        out,
    )
    assert rc == 0
    _, rows = read_csv(out)
    assert [r["method"] for r in rows] == ["variational", "numerical"]
    assert all(r["state"] == "11:N=12" for r in rows)


def test_husimi_command(tmp_path):
    out = tmp_path / "husimi.csv"
    rc = run_cli(
        [
            "husimi",
            "--N", "20",
            "--lambda-values", "0.0,1.0,2.5",
            "--parity", "00",
            "--grid-points", "64",
            "--workers", "1",
        ],
        out,
    )
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 3 * 64 * 64
    assert list(rows[0]) == ["lambda", "parity", "x1", "x2", "Q", "humps"]
    humps = {float(r["lambda"]): int(r["humps"]) for r in rows}
    assert humps == {0.0: 1, 1.0: 2, 2.5: 4}
    assert all(0.0 <= float(r["Q"]) <= 1.0 for r in rows)


def test_husimi_momentum_slice_same_schema(tmp_path):
    out = tmp_path / "husimi_p.csv"
    rc = run_cli(
        [
            "husimi",
            "--N", "12",
            "--lambda-values", "1.0",
            "--parity", "00",
            "--grid-points", "64",
            "--grid-slice", "momentum",
        ],
        out,
    )
    assert rc == 0
    _, rows = read_csv(out)
    assert list(rows[0]) == ["lambda", "parity", "x1", "x2", "Q", "humps"]
    assert len(rows) == 64 * 64


def test_localization_command(tmp_path):
    out = tmp_path / "loc.csv"
    rc = run_cli(
        [
            "localization",
            "--N", "12,20",
            "--lambda-values", "0.1,2.5",
            "--parity", "00",
            "--method", "importance_mc",
            "--samples", "20000",
            "--batch", "5000",
            "--seed", "5",
            "--workers", "1",
        ],
        out,
    )
    assert rc == 0
    meta, rows = read_csv(out)
    assert "seed=5" in meta
    assert list(rows[0]) == ["lambda", "state", "method", "M2", "M2_err", "S_W", "S_W_err"]
    assert len(rows) == 2 * 2 * 2  # lambdas x particle numbers x methods
    kinds = {r["method"] for r in rows}
    assert kinds == {"variational", "numerical"}
    for row in rows:
        assert float(row["M2_err"]) == 0.0  # analytic backend
        assert float(row["S_W_err"]) > 0.0
    # in phase I the variational cat is the condensate: its IPR equals the
    # coherent-state closed form exactly
    from quditcat.husimi import dscs_moment_exact

    for row in rows:
        if row["method"] == "variational" and float(row["lambda"]) == 0.1:
            N = int(row["state"].split("N=")[1])
            assert abs(float(row["M2"]) - dscs_moment_exact(3, N, 2)) < 1e-12


def test_localization_requires_seed(tmp_path):
    rc = run_cli(
        ["localization", "--N", "12", "--lambda-values", "0.5", "--samples", "2000"],
        tmp_path / "x.csv",
    )
    assert rc == EXIT_CONFIG


def test_bad_parity_string_is_config_error(tmp_path):
    rc = run_cli(
        ["husimi", "--N", "12", "--lambda-values", "1.0", "--parity", "012"],
        tmp_path / "x.csv",
    )
    assert rc == EXIT_CONFIG


def test_capacity_exit_code(tmp_path):
    rc = run_cli(
        ["spectrum", "--N", "100000", "--lambda-values", "1.0"],
        tmp_path / "x.csv",
    )
    assert rc == EXIT_CAPACITY


def assert_spoilt_eigh_is_numerical_failure(
    tmp_path, monkeypatch, capsys, spoil, message
):
    real_eigh = quditcat.lmg.scipy.linalg.eigh

    def spoilt_eigh(*args, **kwargs):
        vals, vecs = real_eigh(*args, **kwargs)
        vecs[:, 0] *= spoil
        return vals, vecs

    monkeypatch.setattr(quditcat.lmg.scipy.linalg, "eigh", spoilt_eigh)
    for command in ("spectrum", "fidelity"):
        out = tmp_path / f"{command}.csv"
        assert run_cli([command, "--N", "8", "--lambda-values", "1.0"], out) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert "numerical failure" in err and message in err
        assert not out.exists()


def test_nan_eigenvector_is_numerical_failure(tmp_path, monkeypatch, capsys):
    # a NaN eigenvector fails the residual check, which NaN cannot pass
    assert_spoilt_eigh_is_numerical_failure(
        tmp_path, monkeypatch, capsys, np.nan, "eigenpair residual"
    )


def test_unnormalized_eigenvector_is_numerical_failure(tmp_path, monkeypatch, capsys):
    # an eigenvector scaled by 2 passes the residual check and fails the
    # state norm check, a ValueError that is not a config error
    assert_spoilt_eigh_is_numerical_failure(
        tmp_path, monkeypatch, capsys, 2.0, "state norm"
    )


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "[common]\nn = 12\nseed = 9\n\n[lambda]\nlambda-values = 0.5\n"
        "[spectrum]\nlevels = 3\n"
    )
    out = tmp_path / "s.csv"
    rc = run_cli(["spectrum", "--config", str(cfg), "--levels", "2"], out)
    assert rc == 0
    _, rows = read_csv(out)
    assert len(rows) == 1
    assert list(rows[0]) == ["lambda", "E0", "E1", "parity0", "parity1"]


def test_stdout_output():
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        rc = main(["spectrum", "--N", "8", "--lambda-values", "0.2", "--levels", "2"])
    assert rc == 0
    assert buffer.getvalue().startswith("# quditcat=")


def test_branch_centers_structure():
    # the importance-sampling stream depends on the order of the centers and
    # on the sign of their zeros, so both are pinned exactly
    z1 = critical_point(1.0, 1.0).z1
    assert np.array_equal(branch_centers(3, 0.1), [[0.0, 0.0]])
    assert np.array_equal(branch_centers(3, 1.0), [[-z1, 0.0], [z1, 0.0]])
    cp = critical_point(1.0, 2.5)
    z1, z2 = cp.z1, cp.z2
    assert np.array_equal(
        branch_centers(3, 2.5), [[-z1, -z2], [-z1, z2], [z1, -z2], [z1, z2]]
    )
    for lam in (0.1, 1.0, 2.5):
        centers = branch_centers(3, lam)
        assert centers.dtype == complex
        parts = np.concatenate([centers.real.ravel(), centers.imag.ravel()])
        assert not np.any(np.signbit(parts[parts == 0.0]))


def test_selftest_help_runs():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
