import argparse
import csv
import io
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from contextlib import redirect_stdout
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quditcat.cli
import quditcat.husimi
import quditcat.lmg
from quditcat import __version__
from quditcat.cli import (
    EXIT_CAPACITY,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    COMMANDS,
    SETTINGS,
    ExperimentConfig,
    _build_config,
    _write_csv,
    _bits,
    build_parser,
    main,
)
from quditcat.variational import (
    TRACKED_STATES,
    branch_centers,
    critical_point,
    fidelity,
    variational_cat,
)


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


def test_import_leaves_out_the_unused_scipy_subpackages():
    # start-up loads only the scipy the sector eigensolve needs, and hump
    # counting loads none
    src = str(Path(quditcat.lmg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import quditcat.cli\n"
        "import quditcat\n"
        "quditcat.husimi.count_map_humps(np.outer(np.hanning(65), np.hanning(65)))\n"
        "print(' '.join(sorted(sys.modules)))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    loaded = set(out.stdout.split())
    assert "scipy.sparse.linalg" in loaded
    assert not loaded & {"scipy.optimize", "scipy.special", "scipy.ndimage"}


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
        # threads whose couplings interleave evict each other's shared draw
        ["localization", "--N", "8", "--lambda-values", "0.3,2.5", "--parity", "00,11",
         "--method", "importance_mc", "--samples", "2000", "--batch", "250",
         "--seed", "3"],
    ],
    ids=["spectrum", "husimi", "localization"],
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
        *(
            (["husimi", "--N", "4", "--parity", "00", "--grid-points", "64",
              "--lambda-values", "1.0", "--grid-half-range", half_range], "half_range")
            for half_range in ("nan", "inf", "1e308")
        ),
    ],
    ids=["levels-0", "levels-above-dim", "workers-0", "nan-coupling",
         "empty-particle-list", "empty-coupling-list", "particle-list-for-one-N",
         "nan-half-range", "inf-half-range", "half-range-overflows-axis"],
)
def test_bad_settings_are_config_errors(tmp_path, capsys, args, named):
    assert run_cli(args, tmp_path / "x.csv") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


@pytest.mark.parametrize("grid_slice, per_map", [("position", 1), ("momentum", 2)])
def test_husimi_map_evaluated_once(tmp_path, monkeypatch, grid_slice, per_map):
    calls = []
    grid = quditcat.husimi.husimi_grid

    def counted(state, spec):
        calls.append(spec.slice)
        return grid(state, spec)

    monkeypatch.setattr(quditcat.cli, "husimi_grid", counted)
    args = ["husimi", "--N", "8", "--lambda-values", "0.3,2.5", "--parity", "00",
            "--grid-points", "64", "--grid-slice", grid_slice]
    assert run_cli(args, tmp_path / "h.csv") == 0
    # the momentum slice still evaluates the position grid to count humps
    assert sorted(calls) == sorted([grid_slice, "position"][:per_map] * 2)


def format_value(value) -> str:
    """The CSV value format: repr of any float, numpy floats included; str otherwise."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def expected_csv(cfg, header, columns) -> str:
    """The text `_write_csv` must write, formatted value by value."""
    lines = [
        f"# quditcat={__version__} command={cfg.command} "
        f"config_digest={cfg.digest()} seed={cfg.seed}",
        ",".join(header),
    ] + [",".join(format_value(v) for v in row) for row in zip(*columns)]
    return "\n".join(lines) + "\n"


def written_csv(header, columns, blocks=None) -> str:
    """What `_write_csv` writes of `blocks` (one block of `columns` by default).

    It must be `expected_csv` of the whole columns.
    """
    cfg = ExperimentConfig("husimi", seed=5, out="-")
    buf = io.StringIO()
    with redirect_stdout(buf):
        _write_csv(cfg, header, [columns] if blocks is None else blocks)
    assert buf.getvalue() == expected_csv(cfg, header, columns)
    return buf.getvalue()


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
    _write_csv(cfg, header, [columns])
    expected = expected_csv(cfg, header, columns)
    assert (tmp_path / "w.csv").read_bytes() == expected.encode()


def test_csv_writer_matches_per_value_format_on_a_husimi_map():
    # two maps on one grid, as `cmd_husimi` concatenates them
    axis = np.linspace(-1.5, 1.5, 9)  # holds 0.0
    x1, x2 = (np.tile(g.ravel(), 2) for g in np.meshgrid(axis, axis, indexing="ij"))
    m = axis.size**2
    nan_payload = np.array([0x7FF8000000000001, 0xFFF8000000000000], np.uint64)
    special = np.concatenate([
        [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 0.1, 0.1, -0.0],
        nan_payload.view(np.float64),
    ])
    q = np.resize(
        np.concatenate([special, np.random.default_rng(0).random(m // 2)]), 2 * m
    )
    columns = [
        np.concatenate([np.full(m, 0.25), np.full(m, 3.0)]),
        np.concatenate([np.full(m, "00"), np.full(m, "11")]),
        x1,
        x2,
        q,
        np.concatenate([np.full(m, 4), np.full(m, 2)]),
        q.astype(np.float32),
    ]
    text = written_csv(["lambda", "parity", "x1", "x2", "Q", "humps", "Q32"], columns)
    rows = text.splitlines()[2:]
    assert len(rows) == 2 * m
    assert rows[0].split(",")[4:] == ["0.0", "4", "0.0"]
    assert rows[1].split(",")[4:] == ["-0.0", "4", "-0.0"]
    assert [row.split(",")[4] for row in rows[10:12]] == ["nan", "nan"]


def test_csv_writer_without_rows_writes_the_header():
    columns = [np.array([]), np.array([], dtype="<U2"), np.array([], dtype=np.int64), []]
    text = written_csv(["a", "b", "c", "d"], columns)
    assert text.splitlines()[1:] == ["a,b,c,d"]


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(width=64) | st.sampled_from([0.0, -0.0]), min_size=1, max_size=6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=40),
    st.lists(st.integers(0, 40), max_size=6),
)
def test_csv_writer_matches_per_value_format_on_repeated_floats(values, picks, cuts):
    # any split of the rows into consecutive blocks, empty ones included,
    # writes the bytes of the whole columns
    values = np.array(values)
    columns = [values[[p[i] % len(values) for p in picks]] for i in (0, 1)]
    edges = [0, *sorted(min(c, len(picks)) for c in cuts), len(picks)]
    blocks = [[col[a:b] for col in columns] for a, b in zip(edges, edges[1:])]
    written_csv(["a", "b"], columns, blocks)


def test_csv_writer_memory_scales_with_the_block_not_the_table(tmp_path):
    # 12 blocks shaped like the maps of `cmd_husimi` at a 128-point grid:
    # tiled axes, constant columns and about 6.6k distinct Q values each
    axis = np.linspace(-1.5, 1.5, 128)
    x1, x2 = (g.ravel() for g in np.meshgrid(axis, axis, indexing="ij"))
    rng = np.random.default_rng(0)
    blocks = []
    for i in range(12):
        q = np.resize(rng.random(6_600), x1.size)
        n = q.size
        blocks.append([
            np.full(n, 0.1 * i), np.full(n, "00"), x1, x2, q, np.full(n, 4),
        ])
    cfg = ExperimentConfig("husimi", seed=5, out=str(tmp_path / "m.csv"))
    header = ["lambda", "parity", "x1", "x2", "Q", "humps"]

    def peak(blocks) -> int:
        tracemalloc.start()
        try:
            _write_csv(cfg, header, blocks)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(blocks) <= 1.5 * peak(blocks[:1])


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
    tmp_path, monkeypatch, capsys, spoil, message,
    owner=quditcat.lmg.scipy.linalg, solver="eigh", N=8,
):
    """Spoil the first eigenvector `solver` returns; both sweeps exit 3.

    The default is dense eigh at N = 8; quditcat.lmg's eigsh at N = 60
    spoils the Lanczos path, which blocks above DENSE_BLOCK_MAX take.
    """
    real_solver = getattr(owner, solver)

    def spoilt_solver(*args, **kwargs):
        vals, vecs = real_solver(*args, **kwargs)
        vecs[:, 0] *= spoil
        return vals, vecs

    monkeypatch.setattr(owner, solver, spoilt_solver)
    for command in ("spectrum", "fidelity"):
        out = tmp_path / f"{command}.csv"
        args = [command, "--N", str(N), "--lambda-values", "1.0"]
        assert run_cli(args, out) == EXIT_NUMERICAL
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


@pytest.mark.parametrize(
    "spoil, message", [(np.nan, "eigenpair residual"), (2.0, "state norm")]
)
def test_spoilt_lanczos_eigenvector_is_numerical_failure(
    tmp_path, monkeypatch, capsys, spoil, message
):
    assert quditcat.lmg.DENSE_BLOCK_MAX < 465  # the smallest N = 60 block
    assert_spoilt_eigh_is_numerical_failure(
        tmp_path, monkeypatch, capsys, spoil, message,
        owner=quditcat.lmg, solver="eigsh", N=60,
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


@pytest.mark.parametrize(
    "text, named",
    [
        ("[common]\nn = 8\nlamda-values = 0.5\nlevels = 2\n", "'lamda-values'"),
        ("[DEFAULT]\nlamda-values = 0.5\n", "'lamda-values'"),
        ("n = 8\n", "cannot parse"),
        ("[common]\nout = run%1.csv\n", "cannot parse"),
    ],
    ids=[
        "unknown-key", "unknown-default-key", "no-section-header", "bad-interpolation"
    ],
)
def test_bad_config_file_is_config_error(tmp_path, capsys, text, named):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(text)
    out = tmp_path / "s.csv"
    assert run_cli(["spectrum", "--config", str(cfg)], out) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err and str(cfg) in err
    assert not out.exists()


DESK_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "desk.cfg"


@pytest.mark.parametrize(
    "command, digest",
    [
        ("spectrum", "e59472b9325e"),
        ("fidelity", "3514a50d6dda"),
        ("husimi", "7d348f0b3a13"),
        ("localization", "82cf7e2873b7"),
    ],
)
def test_desk_config_loads(command, digest):
    args = build_parser().parse_args([command, "--config", str(DESK_CONFIG)])
    cfg = _build_config(args)
    assert (cfg.N, cfg.lam_steps, cfg.seed) == ((20,), 15, 7)
    assert cfg.method == "importance_mc"
    assert cfg.parities == ((0, 0), (1, 0), (0, 1), (1, 1))
    # the settings the file leaves out keep the ExperimentConfig defaults
    assert (cfg.workers, cfg.out, cfg.lam_values) == (1, "-", None)
    assert cfg.digest() == digest


def load_config(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return _build_config(build_parser().parse_args(["spectrum", "--config", str(path)]))


def test_empty_config_value_leaves_the_couplings_unset(tmp_path):
    config = load_config(tmp_path, "[lambda]\nlambda-values =\n")
    assert config.lam_values is None
    assert len(config.lam_grid()) == ExperimentConfig.lam_steps


def test_default_section_keys_are_read(tmp_path):
    assert load_config(tmp_path, "[DEFAULT]\nlevels = 2\n").levels == 2


def test_flags_config_keys_and_fields_cover_each_other():
    parser = build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    defaults = {f.name: f.default for f in fields(ExperimentConfig) if f.name != "command"}
    # selftest reads no setting and takes no setting flag
    assert [a.dest for a in sub.choices["selftest"]._actions] == ["help"]
    for command in COMMANDS:
        flags = [a for a in sub.choices[command]._actions if a.dest not in ("help", "config")]
        # every flag has exactly one config key, and every key has a flag
        assert sorted(a.dest for a in flags) == sorted(SETTINGS), command
        # each flag's help names the ExperimentConfig default, where there is
        # one, as text that the setting's parser reads back as that default
        for action in flags:
            field, parse, help_text = SETTINGS[action.dest]
            assert "default" not in help_text, action.dest
            named = re.search(r" \(default (.*)\)$", action.help)
            if defaults[field] is None:
                assert named is None, action.dest
            else:
                assert parse(named.group(1)) == defaults[field], action.dest
    # and every key has exactly one field, and every field but command a key
    names = sorted(field for field, _, _ in SETTINGS.values())
    assert names == sorted(defaults)


@pytest.mark.parametrize(
    "key, value",
    [
        ("method", "foo"),
        ("grid-slice", "sideways"),
        ("lambda-scale", "cubic"),
        ("levels", "2.5"),
        ("seed", "-1"),
    ],
)
@pytest.mark.parametrize("given_by", ["flag", "file"])
def test_bad_value_fails_alike_from_flag_and_file(tmp_path, capsys, key, value, given_by):
    args = ["spectrum", "--N", "8", "--lambda-values", "1.0"]
    if given_by == "flag":
        args += [f"--{key}", value]
    else:
        path = tmp_path / "run.cfg"
        path.write_text(f"[common]\n{key} = {value}\n")
        args += ["--config", str(path)]
    out = tmp_path / "s.csv"
    assert run_cli(args, out) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: bad value for {key}")
    assert not out.exists()


def no_solve(*args, **kwargs):
    raise AssertionError("the sweep ran")


def test_unwritable_out_is_a_config_error_before_the_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(quditcat.cli, "diagonalize", no_solve)
    out = tmp_path / "missing" / "s.csv"
    args = ["spectrum", "--N", "8", "--lambda-values", "1.0", "--out"]
    assert main(args + [str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {out}: its directory does not exist\n"
    # nor is a directory written to
    assert main(args + [str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: cannot write {tmp_path}: ")


@pytest.mark.parametrize("command", ["fidelity", "husimi", "localization"])
def test_only_spectrum_takes_another_D(tmp_path, capsys, monkeypatch, command):
    monkeypatch.setattr(quditcat.cli, "shared_basis", no_solve)
    monkeypatch.setattr(quditcat.cli, "diagonalize", no_solve)
    args = [command, "--D", "4", "--N", "6", "--lambda-values", "1.0", "--seed", "1"]
    assert run_cli(args, tmp_path / "x.csv") == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: only spectrum takes a --D other than 3; the rest use D = 3 forms\n"
    )


def test_spectrum_takes_another_D(tmp_path):
    out = tmp_path / "s.csv"
    args = ["spectrum", "--D", "4", "--N", "4", "--lambda-values", "1.0", "--levels", "2"]
    assert run_cli(args, out) == 0
    _, rows = read_csv(out)
    assert len(rows[0]["parity0"]) == 3


@pytest.mark.parametrize(
    "args, named",
    [
        (["fidelity", "--N", "200", "--lambda-values", "-0.5"], "non-negative"),
        (["localization", "--N", "400", "--seed", "1", "--samples", "10",
          "--lambda-values", "1.0"], "1000 samples"),
        (["localization", "--N", "400", "--seed", "1", "--samples", "10",
          "--lambda-values", "1.0", "--batch", "0"], "1000 samples"),
        (["localization", "--N", "400", "--seed", "1", "--batch", "0",
          "--lambda-values", "1.0"], "batch size"),
    ],
    ids=["negative-coupling", "few-samples", "few-samples-batch-0", "batch-0"],
)
def test_bad_setting_is_reported_before_the_first_solve(
    tmp_path, capsys, monkeypatch, args, named
):
    monkeypatch.setattr(quditcat.cli, "diagonalize", no_solve)
    assert run_cli(args, tmp_path / "x.csv") == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and named in err


def test_fidelity_sweep_builds_no_cat(tmp_path, monkeypatch):
    # F_at_critical is the closed form of the search's objective at the
    # critical point; it matches the fidelity of the built cat, reduced
    # cats of phases I and II included
    lams = (0.3, 1.0, 2.5)
    expected = {}
    for lam in lams:
        basis = quditcat.cli.shared_basis(3, 8)
        params = quditcat.lmg.LMGParams(3, 8, 1.0, lam)
        spec = quditcat.lmg.diagonalize(
            quditcat.lmg.build_hamiltonian(params, basis), basis, k=1
        )
        for label in TRACKED_STATES.values():
            cat = variational_cat(lam, label, params, basis)
            expected[lam, _bits(label)] = fidelity(cat, spec.ground_states[label])

    monkeypatch.setattr(quditcat.variational, "dcat", no_solve)
    out = tmp_path / "fidelity.csv"
    args = ["fidelity", "--N", "8", "--lambda-values", ",".join(map(str, lams))]
    assert run_cli(args, out) == 0
    _, rows = read_csv(out)
    assert len(rows) == len(expected)
    for row in rows:
        want = expected[float(row["lambda"]), row["parity"]]
        assert abs(float(row["F_at_critical"]) - want) <= 1e-15


def test_stdout_output():
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        rc = main(["spectrum", "--N", "8", "--lambda-values", "0.2", "--levels", "2"])
    assert rc == 0
    assert buffer.getvalue().startswith("# quditcat=")


def test_husimi_writes_the_same_bytes_to_stdout_and_to_a_file(tmp_path, monkeypatch):
    # 8 maps, one block each: no block boundary may lose or add a newline
    calls = []

    def keep_blocks(cfg, header, blocks):
        blocks = list(blocks)
        calls.append((cfg, header, blocks))
        _write_csv(cfg, header, blocks)

    monkeypatch.setattr(quditcat.cli, "_write_csv", keep_blocks)
    args = [
        "husimi", "--N", "8", "--grid-points", "64", "--lambda-values", "0.25,3.0",
        "--parity", "00,10,01,11",
    ]
    buffer = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(buffer):
        warnings.simplefilter("ignore")
        assert main(args) == 0
    out = tmp_path / "h.csv"
    assert run_cli(args, out) == 0
    assert out.read_bytes() == buffer.getvalue().encode()
    cfg, header, blocks = calls[0]
    assert len(blocks) == 8
    columns = [np.concatenate(parts) for parts in zip(*blocks)]
    assert buffer.getvalue() == expected_csv(cfg, header, columns)


def test_branch_centers_structure():
    # the importance-sampling stream depends on the order of the centers and
    # on the sign of their zeros, so both are pinned exactly
    z1 = critical_point(1.0, 1.0).z1
    assert np.array_equal(branch_centers(0.1), [[0.0, 0.0]])
    assert np.array_equal(branch_centers(1.0), [[-z1, 0.0], [z1, 0.0]])
    cp = critical_point(1.0, 2.5)
    z1, z2 = cp.z1, cp.z2
    assert np.array_equal(
        branch_centers(2.5), [[-z1, -z2], [-z1, z2], [z1, -z2], [z1, z2]]
    )
    for lam in (0.1, 1.0, 2.5):
        centers = branch_centers(lam)
        assert centers.dtype == complex
        parts = np.concatenate([centers.real.ravel(), centers.imag.ravel()])
        assert not np.any(np.signbit(parts[parts == 0.0]))


def test_selftest_rejects_setting_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--method", "foo", "--N", "1"])
    # argparse's usage error, before the suite runs
    assert exc.value.code == 2
    assert "unrecognized arguments: --method foo --N 1" in capsys.readouterr().err


def test_selftest_help_runs():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
