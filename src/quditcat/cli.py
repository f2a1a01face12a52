"""Configuration-driven experiment runner.

Subcommands reproduce the standard sweep experiments as CSV tables:

    spectrum      low-lying energy densities and parities vs coupling
    fidelity      variational-cat fidelities and overlap maxima vs coupling
    husimi        Husimi function on phase-space slices, with hump counts
    localization  IPR and Wehrl entropy sweeps (variational and numerical)
    selftest      run the structural invariant suite

Settings come from an INI-style config file (flat key = value entries in
sections) and every command-line flag overrides its config key.  Output
CSVs are deterministic for a fixed (config, seed) pair and carry a
metadata comment line with the package version, a digest of the settings
the command reads, and the seed.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 capacity
exceeded (1 for selftest failures).
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .coherent import NormError
from .fock import CapacityError, shared_basis
from .husimi import (
    HusimiGridSpec,
    IntegrationSpec,
    count_humps,
    count_map_humps,
    husimi_grid,
    moment_analytic,
    wehrl_entropy,
)
from .lmg import DiagonalizationError, LMGParams, build_hamiltonian, diagonalize
from .parity import all_parity_labels
from .selftest import run_selftest
from .variational import (
    TRACKED_STATES,
    branch_centers,
    critical_point,
    fidelity,
    maximize_overlap,
    variational_cat,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CAPACITY = 4


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    D: int = 3
    N: tuple[int, ...] = (20,)
    lam_min: float = 0.01
    lam_max: float = 3.0
    lam_steps: int = 16
    lam_scale: str = "linear"
    lam_values: tuple[float, ...] | None = None
    parities: tuple[tuple[int, ...], ...] | None = None
    method: str = "haar_mc"
    samples: int = 1_000_000
    batch: int = 200_000
    seed: int | None = None
    workers: int = 1
    levels: int = 6
    grid_points: int = 128
    grid_half_range: float = 1.5
    grid_slice: str = "position"
    out: str = "-"

    def lam_grid(self) -> np.ndarray:
        given = self.lam_values or (self.lam_min, self.lam_max)
        bad = [v for v in given if not np.isfinite(v)]
        if bad:
            raise ConfigError(f"coupling {bad[0]!r} is not finite")
        points = self.lam_steps if self.lam_values is None else len(self.lam_values)
        if points < 1:
            raise ConfigError("lambda grid needs at least one point")
        if self.lam_values is not None:
            return np.asarray(self.lam_values, dtype=float)
        if self.lam_scale == "linear":
            return np.linspace(self.lam_min, self.lam_max, self.lam_steps)
        if self.lam_scale == "log":
            if self.lam_min <= 0:
                raise ConfigError("log-scale lambda grid needs lambda-min > 0")
            return np.geomspace(self.lam_min, self.lam_max, self.lam_steps)
        raise ConfigError(f"unknown lambda scale {self.lam_scale!r}")

    @property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        """The parity sectors read: all by default for husimi, 00 for localization."""
        if self.parities:
            return self.parities
        if self.command == "husimi":
            return tuple(all_parity_labels(self.D))
        return ((0,) * (self.D - 1),)

    def integration(self, seed: int) -> IntegrationSpec:
        return IntegrationSpec(self.method, self.samples, seed, self.batch)

    def digest(self) -> str:
        """Hash of the settings the command reads, couplings as resolved."""
        read = [(name, getattr(self, name)) for name in SETTINGS_READ[self.command]]
        text = repr((self.command, read, self.lam_grid().tolist()))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


# the settings each command reads besides the couplings, which `digest`
# hashes as the grid they resolve to; the output sink and the pool size
# never change a result
SETTINGS_READ = {
    "spectrum": ("D", "N", "levels"),
    "fidelity": ("D", "N"),
    "husimi": ("D", "N", "labels", "grid_points", "grid_half_range", "grid_slice"),
    "localization": ("D", "N", "labels", "method", "samples", "batch", "seed"),
}


def _parse_parity_list(text: str, D: int) -> tuple[tuple[int, ...], ...]:
    out = []
    for token in text.replace(";", ",").split(","):
        token = token.strip()
        if not token:
            continue
        if len(token) != D - 1 or any(ch not in "01" for ch in token):
            raise ConfigError(f"parity {token!r} is not a {D - 1}-bit string")
        out.append(tuple(int(ch) for ch in token))
    if not out:
        raise ConfigError("empty parity list")
    return tuple(out)


def _load_config_file(path: str) -> dict:
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    flat: dict[str, str] = {}
    for section in parser.sections():
        for key, value in parser.items(section):
            flat[key.replace("-", "_")] = value
    return flat


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    raw: dict[str, str] = {}
    if args.config:
        raw = _load_config_file(args.config)

    def pick(key: str, flag_value, cast, default):
        if flag_value is not None:
            return flag_value
        if key in raw:
            try:
                return cast(raw[key])
            except ValueError as exc:
                raise ConfigError(f"bad config value for {key}: {raw[key]!r}") from exc
        return default

    D = pick("d", args.D, int, 3)
    n_raw = pick("n", args.N, str, None)
    if n_raw is None:
        n_list = (20,)
    else:
        try:
            n_list = tuple(int(tok) for tok in str(n_raw).split(",") if tok.strip())
        except ValueError as exc:
            raise ConfigError(f"bad particle numbers {n_raw!r}") from exc
    lam_values_raw = pick("lambda_values", args.lambda_values, str, None)
    lam_values = None
    if lam_values_raw:
        try:
            lam_values = tuple(
                float(t) for t in str(lam_values_raw).split(",") if t.strip()
            )
        except ValueError as exc:
            raise ConfigError(f"bad lambda values {lam_values_raw!r}") from exc
    parity_raw = pick("parity", args.parity, str, None)
    parities = _parse_parity_list(parity_raw, D) if parity_raw else None
    cfg = ExperimentConfig(
        command=args.command,
        D=D,
        N=n_list,
        lam_min=pick("lambda_min", args.lambda_min, float, 0.01),
        lam_max=pick("lambda_max", args.lambda_max, float, 3.0),
        lam_steps=pick("lambda_steps", args.lambda_steps, int, 16),
        lam_scale=pick("lambda_scale", args.lambda_scale, str, "linear"),
        lam_values=lam_values,
        parities=parities,
        method=pick("method", args.method, str, "haar_mc"),
        samples=pick("samples", args.samples, int, 1_000_000),
        batch=pick("batch", args.batch, int, 200_000),
        seed=pick("seed", args.seed, int, None),
        workers=pick("workers", args.workers, int, 1),
        levels=pick("levels", args.levels, int, 6),
        grid_points=pick("grid_points", args.grid_points, int, 128),
        grid_half_range=pick("grid_half_range", args.grid_half_range, float, 1.5),
        grid_slice=pick("grid_slice", args.grid_slice, str, "position"),
        out=pick("out", args.out, str, "-"),
    )
    if cfg.D < 2:
        raise ConfigError("need at least two levels")
    if not cfg.N:
        raise ConfigError("particle list is empty")
    if any(n < 2 for n in cfg.N):
        raise ConfigError("need at least two particles")
    if len(cfg.N) > 1 and cfg.command != "localization":
        raise ConfigError(f"--N takes one particle number for {cfg.command}")
    if cfg.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {cfg.workers}")
    if cfg.command in ("localization",) and cfg.seed is None:
        raise ConfigError(f"command {cfg.command!r} uses Monte-Carlo; --seed is required")
    return cfg


def _write_csv(cfg: ExperimentConfig, header: list[str], columns) -> None:
    """Write the metadata line, the header and the rows of `columns`.

    Each column is an array or a sequence of scalars, numpy or Python.  A
    float is written as its repr and any other value as its str, a numpy
    scalar as the Python scalar it holds; each row is formatted by one
    template call.
    """
    cols, fields = [], []
    for col in columns:
        if isinstance(col, np.ndarray):
            values, floats = col.tolist(), col.dtype.kind == "f"
        else:
            values = list(col)
            floats = all(type(v) is float for v in values)
        cols.append(values)
        # "{}" formats a numpy scalar as its Python value and a float as its
        # repr; the repr conversion is only the faster one for floats
        fields.append("{!r}" if floats else "{}")
    template = ",".join(fields)
    lines = [
        f"# quditcat={__version__} command={cfg.command} "
        f"config_digest={cfg.digest()} seed={cfg.seed}",
        ",".join(header),
    ]
    if cols:
        lines.extend(map(template.format, *cols))
    text = "\n".join(lines) + "\n"
    if cfg.out == "-":
        sys.stdout.write(text)
    else:
        with open(cfg.out, "w") as fh:
            fh.write(text)


def _pool_map(fn, items, workers: int):
    """fn over the sweep points on `workers` threads, results in item order."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _bits(label) -> str:
    return "".join(str(b) for b in label)


def cmd_spectrum(cfg: ExperimentConfig) -> None:
    N = cfg.N[0]
    k = cfg.levels
    basis = shared_basis(cfg.D, N)

    def rows_for(lam: float):
        lam = float(lam)
        params = LMGParams(cfg.D, N, 1.0, lam)
        spec = diagonalize(build_hamiltonian(params, basis), basis, k=k)
        return (
            [lam]
            + [float(e) for e in spec.eigenvalues]
            + [_bits(p) for p in spec.parities]
        )

    rows = _pool_map(rows_for, list(cfg.lam_grid()), cfg.workers)
    header = (
        ["lambda"]
        + [f"E{i}" for i in range(k)]
        + [f"parity{i}" for i in range(k)]
    )
    _write_csv(cfg, header, zip(*rows))


def cmd_fidelity(cfg: ExperimentConfig) -> None:
    if cfg.D != 3:
        raise ConfigError("the fidelity sweep uses the D = 3 variational forms")
    N = cfg.N[0]
    basis = shared_basis(3, N)

    def rows_for(lam: float):
        lam = float(lam)
        params = LMGParams(3, N, 1.0, lam)
        spec = diagonalize(build_hamiltonian(params, basis), basis, k=1)
        cp = critical_point(1.0, lam)
        out = []
        for state_idx, label in TRACKED_STATES.items():
            target = spec.ground_states[label]
            cat = variational_cat(lam, label, params, basis)
            f_crit = fidelity(cat, target)
            z_max, f_max = maximize_overlap(
                target, label, extra_starts=[(cp.z1, cp.z2)]
            )
            out.append(
                [lam, state_idx, _bits(label), f_crit, f_max, z_max[0], z_max[1]]
            )
        return out

    nested = _pool_map(rows_for, list(cfg.lam_grid()), cfg.workers)
    rows = [row for block in nested for row in block]
    header = ["lambda", "state", "parity", "F_at_critical", "F_max", "z1_max", "z2_max"]
    _write_csv(cfg, header, zip(*rows))


def cmd_husimi(cfg: ExperimentConfig) -> None:
    if cfg.D != 3:
        raise ConfigError("Husimi maps are emitted for D = 3")
    N = cfg.N[0]
    basis = shared_basis(3, N)
    grid = HusimiGridSpec(cfg.grid_points, cfg.grid_half_range, cfg.grid_slice)
    count_grid = HusimiGridSpec(cfg.grid_points, cfg.grid_half_range, "position")

    def columns_for(task):
        lam, label = task
        lam = float(lam)
        params = LMGParams(3, N, 1.0, lam)
        cat = variational_cat(lam, label, params, basis)
        pts, q = husimi_grid(cat, grid)
        if grid == count_grid:
            humps = count_map_humps(q.reshape(grid.points, grid.points))
        else:
            humps = count_humps(cat, count_grid)
        n = len(q)
        return [
            np.full(n, lam), np.full(n, _bits(label)), pts[:, 0], pts[:, 1], q,
            np.full(n, humps),
        ]

    tasks = [(lam, label) for lam in cfg.lam_grid() for label in cfg.labels]
    blocks = _pool_map(columns_for, tasks, cfg.workers)
    header = ["lambda", "parity", "x1", "x2", "Q", "humps"]
    _write_csv(cfg, header, [np.concatenate(parts) for parts in zip(*blocks)])


def cmd_localization(cfg: ExperimentConfig) -> None:
    if cfg.D != 3:
        raise ConfigError("localization sweeps use the D = 3 variational forms")
    tasks = [
        (i, lam, N, label)
        for i, (lam, N, label) in enumerate(
            itertools.product(cfg.lam_grid(), cfg.N, cfg.labels)
        )
    ]

    def rows_for(task):
        idx, lam, N, label = task
        lam = float(lam)
        basis = shared_basis(3, N)
        params = LMGParams(3, N, 1.0, lam)
        centers = branch_centers(3, lam) if cfg.method == "importance_mc" else None
        spec = diagonalize(build_hamiltonian(params, basis), basis, k=1)
        out = []
        for kind, state in (
            ("variational", variational_cat(lam, label, params, basis)),
            ("numerical", spec.ground_states[label]),
        ):
            m2 = moment_analytic(state, 2)
            sw, sw_err = wehrl_entropy(
                state, cfg.integration(cfg.seed + 1_000_003 * idx), centers
            )
            out.append(
                [lam, f"{_bits(label)}:N={N}", kind, m2.value, m2.std_error, sw, sw_err]
            )
        return out

    nested = _pool_map(rows_for, tasks, cfg.workers)
    rows = [row for block in nested for row in block]
    header = ["lambda", "state", "method", "M2", "M2_err", "S_W", "S_W_err"]
    _write_csv(cfg, header, zip(*rows))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditcat",
        description="Sweep experiments for parity-adapted coherent states "
        "and the multi-level LMG model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("spectrum", "fidelity", "husimi", "localization", "selftest"):
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI config file; flags override its keys")
        p.add_argument("--out", help="output CSV path ('-' for stdout)")
        p.add_argument("--seed", type=int, help="Monte-Carlo seed")
        p.add_argument("--workers", type=int, help="sweep worker threads (default 1)")
        p.add_argument("--N", help="particle number (a comma list for localization)")
        p.add_argument("--D", type=int, help="number of levels")
        p.add_argument("--lambda-min", dest="lambda_min", type=float)
        p.add_argument("--lambda-max", dest="lambda_max", type=float)
        p.add_argument("--lambda-steps", dest="lambda_steps", type=int)
        p.add_argument("--lambda-scale", dest="lambda_scale", choices=["linear", "log"])
        p.add_argument(
            "--lambda-values",
            dest="lambda_values",
            help="explicit comma list of couplings (overrides min/max/steps)",
        )
        p.add_argument("--parity", help="comma list of parity bit strings")
        p.add_argument("--levels", type=int, help="levels written per coupling by spectrum")
        p.add_argument("--method", choices=["haar_mc", "importance_mc"])
        p.add_argument("--samples", type=int)
        p.add_argument("--batch", type=int)
        p.add_argument("--grid-points", dest="grid_points", type=int)
        p.add_argument("--grid-half-range", dest="grid_half_range", type=float)
        p.add_argument("--grid-slice", dest="grid_slice", choices=["position", "momentum"])
    return parser


COMMANDS = {
    "spectrum": cmd_spectrum,
    "fidelity": cmd_fidelity,
    "husimi": cmd_husimi,
    "localization": cmd_localization,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "selftest":
        return EXIT_OK if run_selftest() else 1
    try:
        cfg = _build_config(args)
        COMMANDS[cfg.command](cfg)
    # NormError is a ValueError, so it is caught before the config errors
    except (
        DiagonalizationError, FloatingPointError, NormError, np.linalg.LinAlgError
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CapacityError as exc:
        print(f"capacity exceeded: {exc}", file=sys.stderr)
        return EXIT_CAPACITY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
