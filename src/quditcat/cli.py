"""Configuration-driven experiment runner.

Subcommands reproduce the standard sweep experiments as CSV tables:

    spectrum      low-lying energy densities and parities vs coupling
    fidelity      variational-cat fidelities and overlap maxima vs coupling
    husimi        Husimi function on phase-space slices, with hump counts
    localization  IPR and Wehrl entropy sweeps (variational and numerical)
    selftest      run the structural invariant suite

Settings come from an INI-style config file (flat key = value entries in
sections) and every command-line flag overrides its config key.  Each
setting is one row of `SETTINGS`, which the flags are generated from, and
a flag's text goes through the same parser as its key's.  Output
CSVs are deterministic for a fixed (config, seed) pair and carry a
metadata comment line with the package version, a digest of the settings
the command reads, and the seed.

Exit codes: 0 ok, 2 config error, 3 numerical failure, 4 capacity
exceeded (1 for selftest failures).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import hashlib
import itertools
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .coherent import NormError
from .fock import CapacityError, shared_basis
from .husimi import (
    GRID_SLICES,
    INTEGRATION_METHODS,
    HusimiGridSpec,
    IntegrationSpec,
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
    maximize_overlap,
    overlap_objective,
    variational_cat,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_CAPACITY = 4


class ConfigError(Exception):
    pass


# the coupling grid spacings `ExperimentConfig.lam_grid` knows
LAMBDA_SCALES = ("linear", "log")


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
    method: str = IntegrationSpec.method
    samples: int = IntegrationSpec.samples
    batch: int = IntegrationSpec.batch
    seed: int | None = None
    workers: int = 1
    levels: int = 6
    grid_points: int = HusimiGridSpec.points
    grid_half_range: float = HusimiGridSpec.half_range
    grid_slice: str = HusimiGridSpec.slice
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


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, not {text!r}")
    return value


def _particle_list(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _coupling_list(text: str) -> tuple[float, ...] | None:
    # an empty string leaves the couplings unset; "," is an empty list
    if not text:
        return None
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parity_list(text: str) -> tuple[tuple[int, ...], ...] | None:
    if not text:
        return None
    out = []
    for token in text.replace(";", ",").split(","):
        token = token.strip()
        if not token:
            continue
        if any(ch not in "01" for ch in token):
            raise ConfigError(f"parity {token!r} is not a bit string")
        out.append(tuple(int(ch) for ch in token))
    if not out:
        raise ConfigError("empty parity list")
    return tuple(out)


def _choice(field: str, allowed: tuple[str, ...], doc: str):
    """The row of a setting whose text must be one of `allowed`, which its help lists."""
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"expected one of {', '.join(allowed)}, not {text!r}")
        return text

    return field, parse, f"{doc}: {', '.join(allowed)}"


# config key -> (ExperimentConfig field, parser of the key's or the flag's
# text, help); each key is also the dest of the flag that overrides it,
# --D and --N for d and n and --key-with-dashes for the rest
SETTINGS = {
    "d": ("D", int, "number of levels"),
    "n": ("N", _particle_list, "particle number (a comma list for localization)"),
    "lambda_min": ("lam_min", float, "smallest coupling of the grid"),
    "lambda_max": ("lam_max", float, "largest coupling of the grid"),
    "lambda_steps": ("lam_steps", int, "number of couplings on the grid"),
    "lambda_scale": _choice("lam_scale", LAMBDA_SCALES, "spacing of the grid"),
    "lambda_values": (
        "lam_values", _coupling_list, "comma list of couplings (overrides min/max/steps)"
    ),
    "parity": ("parities", _parity_list, "comma list of parity bit strings"),
    "method": _choice(
        "method", INTEGRATION_METHODS, "Wehrl integral by uniform (Haar) or importance sampling"
    ),
    "samples": ("samples", int, "Monte-Carlo samples per integral"),
    "batch": ("batch", int, "samples per jackknife batch, each from its own seeded stream"),
    "seed": ("seed", _non_negative, "Monte-Carlo seed"),
    "workers": ("workers", int, "sweep worker threads"),
    "levels": ("levels", int, "levels written per coupling by spectrum"),
    "grid_points": ("grid_points", int, "Husimi grid points per axis"),
    "grid_half_range": ("grid_half_range", float, "Husimi grid half-width"),
    "grid_slice": _choice("grid_slice", GRID_SLICES, "phase-space slice of the Husimi map"),
    "out": ("out", str, "output CSV path ('-' for stdout)"),
}


def _load_config_file(path: str) -> dict[str, str]:
    parser = configparser.ConfigParser()
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path!r}")
        # the [DEFAULT] section too, which sections() leaves out
        items = [item for section in parser.values() for item in section.items()]
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path!r}: {exc}") from exc
    flat: dict[str, str] = {}
    for key, value in items:
        name = key.replace("-", "_")
        if name not in SETTINGS:
            raise ConfigError(f"unknown key {key!r} in config file {path!r}")
        flat[name] = value
    return flat


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config from the file's keys and the flags, which override them.

    Only the settings given are passed; `ExperimentConfig` supplies the rest.
    """
    given = _load_config_file(args.config) if args.config else {}
    flags = vars(args)
    given.update((key, flags[key]) for key in SETTINGS if flags[key] is not None)
    fields = {}
    for key, text in given.items():
        field, parse, _ = SETTINGS[key]
        try:
            fields[field] = parse(text)
        except ValueError as exc:
            raise ConfigError(f"bad value for {key.replace('_', '-')}: {exc}") from exc
    cfg = ExperimentConfig(command=args.command, **fields)
    if cfg.D < 2:
        raise ConfigError("need at least two levels")
    if cfg.D != 3 and cfg.command != "spectrum":
        raise ConfigError("only spectrum takes a --D other than 3; the rest use D = 3 forms")
    for label in cfg.parities or ():
        if len(label) != cfg.D - 1:
            raise ConfigError(
                f"parity {_bits(label)!r} is not a {cfg.D - 1}-bit string"
            )
    if not cfg.N:
        raise ConfigError("particle list is empty")
    if any(n < 2 for n in cfg.N):
        raise ConfigError("need at least two particles")
    if len(cfg.N) > 1 and cfg.command != "localization":
        raise ConfigError(f"--N takes one particle number for {cfg.command}")
    if cfg.workers < 1:
        raise ConfigError(f"--workers must be at least 1, got {cfg.workers}")
    if "seed" in SETTINGS_READ[cfg.command] and cfg.seed is None:
        raise ConfigError(f"command {cfg.command!r} uses Monte-Carlo; --seed is required")
    # checked before the sweep, which would otherwise run only to fail at the end
    if cfg.out != "-" and not Path(cfg.out).parent.is_dir():
        raise ConfigError(f"cannot write {cfg.out}: its directory does not exist")
    if cfg.out != "-" and Path(cfg.out).is_dir():
        raise ConfigError(f"cannot write {cfg.out}: it is a directory")
    return cfg


def _column_text(col) -> list[str]:
    """The CSV text of each value of one column, in row order."""
    if isinstance(col, np.ndarray) and col.dtype.kind in "fbiuSU":
        if col.dtype.kind == "f":
            # keyed on the bit pattern: by value, -0.0 and 0.0 would share
            # one text, and NaN equals nothing
            bits, index = np.unique(
                np.asarray(col, dtype=np.float64).view(np.uint64), return_inverse=True
            )
            texts = map(repr, bits.view(np.float64).tolist())
        else:
            distinct, index = np.unique(col, return_inverse=True)
            texts = map(str, distinct.tolist())
        return np.array(list(texts), dtype=object)[index].tolist()
    # format() writes a numpy scalar as the Python scalar it holds
    return list(map(format, col.tolist() if isinstance(col, np.ndarray) else col))


def _write_csv(cfg: ExperimentConfig, header: list[str], blocks) -> None:
    """Write the metadata line, the header and the rows of each block in turn.

    A block is a list of columns of equal length, each an array or a
    sequence of scalars, numpy or Python.  A float is written as its repr
    and any other value as its str, a numpy scalar as the Python scalar it
    holds.  In an array of floats, ints, bools or strings each distinct
    value of the block (a float by its bit pattern) is formatted once and
    its text reused for every row of the block that holds it.  Each block
    is written before the next is formatted, so only one block's text is
    held at a time.  The file is opened here, after the sweep, so a sweep
    that fails leaves no file.
    """
    head = (
        f"# quditcat={__version__} command={cfg.command} "
        f"config_digest={cfg.digest()} seed={cfg.seed}\n{','.join(header)}\n"
    )
    if cfg.out == "-":
        sink = contextlib.nullcontext(sys.stdout)
    else:
        try:
            sink = open(cfg.out, "w")
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg.out}: {exc}") from exc
    with sink as fh:
        fh.write(head)
        for columns in blocks:
            rows = map(",".join, zip(*map(_column_text, columns)))
            # the empty last item ends every row, and only a row, with a newline
            fh.write("\n".join([*rows, ""]))


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
    _write_csv(cfg, header, [zip(*rows)])


def cmd_fidelity(cfg: ExperimentConfig) -> None:
    N = cfg.N[0]
    basis = shared_basis(3, N)

    def rows_for(lam: float):
        lam = float(lam)
        # a negative coupling is rejected here, before the solve
        cp = critical_point(1.0, lam)
        params = LMGParams(3, N, 1.0, lam)
        spec = diagonalize(build_hamiltonian(params, basis), basis, k=1)
        out = []
        for state_idx, label in TRACKED_STATES.items():
            target = spec.ground_states[label]
            # the critical cat's fidelity in closed form, with no cat built
            f_crit = overlap_objective(target, label)((cp.z1, cp.z2))
            z_max, f_max = maximize_overlap(
                target, label, extra_starts=[(cp.z1, cp.z2)]
            )
            out.append(
                [lam, state_idx, _bits(label), f_crit, f_max, z_max[0], z_max[1]]
            )
        return out

    nested = _pool_map(rows_for, list(cfg.lam_grid()), cfg.workers)
    header = ["lambda", "state", "parity", "F_at_critical", "F_max", "z1_max", "z2_max"]
    _write_csv(cfg, header, (zip(*rows) for rows in nested))


def cmd_husimi(cfg: ExperimentConfig) -> None:
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
        position = q if grid == count_grid else husimi_grid(cat, count_grid)[1]
        humps = count_map_humps(position.reshape(grid.points, grid.points))
        n = len(q)
        return [
            np.full(n, lam), np.full(n, _bits(label)), pts[:, 0], pts[:, 1], q,
            np.full(n, humps),
        ]

    tasks = [(lam, label) for lam in cfg.lam_grid() for label in cfg.labels]
    blocks = _pool_map(columns_for, tasks, cfg.workers)
    header = ["lambda", "parity", "x1", "x2", "Q", "humps"]
    _write_csv(cfg, header, blocks)


def cmd_localization(cfg: ExperimentConfig) -> None:
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
        # everything that can reject a setting comes before the solve
        cat = variational_cat(lam, label, params, basis)
        centers = branch_centers(lam) if cfg.method == "importance_mc" else None
        integration = cfg.integration(cfg.seed + 1_000_003 * idx)
        H = build_hamiltonian(params, basis)
        ground = diagonalize(H, basis, k=1, sector=label).ground_states[label]
        out = []
        for kind, state in (("variational", cat), ("numerical", ground)):
            m2 = moment_analytic(state, 2)
            sw, sw_err = wehrl_entropy(state, integration, centers)
            out.append(
                [lam, f"{_bits(label)}:N={N}", kind, m2.value, m2.std_error, sw, sw_err]
            )
        return out

    nested = _pool_map(rows_for, tasks, cfg.workers)
    header = ["lambda", "state", "method", "M2", "M2_err", "S_W", "S_W_err"]
    _write_csv(cfg, header, (zip(*rows) for rows in nested))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quditcat",
        description="Sweep experiments for parity-adapted coherent states "
        "and the multi-level LMG model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI config file; flags override its keys")
        for key, (field, _, doc) in SETTINGS.items():
            default = getattr(ExperimentConfig, field)
            if isinstance(default, tuple):
                default = ",".join(map(str, default))
            if default is not None:
                doc += f" (default {default})"
            flag = key.upper() if len(key) == 1 else key.replace("_", "-")
            p.add_argument(f"--{flag}", dest=key, help=doc)
    # the suite reads no setting, so it takes none
    sub.add_parser("selftest")
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
