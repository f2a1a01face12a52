#!/usr/bin/env python3
"""Benchmark of the four quditcat CLI sweeps, run as a user runs them.

    python3 sweepbench/run.py --workload NAME [--seed 1] [--seconds 25] [--trace 0|1]

Run from the root of a checkout.  Each sweep is one fresh interpreter
(`child.py`) that imports `quditcat.cli` from `src/` and calls `main` with
arguments generated from the seed.  The run repeats whole sweeps (rounds)
while the next one is expected to end within --seconds, then checks every
CSV against the independent references of `checks.py` and prints one JSON
object as its last line.  With --trace 0 it reports the end-to-end
metrics (medians over the rounds; set-up time also over extra set-up-only
interpreters); with --trace 1 the sweeps run with the layer spans of
`tracer.py` and it reports the per-layer metrics instead.

An operation is one sweep point: a coupling, or a (coupling, sector) pair
for the Husimi maps.  It fails when its sweep exits non-zero or its rows
fail a check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_CALLS = 5
RUN_LIMIT_S = 170.0

# couplings are drawn inside each phase, away from the transitions at 0.5
# and 1.5 where finite-N humps merge and the hump count is not 2^(k+w)
PHASES = ((0.1, 0.4), (0.7, 1.2), (2.5, 3.5))


@dataclass(frozen=True)
class Plan:
    argv: list[str]
    ops: int
    check: Callable[[list[dict]], dict]


def _values(lams) -> str:
    return ",".join(repr(v) for v in lams)


def _one_per_phase(rng) -> list[float]:
    return [round(float(rng.uniform(lo, hi)), 6) for lo, hi in PHASES]


def spectrum_n100(rng) -> Plan:
    lams = _one_per_phase(rng)
    argv = ["spectrum", "--N", "100", "--levels", "6", "--lambda-values", _values(lams)]
    return Plan(argv, len(lams), lambda rows: checks.check_spectrum(rows, 100, lams, 6))


LOCALIZATION_SAMPLES = 10_000
LOCALIZATION_BATCH = 250


def localization_n50(rng) -> Plan:
    lams = _one_per_phase(rng)
    argv = [
        "localization", "--N", "50", "--parity", "00", "--method", "importance_mc",
        "--samples", str(LOCALIZATION_SAMPLES), "--batch", str(LOCALIZATION_BATCH),
        "--seed", str(int(rng.integers(0, 2**31))), "--lambda-values", _values(lams),
    ]
    return Plan(argv, len(lams), lambda rows: checks.check_localization(rows, 50, lams))


def fidelity_n20(rng) -> Plan:
    # three log-spaced couplings; the bounds keep the middle one in phase II
    lo = round(float(rng.uniform(0.15, 0.4)), 6)
    hi = round(float(rng.uniform(2.5, 3.5)), 6)
    lams = np.geomspace(lo, hi, 3).tolist()
    argv = [
        "fidelity", "--N", "20", "--lambda-scale", "log",
        "--lambda-min", repr(lo), "--lambda-max", repr(hi), "--lambda-steps", "3",
    ]
    return Plan(argv, len(lams), lambda rows: checks.check_fidelity(rows, 20, lams))


def husimi_maps_n20(rng) -> Plan:
    lams = _one_per_phase(rng)
    argv = [
        "husimi", "--N", "20", "--parity", "00,10,01,11", "--grid-points", "128",
        "--grid-half-range", "1.5", "--lambda-values", _values(lams),
    ]
    ops = len(lams) * len(checks.SECTORS)
    return Plan(argv, ops, lambda rows: checks.check_husimi(rows, 20, lams, 128))


WORKLOADS = {
    "spectrum-n100": spectrum_n100,
    "localization-n50": localization_n50,
    "fidelity-n20": fidelity_n20,
    "husimi-maps-n20": husimi_maps_n20,
}


def spawn(mode: str, tag: str, deadline: float, argv=()) -> dict:
    """Run child.py in a fresh interpreter and return its timings."""
    result_path = OUT / f"{tag}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(SRC)]
    with open(OUT / f"{tag}.log", "w") as log:
        t_spawn = time.monotonic()
        cmd += [repr(t_spawn), str(result_path), mode, "--", *argv]
        proc = subprocess.run(
            cmd,
            stdout=log,
            stderr=subprocess.STDOUT,
            timeout=max(5.0, deadline - time.monotonic()),
        )
    if proc.returncode != 0 or not result_path.is_file():
        return {"rc": proc.returncode or -1}
    return json.loads(result_path.read_text())


def layer_metrics(child: dict) -> dict:
    t = child["trace"]
    self_s, calls, counts, maxima = t["self_s"], t["calls"], t["counts"], t["maxima"]
    points = counts.get("husimi.husimi_values.points", 0)
    kernel_s = self_s.get("husimi.husimi_values", 0.0)
    out = {}
    for layer in sorted(tracer.LAYERS):
        out[f"{layer}.s"] = (self_s.get(layer, 0.0), "s")
    for name in (
        "fock.FockBasis.rank", "lmg.diagonalize", "husimi.husimi_grid", "parity.dcat",
    ):
        out[f"{name}.calls"] = (calls.get(name, 0), "count")
    out["lmg.diagonalize.matrix_mb"] = (maxima.get("lmg.diagonalize.matrix_mb", 0.0), "MB")
    out["husimi.husimi_values.points"] = (points, "count")
    out["husimi.husimi_values.points_per_s"] = (points / kernel_s if kernel_s else 0.0, "1/s")
    out["husimi.wehrl_entropy.se_max"] = (maxima.get("husimi.wehrl_entropy.se_max", 0.0), "nat")
    for name in ("starts", "starts_failed", "dcat_calls"):
        key = f"variational.maximize_overlap.{name}"
        out[key] = (counts.get(key, 0), "count")
    out["other.s"] = (self_s.get("other", 0.0), "s")
    out["cli.self_s"] = (self_s.get("cli", 0.0), "s")
    out["cli.thread_s"] = (t["thread_s"], "s")
    out["trace.sweep_s"] = (child["sweep_s"], "s")
    charged = sum(self_s.values())
    if abs(charged - t["thread_s"]) > 1e-6 * t["thread_s"]:
        raise RuntimeError(f"self times sum to {charged} s, thread time is {t['thread_s']} s")
    return out


def median_metrics(per_round: list[dict]) -> dict:
    return {
        name: {"value": statistics.median(m[name][0] for m in per_round), "unit": unit}
        for name, (_, unit) in per_round[0].items()
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quditcat" / "cli.py").is_file():
        print(f"no quditcat sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    OUT.mkdir(exist_ok=True)
    plan = WORKLOADS[args.workload](np.random.default_rng(args.seed))
    mode = "trace" if args.trace else "sweep"
    base = f"{args.workload}-{mode}"
    for stale in OUT.glob(f"{base}-*"):
        stale.unlink()

    setups = []
    if not args.trace:
        for i in range(SETUP_CALLS):
            child = spawn("setup", f"{base}-setup{i}", deadline)
            if "setup_s" not in child:
                print(f"set-up interpreter failed, see {OUT}", file=sys.stderr)
                return 1
            setups.append(child["setup_s"])

    rounds = []
    t0 = time.monotonic()
    while True:
        tag = f"{base}-r{len(rounds)}"
        csv_path = OUT / f"{tag}.csv"
        child = spawn(mode, tag, deadline, plan.argv + ["--out", str(csv_path)])
        rounds.append((child, csv_path))
        elapsed = time.monotonic() - t0
        if elapsed * (len(rounds) + 1) / len(rounds) > args.seconds:
            break

    attempted = failed = 0
    correct = True
    per_round = []
    for child, csv_path in rounds:
        attempted += plan.ops
        if child.get("rc") != 0:
            print(f"sweep exited with {child.get('rc')}, see {csv_path.with_suffix('.log')}",
                  file=sys.stderr)
            failed += plan.ops
            correct = False
            continue
        problems = plan.check(checks.read_rows(csv_path))
        if csv_path != rounds[-1][1]:
            csv_path.unlink()  # a husimi map is 13.6 MB; keep the last round's only
        bad = {key: msgs for key, msgs in problems.items() if msgs}
        for key, msgs in bad.items():
            print(f"{csv_path.name} {key}: {'; '.join(msgs)}", file=sys.stderr)
        failed += min(len(bad), plan.ops)
        correct = correct and not bad
        if args.trace:
            per_round.append(layer_metrics(child))
        else:
            per_round.append({
                "setup_s": (child["setup_s"], "s"),
                "sweep_s": (child["sweep_s"], "s"),
                "cpu_s": (child["cpu_s"], "s"),
                "peak_rss_mb": (child["peak_rss_mb"], "MB"),
            })

    if not per_round:
        print("no sweep finished; no metrics to report", file=sys.stderr)
        return 1
    metrics = median_metrics(per_round)
    if not args.trace:
        all_setups = setups + [m["setup_s"][0] for m in per_round]
        metrics["setup_s"]["value"] = statistics.median(all_setups)
    print(f"{args.workload}: {len(rounds)} sweeps, {attempted} operations, {failed} failed")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"{base}-result.json").write_text(json.dumps(result, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
