"""The traced run's counts and time accounting on small sweeps.

    PYTHONPATH=src python -m pytest -q sweepbench

Each sweep runs through child.py in its own interpreter, since installing
the tracer rewires the quditcat modules of the process it runs in.  The
sweeps keep the default worker pool, so pool tasks are traced too.
"""

import json
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def traced(tmp_path, argv):
    result = tmp_path / "result.json"
    cmd = [
        sys.executable, str(HERE / "child.py"), str(SRC), repr(time.monotonic()),
        str(result), "trace", "--", *argv, "--out", str(tmp_path / "sweep.csv"),
    ]
    subprocess.run(cmd, check=True, timeout=300, capture_output=True)
    out = json.loads(result.read_text())
    assert out["rc"] == 0
    trace = out["trace"]
    charged = sum(trace["self_s"].values())
    assert abs(charged - trace["thread_s"]) <= 1e-6 * trace["thread_s"]
    assert set(trace["self_s"]) <= {"cli", "other"} | tracer.LAYERS
    return trace


def test_spectrum_trace(tmp_path):
    t = traced(tmp_path, ["spectrum", "--N", "8", "--lambda-values", "0.3,3.0"])
    assert t["calls"]["lmg.diagonalize"] == 2
    assert t["maxima"]["lmg.diagonalize.matrix_mb"] == 45 * 45 * 8 / 1e6
    assert t["calls"]["fock.FockBasis.rank"] > 0
    assert t["self_s"]["lmg.diagonalize"] > 0


def test_fidelity_trace(tmp_path):
    t = traced(tmp_path, ["fidelity", "--N", "6", "--lambda-values", "0.3,3.0"])
    searches = 2 * 4
    assert t["calls"]["variational.maximize_overlap"] == searches
    assert t["counts"]["variational.maximize_overlap.starts"] == searches * 26
    # one variational cat per search is built outside the search
    inside = t["counts"]["variational.maximize_overlap.dcat_calls"]
    assert inside == t["calls"]["parity.dcat"] - searches


def test_husimi_trace(tmp_path):
    argv = ["husimi", "--N", "6", "--lambda-values", "1.0", "--parity", "00,11",
            "--grid-points", "64"]
    t = traced(tmp_path, argv)
    # every map is evaluated twice, once for the CSV and once to count humps
    assert t["calls"]["husimi.husimi_grid"] == 2 * 2
    assert t["counts"]["husimi.husimi_values.points"] == 2 * 2 * 64 * 64
    assert t["self_s"]["cli"] > 0


def test_localization_trace(tmp_path):
    argv = ["localization", "--N", "6", "--lambda-values", "0.3,3.0", "--method",
            "importance_mc", "--samples", "2000", "--batch", "500", "--seed", "1"]
    t = traced(tmp_path, argv)
    assert t["calls"]["husimi.wehrl_entropy"] == 2 * 2
    assert t["counts"]["husimi.husimi_values.points"] == 2 * 2 * 2000
    assert t["maxima"]["husimi.wehrl_entropy.se_max"] > 0
    assert t["calls"]["husimi.moment_analytic"] == 2 * 2
