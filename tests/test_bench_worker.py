"""The benchmark worker (``perfbench/worker.py``) still starts on the package.

Before its timed run the worker imports ``cabbench.cli`` and
``cabbench.paulis.single_qubit_cliffords``, loads the config and builds the
Clifford table.  A rename there, or a break in the stab sampler or the
traverse transform that the stab workloads run, would show only as a failed
benchmark run, so this runs the worker as ``perfbench/run.py`` does: in a
fresh single-threaded process, on small ``order_stats``, stab ``cab`` and
stab traverse ``fully_connected`` configs written here, and reads the report
on its last line.  The ``order_stats`` orders are checked against
``gate_order_by_squaring`` on the blocks drawn again from the seed, so a
wrong order fails here as well as in a benchmark run's check.  Nothing
under ``perfbench/`` is imported or written.
"""

import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from cabbench.analysis import analytic_fidelity
from cabbench.cli import load_device
from cabbench.device import CouplingMap
from cabbench.experiments import ring_fully_connected

from helpers import gate_order_by_squaring

ROOT = Path(__file__).resolve().parents[1]


def run_worker(tmp_path, doc: dict) -> dict:
    """Run the worker once on ``doc`` and return its report."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    env = {
        **os.environ,
        "PYTHONPATH": str(ROOT / "src"),
        "PYTHONDONTWRITEBYTECODE": "1",
        **dict.fromkeys(("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"), "1"),
    }
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), str(config), repr(time.monotonic()), "0"],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    for key in ("setup_s", "wall_s", "peak_rss_mb"):
        assert report[key] > 0, key
    return report


def test_worker_runs_a_small_order_stats_config(tmp_path):
    out = tmp_path / "out"
    run_worker(tmp_path, {"kind": "order_stats", "n_list": [4], "samples": 5, "seed": 2, "out_dir": str(out)})
    with open(out / "orders.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    assert [(r["n"], r["sample"]) for r in rows] == [("4", str(i)) for i in range(5)]
    # the blocks drawn again from the seed, as the CLI draws them, against orders by repeated squaring
    rng = np.random.default_rng([2, 9])
    expected = [gate_order_by_squaring(ring_fully_connected(4, rng)[0].tableau) for _ in rows]
    assert [int(r["order"]) for r in rows] == [order for order, _ in expected]
    assert any(order == 2 * k for order, k in expected)  # one t^k has a sign


def test_worker_runs_a_small_ring44_stab_sample_config(tmp_path):
    out = tmp_path / "out"
    cab = {"mode": "sample", "depths": [0, 2], "k_r": 3, "k_s": 500, "k_q": 20}
    doc = {"kind": "cab", "device": "ring_44q", "backend": "stab", "cab": cab, "subsets": "singles"}
    run_worker(tmp_path, {**doc, "seed": 2, "out_dir": str(out)})
    pure = json.loads((out / "result.json").read_text())["report"]["pure"]
    # ring_44q has no couplings, so the exact fidelity is the product of its gates' own
    exact = math.prod(
        analytic_fidelity((0,), [g.effective_depol_p()], CouplingMap()) for g in load_device("ring_44q").gates
    )
    assert 0.0 < pure["se"] and abs(pure["value"] - exact) < 5 * pure["se"]


def test_worker_runs_a_small_fully_connected_traverse_config(tmp_path):
    out = tmp_path / "out"
    cab = {"mode": "traverse", "depths": [0, 2], "k_r": 3, "k_s": 500}
    doc = {"kind": "fully_connected", "n": 8, "backend": "stab", "measure_twirl": True, "cab": cab, "subsets": "none"}
    run_worker(tmp_path, {**doc, "seed": 2, "out_dir": str(out)})
    report = json.loads((out / "result.json").read_text())["report"]
    for kind in ("dressed", "twirl", "pure"):
        assert 0.0 < report[kind]["value"] <= 1.0 and 0.0 < report[kind]["se"] < 0.1, kind
    # the dressed sequences run the gate's noise on top of the twirl's
    assert report["dressed"]["value"] < report["twirl"]["value"]
