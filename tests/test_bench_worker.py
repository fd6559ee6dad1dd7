"""The benchmark worker (``perfbench/worker.py``) still starts on the package.

Before its timed run the worker imports ``cabbench.cli`` and
``cabbench.paulis.single_qubit_cliffords``, loads the config and builds the
Clifford table.  A rename there would show only as a failed benchmark run,
so this runs the worker as ``perfbench/run.py`` does: in a fresh
single-threaded process, on a small ``order_stats`` config written here,
and reads the report on its last line.  Nothing under ``perfbench/`` is
imported or written.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_worker_runs_a_small_order_stats_config(tmp_path):
    out = tmp_path / "out"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": "order_stats", "n_list": [4], "samples": 5, "seed": 2, "out_dir": str(out)}))
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
    assert (out / "orders.csv").read_text().count("\n") == 1 + 5  # header and one row per sample
