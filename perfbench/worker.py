"""One benchmark run in a fresh process: set up, run the CLI experiment once, report.

Usage: worker.py CONFIG_JSON SPAWN_MONOTONIC TRACE

SPAWN_MONOTONIC is ``time.monotonic()`` in the parent just before it
started this process, so ``setup_s`` includes interpreter start-up.
``ref_s`` is the mean of ``reference_s()`` timed just before and just
after the experiment.  The last line of standard output is a JSON object
with the measurements.
Exit codes: 0 success, 1 the experiment raised, 3 set-up failed.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path


def reference_s() -> float:
    """Seconds for a fixed mix of interpreter loops and small numpy operations.

    The benchmark divides its times by this gauge of the host's current
    speed.  The arrays stay under 1 MB, so the kernel leaves peak_rss_mb
    to the experiment.
    """
    import numpy as np

    start = time.perf_counter()
    rng = np.random.default_rng(0)
    bits = np.zeros((2000, 44), dtype=np.uint8)
    weights = 1 << np.arange(16)
    for _ in range(24):
        acc = 0
        for i in range(25000):
            acc ^= i * 7
        for _ in range(10):
            bits ^= (rng.random(bits.shape) < 0.003).astype(np.uint8)
            np.unique(bits[:, :16] @ weights)
    return time.perf_counter() - start


def main(argv) -> int:
    config_path, spawned, trace = argv[0], float(argv[1]), argv[2] == "1"
    src = Path(__file__).resolve().parent.parent / "src"
    try:
        import cabbench
        from cabbench import cli
        from cabbench.paulis import single_qubit_cliffords

        if Path(cabbench.__file__).resolve().parent.parent != src:
            raise ImportError(f"cabbench imported from {cabbench.__file__}, not from {src}")
        with open(config_path) as fh:
            cfg = cli.ExperimentConfig.from_dict(json.load(fh))
        if cfg.device is not None:
            cli.load_device(cfg.device)
        single_qubit_cliffords()
    except Exception:
        traceback.print_exc()
        return 3
    setup_s = time.monotonic() - spawned

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ref_before = reference_s()
    start, cpu_start = time.perf_counter(), time.process_time()
    try:
        cli.run(cfg)
    except Exception:
        traceback.print_exc()
        return 1
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu_start
    ref_s = (ref_before + reference_s()) / 2

    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "ref_s": ref_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.uninstall()
        report["spans"] = tracer.summary()
        report["counters"] = tracer.counters
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
