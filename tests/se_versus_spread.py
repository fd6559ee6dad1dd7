"""One-run jackknife SE of each pair correlation against its spread over seeds.

The full-size version of ``test_one_run_correlation_se_matches_the_spread_over_seeds``
(tests/test_analysis.py): ``three_gate_6q``, gates 0-2, singles and pairs,
traverse, dm, depths (0, 2), k_r 50, k_s 20,000, seeds 0-29.  For each pair
it records the mean correlation, its SD over the seeds (``correlation_stats``,
the route that ``correlate``'s reruns took) and the RMS of the one-run SEs,
and checks that their ratio lies in RATIO_RANGE, fixed before the first run.

    PYTHONPATH=src python3 tests/se_versus_spread.py [--out tests/se_versus_spread.json]

About 2 s on one core.  Exits 1 when a ratio falls outside the range.
"""

import argparse
import json
import platform
import sys
import time

import numpy as np

from cabbench.analysis import correlation_matrix, correlation_stats
from cabbench.cab import CabConfig, run_cab_experiment
from cabbench.circuits import GateBlock
from cabbench.cli import load_device

SEEDS = range(30)
RATIO_RANGE = (0.7, 1.4)  # the SD of 30 values has a relative SE of about 0.13


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="tests/se_versus_spread.json", help="JSON record to write")
    args = parser.parse_args(argv)
    dev = load_device("three_gate_6q")
    gates = (0, 1, 2)
    pairs = [(0, 1), (0, 2), (1, 2)]
    subsets = ((0,), (1,), (2,), *pairs)
    block = GateBlock.parallel_cz(dev, gates)
    start = time.perf_counter()
    fidelities, ses = [], []
    for seed in SEEDS:
        cfg = CabConfig(depths=(0, 2), k_r=50, k_s=20_000, mode="traverse", seed=seed, backend="dm", subsets=subsets)
        rep = run_cab_experiment(dev, block, cfg)
        fidelities.append({key: res.pure.value for key, res in rep.subsets.items()})
        ses.append(correlation_matrix(rep, dev).ses)
    means, sds = correlation_stats(fidelities, pairs)
    rms_se = np.sqrt(np.mean(np.square(ses), axis=0))
    ratios = rms_se / np.array(sds)
    ok = bool(np.all((RATIO_RANGE[0] <= ratios) & (ratios <= RATIO_RANGE[1])))
    record = {
        "config": {
            "device": "three_gate_6q",
            "gates": list(gates),
            "subsets": "singles+pairs",
            "mode": "traverse",
            "backend": "dm",
            "depths": [0, 2],
            "k_r": 50,
            "k_s": 20_000,
            "seeds": [SEEDS.start, SEEDS.stop - 1],
        },
        "ratio_range": list(RATIO_RANGE),
        "pairs": [
            {"pair": list(p), "mean": m, "sd_over_seeds": sd, "rms_one_run_se": float(se), "ratio": float(r)}
            for p, m, sd, se, r in zip(pairs, means, sds, rms_se, ratios)
        ],
        "within_range": ok,
        "seconds": round(time.perf_counter() - start, 2),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for row in record["pairs"]:
        print(f"pair {row['pair']}: SD {row['sd_over_seeds']:.5f}, RMS SE {row['rms_one_run_se']:.5f}, ratio {row['ratio']:.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
