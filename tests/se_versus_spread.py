"""One-run jackknife SEs against their spread over seeds, at full size.

Two cases, each with its ratio range fixed before its first run (the SD of
30 values has a relative SE of about 0.13):

- ``pairs``, the full-size version of
  ``test_one_run_correlation_se_matches_the_spread_over_seeds``
  (tests/test_analysis.py): ``three_gate_6q``, gates 0-2, singles and pairs,
  traverse, dm, depths (0, 2), k_r 50, k_s 20,000, seeds 0-29.  For each
  pair it records the mean correlation, its SD over the seeds
  (``correlation_stats``) and the RMS of the one-run SEs.
- ``multidepth_dressed``, the full-size version of
  ``test_multidepth_se_matches_the_spread_over_seeds`` (tests/test_cab.py):
  ``two_gate_4q``, gates (0, 1), traverse, dm, depths (0, 1, 2, 4), k_r 50,
  k_s 20,000, seeds 0-29.  It records the mean dressed value, its SD over
  the seeds, the mean one-run SE, and the mean error against the exact
  ``choi_process_fidelity`` of the dressed cycle.

    PYTHONPATH=src python3 tests/se_versus_spread.py [--out tests/se_versus_spread.json]

A few seconds on one core.  Exits 1 when a ratio falls outside its range.
"""

import argparse
import json
import platform
import sys
import time

import numpy as np

from cabbench.analysis import correlation_matrix, correlation_stats
from cabbench.backends import choi_process_fidelity, dressed_cycle_channel
from cabbench.cab import CabConfig, estimate_fidelity, execute_cab_run, run_cab_experiment
from cabbench.circuits import GateBlock
from cabbench.cli import load_device

SEEDS = range(30)
RATIO_RANGE = (0.7, 1.4)
MULTIDEPTH_RATIO_RANGE = (0.7, 1.4)


def pairs_case() -> dict:
    dev = load_device("three_gate_6q")
    gates = (0, 1, 2)
    pairs = [(0, 1), (0, 2), (1, 2)]
    subsets = ((0,), (1,), (2,), *pairs)
    block = GateBlock.parallel_cz(dev, gates)
    fidelities, ses = [], []
    for seed in SEEDS:
        cfg = CabConfig(depths=(0, 2), k_r=50, k_s=20_000, mode="traverse", seed=seed, backend="dm", subsets=subsets)
        rep = run_cab_experiment(dev, block, cfg)
        fidelities.append({key: res.pure.value for key, res in rep.subsets.items()})
        ses.append(correlation_matrix(rep, dev).ses)
    means, sds = correlation_stats(fidelities, pairs)
    rms_se = np.sqrt(np.mean(np.square(ses), axis=0))
    ratios = rms_se / np.array(sds)
    return {
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
        "within_range": bool(np.all((RATIO_RANGE[0] <= ratios) & (ratios <= RATIO_RANGE[1]))),
    }


def multidepth_case() -> dict:
    dev = load_device("two_gate_4q")
    gates = (0, 1)
    depths = (0, 1, 2, 4)
    block = GateBlock.parallel_cz(dev, gates)
    values, ses = [], []
    for seed in SEEDS:
        cfg = CabConfig(depths=depths, k_r=50, k_s=20_000, mode="traverse", seed=seed, backend="dm")
        est = estimate_fidelity(execute_cab_run(dev, block, cfg, "dressed"))
        values.append(est.value)
        ses.append(est.se)
    exact = choi_process_fidelity(dressed_cycle_channel(dev, block), dev.n_qubits)
    sd = float(np.std(values, ddof=1))
    ratio = float(np.mean(ses)) / sd
    return {
        "config": {
            "device": "two_gate_4q",
            "gates": list(gates),
            "mode": "traverse",
            "backend": "dm",
            "depths": list(depths),
            "k_r": 50,
            "k_s": 20_000,
            "seeds": [SEEDS.start, SEEDS.stop - 1],
        },
        "ratio_range": list(MULTIDEPTH_RATIO_RANGE),
        "mean": float(np.mean(values)),
        "sd_over_seeds": sd,
        "mean_one_run_se": float(np.mean(ses)),
        "ratio": ratio,
        "exact": exact,
        "mean_error": float(np.mean(values)) - exact,
        "se_of_mean_error": sd / np.sqrt(len(values)),
        "within_range": MULTIDEPTH_RATIO_RANGE[0] <= ratio <= MULTIDEPTH_RATIO_RANGE[1],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="tests/se_versus_spread.json", help="JSON record to write")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    pairs, multidepth = pairs_case(), multidepth_case()
    ok = pairs["within_range"] and multidepth["within_range"]
    record = {
        "pairs": pairs,
        "multidepth_dressed": multidepth,
        "within_range": ok,
        "seconds": round(time.perf_counter() - start, 2),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for row in pairs["pairs"]:
        print(f"pair {row['pair']}: SD {row['sd_over_seeds']:.5f}, RMS SE {row['rms_one_run_se']:.5f}, ratio {row['ratio']:.3f}")
    print(
        f"multidepth dressed: SD {multidepth['sd_over_seeds']:.5f}, mean SE {multidepth['mean_one_run_se']:.5f}, "
        f"ratio {multidepth['ratio']:.3f}, error {multidepth['mean_error']:+.5f} ± {multidepth['se_of_mean_error']:.5f}"
    )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
