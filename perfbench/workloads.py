"""The benchmark's workloads: fixed CLI configs and the checks on their outputs.

Each workload is one ``cabbench.cli.run`` call.  Its config takes the seed
from the benchmark's ``--seed``; ``smoke`` overrides shrink it for tests.
A check reads the run's output directory and raises ``CheckFailed`` when
the result is wrong.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable

import numpy as np

SE_TOLERANCE = 5.0  # oracle checks accept |estimate - exact| <= 5 standard errors


class CheckFailed(AssertionError):
    """A run's outputs are wrong."""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    check: Callable[[Path, int], None]  # (output dir, seed) -> None or raise
    smoke: dict = field(default_factory=dict)  # nested overrides for a small run

    def config_doc(self, seed: int, out_dir: Path, smoke: bool = False) -> dict:
        doc = json.loads(json.dumps(self.config))
        if smoke:
            for key, value in self.smoke.items():
                if isinstance(value, dict):
                    doc[key].update(value)
                else:
                    doc[key] = value
        doc.update(seed=seed, out_dir=str(out_dir), threads=1)
        return doc


def output_digests(out_dir: Path) -> dict[str, str]:
    """sha256 of result.json and every CSV, keyed by file name."""
    files = sorted(out_dir.glob("*.csv")) + [out_dir / "result.json"]
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _within(value: float, exact: float, se: float, what: str):
    if not (math.isfinite(value) and math.isfinite(se) and se > 0):
        raise CheckFailed(f"{what}: non-finite estimate {value} +- {se}")
    if abs(value - exact) > SE_TOLERANCE * se:
        raise CheckFailed(f"{what}: {value} +- {se} is not within {SE_TOLERANCE} SE of {exact}")


# ---------------------------------------------------------------------------
# oracles (computed once per process, outside the timed runs)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def ring44_pure_fidelity() -> float:
    """Product over the ring's gates of each gate's exact depolarizing fidelity.

    Exact because ring_44q has no couplings and no control errors.
    """
    from cabbench.analysis import analytic_fidelity
    from cabbench.cli import load_device
    from cabbench.device import CouplingMap

    dev = load_device("ring_44q")
    return math.prod(
        analytic_fidelity((0,), [g.effective_depol_p()], CouplingMap()) for g in dev.gates
    )


@lru_cache(maxsize=None)
def six_qubit_dressed_fidelity() -> float:
    """Choi process fidelity of one dressed cycle of three_gate_6q (about 7 s)."""
    from cabbench.backends import choi_process_fidelity, dressed_cycle_channel
    from cabbench.circuits import GateBlock
    from cabbench.cli import load_device

    dev = load_device("three_gate_6q")
    block = GateBlock.parallel_cz(dev, tuple(range(len(dev.gates))))
    return choi_process_fidelity(dressed_cycle_channel(dev, block), dev.n_qubits)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_ring44(out_dir: Path, seed: int):
    pure = json.loads((out_dir / "result.json").read_text())["report"]["pure"]
    _within(pure["value"], ring44_pure_fidelity(), pure["se"], "ring_44q pure fidelity")


def check_fully_connected(out_dir: Path, seed: int):
    report = json.loads((out_dir / "result.json").read_text())["report"]
    for kind in ("dressed", "twirl"):
        value, se = report[kind]["value"], report[kind]["se"]
        if not (math.isfinite(value) and 0.0 < value <= 1.0):
            raise CheckFailed(f"{kind} fidelity {value} is not in (0, 1]")
        if not (math.isfinite(se) and se > 0.0):
            raise CheckFailed(f"{kind} standard error {se} is not finite and positive")


def check_optimize(out_dir: Path, seed: int):
    rows = _rows(out_dir / "trajectory.csv")
    if not rows:
        raise CheckFailed("trajectory.csv has no iterations")
    exact = six_qubit_dressed_fidelity()
    for row in rows:
        what = f"reference fidelity of iteration {row['iteration']}"
        _within(float(row["ref_fidelity"]), exact, float(row["ref_se"]), what)


def _power(t, k: int):
    from cabbench.tableau import CliffordTableau

    acc, base = CliffordTableau.identity(t.n), t
    while k:
        if k & 1:
            acc = base.compose(acc)
        base = base.compose(base)
        k >>= 1
    return acc


def _prime_factors(k: int) -> set[int]:
    out, q = set(), 2
    while q * q <= k:
        while k % q == 0:
            out.add(q)
            k //= q
        q += 1
    if k > 1:
        out.add(k)
    return out


def check_order_stats(out_dir: Path, seed: int):
    """Every order k is exact: T^k = I and T^(k/q) != I for each prime q | k.

    The blocks are drawn again from the run's seed, in the order the CLI
    draws them.
    """
    from cabbench.experiments import ring_fully_connected

    config = json.loads((out_dir / "result.json").read_text())["config"]
    rows = _rows(out_dir / "orders.csv")
    expected = [(n, i) for n in config["n_list"] for i in range(config["samples"])]
    if [(int(r["n"]), int(r["sample"])) for r in rows] != expected:
        raise CheckFailed("orders.csv does not list every (n, sample) of the config")
    rng = np.random.default_rng([seed, 9])
    for row in rows:
        block, _dev = ring_fully_connected(int(row["n"]), rng)
        k = int(row["order"])
        if k < 1:
            raise CheckFailed(f"order of n={row['n']} sample {row['sample']} is not finite")
        if not _power(block.tableau, k).is_identity():
            raise CheckFailed(f"T^{k} is not the identity (n={row['n']}, sample {row['sample']})")
        for q in _prime_factors(k):
            if _power(block.tableau, k // q).is_identity():
                raise CheckFailed(f"order {k} is not minimal: T^{k // q} = I")


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            name="cab_ring44_sample",
            why="44-qubit CAB on the stab backend in sample mode: stab fault sampling dominates, "
            "dm is never called; checked against the exact product fidelity",
            config={
                "kind": "cab",
                "device": "ring_44q",
                "backend": "stab",
                "cab": {"mode": "sample", "depths": [0, 2], "k_r": 10, "k_s": 20000, "k_q": 100},
                "subsets": "singles",
            },
            check=check_ring44,
            smoke={"cab": {"k_r": 3, "k_s": 2000, "k_q": 20}},
        ),
        Workload(
            name="fc_ring12_traverse",
            why="12-qubit fully connected gate, stab backend, traverse mode: every shot feeds a "
            "dense 2^12 fwht; no sample-mode parity path",
            config={
                "kind": "fully_connected",
                "n": 12,
                "backend": "stab",
                "measure_twirl": True,
                "cab": {"mode": "traverse", "depths": [0, 2], "k_r": 20, "k_s": 10000},
                "subsets": "none",
            },
            check=check_fully_connected,
            smoke={"cab": {"k_r": 3, "k_s": 2000}, "n": 8},
        ),
        Workload(
            name="optimize_6q_dm",
            why="3 Nelder-Mead iterations on three_gate_6q with the exact dm backend and 7 "
            "subsets per step; stab is never called",
            config={
                "kind": "optimize",
                "device": "three_gate_6q",
                "backend": "dm",
                "optimize": {"target": "global", "iterations": 3, "window": [0, 3]},
                "cab": {"mode": "traverse", "depths": [0, 2], "k_r": 40, "k_s": 2000},
            },
            check=check_optimize,
            smoke={"optimize": {"iterations": 1, "window": [0, 1]}, "cab": {"k_r": 4}},
        ),
        Workload(
            name="order_stats_n4",
            why="800 gate-order draws of the 4-qubit fully connected gate: tableau composition "
            "in gate_order does the work, no backend is called",
            config={"kind": "order_stats", "n_list": [4], "samples": 800},
            check=check_order_stats,
            smoke={"samples": 20},
        ),
    )
}
