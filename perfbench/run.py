"""Benchmark driver: times one workload end to end, or traces its layers.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Every run is one ``cabbench.cli.run`` call in a fresh single-threaded
worker process (``worker.py``), one process at a time.  With ``--trace 0``
runs repeat until ``--seconds`` have passed (at least three) and the
end-to-end metrics are medians over the runs that passed their checks,
with times scaled to a reference machine speed (see ``REF_S``).
With ``--trace 1`` there is one untraced run and two traced runs; their
span call counts and work counters must repeat exactly.  Outputs go to
``.perfbench_runs/`` under the repository root and are removed at the end.

A run fails if it raises, fails its workload check, or writes outputs that
differ (sha256) from the first run of the same seed.  The last line of
standard output is the result object; the line before it holds the
per-run figures and the machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracing import COUNTERS, SPANS  # noqa: E402
from workloads import WORKLOADS, CheckFailed, output_digests  # noqa: E402

# Times are reported at the speed where worker.reference_s() takes REF_S
# seconds: the host's speed drifts by up to 25 % over minutes, and the
# reference kernel, timed around every run, drifts with it.
REF_S = 0.2
MIN_RUNS = 3
MAX_RUNS = 100
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class SetupError(RuntimeError):
    """The worker could not import or configure cabbench."""


@dataclass
class Run:
    traced: bool
    out_dir: Path
    report: dict | None = None
    error: str | None = None


def worker_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "CABBENCH_THREADS"}
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_worker(doc: dict, cfg_path: Path, traced: bool) -> Run:
    out_dir = Path(doc["out_dir"])
    cfg_path.write_text(json.dumps(doc))
    cmd = [sys.executable, str(HERE / "worker.py"), str(cfg_path)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [*cmd, repr(spawned), "1" if traced else "0"],
            env=worker_env(),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Run(traced, out_dir, error=f"worker ran longer than {WORKER_TIMEOUT_S} s")
    if proc.returncode == 3:
        raise SetupError(proc.stderr.strip())
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        return Run(traced, out_dir, error=tail[0])
    return Run(traced, out_dir, report=json.loads(proc.stdout.strip().splitlines()[-1]))


def collect(wl, seed: int, seconds: float, trace: bool, smoke: bool, work: Path) -> list[Run]:
    runs: list[Run] = []
    start = time.monotonic()
    while True:
        n = len(runs)
        if trace:
            if n == 3:
                return runs
        elif n >= MAX_RUNS or (n >= MIN_RUNS and time.monotonic() - start >= seconds):
            return runs
        # every run writes to the same directory, because result.json records it
        run = run_worker(wl.config_doc(seed, work / "out", smoke), work / "config.json", trace and n > 0)
        kept = work / f"out{n}"
        if run.out_dir.exists():
            run.out_dir.rename(kept)
        run.out_dir = kept
        runs.append(run)


def exact_counts(report: dict) -> dict:
    counts = dict(report["counters"])
    counts.update({f"{name}.calls": report["spans"][name]["calls"] for name in SPANS})
    return counts


def judge(runs: list[Run], wl, seed: int):
    """Mark runs whose outputs are wrong, differ from the first run, or whose counts drift.

    Only the first run's outputs go through the workload check; every later
    run must reproduce them byte for byte, so it passes or fails with it.
    """
    reference = None  # (run index, digests, check error)
    reference_counts = None
    for i, run in enumerate(runs):
        if run.error is not None:
            continue
        try:
            digests = output_digests(run.out_dir)
            if reference is None:
                try:
                    wl.check(run.out_dir, seed)
                    reference = (i, digests, None)
                except CheckFailed as err:
                    reference = (i, digests, f"check failed: {err}")
        except (OSError, KeyError, ValueError) as err:
            run.error = f"unreadable outputs: {type(err).__name__}: {err}"
            continue
        if digests != reference[1]:
            run.error = f"outputs differ from run {reference[0]}: not deterministic"
        elif reference[2] is not None:
            run.error = reference[2]
        elif run.traced:
            counts = exact_counts(run.report)
            if reference_counts is None:
                reference_counts = counts
            elif counts != reference_counts:
                run.error = "traced counts differ between two runs of the same seed"


def machine_record(load_before) -> dict:
    import numpy

    git = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
        )
        git = proc.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_describe": git,
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end_metrics(good: list[Run]) -> dict:
    """Medians over runs; each run's times are scaled to the reference speed."""

    def calibrated(key):
        return statistics.median(r.report[key] * REF_S / r.report["ref_s"] for r in good)

    return {
        "wall_s": metric(calibrated("wall_s"), "s"),
        "setup_s": metric(calibrated("setup_s"), "s"),
        "peak_rss_mb": metric(statistics.median(r.report["peak_rss_mb"] for r in good), "MB"),
    }


def per_layer_metrics(untraced: list[Run], traced: list[Run]) -> dict:
    wall = statistics.median(r.report["wall_s"] for r in untraced)
    traced_wall = statistics.median(r.report["wall_s"] for r in traced)
    first = traced[0].report
    out = {}
    for name in SPANS:
        self_s = statistics.median(r.report["spans"][name]["self_s"] for r in traced)
        out[f"{name}.self_s"] = metric(self_s, "s")
        out[f"{name}.calls"] = metric(first["spans"][name]["calls"], "count")
    counters = first["counters"]
    for name in COUNTERS:
        out[name] = metric(counters[name], "count")
    fitted = counters["cab.masks_fitted"]
    out["cab.flagged_frac"] = metric(counters["cab.flagged"] / fitted if fitted else 0.0, "ratio")
    out["shots_per_s"] = metric(counters["backends.shots"] / wall, "1/s")
    out["trace.overhead_s"] = metric(traced_wall - wall, "s")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced-size configs, for tests")
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]
    load_before = os.getloadavg()
    work = ROOT / ".perfbench_runs" / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runs = collect(wl, args.seed, args.seconds, bool(args.trace), args.smoke, work)
        judge(runs, wl, args.seed)
    except SetupError as err:
        print(f"perfbench: cabbench set-up failed:\n{err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    good = [r for r in runs if r.error is None]
    untraced = [r for r in good if not r.traced]
    traced = [r for r in good if r.traced]
    for i, run in enumerate(runs):
        if run.error is not None:
            print(f"perfbench: run {i} failed: {run.error}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("perfbench: no run passed its checks; no metrics", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer_metrics(untraced, traced)
    else:
        metrics = end_to_end_metrics(untraced)
    detail = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        "runs": [
            {
                "traced": r.traced,
                "error": r.error,
                **{k: (r.report or {}).get(k) for k in ("wall_s", "cpu_s", "ref_s", "setup_s", "peak_rss_mb")},
            }
            for r in runs
        ],
        "samples": len(untraced),
        "machine": machine_record(load_before),
    }
    print(json.dumps({"perfbench": detail}))
    failed = len(runs) - len(good)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
