"""Tests of the benchmark harness: span arithmetic, output checks, wrappers, smoke runs.

Run with ``python3 -m pytest -q perfbench/selftest.py`` from the repository
root (``src`` on ``PYTHONPATH``).  The file is not named ``test_*.py`` so
that the package's own test suite stays free of benchmark subprocesses.
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Spans with at least one call on each workload; every other span must have none.
EXPECTED_SPANS = {
    "cab_ring44_sample": {
        "cli.run",
        "cab.run_cab_experiment",
        "cab.execute_cab_run",
        "cab.build_cab_sequence",
        "tableau.compile_inverse_pauli",
        "backends.stab_run_counts",
        "device.apply_readout_noise",
        "backends.ShotCounts.from_outcomes",
        "cab.estimate_fidelity",
        "cab.subset_fidelity",
        "backends.ShotCounts.marginal_count_vector",
        "device.fwht",
        "device.DeviceModel.layer_twirl_channels",
        "device.DeviceModel.coherent_layer_components",
    },
    "fc_ring12_traverse": {
        "cli.run",
        "experiments.ring_device",
        "experiments.fully_connected_gate",
        "cab.run_cab_experiment",
        "cab.execute_cab_run",
        "cab.build_cab_sequence",
        "tableau.compile_inverse_pauli",
        "backends.stab_run_counts",
        "device.apply_readout_noise",
        "backends.ShotCounts.from_outcomes",
        "backends.ShotCounts.all_survivals",
        "device.fwht",
        "cab.estimate_fidelity",
        "device.DeviceModel.layer_twirl_channels",
        "device.DeviceModel.coherent_layer_components",
    },
    "optimize_6q_dm": {
        "cli.run",
        "calibration.optimize_parallel_cz",
        "device.DeviceModel.with_control_offsets",
        "cab.run_cab_experiment",
        "cab.execute_cab_run",
        "cab.build_cab_sequence",
        "tableau.compile_inverse_pauli",
        "backends.dm_run",
        "device.DeviceModel.coherent_layer_components",
        "backends.ShotCounts.from_probabilities",
        "backends.ShotCounts.all_survivals",
        "cab.estimate_fidelity",
        "cab.subset_fidelity",
        "backends.ShotCounts.marginal_count_vector",
        "device.fwht",
    },
    "order_stats_n4": {"cli.run", "experiments.gate_order_samples", "tableau.gate_order"},
}


def run_in_process(name: str, out_dir: Path, tracer=None) -> Path:
    from cabbench import cli

    cfg = cli.ExperimentConfig.from_dict(workloads.WORKLOADS[name].config_doc(1, out_dir, smoke=True))
    if tracer is not None:
        tracer.install()
    try:
        cli.run(cfg)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return out_dir


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> dict[str, Path]:
    root = tmp_path_factory.mktemp("outputs")
    return {name: run_in_process(name, root / name) for name in workloads.WORKLOADS}


def perturbed(src: Path, tmp_path: Path) -> Path:
    dst = tmp_path / src.name
    shutil.copytree(src, dst)
    return dst


def edit_json(path: Path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def edit_csv(path: Path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fields)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------


def test_self_time_on_toy_call_tree():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    leaf = tracer.wrap("leaf", lambda: None)

    def mid_body():
        leaf()
        leaf()

    mid = tracer.wrap("mid", mid_body)

    def root_body():
        mid()
        leaf()

    tracer.wrap("root", root_body)()
    # root [0, 9] holds mid [1, 6] (leaves [2, 3] and [4, 5]) and leaf [7, 8]
    summary = tracer.summary()
    assert summary["root"] == {"self_s": 3.0, "calls": 1}
    assert summary["mid"] == {"self_s": 3.0, "calls": 1}
    assert summary["leaf"] == {"self_s": 3.0, "calls": 3}
    assert set(tracing.SPANS) <= set(summary)


def test_span_closes_when_the_call_raises():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))

    def boom():
        raise ValueError("boom")

    outer = tracer.wrap("outer", lambda: pytest.raises(ValueError, tracer.wrap("inner", boom)))
    outer()
    assert tracer.summary()["outer"] == {"self_s": 2.0, "calls": 1}
    assert tracer.summary()["inner"] == {"self_s": 1.0, "calls": 1}


def test_uninstall_restores_every_patched_attribute():
    from cabbench import backends, cab, cli, device

    before = (cab.stab_run_counts, device.fwht, backends.ShotCounts.__dict__["from_outcomes"], cli.run)
    tracer = tracing.Tracer()
    tracer.install()
    assert isinstance(backends.ShotCounts.__dict__["from_outcomes"], staticmethod)
    assert cab.stab_run_counts is not before[0]
    tracer.uninstall()
    after = (cab.stab_run_counts, device.fwht, backends.ShotCounts.__dict__["from_outcomes"], cli.run)
    assert after == before


@pytest.mark.parametrize("name", sorted(EXPECTED_SPANS))
def test_wrapped_spans_see_calls_where_expected(name, tmp_path):
    tracer = tracing.Tracer()
    run_in_process(name, tmp_path / "out", tracer)
    called = {span for span, entry in tracer.summary().items() if entry["calls"]}
    assert called == EXPECTED_SPANS[name]


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def test_checks_accept_real_outputs(outputs):
    for name, out_dir in outputs.items():
        workloads.WORKLOADS[name].check(out_dir, 1)


def test_ring44_check_rejects_shifted_fidelity(outputs, tmp_path):
    out = perturbed(outputs["cab_ring44_sample"], tmp_path)

    def shift(doc):
        pure = doc["report"]["pure"]
        pure["value"] = workloads.ring44_pure_fidelity() + 6 * pure["se"]

    edit_json(out / "result.json", shift)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_ring44(out, 1)


@pytest.mark.parametrize("kind, key, value", [("twirl", "value", 1.2), ("dressed", "se", 0.0), ("dressed", "value", float("nan"))])
def test_fully_connected_check_rejects_bad_estimates(outputs, tmp_path, kind, key, value):
    out = perturbed(outputs["fc_ring12_traverse"], tmp_path)
    edit_json(out / "result.json", lambda doc: doc["report"][kind].__setitem__(key, value))
    with pytest.raises(workloads.CheckFailed):
        workloads.check_fully_connected(out, 1)


def test_optimize_check_rejects_shifted_reference(outputs, tmp_path):
    out = perturbed(outputs["optimize_6q_dm"], tmp_path)

    def shift(rows):
        exact = workloads.six_qubit_dressed_fidelity()
        rows[0]["ref_fidelity"] = repr(exact - 6 * float(rows[0]["ref_se"]))

    edit_csv(out / "trajectory.csv", shift)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_optimize(out, 1)


@pytest.mark.parametrize("change", [lambda k: 2 * k, lambda k: k + 1, lambda k: -1])
def test_order_check_rejects_wrong_orders(outputs, tmp_path, change):
    out = perturbed(outputs["order_stats_n4"], tmp_path)

    def edit(rows):
        rows[3]["order"] = str(change(int(rows[3]["order"])))

    edit_csv(out / "orders.csv", edit)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_order_stats(out, 1)


def test_order_check_uses_the_run_seed(outputs):
    with pytest.raises(workloads.CheckFailed):
        workloads.check_order_stats(outputs["order_stats_n4"], 2)


def test_determinism_check_catches_one_byte(outputs, tmp_path):
    wl = workloads.WORKLOADS["cab_ring44_sample"]
    first = perturbed(outputs["cab_ring44_sample"], tmp_path / "a")
    second = perturbed(outputs["cab_ring44_sample"], tmp_path / "b")
    data = bytearray((second / "survivals.csv").read_bytes())
    data[-2] = ord("0") if data[-2] != ord("0") else ord("1")
    (second / "survivals.csv").write_bytes(bytes(data))
    runs = [bench_run.Run(False, first, report={}), bench_run.Run(False, second, report={})]
    bench_run.judge(runs, wl, 1)
    assert runs[0].error is None
    assert "not deterministic" in runs[1].error


# ---------------------------------------------------------------------------
# the benchmark command
# ---------------------------------------------------------------------------


def bench(*args, cwd=HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_reports_every_declared_metric(name):
    assert name in {w["name"] for w in BENCHMARK["workloads"]}
    for trace, declared in ((0, BENCHMARK["end_to_end"]), (1, BENCHMARK["per_layer"])):
        proc = bench("--workload", name, "--seconds", "0", "--trace", str(trace), "--smoke")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "order_stats_n4", "--seconds", "0", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
