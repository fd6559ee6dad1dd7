import hashlib
import json
import math

import numpy as np
import pytest

from cabbench import cab, cli
from cabbench.cab import run_cab_experiment
from cabbench.cli import (
    ConfigError,
    ExperimentConfig,
    load_device,
    main,
    resolve_subsets,
    run,
)
from cabbench.experiments import gate_order_samples, ring_cz_patterns, ring_device, fully_connected_gate

from helpers import closes_to_identity, symplectic_ok


def small_cab_config(tmp_path, **over):
    doc = {
        "schema_version": 1,
        "kind": "cab",
        "device": "two_gate_4q",
        "seed": 5,
        "out_dir": str(tmp_path / "out"),
        "backend": "dm",
        "cab": {"depths": [0, 2], "k_r": 8, "k_s": 500, "mode": "traverse"},
        "subsets": "singles",
    }
    doc.update(over)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path


def test_example_devices_load():
    for name in ("two_gate_4q", "three_gate_6q", "ring_44q"):
        dev = load_device(name)
        assert dev.n_qubits in (4, 6, 44)


def test_config_roundtrip(tmp_path):
    path = small_cab_config(tmp_path)
    cfg = ExperimentConfig.load(path)
    doc = cfg.to_dict()
    cfg2 = ExperimentConfig.from_dict(doc)
    assert cfg2.to_dict() == doc


def test_config_rejects_bad_kind(tmp_path):
    path = small_cab_config(tmp_path, kind="nope")
    with pytest.raises(ConfigError):
        ExperimentConfig.load(path)


def test_config_error_reports_position(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{\n  'kind': }")
    with pytest.raises(ConfigError, match="line"):
        ExperimentConfig.load(path)


def test_resolve_subsets():
    assert resolve_subsets("singles", (0, 1)) == ((0,), (1,))
    assert resolve_subsets("singles+pairs", (0, 1)) == ((0,), (1,), (0, 1))
    assert resolve_subsets([[1, 0]], (0, 1)) == ((0, 1),)
    assert resolve_subsets("none", (0, 1)) == ()


def test_cab_run_writes_artifacts(tmp_path):
    path = small_cab_config(tmp_path)
    assert main(["cab", "--config", str(path)]) == 0
    out = tmp_path / "out"
    doc = json.loads((out / "result.json").read_text())
    assert doc["kind"] == "cab"
    assert 0.8 < doc["report"]["dressed"]["value"] <= 1.0
    assert (out / "lambdas.csv").exists()
    assert (out / "survivals.csv").exists()
    lam_lines = (out / "lambdas.csv").read_text().splitlines()
    assert lam_lines[0] == "kind,w_mask,lambda,se,flagged"
    assert len(lam_lines) == 1 + 2 * 16  # dressed + twirl, 2^4 observables each


def test_runs_are_byte_identical(tmp_path):
    p1 = small_cab_config(tmp_path, out_dir=str(tmp_path / "a"))
    run(ExperimentConfig.load(p1))
    p2 = small_cab_config(tmp_path, out_dir=str(tmp_path / "b"))
    run(ExperimentConfig.load(p2))
    for name in ("lambdas.csv", "survivals.csv"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b
    ra = json.loads((tmp_path / "a" / "result.json").read_text())
    rb = json.loads((tmp_path / "b" / "result.json").read_text())
    ra["config"]["out_dir"] = rb["config"]["out_dir"] = ""
    assert ra == rb


DETERMINISM_CONFIGS = {
    "cab": {
        "kind": "cab",
        "device": "two_gate_4q",
        "backend": "dm",
        "cab": {"depths": [0, 2], "k_r": 4, "k_s": 300, "mode": "traverse"},
        "subsets": "singles",
    },
    "cb": {
        "kind": "cb",
        "device": "two_gate_4q",
        "backend": "dm",
        "cab": {"k_r": 10, "k_s": 300},
        "cycles": [2, 4],
        "n_chars": 5,
    },
    # the 44-qubit stab sample path: sparse fault draws, readout thinning, parities
    "cab_ring44_stab": {
        "kind": "cab",
        "device": "ring_44q",
        "backend": "stab",
        "cab": {"depths": [0, 2], "k_r": 3, "k_s": 1000, "mode": "sample", "k_q": 20},
        "subsets": "singles",
    },
    # readout thinning with one rate group per distinct max(e0, e1): seven
    # groups, rate 0 among them, with e0 > e1 on some qubits and e1 > e0 on others
    "cab_8q_stab_readout_groups": {
        "kind": "cab",
        "device": {
            "n_qubits": 8,
            "gates": [{"pair": [2 * g, 2 * g + 1], "depol_p": 0.985} for g in range(4)],
            "couplings": [{"gates": [0, 1], "gamma": 0.05}, {"gates": [2, 3], "gamma": -0.03}],
            "readout": {
                "e0": [0.01, 0.03, 0.0, 0.05, 0.02, 0.1, 0.01, 0.0],
                "e1": [0.04, 0.01, 0.0, 0.05, 0.06, 0.02, 0.04, 0.02],
            },
            "single_qubit_depol": 0.997,
        },
        "backend": "stab",
        "cab": {"depths": [0, 2], "k_r": 3, "k_s": 2000, "mode": "sample", "k_q": 20},
        "subsets": "singles+pairs",
    },
    "fully_connected": {
        "kind": "fully_connected",
        "device": None,
        "n": 6,
        "backend": "stab",
        "cab": {"depths": [0, 2], "k_r": 3, "k_s": 300, "mode": "traverse"},
        "subsets": "none",
    },
    # 12 iterations: the best vertex is re-evaluated at the 10th evaluation
    "optimize_global": {
        "kind": "optimize",
        "device": "two_gate_4q",
        "backend": "dm",
        "cab": {"k_r": 4, "k_s": 200},
        "optimize": {"target": "global", "iterations": 12, "window": [0, 12]},
    },
    "correlate": {
        "kind": "correlate",
        "device": "two_gate_4q",
        "backend": "dm",
        "cab": {"depths": [0, 2], "k_r": 3, "k_s": 300, "mode": "traverse"},
        "repeat": 2,
    },
    "optimize_local": {
        "kind": "optimize",
        "device": "two_gate_4q",
        "backend": "dm",
        "cab": {"k_r": 4, "k_s": 200},
        "optimize": {"target": "local", "iterations": 12, "window": [0, 12]},
    },
    # the stab backend's weighted twirl groups: a coupled device, pairs marginalized
    "cab_6q_stab_pairs": {
        "kind": "cab",
        "device": "three_gate_6q",
        "backend": "stab",
        "cab": {"depths": [0, 2], "k_r": 3, "k_s": 300, "mode": "traverse"},
        "subsets": "singles+pairs",
    },
    "order_stats": {"kind": "order_stats", "n_list": [4, 6], "samples": 10},
    # calibrate writes exact dm probabilities, so a table shared between
    # runs and written into by the first would change the second's bytes
    "calibrate": {
        "kind": "calibrate",
        "device": "two_gate_4q",
        "gates": [0, 1],
        "calibrate": {"beta_points": 8, "phase_points": 16},
    },
}


def artifact_digests(out):
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.name == "result.json" or path.suffix == ".csv"
    }


@pytest.mark.parametrize("kind", sorted(DETERMINISM_CONFIGS))
def test_artifacts_are_byte_identical_across_runs(kind, tmp_path):
    doc = {**DETERMINISM_CONFIGS[kind], "seed": 21, "out_dir": str(tmp_path / kind)}
    first = artifact_digests(run(ExperimentConfig.from_dict(doc)))
    second = artifact_digests(run(ExperimentConfig.from_dict(doc)))
    assert "result.json" in first and len(first) >= 2
    assert first == second


# sha256 of the CSVs at seed 21, so that no change to how outcomes are
# sampled, stored, marginalized or written can move the bytes: the stab
# sample path (fault frame, readout thinning, parities, ``singles``
# marginals), its readout thinning over several rate groups with ``pairs``
# marginals, the stab traverse path with uniform and weighted fault groups,
# and the dm traverse path with subsets
PINNED_ARTIFACTS = {
    "cab_ring44_stab": {
        "lambdas.csv": "e39a6753db16fdb296287c83d476be4f972115882eabf03cac8f2117859a92ed",
        "survivals.csv": "2a4ef7a4712f338dcc9241d33a396f08cb66ee5b253ceb88b18388d15f9c28d1",
    },
    "cab_8q_stab_readout_groups": {
        "lambdas.csv": "a319debb622e874f49948703cde664cea3cdda8e83b5b58dc966485d061b5629",
        "survivals.csv": "2e4d410d52ad89a53425254d536a72fb52ce25e0f194fb37432552f59f4686a0",
    },
    "cab": {
        "lambdas.csv": "14a92ec3a1b9369a3b4cd5c8ee2a23009bcfcd0d5b57ff700107f69bbcc826d1",
        "survivals.csv": "e297ab465ed71bb9ed4dfdfd122f42e4ffaaaf7a0b851709e84bca5f850f044c",
    },
    "fully_connected": {
        "lambdas.csv": "42038aecc52eebe8cf2e056d131481b695e7cb10ee981f3e38b53b7b00dc018d",
        "survivals.csv": "664c9887819839399fd5b9cc192e7b99fd59e472a7401211aec5848b0c30e99d",
    },
    "cab_6q_stab_pairs": {
        "lambdas.csv": "bc60dfb6d3bb241d5cd2cc878f6d5228c6e6dc5e14451f582b082d48d88ea85f",
        "survivals.csv": "a3bac1915c71d772aed0efa4f4eae00a002aa15c06d6084cb868da433759bc1b",
    },
}


@pytest.mark.parametrize("kind", sorted(PINNED_ARTIFACTS))
def test_survivals_bytes_are_pinned(kind, tmp_path):
    doc = {**DETERMINISM_CONFIGS[kind], "seed": 21, "out_dir": str(tmp_path / kind)}
    digests = artifact_digests(run(ExperimentConfig.from_dict(doc)))
    assert {name: digests[name] for name in PINNED_ARTIFACTS[kind]} == PINNED_ARTIFACTS[kind]


@pytest.mark.parametrize("per_cz", [None, 0.97])
def test_parallel_cz_scan_theory_column(tmp_path, per_cz):
    doc = {
        "kind": "parallel_cz_scan",
        "device": "two_gate_4q",
        "backend": "dm",
        "seed": 3,
        "out_dir": str(tmp_path / "scan"),
        "cab": {"depths": [0, 2], "k_r": 3, "k_s": 200, "mode": "traverse"},
        "scan_counts": [1, 2],
    }
    if per_cz is not None:
        doc["per_cz_fidelity"] = per_cz
    text = (run(ExperimentConfig.from_dict(doc)) / "scan.csv").read_text()
    assert "nan" not in text.lower()
    rows = [line.split(",") for line in text.splitlines()]
    assert rows[0][-1] == "theory_power_law" and len(rows) == 3
    for r, row in zip((1, 2), rows[1:]):
        assert len(row) == len(rows[0])
        assert row[-1] == ("" if per_cz is None else repr(per_cz**r))


def test_cab_runs_never_import_numpy_ma(tmp_path):
    # np.unique without return_counts calls np.ma.is_masked, and importing
    # numpy.ma takes about 20 ms of a run; one dm and one stab run in a fresh
    # interpreter reach every set of distinct values the package takes
    import os
    import subprocess
    import sys
    from pathlib import Path

    script = f"""
import sys
from cabbench import cli
for i, (backend, mode) in enumerate((("dm", "traverse"), ("stab", "sample"))):
    doc = {{"kind": "cab", "device": "two_gate_4q", "seed": 5, "subsets": "singles", "backend": backend,
           "out_dir": {str(tmp_path)!r} + "/" + str(i),
           "cab": {{"depths": [0, 2], "k_r": 4, "k_s": 200, "mode": mode, "k_q": 10}}}}
    cli.run(cli.ExperimentConfig.from_dict(doc))
print("numpy.ma" in sys.modules)
"""
    src = Path(cli.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["False"]


def test_landscape_run(tmp_path):
    doc = {
        "kind": "landscape",
        "device": None,
        "out_dir": str(tmp_path / "ls"),
        "landscape": {"gamma12": [math.pi / 8], "points": 5},
    }
    path = tmp_path / "ls.json"
    path.write_text(json.dumps(doc))
    assert main(["landscape", "--config", str(path)]) == 0
    files = list((tmp_path / "ls").glob("landscape_g12_*.csv"))
    assert len(files) == 1
    lines = files[0].read_text().splitlines()
    assert lines[0] == "gamma13,gamma23,correlation"
    assert len(lines) == 1 + 25


def test_calibrate_run(tmp_path):
    doc = {
        "kind": "calibrate",
        "device": "two_gate_4q",
        "out_dir": str(tmp_path / "cal"),
        "gates": [0],
        "calibrate": {"beta_points": 16, "phase_points": 64},
    }
    path = tmp_path / "cal.json"
    path.write_text(json.dumps(doc))
    assert main(["calibrate", "--config", str(path)]) == 0
    res = json.loads((tmp_path / "cal" / "result.json").read_text())
    # the example device has a 0.02 conditional-phase offset on gate 0
    assert res["corrections"]["0"]["conditional_phase"] == pytest.approx(math.pi + 0.02, abs=1e-3)


def test_optimize_window_checked_before_running(tmp_path, capsys):
    path = small_cab_config(tmp_path, kind="optimize", optimize={"iterations": 2})
    assert main(["optimize", "--config", str(path)]) == 2
    assert "window" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trajectory.csv").exists()


@pytest.mark.parametrize(
    "kind, over",
    [
        ("cab", {"cab": {"depths": [0, 2], "k_r": 1, "k_s": 100, "mode": "traverse"}}),
        ("cab", {"subsets": [[7]]}),
        ("cb", {"cab": {"k_r": 5, "k_s": 100}, "cycles": [2, 4], "n_chars": 5}),
        ("cab", {"backend": "gpu"}),
        ("cb", {"cab": {"k_r": 10, "k_s": 100}, "cycles": [3, 5], "n_chars": 5}),
        ("optimize", {"optimize": {"target": "best", "iterations": 2, "window": [0, 2]}}),
        ("order_stats", {"n_list": [4, 5], "samples": 3}),
        ("order_stats", {"n_list": [2], "samples": 3}),
        ("order_stats", {"n_list": [4], "samples": 0}),
        ("order_stats", {"n_list": [4], "samples": 3, "cap": 0}),
        ("order_stats", {"n_list": [4.5, "6"], "samples": 3}),
        ("order_stats", {"n_list": [4.0], "samples": 3}),
        ("order_stats", {"n_list": [4, 6, 4], "samples": 3}),
        ("order_stats", {"n_list": 4, "samples": 3}),
        ("order_stats", {"n_list": [4], "samples": 2.5}),
        ("order_stats", {"n_list": [4], "samples": True}),
        ("order_stats", {"n_list": [4], "samples": 3, "cap": "100"}),
        ("order_stats", {"n_list": [True], "samples": 3}),
        ("fully_connected", {"device": None, "n": 7}),
        ("fully_connected", {"device": None, "n": 2}),
        # 3 gates on 6 qubits: too few for the ring's two brickwork layers
        ("fully_connected", {"device": "three_gate_6q", "backend": "stab"}),
        (
            "fully_connected",
            {"device": {"n_qubits": 4, "gates": [{"pair": p} for p in ([0, 1], [1, 2], [2, 3], [3, 0])]}},
        ),
        # counts and seeds are integers, never truncated
        ("cab", {"seed": 2.7}),
        ("cab", {"seed": True}),
        ("cab", {"cab": {"depths": [0, 2], "k_r": 8.5, "k_s": 500, "mode": "traverse"}}),
        ("cb", {"cab": {"k_r": 10, "k_s": 100}, "cycles": [2, 4], "n_chars": 5.0}),
        ("correlate", {"repeat": 2.5}),
        ("cab", {"cab": {"depths": [0, 2.5], "k_r": 8, "k_s": 500, "mode": "traverse"}}),
        ("cb", {"cab": {"k_r": 10, "k_s": 100}, "cycles": [4.0, 8], "n_chars": 5}),
        # subset gate indices and scan gate counts are integers in range
        ("cab", {"subsets": [[1.9]]}),
        ("cab", {"subsets": [[True]]}),
        ("cab", {"subsets": [1]}),
        ("parallel_cz_scan", {"scan_counts": [1.7, 2]}),
        ("parallel_cz_scan", {"scan_counts": [True]}),
        ("parallel_cz_scan", {"scan_counts": [0]}),
        ("parallel_cz_scan", {"scan_counts": [5]}),
        ("parallel_cz_scan", {"scan_counts": [1, 3]}),
        ("parallel_cz_scan", {"scan_counts": 2}),
    ],
    ids=[
        "k_r",
        "subsets",
        "cb_group",
        "backend",
        "cb_cycles",
        "optimize_target",
        "order_odd_n",
        "order_small_n",
        "order_samples",
        "order_cap",
        "order_float_n",
        "order_float_integral_n",
        "order_duplicate_n",
        "order_n_list_not_list",
        "order_float_samples",
        "order_bool_samples",
        "order_string_cap",
        "order_bool_n",
        "fc_odd_n",
        "fc_small_n",
        "fc_device_gates",
        "fc_device_overlap",
        "float_seed",
        "bool_seed",
        "float_k_r",
        "float_n_chars",
        "float_repeat",
        "float_depth",
        "float_cycles",
        "float_subset_gate",
        "bool_subset_gate",
        "subset_not_list",
        "float_scan_count",
        "bool_scan_count",
        "zero_scan_count",
        "scan_count_past_gates",
        "scan_count_after_valid",
        "scan_counts_not_list",
    ],
)
def test_pre_run_config_errors_exit_2(kind, over, tmp_path, capsys):
    path = small_cab_config(tmp_path, kind=kind, **over)
    assert main([kind, "--config", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not list((tmp_path / "out").glob("*.csv"))


@pytest.mark.parametrize(
    "backend, cab_over, subsets",
    [
        # subset 1's dressed run keeps only the identity unflagged
        ("dm", {"mode": "traverse"}, "singles"),
        # every sampled mask is flagged, which used to write NaN into result.json
        ("stab", {"mode": "sample", "k_q": 2}, "none"),
    ],
    ids=["dm_traverse_subset", "stab_sample"],
)
def test_degenerate_estimate_exits_1(backend, cab_over, subsets, tmp_path, capsys):
    cab_doc = {"depths": [0, 20], "k_r": 2, "k_s": 1, **cab_over}
    path = small_cab_config(tmp_path, backend=backend, seed=1, cab=cab_doc, subsets=subsets)
    assert main(["cab", "--config", str(path)]) == 1
    assert "error: DegenerateFitError" in capsys.readouterr().err
    assert not (tmp_path / "out" / "result.json").exists()


def test_correlate_runs_one_experiment_per_repeat(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kw):
        calls.append(args[2].seed)
        return run_cab_experiment(*args, **kw)

    # every import route to the experiment is counted
    monkeypatch.setattr(cab, "run_cab_experiment", counted)
    monkeypatch.setattr(cli, "run_cab_experiment", counted)
    path = small_cab_config(tmp_path, kind="correlate", repeat=3)
    assert main(["correlate", "--config", str(path)]) == 0
    assert calls == [5, 6, 7]
    doc = json.loads((tmp_path / "out" / "result.json").read_text())
    assert doc["fluctuation"]["repeat"] == 3


def test_cli_rejects_threads_flag(tmp_path):
    path = small_cab_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["cab", "--config", str(path), "--threads", "2"])
    assert exc.value.code == 2


def test_cli_kind_mismatch(tmp_path):
    path = small_cab_config(tmp_path)
    assert main(["cb", "--config", str(path)]) == 2


# -- fully connected gate structure -------------------------------------------


def test_ring_patterns_n4():
    a, b = ring_cz_patterns(4)
    assert a == [(0, 1), (2, 3)]
    assert b == [(1, 2), (3, 0)]


def test_ring_patterns_reject_odd():
    with pytest.raises(ValueError):
        ring_cz_patterns(5)


def test_fully_connected_block_is_clifford_and_invertible():
    rng = np.random.default_rng(2)
    dev = ring_device(6)
    block = fully_connected_gate(dev, (0, 1, 2), (3, 4, 5), rng)
    assert symplectic_ok(block.tableau)
    from cabbench.cab import CabConfig, build_cab_sequence

    seq = build_cab_sequence(block, 1, rng)
    assert closes_to_identity(seq, dev)


def test_order_medians_increase_with_n():
    rng = np.random.default_rng(7)
    medians = []
    for n in (4, 8):
        orders = gate_order_samples(n, 30, rng, cap=20_000)
        medians.append(np.median([o for o in orders if o is not None]))
    assert medians[1] > medians[0]


def _reject_constant(name):
    raise ValueError(f"bare {name} in result.json")


def test_order_stats_all_capped_median_is_null(tmp_path):
    # no 4-qubit fully connected gate of these draws has order <= 2
    path = small_cab_config(tmp_path, kind="order_stats", n_list=[4], samples=5, cap=2)
    assert main(["order_stats", "--config", str(path)]) == 0
    doc = json.loads((tmp_path / "out" / "result.json").read_text(), parse_constant=_reject_constant)
    assert doc["medians"] == {"4": None}
    rows = (tmp_path / "out" / "orders.csv").read_text().splitlines()[1:]
    assert [r.split(",")[2] for r in rows] == ["-1"] * 5


# orders.csv of n_list [4, 6, 8], 20 samples, seed 3, as written by the
# composition-loop gate_order that the GF(2) order replaced
PINNED_ORDERS = {
    4: [30, 36, 17, 20, 12, 24, 15, 12, 17, 18, 24, 14, 36, 12, 17, 10, 6, 18, 30, 12],
    6: [30, 30, 24, 48, 60, 66, 30, 40, 65, 40, 124, 14, 48, 12, 60, 140, 28, 6, 28, 90],
    8: [260, 306, 42, 204, 210, 18, 360, 28, 24, 36, 180, 86, 68, 120, 144, 24, 30, 60, 204, 30],
}


def test_order_stats_orders_are_pinned(tmp_path):
    path = small_cab_config(tmp_path, kind="order_stats", n_list=[4, 6, 8], samples=20, seed=3)
    assert main(["order_stats", "--config", str(path)]) == 0
    lines = (tmp_path / "out" / "orders.csv").read_text().splitlines()
    assert lines[0] == "n,sample,order"
    expected = [f"{n},{i},{o}" for n, orders in PINNED_ORDERS.items() for i, o in enumerate(orders)]
    assert lines[1:] == expected
    doc = json.loads((tmp_path / "out" / "result.json").read_text())
    assert doc["medians"] == {"4": 17.0, "6": 40.0, "8": 77.0}
