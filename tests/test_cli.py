import hashlib
import json
import math

import numpy as np
import pytest

from cabbench.cli import (
    ConfigError,
    ExperimentConfig,
    example_device_path,
    load_device,
    main,
    resolve_subsets,
    run,
)
from cabbench.experiments import gate_order_samples, ring_cz_patterns, ring_device, fully_connected_gate


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
    "optimize_local": {
        "kind": "optimize",
        "device": "two_gate_4q",
        "backend": "dm",
        "cab": {"k_r": 4, "k_s": 200},
        "optimize": {"target": "local", "iterations": 12, "window": [0, 12]},
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
    assert main(["optimize", "--config", str(path)]) == 1
    assert "window" in capsys.readouterr().err
    assert not (tmp_path / "out" / "trajectory.csv").exists()


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
    assert block.tableau.symplectic_ok()
    from cabbench.cab import CabConfig, build_cab_sequence

    seq = build_cab_sequence(block, 1, rng)
    assert seq.closes_to_identity(dev)


def test_order_medians_increase_with_n():
    rng = np.random.default_rng(7)
    medians = []
    for n in (4, 8):
        orders = gate_order_samples(n, 30, rng, cap=20_000)
        medians.append(np.median([o for o in orders if o is not None]))
    assert medians[1] > medians[0]
