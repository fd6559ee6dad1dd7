import contextlib
import copy
import hashlib
import io
import json
import math
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabbench import cli
from cabbench.cli import (
    ConfigError,
    ExperimentConfig,
    load_device,
    main,
    resolve_subsets,
    run,
)
from cabbench.experiments import gate_order_samples, ring_cz_patterns, ring_device, fully_connected_gate

from helpers import ODD_REGISTER_5Q, closes_to_identity, sequences_of, symplectic_ok, write_csv_rows


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


def two_gate_4q_with(path, value) -> dict:
    """The two_gate_4q document with the entry at ``path`` (keys and list
    indices) set to ``value``."""
    doc = json.loads(resources.files("cabbench.devices").joinpath("two_gate_4q.json").read_text())
    spot = doc
    for key in path[:-1]:
        spot = spot[key]
    spot[path[-1]] = value
    return doc


# two gates that share qubit 1, so never one parallel layer
OVERLAP_3Q = {"n_qubits": 3, "gates": [{"pair": [0, 1]}, {"pair": [1, 2]}]}
# an 8-qubit ring's two brickwork patterns: gates 0-3 are disjoint, gate 4 meets gate 0
RING_8Q = {"n_qubits": 8, "gates": [{"pair": [q, (q + 1) % 8]} for q in (0, 2, 4, 6, 1, 3, 5, 7)]}


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


def test_csv_blocks_of_columns_write_the_rows_bytes(tmp_path):
    # fixed leading fields, braces among them, then columns of ints, strings,
    # Python and float64 floats and empty fields; an empty block writes nothing
    floats = np.array([0.1, 1 / 3, 1e-300, -0.0, 2.5e16, np.inf])
    blocks = [
        (("dressed", 0), [list(range(6)), floats.tolist(), list(floats)]),
        (("{w}", "}{"), [["", "x", "{}", "{0}", "a,b", 7], [1, 2, 3, 4, 5, 6], [0.5] * 6]),
        ((np.float64(0.1), -3), [[], [], []]),
        ((), [range(2), ["t", "u"], [True, False], [None, 1.0], [1, 2]]),
    ]
    rows = [(*fixed, *row) for fixed, columns in blocks for row in zip(*columns)]
    header = ["a", "b", "c", "d", "e"]
    cli._write_csv(tmp_path / "blocks.csv", header, blocks)
    write_csv_rows(tmp_path / "rows.csv", header, rows)
    assert len(rows) == 14
    assert (tmp_path / "blocks.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def se_column(path) -> list[float]:
    header, *rows = path.read_text().splitlines()
    col = header.split(",").index("se")
    return [float(row.split(",")[col]) for row in rows]


def test_descending_depths_write_no_negative_se(tmp_path):
    # a two-depth fit divides by the depth step, negative here; a jackknife
    # SE is never negative
    path = small_cab_config(tmp_path, seed=3, cab={"depths": [2, 0], "k_r": 8, "k_s": 500, "mode": "traverse"})
    assert main(["cab", "--config", str(path)]) == 0
    cb = small_cab_config(
        tmp_path, kind="cb", seed=3, out_dir=str(tmp_path / "cb"), cab={"k_r": 10, "k_s": 500}, cycles=[20, 10], n_chars=5
    )
    assert main(["cb", "--config", str(cb)]) == 0
    for se in (se_column(tmp_path / "out" / "lambdas.csv"), se_column(tmp_path / "cb" / "characters.csv")):
        assert np.all(np.isfinite(se)) and min(se) >= 0.0
    assert len(se_column(tmp_path / "cb" / "characters.csv")) == 5


def test_two_sequences_at_three_depths_keep_their_value(tmp_path):
    # without sequence k one sequence is left, which has no spread: its fit
    # takes unit weights, with no warning, and the value is as before
    path = small_cab_config(tmp_path, cab={"depths": [0, 1, 2], "k_r": 2, "k_s": 500, "mode": "traverse"})
    assert main(["cab", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "result.json").read_text())["report"]
    assert report["dressed"]["value"] == float.fromhex("0x1.e4eb90ed89d5ep-1")
    assert report["pure"]["value"] == float.fromhex("0x1.e7ff391fd61a4p-1")


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
    # CB on the stab backend: each cycle count's sequences, of every
    # character, run as one stack
    "cb_6q_stab": {
        "kind": "cb",
        "device": "three_gate_6q",
        "backend": "stab",
        "cab": {"k_r": 10, "k_s": 300},
        "cycles": [2, 4],
        "n_chars": 5,
    },
    # ten characters: each cycle count's stack reads its parities across two
    # parity bytes, on 44 qubits (stab) and on 6 (dm)
    "cb_ring44_stab_10chars": {
        "kind": "cb",
        "device": "ring_44q",
        "backend": "stab",
        "cab": {"k_r": 20, "k_s": 300},
        "cycles": [2, 4],
        "n_chars": 10,
    },
    "cb_6q_dm_10chars": {
        "kind": "cb",
        "device": "three_gate_6q",
        "backend": "dm",
        "cab": {"k_r": 20, "k_s": 300},
        "cycles": [2, 4],
        "n_chars": 10,
    },
    # the 44-qubit stab sample path: sparse fault draws, readout thinning, parities
    "cab_ring44_stab": {
        "kind": "cab",
        "device": "ring_44q",
        "backend": "stab",
        "cab": {"depths": [0, 2], "k_r": 3, "k_s": 1000, "mode": "sample", "k_q": 20},
        "subsets": "singles",
    },
    # explicit subsets on 44 qubits, codes of six bytes: gates [0, 1], [2, 3]
    # and [20, 21] and the single lie in one code byte, [1, 2], [5, 6] and
    # [0, 5] straddle a byte boundary
    "cab_ring44_subsets": {
        "kind": "cab",
        "device": "ring_44q",
        "backend": "stab",
        "cab": {"depths": [0, 2], "k_r": 3, "k_s": 1000, "mode": "sample", "k_q": 20},
        "subsets": [[0, 1], [1, 2], [2, 3], [0, 5], [20, 21], [5, 6], [7]],
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
    # an odd register: one (2, n) Pauli draw at a time gives another stream
    # than one draw of all 2m Paulis when 2n is not a multiple of 4
    "cab_5q_dm": {
        "kind": "cab",
        "device": ODD_REGISTER_5Q,
        "backend": "dm",
        "cab": {"depths": [0, 2], "k_r": 4, "k_s": 300, "mode": "traverse"},
        "subsets": "singles",
    },
    "cab_5q_stab": {
        "kind": "cab",
        "device": ODD_REGISTER_5Q,
        "backend": "stab",
        "cab": {"depths": [0, 2], "k_r": 3, "k_s": 1000, "mode": "sample", "k_q": 20},
        "subsets": "singles+pairs",
    },
    "cb_5q": {
        "kind": "cb",
        "device": ODD_REGISTER_5Q,
        "backend": "dm",
        "cab": {"k_r": 10, "k_s": 300},
        "cycles": [2, 4],
        "n_chars": 5,
    },
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


# sha256 of every CSV and result.json at seed 21, written to a relative
# out_dir so that result.json's echo of it is fixed, so that no change to how
# outcomes are sampled, stored, marginalized, fitted, correlated or written
# can move the bytes.  Every digest was written while each fitted mask was
# still an object of its own; the result.json, scan.csv and correlation.csv
# digests of runs with a pure SE were written again, with every value the
# same, when each SE came from one jackknife; the lambdas.csv and
# characters.csv digests were written again, with only their se column
# changed, when each mask's lambda SE became the jackknife of its
# delete-one fits.  The landscape and scan pins
# are not in DETERMINISM_CONFIGS: the scan reuses stream keys across its
# points by design
PINNED_CONFIGS = {
    **DETERMINISM_CONFIGS,
    "landscape": {"kind": "landscape", "device": None, "landscape": {"points": 5}},
    "parallel_cz_scan": {
        "kind": "parallel_cz_scan",
        "device": "two_gate_4q",
        "backend": "dm",
        "cab": {"depths": [0, 2], "k_r": 3, "k_s": 300, "mode": "traverse"},
        "scan_counts": [1, 2],
        "per_cz_fidelity": 0.97,
    },
    # local mode on three gates, two of them named out of order: one simplex
    # per gate reads its own rows of the parameter layout
    "optimize_local_6q": {
        "kind": "optimize",
        "device": "three_gate_6q",
        "backend": "dm",
        "gates": [2, 0],
        "cab": {"k_r": 4, "k_s": 200},
        "optimize": {"target": "local", "iterations": 3, "window": [1, 3]},
    },
}
PINNED_ARTIFACTS = {
    "cab": {
        "lambdas.csv": "b71dcf3f761276bc006beafc4f85f4978b509e4486d89cbe0a4297706eb4b611",
        "result.json": "e7e6da108452ecff7e15715dad093cb1fc62467858eae9e00374f8f854d200b1",
        "survivals.csv": "e297ab465ed71bb9ed4dfdfd122f42e4ffaaaf7a0b851709e84bca5f850f044c",
    },
    "cab_5q_dm": {
        "lambdas.csv": "0fe6ce1282a34abf98672b59553e13b1b3d2d85371fe34683fd30f9c91774f4c",
        "result.json": "ee6f0016deb4c74a78d932cd7d20cbb8498a5f49d146106302b2d80d7efe697b",
        "survivals.csv": "0945454616cb0a3f51d6fbc45f89e964633c5b6b129879fe1b4cf989822ecb23",
    },
    "cab_5q_stab": {
        "lambdas.csv": "f7dc2ca0b1eb7519d85229baaa75f3555eb5c8b66637687ab09d257fe42c062b",
        "result.json": "a8deaf13a46200072e5e3a0786d8a252bddf8e74e0a921953bbb5e563c845faa",
        "survivals.csv": "be258fc33926fcc9135e656ec9cc63d897138274ae6d5823d106af14587fe054",
    },
    "cab_6q_stab_pairs": {
        "lambdas.csv": "36140bd14b748b85d2a18715b582c1f9ca82b8a06a2b55661675e26bb882ab15",
        "result.json": "6d16f08c8470fb8391c5a50f6370408409f6d293ba2ac747bedcf50b0ce3ae04",
        "survivals.csv": "a3bac1915c71d772aed0efa4f4eae00a002aa15c06d6084cb868da433759bc1b",
    },
    "cab_8q_stab_readout_groups": {
        "lambdas.csv": "cd1bb94eecbbaba51ed0087ff891ca11544a43f6ce2b60be9537ea1d60f949ce",
        "result.json": "81893417dd96de728b1b9a8a705ae4d5022f540fb0f43e2c0414725616f88ede",
        "survivals.csv": "2e4d410d52ad89a53425254d536a72fb52ce25e0f194fb37432552f59f4686a0",
    },
    "cab_ring44_stab": {
        "lambdas.csv": "c79ce9677023ccdeed4b994472f73e50bda0379fd9b16b1963da873696824539",
        "result.json": "8568db6b3cbb85655ccc56aa70855ea1993d2e68d385a6a4c5d6a92cc62c02a2",
        "survivals.csv": "2a4ef7a4712f338dcc9241d33a396f08cb66ee5b253ceb88b18388d15f9c28d1",
    },
    "cab_ring44_subsets": {
        "lambdas.csv": "c79ce9677023ccdeed4b994472f73e50bda0379fd9b16b1963da873696824539",
        "result.json": "a04ddac8299db6ac3bffbeb89dd27f9d4dbd9a0f58539b9b97a8c1740dfd24c0",
        "survivals.csv": "2a4ef7a4712f338dcc9241d33a396f08cb66ee5b253ceb88b18388d15f9c28d1",
    },
    "calibrate": {
        "corrections.csv": "0e01962d8b40cf3b382aafafa8461c5f31ae01256b92ac7ea89a5f61ba93657d",
        "result.json": "c820e61fe7bc7d67ef652e6952659f94a60a958ba3a7bc60ae575e2dada1ba8f",
    },
    "cb": {
        "characters.csv": "9b328e161d20cf87c7daf514855e919e5c9026088960cdce06c58bde5f2085c8",
        "result.json": "6257776835b53e3275cba7121f6e5498f25160671afb825a219c4e7b73c3e0c2",
    },
    "cb_5q": {
        "characters.csv": "63519ee59ce296a06af9299fec9129ec0cf40d3c9acf9fcf63abdc3ace117901",
        "result.json": "fbb3e4eb52fac5dca19b05912271bd2d6d03f4355610ba436b223eef0521cb69",
    },
    "cb_6q_stab": {
        "characters.csv": "dba9ff7cd57a7b47181443d2dec52653f3b87004cbd36d14c22a0b2f8613974e",
        "result.json": "8e683230bc925709186ed44a861b500168318de9249bad3d7b2564db6a120de5",
    },
    "cb_6q_dm_10chars": {
        "characters.csv": "2b789c07d9f5a5e339d060955c8ace443c39681d822084cc79f965b0078ceec6",
        "result.json": "635d09fea7a8bf2271c58fae5c27d2c8a60067b30b8ee21afb368061daf505b5",
    },
    "cb_ring44_stab_10chars": {
        "characters.csv": "21545d83e456551286064c0248350a0966ac5bf4e865a54ae1905376820bec8e",
        "result.json": "7e790075c21d823f8d1604c00a570e215cc5bbf1500cfa0454a58bdf1c54c2bc",
    },
    "correlate": {
        "correlation.csv": "71ec5d679079cb0a2787471b49aa63aebe59d305d6f91c5acecd8e73f3434470",
        "result.json": "3ebff6f0ca327400f9147b50254bdad7075e9a904d8b0c922e16d71d3b00da2e",
    },
    "fully_connected": {
        "lambdas.csv": "65d96b6f2598c78dcd5c3b9fc72d5d9752ba367afd771a0e0cc81c6acaaa43b1",
        "result.json": "008043daf0afa7b72a660dc1a3d7d4577f3b2983b24df33ec1a328b08a514dcc",
        "survivals.csv": "664c9887819839399fd5b9cc192e7b99fd59e472a7401211aec5848b0c30e99d",
    },
    "landscape": {
        "landscape_g12_0.000000.csv": "e6335a7c840cc11d3f9f12d6d54794f41439a44e07a8646011b0c1275bae3eac",
        "landscape_g12_0.098175.csv": "e4ac5879ce6a165db5a72935a148adec061e8be1ca11f1e628ab018ea284fa22",
        "landscape_g12_0.196350.csv": "9a210c3792e9fda73994732d457a7cb59864f8c7462705f21e9140c524ec4637",
        "landscape_g12_0.294524.csv": "a7c9f49eef69b723819b0d8cb9c02d3f08e17b6416dd0bdf1fa2bd9d2f0b10c3",
        "landscape_g12_0.392699.csv": "a7383414920feae98f98fa9d0a9f31f11c0ba623746e83d4d563120fe43a1917",
        "landscape_g12_0.490874.csv": "8f5d0d98b3d6f96de03fc7c448d284647d073d2d3adc05933d551aeb8b747d33",
        "result.json": "174d76ec89070f1ad5bbc8ad72e77a24249291702c680c37348cf91c8a2cf152",
    },
    "optimize_global": {
        "result.json": "eb0f4786580908eb5200a1c3d3e4363cb5e1f01e1fee8bd3914dbbb0acb2ede8",
        "trajectory.csv": "d9ec5a8934ae405349c914b5f42341f478f148a96394d2fbfdad5c72e48dd5b8",
    },
    "optimize_local": {
        "result.json": "7d21687c15127c9438938fe91638fc65d744f6125f1c2499be4fbd274f60e688",
        "trajectory.csv": "a7d05ff1743d530c6b4bcba0c069a622d57b9e5ad080d9835ec6097b85b48d56",
    },
    "optimize_local_6q": {
        "result.json": "a0f359b52a2725e8b043d80c8a1268199e8951999eec33b61ceffa71bfd22044",
        "trajectory.csv": "b28a8ba48b599d009d63a7204d7ddf2f9fff191caddfba86e3f10c310cb51998",
    },
    "order_stats": {
        "orders.csv": "ff1083a5e9e2b3e7c91f614f6116aa5567e4468163ac7998785b478c930ffe20",
        "result.json": "feac79ed9f2788790d8bb7735dacf0319fe3c64a329e7b05f7e73502e59f0919",
    },
    "parallel_cz_scan": {
        "result.json": "72c31a5c4fb9ededf75bd0878b5858a2c3b6a71b8c372cfb6afc4a097c299665",
        "scan.csv": "2cc57ac025f776ad8c3f5c0e101afc7d78ac06b1a02b658aa3dce4c383345ef2",
    },
}


@pytest.mark.parametrize("kind", sorted(PINNED_ARTIFACTS))
def test_survivals_bytes_are_pinned(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = {**PINNED_CONFIGS[kind], "seed": 21, "out_dir": kind}
    assert artifact_digests(run(ExperimentConfig.from_dict(doc))) == PINNED_ARTIFACTS[kind]


@pytest.mark.parametrize("kind", sorted(DETERMINISM_CONFIGS))
def test_stream_keys_never_repeat(kind, tmp_path, monkeypatch):
    # every draw of a run comes from default_rng(key) with a key of its own
    # (the table in the cab module docstring)
    keys = []
    default_rng = np.random.default_rng

    def recording(seed=None):
        keys.append(None if seed is None else tuple(np.atleast_1d(seed).tolist()))
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", recording)
    run(ExperimentConfig.from_dict({**DETERMINISM_CONFIGS[kind], "seed": 21, "out_dir": str(tmp_path / kind)}))
    assert None not in keys
    assert len(set(keys)) == len(keys)


@pytest.mark.parametrize("per_cz", [None, 0.97, 1])
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


def test_integer_for_a_number_field_runs_as_a_float(tmp_path):
    doc = {
        "kind": "landscape",
        "device": None,
        "out_dir": str(tmp_path / "ls"),
        "landscape": {"gamma12": [1], "points": 2, "max": 1},
    }
    out = run(ExperimentConfig.from_dict(doc))
    assert json.loads((out / "result.json").read_text())["gamma12_values"] == [1.0]
    assert '"gamma12_values": [\n  1.0\n ]' in (out / "result.json").read_text()
    assert (out / "landscape_g12_1.000000.csv").read_text().splitlines()[-1].startswith("1.0,1.0,")


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


def test_calibrate_takes_gates_that_share_a_qubit(tmp_path):
    # calibrate runs one gate at a time, so no parallel layer is refused
    spec = {"beta_points": 8, "phase_points": 16}
    path = small_cab_config(tmp_path, kind="calibrate", device=OVERLAP_3Q, calibrate=spec)
    assert main(["calibrate", "--config", str(path)]) == 0
    assert sorted(json.loads((tmp_path / "out" / "result.json").read_text())["corrections"]) == ["0", "1"]


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
        # a device fixes the register and its noise: the ring's fields are
        # refused beside it, where before they were echoed and ignored
        (
            "fully_connected",
            {
                "device": {"n_qubits": 4, "gates": [{"pair": p} for p in ([0, 1], [2, 3], [1, 2], [3, 0])]},
                "n": 7,
                "gate_depol": 5.0,
                "readout_e0": -1,
            },
        ),
        (
            "fully_connected",
            {
                "device": {"n_qubits": 4, "gates": [{"pair": p} for p in ([0, 1], [2, 3], [1, 2], [3, 0])]},
                "single_qubit_depol": 0.99,
            },
        ),
        # counts and seeds are integers, never truncated
        ("cab", {"seed": 2.7}),
        ("cab", {"seed": True}),
        ("cab", {"cab": {"depths": [0, 2], "k_r": 8.5, "k_s": 500, "mode": "traverse"}}),
        ("cb", {"cab": {"k_r": 10, "k_s": 100}, "cycles": [2, 4], "n_chars": 5.0}),
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
        # domain errors that used to surface mid-run with exit 1, or not at all
        ("cb", {"cab": {"k_r": 10, "k_s": 100}, "cycles": [2, 4], "n_chars": 0}),
        ("optimize", {"optimize": {"iterations": 2, "window": [0, 2, 5]}}),
        ("landscape", {"landscape": {"points": 1}}),
        ("calibrate", {"calibrate": {"beta_points": 8, "phase_points": 0}}),
        ("calibrate", {"calibrate": {"beta_points": 4, "phase_points": 16}}),
        # the reruns are retired: correlation.csv carries a one-run SE
        ("correlate", {"repeat": 10}),
        # an empty list ran nothing and exited 0 with a header-only CSV, or none
        ("order_stats", {"n_list": []}),
        ("parallel_cz_scan", {"scan_counts": []}),
        ("landscape", {"landscape": {"gamma12": []}}),
        # out-of-range values that exited 1 mid-run, or 0
        ("correlate", {"gates": [0]}),
        ("cab", {"seed": -1}),
        ("fully_connected", {"device": None, "gate_depol": 1.5}),
        ("parallel_cz_scan", {"per_cz_fidelity": 0}),
        ("optimize", {"optimize": {"iterations": 2, "window": [0, 2], "initial_step": 0}}),
        ("optimize", {"optimize": {"iterations": 2, "window": [0, 2], "x_tol": -1}}),
        # the cab section is checked also by kinds that do not read it
        ("calibrate", {"cab": {"kr": 3}}),
        # and so are gates and subsets
        ("landscape", {"gates": [7], "subsets": "bogus"}),
        ("landscape", {"gates": [1.5]}),
        ("order_stats", {"gates": "x"}),
        ("parallel_cz_scan", {"gates": [0, True]}),
        ("correlate", {"subsets": "bogus"}),
        ("calibrate", {"subsets": [[0], 1]}),
        # a device that cannot be built: a TypeError, KeyError, IndexError or ValueError, exit 1
        ("cab", {"device": None}),
        ("cab", {"device": {"n_qubits": 4}}),
        ("cab", {"device": {"n_qubits": 4, "gates": [{"pair": [0]}]}}),
        ("cab", {"device": {"n_qubits": 4, "gates": [{"pair": [0, 1], "depol_p": 1.5}]}}),
        # no gates to run: cab benchmarked an empty block (exit 0), optimize
        # failed on an empty array (exit 1), the scan wrote a header-only CSV
        ("cab", {"device": {"n_qubits": 4, "gates": []}}),
        ("optimize", {"device": {"n_qubits": 4, "gates": []}, "optimize": {"iterations": 2, "window": [0, 2]}}),
        ("parallel_cz_scan", {"device": {"n_qubits": 2, "gates": [{"pair": [0, 1]}]}}),
        # device documents that were read with a key ignored or a value cast
        # (exit 0), or that failed mid-run (exit 1)
        ("cab", {"device": two_gate_4q_with(("couplngs",), [{"gates": [0, 1], "gamma": 0.3}])}),
        ("cab", {"device": two_gate_4q_with(("readout", "e2"), 0.01)}),
        ("cab", {"device": two_gate_4q_with(("gates", 0, "depol"), 0.9)}),
        ("cab", {"device": two_gate_4q_with(("gates", 0, "control", "cond"), 0.1)}),
        ("cab", {"device": two_gate_4q_with(("couplings", 0, "strength"), 0.1)}),
        ("cab", {"device": two_gate_4q_with(("gates", 0, "pair"), [0, 1, 2])}),
        ("cab", {"device": two_gate_4q_with(("gates", 0, "pair"), [0, 1.9])}),
        ("cab", {"device": two_gate_4q_with(("n_qubits",), 4.7)}),
        ("cab", {"device": two_gate_4q_with(("pauli_layer_noise",), "false")}),
        # the retired switch, at its old default: read and obeyed (exit 0)
        ("cab", {"device": two_gate_4q_with(("pauli_layer_noise",), True)}),
        ("cab", {"device": two_gate_4q_with(("schema_version",), 7)}),
        ("cab", {"device": two_gate_4q_with(("gates", 0, "control", "cond_phase"), "0.02")}),
        ("cab", {"device": two_gate_4q_with(("gates", 1, "coupling_comp"), "0.0")}),
        ("cab", {"device": two_gate_4q_with(("couplings", 0, "gates"), [0, 5])}),
        ("cab", {"device": two_gate_4q_with(("layout_edges",), [[0, 9]])}),
        # a device reference that is not a string reached open(): 0 read stdin
        ("cab", {"device": 0}),
        ("cab", {"device": True}),
        ("cab", {"out_dir": None}),
        # an empty subset failed its fit after both runs (exit 1); a repeated
        # gate ran as subset 0+0 and a repeated subset ran once (exit 0)
        ("cab", {"subsets": [[]]}),
        ("cab", {"subsets": [[0, 0]]}),
        ("cab", {"subsets": [[0], [0]]}),
        # 5 gates on 10 qubits: refused by subset_fidelity after both runs (exit 1)
        (
            "cab",
            {
                "device": "ring_44q",
                "backend": "stab",
                "cab": {"depths": [0, 2], "k_r": 2, "k_s": 100, "mode": "sample", "k_q": 10},
                "subsets": [[0, 1, 2, 3, 4]],
            },
        ),
        # one sampled observable: exit 0 with the observable-sampling SE dropped
        ("cab", {"cab": {"mode": "sample", "k_r": 4, "k_s": 500, "k_q": 1}}),
        # CB cycles under CAB's depth rule: one depth ran every sequence, then
        # failed its fit (exit 1); a negative one failed in numpy (exit 1)
        ("cb", {"cab": {"k_r": 10, "k_s": 100}, "cycles": [4, 4], "n_chars": 5}),
        ("cb", {"cab": {"k_r": 10, "k_s": 100}, "cycles": [-2, 4], "n_chars": 5}),
        # a repeated count ran twice into two scan.csv rows and one result entry (exit 0)
        ("parallel_cz_scan", {"scan_counts": [2, 2]}),
        # JSON's NaN and Infinity (and 1e400) parse to floats: each failed
        # mid-run (exit 1), and an infinite x_tol ran (exit 0)
        ("landscape", {"landscape": {"gamma12": [math.inf]}}),
        ("landscape", {"landscape": {"max": math.nan}}),
        ("optimize", {"optimize": {"iterations": 2, "window": [0, 2], "initial_step": math.inf}}),
        ("optimize", {"optimize": {"iterations": 2, "window": [0, 2], "x_tol": math.inf}}),
        # an integer past the float range failed to convert (exit 1)
        ("optimize", {"optimize": {"iterations": 2, "window": [0, 2], "x_tol": 10**400}}),
        # a negative grid size failed in numpy's linspace (exit 1)
        ("landscape", {"landscape": {"points": -1}}),
        ("calibrate", {"calibrate": {"beta_points": -1, "phase_points": 16}}),
        ("calibrate", {"calibrate": {"beta_points": 8, "phase_points": -1}}),
        # gates that share a qubit failed to build their layer (exit 1); the
        # scan ran its first point, on gates 0-1, before it failed on 0-5
        ("cab", {"device": OVERLAP_3Q}),
        ("cb", {"device": OVERLAP_3Q, "cab": {"k_r": 10, "k_s": 100}, "cycles": [2, 4], "n_chars": 5}),
        ("correlate", {"device": OVERLAP_3Q}),
        ("optimize", {"device": OVERLAP_3Q, "optimize": {"iterations": 2, "window": [0, 2]}}),
        ("parallel_cz_scan", {"device": OVERLAP_3Q}),
        ("parallel_cz_scan", {"device": RING_8Q, "backend": "stab", "scan_counts": [2, 6]}),
        # a bool among a rate list's numbers ran as 0 or 1, and a bool or a
        # float schema_version passed as 1 (exit 0)
        ("cab", {"device": two_gate_4q_with(("readout", "e0"), [True, 0.02, 0.02, 0.02])}),
        ("cab", {"device": two_gate_4q_with(("single_qubit_depol",), [0.9968, False, 0.9968, 0.9968])}),
        ("cab", {"device": two_gate_4q_with(("schema_version",), True)}),
        ("cab", {"device": two_gate_4q_with(("schema_version",), 1.0)}),
        ("cab", {"schema_version": True}),
        ("cab", {"schema_version": 1.0}),
        # two values that format to one file name: the second grid overwrote
        # the first, and result.json listed the name twice (exit 0)
        ("landscape", {"landscape": {"gamma12": [0.1, 0.1000001]}}),
        # a list that repeats an entry ran it twice (exit 0): survivals.csv
        # held two blocks of depth 2
        ("cab", {"cab": {"depths": [0, 2, 2], "k_r": 8, "k_s": 500, "mode": "traverse"}}),
        ("cb", {"cab": {"k_r": 10, "k_s": 100}, "cycles": [2, 2, 4], "n_chars": 5}),
        ("landscape", {"landscape": {"gamma12": [0.1, 0.1]}}),
        # a kind that builds no benchmark held the cab section and backend to
        # their JSON types only, ran and echoed the bad value (exit 0)
        ("landscape", {"backend": "x"}),
        ("landscape", {"cab": {"k_r": 1}}),
        ("calibrate", {"cab": {"mode": "x"}}),
        ("order_stats", {"cab": {"k_s": 0}}),
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
        "fc_device_ring_fields",
        "fc_device_single_qubit_depol",
        "float_seed",
        "bool_seed",
        "float_k_r",
        "float_n_chars",
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
        "zero_n_chars",
        "three_entry_window",
        "one_landscape_point",
        "zero_phase_points",
        "four_beta_points",
        "leftover_repeat",
        "empty_n_list",
        "empty_scan_counts",
        "empty_gamma12",
        "correlate_one_gate",
        "negative_seed",
        "fc_gate_depol_above_1",
        "zero_per_cz_fidelity",
        "zero_initial_step",
        "negative_x_tol",
        "calibrate_cab_unknown_key",
        "landscape_bad_subsets",
        "landscape_float_gate",
        "order_stats_gates_not_list",
        "scan_bool_gate",
        "correlate_bad_subsets",
        "calibrate_subset_not_list",
        "no_device",
        "device_without_gates_field",
        "device_one_qubit_pair",
        "device_depol_above_1",
        "cab_device_without_gates",
        "optimize_device_without_gates",
        "scan_one_gate_default_counts",
        "device_unknown_key",
        "device_unknown_readout_key",
        "device_unknown_gate_key",
        "device_unknown_control_key",
        "device_unknown_coupling_key",
        "device_three_qubit_pair",
        "device_float_pair",
        "device_float_n_qubits",
        "device_string_pauli_layer_noise",
        "device_retired_pauli_layer_noise",
        "device_schema_version_7",
        "device_string_control",
        "device_string_coupling_comp",
        "device_coupling_past_gates",
        "device_layout_edge_past_qubits",
        "device_integer_reference",
        "device_bool_reference",
        "out_dir_null",
        "empty_subset",
        "subset_repeated_gate",
        "repeated_subset",
        "subset_past_traverse_limit",
        "sample_one_observable",
        "cb_repeated_cycles",
        "cb_negative_cycles",
        "scan_repeated_count",
        "infinite_gamma12",
        "nan_landscape_max",
        "infinite_initial_step",
        "infinite_x_tol",
        "huge_integer_x_tol",
        "negative_landscape_points",
        "negative_beta_points",
        "negative_phase_points",
        "cab_overlapping_gates",
        "cb_overlapping_gates",
        "correlate_overlapping_gates",
        "optimize_overlapping_gates",
        "scan_overlapping_gates",
        "scan_overlap_past_first_point",
        "device_bool_in_readout_list",
        "device_bool_in_single_qubit_depol_list",
        "device_bool_schema_version",
        "device_float_schema_version",
        "bool_schema_version",
        "float_schema_version",
        "landscape_file_name_collision",
        "repeated_depth",
        "cb_repeated_cycle_among_three",
        "repeated_gamma12",
        "landscape_unknown_backend",
        "landscape_one_sequence",
        "calibrate_unknown_mode",
        "order_stats_zero_shots",
    ],
)
def test_pre_run_config_errors_exit_2(kind, over, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a relative out_dir, such as "None", would land here
    path = small_cab_config(tmp_path, kind=kind, **over)
    assert main([kind, "--config", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize(
    "text",
    [b'{"kind": "cab", "seed": 1' + b"0" * 5000 + b"}", b'{"kind": "cab", "seed": 1\xff}'],
    ids=["integer_past_digit_limit", "not_utf8"],
)
def test_unreadable_config_text_exits_2(text, tmp_path, capsys):
    # json.load raised a ValueError that is not a JSONDecodeError (exit 1)
    path = tmp_path / "config.json"
    path.write_bytes(text)
    assert main(["cab", "--config", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize(
    "doc",
    [None, [1, 2], 3, "x", [["kind", "order_stats"], ["n_list", [4]], ["samples", 3]]],
    ids=["null", "list", "number", "string", "key_value_pairs"],
)
def test_config_that_is_not_an_object_exits_2(doc, tmp_path, capsys, monkeypatch):
    # null, a list, a number and a string failed with a TypeError or a
    # ValueError (exit 1); a list of [key, value] pairs was read as an object
    # and ran, into the default out_dir (exit 0)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(doc))
    assert main(["order_stats", "--config", "config.json"]) == 2
    assert "config error: a config must be a JSON object" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("kind", cli.EXPERIMENT_KINDS)
@pytest.mark.parametrize("over", [{"cab": {"k_r": 1}}, {"backend": "x"}], ids=["one_sequence", "unknown_backend"])
def test_every_kind_checks_the_cab_section_as_cab_config_does(kind, over):
    # before, only the kinds that build a benchmark held these values to
    # CabConfig's checks, and only after their device loaded
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"kind": kind, **over}).settings()


def test_flags_write_what_the_same_config_fields_write(tmp_path, monkeypatch):
    # the flags replace the config's seed, out_dir and backend before it is
    # checked and run, so the artifacts match a config that holds their values
    digests = []
    for name, over, flags in [
        ("flags", {"seed": 2, "out_dir": "other", "backend": "stab"}, ["--seed", "5", "--out", "D", "--backend", "dm"]),
        ("fields", {"seed": 5, "out_dir": "D", "backend": "dm"}, []),
    ]:
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        path = small_cab_config(tmp_path / name, **over)
        assert main(["cab", "--config", str(path), *flags]) == 0
        digests.append(artifact_digests(Path("D")))
    assert digests[0] == digests[1]
    assert set(digests[0]) == {"result.json", "lambdas.csv", "survivals.csv"}


@pytest.mark.parametrize("kind", ["cab", "cb", "correlate", "optimize", "calibrate"])
@pytest.mark.parametrize(
    "gates",
    [[-1], [2], [0, 0], [True], [1.0], "0", 0, []],
    ids=["negative", "past_last", "repeated", "bool", "float", "string", "not_list", "empty"],
)
def test_bad_gates_exit_2(kind, gates, tmp_path, capsys):
    # before, -1 ran the last gate, true ran gate 1, [] ran an empty block
    # (optimize failed with an IndexError), and the others failed with an
    # IndexError or a TypeError (exit 1), or ran gate 0 twice
    path = small_cab_config(tmp_path, kind=kind, gates=gates, **GATES_RUN_OVER)
    assert main([kind, "--config", str(path)]) == 2
    assert "config error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# small settings under which each kind runs with valid gates
GATES_RUN_OVER = {"cycles": [2, 4], "n_chars": 4, "optimize": {"iterations": 2, "window": [0, 2]}}


def test_negative_seed_flag_exits_2(tmp_path, capsys):
    path = small_cab_config(tmp_path)
    assert main(["cab", "--config", str(path), "--seed", "-1"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["cab", "cb", "correlate", "optimize", "calibrate"])
def test_named_gate_runs(kind, tmp_path):
    # correlate needs two gates: both, named in reverse order
    gates = [1, 0] if kind == "correlate" else [1]
    path = small_cab_config(tmp_path, kind=kind, gates=gates, **GATES_RUN_OVER)
    assert main([kind, "--config", str(path)]) == 0


# -- the exit-code contract under one-field mutations ---------------------------

# one small config per kind, each of which runs in well under a second
TINY_TRAVERSE = {"depths": [0, 2], "k_r": 3, "k_s": 100, "mode": "traverse"}
SMALL_CONFIGS = {
    "cab": {"device": "two_gate_4q", "backend": "dm", "cab": TINY_TRAVERSE},
    "cb": {"device": "two_gate_4q", "backend": "dm", "cab": {"k_r": 4, "k_s": 100}, "cycles": [2, 4], "n_chars": 2},
    "fully_connected": {
        "device": None,
        "n": 4,
        "backend": "stab",
        "cab": TINY_TRAVERSE,
        "subsets": "none",
    },
    "parallel_cz_scan": {
        "device": "two_gate_4q",
        "backend": "dm",
        "cab": TINY_TRAVERSE,
        "scan_counts": [1, 2],
        "per_cz_fidelity": 0.97,
    },
    "correlate": {"device": "two_gate_4q", "backend": "dm", "cab": TINY_TRAVERSE},
    "landscape": {"device": None, "landscape": {"gamma12": [0.0, 0.1], "points": 3}},
    "optimize": {
        "device": "two_gate_4q",
        "backend": "dm",
        "cab": {"k_r": 3, "k_s": 100},
        "optimize": {"iterations": 2, "window": [0, 2]},
    },
    "calibrate": {"device": "two_gate_4q", "gates": [0], "calibrate": {"beta_points": 8, "phase_points": 16}},
    "order_stats": {"n_list": [4], "samples": 3},
}
MUTATION_VALUES = (-1, 0, 1, 2, 1.5, -0.5, math.nan, math.inf, -math.inf, True, "x", None, [], {})


def _defaults(kind) -> dict:
    """The default of every field a config of ``kind`` may set: the common
    ones, the kind's FIELDS and the cab section's."""
    common = {"seed": 0, "out_dir": "results", "backend": "auto", "device": None, "gates": None, "subsets": "singles"}
    return {**common, **cli.FIELDS[kind], "cab": cli.CAB_FIELDS}


def _lookup(doc, keys, default):
    for key in keys:
        if not isinstance(doc, dict) or key not in doc:
            return default
        doc = doc[key]
    return doc


def _field_paths(kind):
    """The path (keys, then a list index) of every field of ``kind``, and of
    each entry of a list that the small config or the default holds."""
    for key, default in _defaults(kind).items():
        section = default.items() if isinstance(default, dict) else [(None, default)]
        for path, d in (((key,) if name is None else (key, name), d) for name, d in section):
            yield path
            value = _lookup(SMALL_CONFIGS[kind], path, d)
            if isinstance(value, (list, tuple)):
                yield from (path + (i,) for i in range(len(value)))


def config_mutations():
    """Every (kind, path, value): one field or list entry of a small config
    replaced by one of MUTATION_VALUES."""
    return [(kind, path, v) for kind in SMALL_CONFIGS for path in _field_paths(kind) for v in MUTATION_VALUES]


def mutated_config(kind, path, value) -> dict:
    doc = copy.deepcopy({"kind": kind, "seed": 5, "out_dir": "out", **SMALL_CONFIGS[kind]})
    *keys, last = path
    if isinstance(last, int):  # a list entry: the list as given, or its default, with that entry replaced
        entries = list(_lookup(doc, keys, _lookup(_defaults(kind), keys, None)))
        entries[last] = value
        *keys, last = keys
        value = entries
    spot = doc
    for key in keys:
        spot = spot.setdefault(key, {})
    spot[last] = value
    return doc


def run_mutated(kind, doc) -> tuple[int, list[str], list[str], str]:
    """Exit code of the config's run in a fresh directory, the names left in
    it, the CSVs written there with a header line only, and stderr."""
    with (
        tempfile.TemporaryDirectory() as tmp,
        contextlib.chdir(tmp),
        contextlib.redirect_stderr(io.StringIO()) as err,
    ):
        Path("config.json").write_text(json.dumps(doc))
        code = main([kind, "--config", "config.json"])
        left = sorted(p.name for p in Path(".").iterdir())
        header_only = [str(p) for p in Path(".").rglob("*.csv") if len(p.read_text().splitlines()) < 2]
    return code, left, header_only, err.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(config_mutations()))
def test_one_field_mutations_exit_0_or_2(mutation):
    # a config either runs and writes no empty table, or is refused before
    # any file is written; it never fails mid-run (exit 1)
    kind, path, value = mutation
    code, left, header_only, _ = run_mutated(kind, mutated_config(kind, path, value))
    assert code in (0, 2)
    if code == 2:
        assert left == ["config.json"]
    else:
        assert header_only == []


def test_every_one_field_mutation_is_settled_by_settings():
    # all of config_mutations(), not the property test's sample, and no run:
    # settings() returns or refuses with a ConfigError, never another error
    others = []
    for mutation in config_mutations():
        try:
            ExperimentConfig.from_dict(mutated_config(*mutation)).settings()
        except ConfigError:
            pass
        except Exception as err:
            others.append((mutation, repr(err)))
    assert others == []


# -- each bound of cli.BOUNDS at its edge ---------------------------------------

BELOW_0, ABOVE_1 = -math.ulp(0.0), math.nextafter(1.0, 2.0)


@pytest.mark.parametrize(
    "kind, over, refused",
    [
        ("fully_connected", {"n": 4}, None),
        ("fully_connected", {"n": 2}, "n"),
        ("fully_connected", {"n": 5}, "n"),
        ("order_stats", {"n_list": [4]}, None),
        ("order_stats", {"n_list": [2]}, "n_list entry"),
        ("order_stats", {"n_list": [5]}, "n_list entry"),
        ("order_stats", {"samples": 1}, None),
        ("order_stats", {"samples": 0}, "samples"),
        ("order_stats", {"cap": 1}, None),
        ("order_stats", {"cap": 0}, "cap"),
        ("optimize", {"optimize": {"x_tol": 0.0}}, None),
        ("optimize", {"optimize": {"x_tol": BELOW_0}}, "optimize.x_tol"),
        ("optimize", {"optimize": {"initial_step": math.ulp(0.0)}}, None),
        ("optimize", {"optimize": {"initial_step": 0.0}}, "optimize.initial_step"),
        ("fully_connected", {"gate_depol": 0.0}, None),
        ("fully_connected", {"gate_depol": 1.0}, None),
        ("fully_connected", {"gate_depol": BELOW_0}, "gate_depol"),
        ("fully_connected", {"gate_depol": ABOVE_1}, "gate_depol"),
        ("fully_connected", {"single_qubit_depol": 0.0}, None),
        ("fully_connected", {"single_qubit_depol": 1.0}, None),
        ("fully_connected", {"single_qubit_depol": BELOW_0}, "single_qubit_depol"),
        ("fully_connected", {"single_qubit_depol": ABOVE_1}, "single_qubit_depol"),
        ("fully_connected", {"readout_e0": 0.0}, None),
        ("fully_connected", {"readout_e0": 1.0}, None),
        ("fully_connected", {"readout_e0": BELOW_0}, "readout_e0"),
        ("fully_connected", {"readout_e0": ABOVE_1}, "readout_e0"),
        ("fully_connected", {"readout_e1": 0.0}, None),
        ("fully_connected", {"readout_e1": 1.0}, None),
        ("fully_connected", {"readout_e1": BELOW_0}, "readout_e1"),
        ("fully_connected", {"readout_e1": ABOVE_1}, "readout_e1"),
        # the rule every integer keeps
        ("cab", {"seed": 0}, None),
        ("cab", {"seed": -1}, "seed"),
        ("calibrate", {"calibrate": {"beta_points": 0}}, None),
        ("calibrate", {"calibrate": {"beta_points": -1}}, "calibrate.beta_points"),
    ],
)
def test_bound_edge_is_accepted_and_the_next_value_refused(kind, over, refused):
    doc = {"kind": kind, **over}
    if refused is None:
        ExperimentConfig.from_dict(doc).settings()
    else:
        with pytest.raises(ConfigError, match=f"^{refused} must be "):
            ExperimentConfig.from_dict(doc).settings()


@pytest.mark.parametrize(
    "over, code",
    [
        ({"scan_counts": [1]}, 0),
        ({"scan_counts": [0]}, 2),
        ({"per_cz_fidelity": 1.0}, 0),
        ({"per_cz_fidelity": ABOVE_1}, 2),
        ({"per_cz_fidelity": math.ulp(0.0)}, 0),
        ({"per_cz_fidelity": 0.0}, 2),
    ],
)
def test_scan_bound_edge_is_accepted_and_the_next_value_refused(over, code, tmp_path, capsys):
    # these defaults are None, derived by the runner, so settings() passes any value
    doc = {**SMALL_CONFIGS["parallel_cz_scan"], "scan_counts": [1], **over}
    path = small_cab_config(tmp_path, kind="parallel_cz_scan", **doc)
    assert main(["parallel_cz_scan", "--config", str(path)]) == code
    if code == 2:
        assert next(iter(over)) in capsys.readouterr().err


def test_every_bound_names_a_checked_field(tmp_path, monkeypatch):
    # a misspelt BOUNDS key would name no field and drop its bound silently
    names = set()
    checked = cli._checked

    def recording(value, default, name):
        names.add(name)
        return checked(value, default, name)

    monkeypatch.setattr(cli, "_checked", recording)
    for kind in cli.EXPERIMENT_KINDS:
        ExperimentConfig.from_dict({"kind": kind}).settings()
    path = small_cab_config(tmp_path, kind="parallel_cz_scan", **SMALL_CONFIGS["parallel_cz_scan"])
    assert main(["parallel_cz_scan", "--config", str(path)]) == 0
    assert set(cli.BOUNDS) - names == set()


# -- the same contract under one-field mutations of a device document ----------

DEVICE_DOC = json.loads(resources.files("cabbench.devices").joinpath("two_gate_4q.json").read_text())
# the small config of every kind that takes a device, and cab's on the stab
# backend; fully_connected's small config builds its own ring instead
DEVICE_CONFIGS = {
    **{kind: (kind, doc) for kind, doc in SMALL_CONFIGS.items() if doc.get("device") is not None},
    "cab_stab": ("cab", {**SMALL_CONFIGS["cab"], "backend": "stab"}),
}
# a valid device may leave no signal to fit at these budgets: a gate or a
# qubit depolarized to 0, say, or a readout that flips every shot
DEVICE_RUN_ERRORS = ("DegenerateFitError", "NoSignalError")


def _document_paths(doc, path=()):
    """The path (keys and list indices) of every field and list entry of
    ``doc``, at every depth."""
    for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _document_paths(value, path + (key,))


def device_mutations():
    """Every (config name, path, value): one field or list entry of the
    two_gate_4q document replaced by one of MUTATION_VALUES."""
    paths = list(_document_paths(DEVICE_DOC))
    return [(name, path, v) for name in DEVICE_CONFIGS for path in paths for v in MUTATION_VALUES]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(device_mutations()))
def test_one_device_field_mutations_exit_0_or_2(mutation):
    # as for the config's own fields, but a run may end on a named
    # run-time error of a device that leaves nothing to fit
    name, path, value = mutation
    kind, small = DEVICE_CONFIGS[name]
    doc = {"kind": kind, "seed": 5, "out_dir": "out", **small, "device": two_gate_4q_with(path, value)}
    code, left, header_only, err = run_mutated(kind, doc)
    assert code in (0, 2) or err.startswith(tuple(f"error: {e}:" for e in DEVICE_RUN_ERRORS)), err
    if code == 2:
        assert left == ["config.json"]
    elif code == 0:
        assert header_only == []


def test_every_device_document_mutation_loads_or_is_refused():
    # each of the documents behind device_mutations(), without a run:
    # load_device builds it or refuses it with a ConfigError, never another error
    docs = [two_gate_4q_with(path, v) for path in _document_paths(DEVICE_DOC) for v in MUTATION_VALUES]
    assert len(docs) * len(DEVICE_CONFIGS) == len(device_mutations())
    loaded, others = 0, []
    for doc in docs:
        try:
            load_device(doc)
            loaded += 1
        except ConfigError:
            pass
        except Exception as err:
            others.append((doc, repr(err)))
    assert others == []
    assert 0 < loaded < len(docs)


def test_fully_connected_runs_at_a_tiny_readout_rate(tmp_path):
    # the readout group's rate is max(e0, e1) = 1e-20: the geometric gaps once
    # overflowed their cumsum and the run exited 1 with an IndexError
    cab = {"depths": [0, 2], "k_r": 3, "k_s": 1000, "mode": "traverse"}
    path = small_cab_config(
        tmp_path, kind="fully_connected", device=None, n=4, readout_e0=1e-20, readout_e1=0.0, backend="stab", cab=cab
    )
    assert main(["fully_connected", "--config", str(path)]) == 0
    assert (tmp_path / "out" / "result.json").exists()


def _table_fields():
    """(kind, section, field, default) for every field of cli.FIELDS and the cab section."""
    for kind, table in cli.FIELDS.items():
        for key, default in table.items():
            if isinstance(default, dict):
                yield from ((kind, key, field, d) for field, d in default.items())
            else:
                yield kind, None, key, default
    yield from (("cab", "cab", field, d) for field, d in cli.CAB_FIELDS.items())


def _wrong_type(field, default):
    """A value of another JSON type than the field's."""
    if default is None:  # derived by the runner
        return {"scan_counts": 2, "per_cz_fidelity": "0.97"}[field]
    if isinstance(default, bool):
        return "false"
    if isinstance(default, (int, float)):
        return str(default)
    if isinstance(default, str):
        return 1
    return default[0]  # a bare entry for a list


@pytest.mark.parametrize(
    "kind, section, field, default",
    list(_table_fields()),
    ids=[f"{kind}-{section + '.' if section else ''}{field}" for kind, section, field, _ in _table_fields()],
)
def test_every_field_is_type_checked(kind, section, field, default, tmp_path, capsys):
    value = _wrong_type(field, default)
    over = {section: {field: value}} if section else {field: value}
    path = small_cab_config(tmp_path, kind=kind, **over)
    assert main([kind, "--config", str(path)]) == 2
    name = f"{section}.{field}" if section else field
    assert f"config error: {name} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "kind, section, key, valid",
    [
        ("cab", "cab", "kr", "k_r"),
        ("optimize", "optimize", "initial_stp", "initial_step"),
        ("landscape", "landscape", "point", "points"),
        ("calibrate", "calibrate", "beta_point", "beta_points"),
    ],
)
def test_unknown_section_key_exits_2(kind, section, key, valid, tmp_path, capsys):
    # before, each ran with the key's default and echoed the misspelled key
    path = small_cab_config(tmp_path, kind=kind, **{section: {key: 3}})
    assert main([kind, "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {section} has no field {key!r}" in err and valid in err
    assert not (tmp_path / "out").exists()


def test_unread_top_level_key_is_echoed(tmp_path):
    # every benchmark config carries "threads": 1, which nothing reads; a
    # top-level key outside the table is echoed and otherwise ignored
    path = small_cab_config(tmp_path, threads=1)
    assert main(["cab", "--config", str(path)]) == 0
    assert json.loads((tmp_path / "out" / "result.json").read_text())["config"]["threads"] == 1


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


def test_correlate_refuses_a_leftover_repeat(tmp_path, capsys):
    path = small_cab_config(tmp_path, kind="correlate", repeat=3)
    assert main(["correlate", "--config", str(path)]) == 2
    assert "correlation.csv now carries a one-run SE" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_correlate_takes_fidelities_above_one(tmp_path):
    # at this tiny budget a pure fidelity exceeds 1 by sampling noise; the
    # correlation needs only positive fidelities, so the run completes
    path = small_cab_config(
        tmp_path, kind="correlate", seed=1, cab={"depths": [0, 2], "k_r": 3, "k_s": 50, "mode": "traverse"}
    )
    assert main(["correlate", "--config", str(path)]) == 0
    doc = json.loads((tmp_path / "out" / "result.json").read_text())
    assert max(sub["pure"]["value"] for sub in doc["report"]["subsets"].values()) > 1.0


def test_correlation_csv_carries_each_correlations_se_and_lower_bound(tmp_path):
    path = small_cab_config(tmp_path, kind="correlate", device="three_gate_6q")
    assert main(["correlate", "--config", str(path)]) == 0
    out = tmp_path / "out"
    doc = json.loads((out / "result.json").read_text())
    lines = (out / "correlation.csv").read_text().splitlines()
    assert lines[0] == "gate_a,gate_b,distance,correlation,se,lower_bound"
    rows = [line.split(",") for line in lines[1:]]
    assert [[int(r[0]), int(r[1])] for r in rows] == doc["pairs"] == [[0, 1], [0, 2], [1, 2]]
    assert [float(r[3]) for r in rows] == doc["correlations"]
    assert [float(r[4]) for r in rows] == doc["correlation_ses"]
    assert [float(r[5]) for r in rows] == doc["lower_bounds"]
    for c, se, bound in zip(doc["correlations"], doc["correlation_ses"], doc["lower_bounds"]):
        assert math.isfinite(se) and se > 0
        assert bound == max(abs(c) - 3 * se, 0.0)
    assert "fluctuation" not in doc and not (out / "fluctuation.csv").exists()


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
    from cabbench.cab import build_cab_sequence

    (seq,) = sequences_of(build_cab_sequence(block, 1, [rng]))
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
