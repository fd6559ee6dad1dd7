"""Command-line front end: configured, seeded, reproducible experiments.

Every experiment kind reads one JSON configuration document, runs fully
deterministically for a given (config, seed) pair, and writes a
self-describing result document plus flat CSV files into the output
directory.  Numeric output uses full-precision decimal repr, so identical
runs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import (
    LANDSCAPE_GAMMA12_VALUES,
    correlation_fluctuation,
    correlation_landscape,
    correlation_matrix,
)
from .cab import CabConfig, CabReport, ConfigError, run_cab_experiment, run_cb_experiment
from .calibration import (
    NelderMeadOptions,
    calibrate_dynamic_phase,
    measure_conditional_phase,
    optimize_parallel_cz,
)
from .circuits import GateBlock
from .device import DeviceModel
from .experiments import fully_connected_gate, gate_order_samples, ring_device

SCHEMA_VERSION = 1
EXPERIMENT_KINDS = (
    "cab",
    "cb",
    "fully_connected",
    "parallel_cz_scan",
    "correlate",
    "landscape",
    "optimize",
    "calibrate",
    "order_stats",
)
EXAMPLE_DEVICES = ("two_gate_4q", "three_gate_6q", "ring_44q")


def load_device(ref) -> DeviceModel:
    """Device from an inline dict, an example name, or a file path."""
    if isinstance(ref, dict):
        return DeviceModel.from_dict(ref)
    if ref in EXAMPLE_DEVICES:
        text = resources.files("cabbench.devices").joinpath(f"{ref}.json").read_text()
        return DeviceModel.from_dict(json.loads(text))
    path = Path(ref)
    if not path.exists():
        raise ConfigError(f"device '{ref}' is neither an example name nor a file")
    return DeviceModel.load(path)


@dataclass
class ExperimentConfig:
    """Parsed experiment configuration."""

    kind: str
    device: dict | str | None
    seed: int = 0
    out_dir: str = "results"
    backend: str = "auto"
    cab: dict = field(default_factory=dict)
    gates: list[int] | None = None
    subsets: str | list = "singles"
    extra: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        doc = dict(doc)
        if doc.get("schema_version", SCHEMA_VERSION) != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {doc.get('schema_version')}")
        kind = doc.pop("kind", None)
        if kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"field 'kind' must be one of {EXPERIMENT_KINDS}, got {kind!r}")
        doc.pop("schema_version", None)
        known = {
            "device": doc.pop("device", None),
            "seed": _int_field(doc.pop("seed", 0), "seed"),
            "out_dir": str(doc.pop("out_dir", "results")),
            "backend": str(doc.pop("backend", "auto")),
            "cab": doc.pop("cab", {}),
            "gates": doc.pop("gates", None),
            "subsets": doc.pop("subsets", "singles"),
        }
        return ExperimentConfig(kind=kind, extra=doc, **known)

    @staticmethod
    def load(path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: line {err.lineno}, column {err.colno}: {err.msg}") from err
        return ExperimentConfig.from_dict(doc)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "device": self.device,
            "seed": self.seed,
            "out_dir": self.out_dir,
            "backend": self.backend,
            "cab": self.cab,
            "gates": self.gates,
            "subsets": self.subsets,
            **self.extra,
        }

    def cab_config(self, gates: tuple[int, ...], **defaults) -> CabConfig:
        """The run settings of the ``cab`` section.  A key the section leaves
        out takes the caller's ``defaults``, then the global default."""
        cab = {"depths": (0, 2), "k_r": 50, "k_s": 20_000, "mode": "sample", "k_q": 100, **defaults, **self.cab}
        return CabConfig(
            depths=_int_list(cab["depths"], "cab.depths"),
            k_r=_int_field(cab["k_r"], "cab.k_r"),
            k_s=_int_field(cab["k_s"], "cab.k_s"),
            mode=str(cab["mode"]),
            k_q=_int_field(cab["k_q"], "cab.k_q"),
            seed=self.seed,
            subsets=resolve_subsets(self.subsets, gates),
            backend=self.backend,
        )


def resolve_subsets(spec, gates: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    if spec in (None, "none"):
        return ()
    if spec == "singles":
        return tuple((g,) for g in gates)
    if spec == "singles+pairs":
        singles = [(g,) for g in gates]
        pairs = [(a, b) for i, a in enumerate(gates) for b in gates[i + 1 :]]
        return tuple(singles + pairs)
    if isinstance(spec, (list, tuple)) and all(isinstance(s, (list, tuple)) for s in spec):
        return tuple(tuple(sorted(_int_field(g, "subsets entry") for g in s)) for s in spec)
    raise ConfigError(f"bad subsets spec {spec!r}")


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _write_json(path: Path, doc: dict):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True, default=_json_default)
        fh.write("\n")


def _json_default(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)!r}")


def _write_csv(path: Path, header: list[str], rows):
    """Rows of ints, strings and Python or float64 floats, one format string
    per file: format(v, "") of a float is its shortest round-trip repr."""
    line = ",".join(["{}"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line.format(*row) for row in rows)


def _report_doc(rep: CabReport) -> dict:
    return {
        "block": rep.block_name,
        "n": rep.n,
        "dressed": rep.dressed.to_dict(),
        "twirl": rep.twirl.to_dict(),
        "pure": rep.pure.to_dict(),
        "subsets": {
            "+".join(str(g) for g in key): {
                "qubits": list(res.qubits),
                "dressed": res.dressed.to_dict(),
                "twirl": res.twirl.to_dict(),
                "pure": res.pure.to_dict(),
            }
            for key, res in rep.subsets.items()
        },
        "metadata": rep.metadata,
    }


def _fit_rows(est) -> list[tuple]:
    """An estimate's fits as (w_mask, lambda, se, flagged) rows of Python
    values, flagged as 0 or 1."""
    q = est.quality_params
    return list(zip(q["w_mask"].tolist(), q["lam"].tolist(), q["se"].tolist(), q["flagged"].astype(int).tolist()))


def _write_cab_artifacts(out: Path, rep: CabReport):
    _write_csv(
        out / "lambdas.csv",
        ["kind", "w_mask", "lambda", "se", "flagged"],
        [(kind, *row) for kind, est in (("dressed", rep.dressed), ("twirl", rep.twirl)) for row in _fit_rows(est)],
    )
    rows = []
    for data in (rep.dressed_data, rep.twirl_data):
        if data is not None:
            masks = data.masks.tolist()
            for m, means, ses in zip(data.depths, data.depth_means().tolist(), data.depth_ses().tolist()):
                rows += [(data.kind, m, w, a, s) for w, a, s in zip(masks, means, ses)]
    _write_csv(out / "survivals.csv", ["kind", "depth", "w_mask", "mean", "se"], rows)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _target(cfg: ExperimentConfig) -> tuple[DeviceModel, tuple[int, ...]]:
    """The config's device and the gates it names, all of them by default."""
    device = load_device(cfg.device)
    if cfg.gates is None:
        return device, tuple(range(len(device.gates)))
    gates = _int_list(cfg.gates, "gates")
    if len(set(gates)) != len(gates) or not all(0 <= g < len(device.gates) for g in gates):
        raise ConfigError(f"gates must be distinct indices in [0, {len(device.gates)}), got {list(gates)}")
    return device, gates


def _run_cab(cfg: ExperimentConfig, out: Path) -> dict:
    device, gates = _target(cfg)
    cab_cfg = cfg.cab_config(gates)
    block = GateBlock.parallel_cz(device, gates)
    rep = run_cab_experiment(device, block, cab_cfg)
    _write_cab_artifacts(out, rep)
    return {"report": _report_doc(rep)}


def _run_cb(cfg: ExperimentConfig, out: Path) -> dict:
    device, gates = _target(cfg)
    cab_cfg = cfg.cab_config(gates)
    block = GateBlock.parallel_cz(device, gates)
    cycles = _int_list(cfg.extra.get("cycles", (10, 20)), "cycles")
    n_chars = _int_field(cfg.extra.get("n_chars", 5), "n_chars")
    est = run_cb_experiment(device, block, cab_cfg, cycles=cycles, n_chars=n_chars)
    _write_csv(
        out / "characters.csv",
        ["w_mask", "lambda", "se", "flagged"],
        _fit_rows(est),
    )
    return {"cb": est.to_dict()}


def _run_fully_connected(cfg: ExperimentConfig, out: Path) -> dict:
    n = _int_field(cfg.extra.get("n", 16), "n")
    if cfg.device is not None:
        device = load_device(cfg.device)
        n = device.n_qubits
    else:
        if n % 2 or n < 4:
            raise ConfigError(f"fully_connected n must be even and >= 4, got {n}")
        device = ring_device(
            n,
            gate_depol=float(cfg.extra.get("gate_depol", 0.9780266666666667)),
            single_qubit_depol=float(cfg.extra.get("single_qubit_depol", 0.9968)),
            readout_e0=float(cfg.extra.get("readout_e0", 0.0103)),
            readout_e1=float(cfg.extra.get("readout_e1", 0.0382)),
        )
    n_half = n // 2
    if len(device.gates) < n:
        raise ConfigError(f"fully_connected needs {n} gates, the device has {len(device.gates)}")
    for half in (range(n_half), range(n_half, n)):
        try:
            device.check_layer_disjoint(tuple(half))
        except ValueError as err:
            raise ConfigError(f"fully_connected gates {list(half)}: {err}") from err
    cab_cfg = cfg.cab_config(tuple(range(n)))
    rng = np.random.default_rng([cfg.seed, 3])
    block = fully_connected_gate(device, tuple(range(n_half)), tuple(range(n_half, n)), rng)
    rep = run_cab_experiment(device, block, cab_cfg, measure_twirl=bool(cfg.extra.get("measure_twirl", False)))
    _write_cab_artifacts(out, rep)
    return {"report": _report_doc(rep)}


def _run_parallel_cz_scan(cfg: ExperimentConfig, out: Path) -> dict:
    device = load_device(cfg.device)
    counts = cfg.extra.get("scan_counts")
    if counts is None:
        counts = list(range(2, len(device.gates) + 1, 2))
    if not isinstance(counts, list):
        raise ConfigError(f"scan_counts must be a list of gate counts, got {counts!r}")
    for r in counts:
        if not 1 <= _int_field(r, "scan_counts entry") <= len(device.gates):
            raise ConfigError(f"scan_counts entries must lie in [1, {len(device.gates)}], got {r}")
    per_cz = cfg.extra.get("per_cz_fidelity")
    rows = []
    results = {}
    twirl_data = None  # every point's twirl run is the same identity run on the whole register
    for r in counts:
        gates = tuple(range(r))
        cab_cfg = cfg.cab_config(gates).replace(subsets=())
        block = GateBlock.parallel_cz(device, gates)
        rep = run_cab_experiment(device, block, cab_cfg, twirl_data=twirl_data)
        twirl_data = rep.twirl_data
        theory = per_cz**r if per_cz else ""  # no theory value: an empty field
        rows.append(
            (
                r,
                2 * r,
                rep.dressed.value,
                rep.dressed.se,
                rep.twirl.value,
                rep.twirl.se,
                rep.pure.value,
                rep.pure.se,
                theory,
            )
        )
        results[str(r)] = _report_doc(rep)
    _write_csv(
        out / "scan.csv",
        [
            "n_gates",
            "n_qubits",
            "dressed",
            "dressed_se",
            "twirl",
            "twirl_se",
            "pure",
            "pure_se",
            "theory_power_law",
        ],
        rows,
    )
    return {"scan": results}


def _run_correlate(cfg: ExperimentConfig, out: Path) -> dict:
    device, gates = _target(cfg)
    cfg.subsets = "singles+pairs"
    cab_cfg = cfg.cab_config(gates)
    repeat = _int_field(cfg.extra.get("repeat", 0), "repeat")
    block = GateBlock.parallel_cz(device, gates)
    rep = run_cab_experiment(device, block, cab_cfg)
    matrix = correlation_matrix(rep, device)
    _write_csv(
        out / "correlation.csv",
        ["gate_a", "gate_b", "distance", "correlation"],
        [
            (a, b, d, c)
            for (a, b), d, c in zip(matrix.subsets, matrix.distances, matrix.values)
        ],
    )
    doc = {"report": _report_doc(rep), "pairs": [list(s) for s in matrix.subsets], "correlations": matrix.values}
    if repeat >= 2:
        reruns = [
            run_cab_experiment(device, block, cab_cfg.replace(seed=cab_cfg.seed + r))
            for r in range(1, repeat)
        ]
        fluct = correlation_fluctuation([rep, *reruns], matrix.subsets)
        _write_csv(
            out / "fluctuation.csv",
            ["gate_a", "gate_b", "mean", "sd", "lower_bound"],
            [
                (s[0], s[1], m, sd, lb)
                for s, (m, sd), lb in zip(fluct.subsets, fluct.fluctuation, fluct.lower_bounds)
            ],
        )
        doc["fluctuation"] = {
            "repeat": repeat,
            "pairs": [list(s) for s in fluct.subsets],
            "mean": fluct.values,
            "sd": [sd for _, sd in fluct.fluctuation],
            "lower_bounds": fluct.lower_bounds,
        }
    return doc


def _run_landscape(cfg: ExperimentConfig, out: Path) -> dict:
    spec = cfg.extra.get("landscape", {})
    gamma12_values = spec.get("gamma12", list(LANDSCAPE_GAMMA12_VALUES))
    points = _int_field(spec.get("points", 33), "landscape.points")
    top = float(spec.get("max", 5 * math.pi / 16))
    grid = np.linspace(0.0, top, points)
    files = []
    for g12 in gamma12_values:
        values = correlation_landscape(float(g12), grid, grid)
        rows = [
            (grid[i], grid[j], values[i, j])
            for i in range(points)
            for j in range(points)
        ]
        name = f"landscape_g12_{float(g12):.6f}.csv"
        _write_csv(out / name, ["gamma13", "gamma23", "correlation"], rows)
        files.append(name)
    return {"gamma12_values": [float(g) for g in gamma12_values], "files": files}


def _run_optimize(cfg: ExperimentConfig, out: Path) -> dict:
    device, gates = _target(cfg)
    spec = cfg.extra.get("optimize", {})
    target = spec.get("target", "global")
    iterations = _int_field(spec.get("iterations", 180), "optimize.iterations")
    window = tuple(spec.get("window", (100, 180)))
    cab_cfg = cfg.cab_config(gates, k_r=40, k_s=2000, mode="traverse").replace(subsets=())
    traj = optimize_parallel_cz(
        device,
        gates,
        target,
        cab_cfg,
        iterations,
        NelderMeadOptions(
            initial_step=float(spec.get("initial_step", 0.3)),
            x_tol=float(spec.get("x_tol", 1e-6)),
        ),
        window=window,
    )
    rows = []
    for i, it in enumerate(traj.iterations):
        rows.append(
            (
                i,
                *[float(v) for v in it.params],
                it.reference.value,
                it.reference.se,
                it.iterative.value,
                it.iterative.se,
                it.target,
            )
        )
    n_params = len(traj.iterations[0].params) if traj.iterations else 0
    _write_csv(
        out / "trajectory.csv",
        ["iteration"]
        + [f"param_{i}" for i in range(n_params)]
        + ["ref_fidelity", "ref_se", "iter_fidelity", "iter_se", "target"],
        rows,
    )
    return {
        "mode": traj.mode,
        "parameterization": traj.parameterization,
        "window_stats": traj.window_stats(),
        "converged": traj.converged,
        "aborted": traj.aborted,
        "metadata": traj.metadata,
    }


def _run_calibrate(cfg: ExperimentConfig, out: Path) -> dict:
    device, gates = _target(cfg)
    spec = cfg.extra.get("calibrate", {})
    n_betas = _int_field(spec.get("beta_points", 24), "calibrate.beta_points")
    n_phases = _int_field(spec.get("phase_points", 256), "calibrate.phase_points")
    betas = np.linspace(0, 2 * np.pi, n_betas, endpoint=False)
    phases = np.linspace(0, 2 * np.pi, n_phases, endpoint=False)
    corrections = {}
    for g in gates:
        phi_i, phi_x, phi = measure_conditional_phase(device, g, betas)
        qa, qb = device.gates[g].pair
        d_i = calibrate_dynamic_phase(device, g, qa, phases)
        d_j = calibrate_dynamic_phase(device, g, qb, phases)
        corrections[str(g)] = {
            "phi_identity": phi_i,
            "phi_excited": phi_x,
            "conditional_phase": phi,
            "cond_phase_correction": -(phi - math.pi),
            "dyn_correction_i": d_i,
            "dyn_correction_j": d_j,
        }
    _write_csv(
        out / "corrections.csv",
        ["gate", "conditional_phase", "cond_phase_correction", "dyn_correction_i", "dyn_correction_j"],
        [
            (g, c["conditional_phase"], c["cond_phase_correction"], c["dyn_correction_i"], c["dyn_correction_j"])
            for g, c in corrections.items()
        ],
    )
    return {"corrections": corrections}


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass, but true is not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _int_field(value, name: str) -> int:
    """A config count or seed, rejected rather than truncated when it is not an integer."""
    if not _is_int(value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return value


def _int_list(value, name: str) -> tuple[int, ...]:
    """A config list of counts, such as depths or cycles, as a tuple."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{name} must be a list of integers, got {value!r}")
    return tuple(_int_field(v, f"{name} entry") for v in value)


def _run_order_stats(cfg: ExperimentConfig, out: Path) -> dict:
    n_list = cfg.extra.get("n_list", [4, 6, 8, 10, 12])
    samples = cfg.extra.get("samples", 100)
    cap = cfg.extra.get("cap", 100_000)
    if not isinstance(n_list, list) or not all(map(_is_int, n_list)) or len(set(n_list)) != len(n_list):
        raise ConfigError(f"order_stats n_list must be a list of distinct integers, got {n_list!r}")
    if not (_is_int(samples) and _is_int(cap)):
        raise ConfigError(f"order_stats samples and cap must be integers, got {samples!r} and {cap!r}")
    bad_n = [n for n in n_list if n % 2 or n < 4]
    if bad_n:
        raise ConfigError(f"order_stats n_list entries must be even and >= 4, got {bad_n}")
    if samples < 1 or cap < 1:
        raise ConfigError(f"order_stats needs samples >= 1 and cap >= 1, got {samples} and {cap}")
    rng = np.random.default_rng([cfg.seed, 9])
    rows = []
    medians = {}
    for n in n_list:
        orders = gate_order_samples(n, samples, rng, cap=cap)
        finite = [o for o in orders if o is not None]
        # null when every draw exceeds the cap: JSON has no NaN
        medians[str(n)] = float(np.median(finite)) if finite else None
        for i, o in enumerate(orders):
            rows.append((n, i, o if o is not None else -1))
    _write_csv(out / "orders.csv", ["n", "sample", "order"], rows)
    return {
        "medians": medians,
        "order_convention": "tableau identity, i.e. modulo global phase",
    }


_RUNNERS = {
    "cab": _run_cab,
    "cb": _run_cb,
    "fully_connected": _run_fully_connected,
    "parallel_cz_scan": _run_parallel_cz_scan,
    "correlate": _run_correlate,
    "landscape": _run_landscape,
    "optimize": _run_optimize,
    "calibrate": _run_calibrate,
    "order_stats": _run_order_stats,
}


def run(cfg: ExperimentConfig) -> Path:
    """Execute one experiment; returns the output directory."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    body = _RUNNERS[cfg.kind](cfg, out)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "kind": cfg.kind,
        "seed": cfg.seed,
        "config": cfg.to_dict(),
        **body,
    }
    _write_json(out / "result.json", doc)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cabbench",
        description="Benchmark, analyze and optimize parallel Clifford gates on a simulated device",
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in EXPERIMENT_KINDS:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True, help="experiment configuration JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--backend", choices=("auto", "dm", "stab"), default=None)
    args = parser.parse_args(argv)
    try:
        cfg = ExperimentConfig.load(args.config)
        if cfg.kind != args.kind:
            raise ConfigError(f"config kind {cfg.kind!r} does not match subcommand {args.kind!r}")
        if args.seed is not None:
            cfg.seed = args.seed
        if args.out is not None:
            cfg.out_dir = args.out
        if args.backend is not None:
            cfg.backend = args.backend
        out = run(cfg)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # surfaced resource/domain errors with context
        print(f"error: {type(err).__name__}: {err}", file=sys.stderr)
        return 1
    print(out / "result.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
