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
from dataclasses import dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .analysis import (
    LANDSCAPE_GAMMA12_VALUES,
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
# Every field each kind reads besides the common ones of ExperimentConfig,
# with its default.  A value must have its default's JSON type, an integer is
# >= 0, a list repeats no entry, and a field BOUNDS names keeps its bound
# (_checked); a nested section refuses keys it does not list.  A None default
# is derived by the runner, which checks a given value with _checked.
FIELDS = {
    "cab": {},
    "cb": {"cycles": (10, 20), "n_chars": 5},
    "fully_connected": {
        "n": 16,
        "gate_depol": 0.9780266666666667,
        "single_qubit_depol": 0.9968,
        "readout_e0": 0.0103,
        "readout_e1": 0.0382,
        "measure_twirl": False,
    },
    "parallel_cz_scan": {"scan_counts": None, "per_cz_fidelity": None},
    "correlate": {},
    "landscape": {"landscape": {"gamma12": LANDSCAPE_GAMMA12_VALUES, "points": 33, "max": 5 * math.pi / 16}},
    "optimize": {
        "optimize": {"target": "global", "iterations": 180, "window": (100, 180), "initial_step": 0.3, "x_tol": 1e-6}
    },
    "calibrate": {"calibrate": {"beta_points": 24, "phase_points": 256}},
    "order_stats": {"n_list": (4, 6, 8, 10, 12), "samples": 100, "cap": 100_000},
}
EXPERIMENT_KINDS = tuple(FIELDS)
RING_RATES = ("gate_depol", "single_qubit_depol", "readout_e0", "readout_e1")  # with n, the ring fields of fully_connected
# each field's bound past the two rules, keyed by the name _checked gives the
# field: the phrase of its refusal, and its test
BOUNDS = {
    **dict.fromkeys(("n", "n_list entry"), ("even and >= 4", lambda v: v % 2 == 0 and v >= 4)),
    **dict.fromkeys(("samples", "cap", "scan_counts entry"), (">= 1", lambda v: v >= 1)),
    **dict.fromkeys(RING_RATES, ("in [0, 1]", lambda v: 0 <= v <= 1)),
    "per_cz_fidelity": ("in (0, 1]", lambda v: 0 < v <= 1),
    "optimize.initial_step": ("> 0", lambda v: v > 0),
    "optimize.x_tol": (">= 0", lambda v: v >= 0),
}
# the cab section's fields; their defaults are CabConfig's
CAB_FIELDS = {f.name: f.default for f in fields(CabConfig) if f.name in ("depths", "k_r", "k_s", "mode", "k_q")}
EXAMPLE_DEVICES = ("two_gate_4q", "three_gate_6q", "ring_44q")


def load_device(ref) -> DeviceModel:
    """Device from an inline dict, an example name, or a file path.  A device
    that cannot be read or built is a ConfigError naming it."""
    try:
        if isinstance(ref, dict):
            return DeviceModel.from_dict(ref)
        path = resources.files("cabbench.devices").joinpath(f"{ref}.json") if ref in EXAMPLE_DEVICES else Path(ref)
        return DeviceModel.from_dict(json.loads(path.read_text()))
    except (OSError, KeyError, IndexError, TypeError, ValueError) as err:
        name = "the inline device" if isinstance(ref, dict) else f"device {ref!r}"
        raise ConfigError(f"{name} cannot be loaded: {type(err).__name__}: {err}") from err


@dataclass
class ExperimentConfig:
    """Parsed experiment configuration."""

    kind: str
    device: dict | str | None = None
    seed: int = 0
    out_dir: str = "results"
    backend: str = "auto"
    cab: dict = field(default_factory=dict)
    gates: list[int] | None = None
    subsets: str | list = "singles"
    extra: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(doc: dict) -> "ExperimentConfig":
        """The config of a document, built by keyword: each field but
        ``extra`` takes its key, or else its default above, and ``extra``
        takes the other keys.  ``schema_version``, the seed, ``out_dir`` and
        ``backend`` are checked as a field of FIELDS is (``_checked``)."""
        doc = dict(doc)
        version = _checked(doc.pop("schema_version", SCHEMA_VERSION), SCHEMA_VERSION, "schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {version}")
        if doc.get("kind") not in EXPERIMENT_KINDS:
            raise ConfigError(f"field 'kind' must be one of {EXPERIMENT_KINDS}, got {doc.get('kind')!r}")
        common = {f.name: doc.pop(f.name) for f in fields(ExperimentConfig) if f.name in doc and f.name != "extra"}
        cfg = ExperimentConfig(**common, extra=doc)
        for name in ("seed", "out_dir", "backend"):
            _checked(getattr(cfg, name), getattr(ExperimentConfig, name), name)
        return cfg

    @staticmethod
    def load(path) -> "ExperimentConfig":
        try:
            with open(path) as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise ConfigError(f"{path}: line {err.lineno}, column {err.colno}: {err.msg}") from err
        except ValueError as err:  # not UTF-8, or an integer literal past Python's digit limit
            raise ConfigError(f"{path}: {err}") from err
        return ExperimentConfig.from_dict(doc)

    def to_dict(self) -> dict:
        common = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "extra"}
        return {"schema_version": SCHEMA_VERSION, **common, **self.extra}

    def settings(self) -> dict:
        """The kind's fields of FIELDS, checked, with their defaults where the
        config leaves them out; the seed (a ``--seed`` flag sets it after
        ``from_dict``), the ``cab`` section, ``gates`` (their bound is the
        device's, in ``_target``) and ``subsets`` are checked for every kind.
        Other top-level keys are echoed but not read."""
        _checked(self.seed, 0, "seed")
        _checked(self.cab, CAB_FIELDS, "cab")
        if self.gates is not None:
            _checked(self.gates, (0,), "gates")
        resolve_subsets(self.subsets, ())
        table = FIELDS[self.kind]
        return {key: _checked(self.extra.get(key, default), default, key) for key, default in table.items()}

    def cab_config(self, gates: tuple[int, ...], **defaults) -> CabConfig:
        """The run settings of the ``cab`` section.  A key the section leaves
        out takes the caller's ``defaults``, then CabConfig's."""
        cab = _checked(self.cab, {**CAB_FIELDS, **defaults}, "cab")
        return CabConfig(**cab, seed=self.seed, subsets=resolve_subsets(self.subsets, gates), backend=self.backend)


def _checked(value, default, name: str):
    """``value`` if it has the JSON type of ``default`` and keeps its bounds,
    else a ConfigError naming ``name``.  An integer passes for a float default
    and comes back as a float; a float default refuses NaN and the infinities,
    which JSON's NaN, Infinity and 1e400 parse to, and an integer past the
    float range.  An integer must be >= 0, and a name in BOUNDS must pass its
    test.  A list comes back as a tuple, each entry checked against the
    default's first, and one that is empty or repeats an entry is refused, as
    no list default is; an object is checked key by key, with the default's
    values filled in, and a key the default lacks is refused.  A None default
    passes any value on to the runner that derives it."""
    if default is None:
        return value
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be an object, got {value!r}")
        for key in value:
            if key not in default:
                raise ConfigError(f"{name} has no field {key!r}; its fields are {', '.join(default)}")
        return {key: _checked(value.get(key, d), d, f"{name}.{key}") for key, d in default.items()}
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{name} must be a list, got {value!r}")
        entries = tuple(_checked(v, default[0], f"{name} entry") for v in value)
        if not entries or len(set(entries)) < len(entries):
            raise ConfigError(f"{name} must be a non-empty list that repeats no entry, got {list(value)!r}")
        return entries
    if type(default) is float and type(value) is int:
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if type(value) is not type(default):
        kind = {bool: "true or false", int: "an integer", float: "a number", str: "a string"}[type(default)]
        raise ConfigError(f"{name} must be {kind}, got {value!r}")
    if type(default) is float and not math.isfinite(value):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    if type(value) is int and value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value!r}")
    if name in BOUNDS and not BOUNDS[name][1](value):
        raise ConfigError(f"{name} must be {BOUNDS[name][0]}, got {value!r}")
    return value


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
        subsets = tuple(tuple(sorted(_checked(g, 0, "subsets entry") for g in s)) for s in spec)
        for s in subsets:
            if not s or len(set(s)) < len(s):
                raise ConfigError(f"a subset names one or more gates, each once; got {list(s)}")
        if len(set(subsets)) < len(subsets):
            raise ConfigError(f"subsets name one subset twice: {[list(s) for s in subsets]}")
        return subsets
    raise ConfigError(f"bad subsets spec {spec!r}")


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------


def _write_json(path: Path, doc: dict):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_csv(path: Path, header: list[str], blocks):
    """Blocks of rows, each (fixed, columns): the leading fields every row
    of the block shares, such as kind and depth, then the other fields as
    columns of ints, strings and Python or float64 floats, one entry per
    row.  A block is one format string, its fixed fields written in (braces
    escaped), mapped over the columns.  Every value is written as
    format(v, ""), which for a float is its shortest round-trip repr.  The
    output directory is made at the first write, so a run refused before it
    leaves none."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for fixed, columns in blocks:
            head = "".join(format(v, "").replace("{", "{{").replace("}", "}}") + "," for v in fixed)
            line = head + ",".join(["{}"] * len(columns)) + "\n"
            fh.writelines(map(line.format, *columns))


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


def _fit_columns(est) -> list[list]:
    """An estimate's fits as (w_mask, lambda, se, flagged) columns of Python
    values, flagged as 0 or 1."""
    q = est.quality_params
    return [q["w_mask"].tolist(), q["lam"].tolist(), q["se"].tolist(), q["flagged"].astype(int).tolist()]


def _write_cab_artifacts(out: Path, rep: CabReport):
    _write_csv(
        out / "lambdas.csv",
        ["kind", "w_mask", "lambda", "se", "flagged"],
        [((kind,), _fit_columns(est)) for kind, est in (("dressed", rep.dressed), ("twirl", rep.twirl))],
    )
    blocks = []
    for data in (rep.dressed_data, rep.twirl_data):
        if data is not None:
            masks = data.masks.tolist()
            for m, means, ses in zip(data.depths, data.depth_means().tolist(), data.depth_ses().tolist()):
                blocks.append(((data.kind, m), [masks, means, ses]))
    _write_csv(out / "survivals.csv", ["kind", "depth", "w_mask", "mean", "se"], blocks)


# ---------------------------------------------------------------------------
# experiment runners
# ---------------------------------------------------------------------------


def _check_parallel(device: DeviceModel, gates, kind: str):
    """Refuses ``gates`` as one parallel layer if two of them share a qubit."""
    try:
        device.check_layer_disjoint(tuple(gates))
    except ValueError as err:
        raise ConfigError(f"{kind} gates {list(gates)}: {err}") from err


def _target(cfg: ExperimentConfig) -> tuple[DeviceModel, tuple[int, ...]]:
    """The config's device and the gates it names, all of them by default;
    a device without gates is refused."""
    device = load_device(cfg.device)
    n = len(device.gates)
    gates = tuple(range(n)) if cfg.gates is None else _checked(cfg.gates, (0,), "gates")
    if not gates or max(gates) >= n:
        raise ConfigError(f"gates must be indices below the device's gate count {n}, got {list(gates)}")
    return device, gates


def _run_cab(cfg: ExperimentConfig, settings: dict, out: Path) -> dict:
    device, gates = _target(cfg)
    _check_parallel(device, gates, cfg.kind)
    cab_cfg = cfg.cab_config(gates)
    block = GateBlock.parallel_cz(device, gates)
    rep = run_cab_experiment(device, block, cab_cfg)
    _write_cab_artifacts(out, rep)
    return {"report": _report_doc(rep)}


def _run_cb(cfg: ExperimentConfig, settings: dict, out: Path) -> dict:
    device, gates = _target(cfg)
    _check_parallel(device, gates, cfg.kind)
    cab_cfg = cfg.cab_config(gates)
    block = GateBlock.parallel_cz(device, gates)
    est = run_cb_experiment(device, block, cab_cfg, cycles=settings["cycles"], n_chars=settings["n_chars"])
    _write_csv(
        out / "characters.csv",
        ["w_mask", "lambda", "se", "flagged"],
        [((), _fit_columns(est))],
    )
    return {"cb": est.to_dict()}


def _run_fully_connected(cfg: ExperimentConfig, settings: dict, out: Path) -> dict:
    n = settings["n"]
    if cfg.device is not None:
        given = [key for key in ("n", *RING_RATES) if key in cfg.extra]
        if given:
            raise ConfigError(f"fully_connected with a device takes its size and noise from it; drop {given}")
        device = load_device(cfg.device)
        n = device.n_qubits
    else:
        device = ring_device(n, **{key: settings[key] for key in RING_RATES})
    n_half = n // 2
    if len(device.gates) < n:
        raise ConfigError(f"fully_connected needs {n} gates, the device has {len(device.gates)}")
    for half in (range(n_half), range(n_half, n)):
        _check_parallel(device, half, cfg.kind)
    cab_cfg = cfg.cab_config(tuple(range(n)))
    rng = np.random.default_rng([cfg.seed, 3])
    block = fully_connected_gate(device, tuple(range(n_half)), tuple(range(n_half, n)), rng)
    rep = run_cab_experiment(device, block, cab_cfg, measure_twirl=settings["measure_twirl"])
    _write_cab_artifacts(out, rep)
    return {"report": _report_doc(rep)}


def _run_parallel_cz_scan(cfg: ExperimentConfig, settings: dict, out: Path) -> dict:
    device = load_device(cfg.device)
    counts, per_cz = settings["scan_counts"], settings["per_cz_fidelity"]
    counts = range(2, len(device.gates) + 1, 2) if counts is None else _checked(counts, (1,), "scan_counts")
    if not counts:
        raise ConfigError(f"scan_counts is empty: the default scans even gate counts, and the device has {len(device.gates)}")
    if max(counts) > len(device.gates):
        raise ConfigError(f"scan_counts entries must be <= the device's {len(device.gates)} gates, got {list(counts)}")
    _check_parallel(device, range(max(counts)), cfg.kind)  # each point's gates are a prefix of these
    if per_cz is not None:  # used as given: an integer prints as one
        _checked(per_cz, 1.0, "per_cz_fidelity")
    reps = []
    twirl_data = None  # every point's twirl run is the same identity run on the whole register
    for r in counts:
        gates = tuple(range(r))
        cab_cfg = replace(cfg.cab_config(gates), subsets=())
        block = GateBlock.parallel_cz(device, gates)
        reps.append(run_cab_experiment(device, block, cab_cfg, twirl_data=twirl_data))
        twirl_data = reps[-1].twirl_data
    columns = [list(counts), [2 * r for r in counts]]
    for part in ("dressed", "twirl", "pure"):
        columns += [[getattr(rep, part).value for rep in reps], [getattr(rep, part).se for rep in reps]]
    columns.append([per_cz**r if per_cz else "" for r in counts])  # no theory value: an empty field
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
        [((), columns)],
    )
    return {"scan": {str(r): _report_doc(rep) for r, rep in zip(counts, reps)}}


def _run_correlate(cfg: ExperimentConfig, settings: dict, out: Path) -> dict:
    """One run with every single and pair subset; each pair's correlation
    carries its jackknife SE from that run (``correlation_matrix``)."""
    if "repeat" in cfg.extra:
        raise ConfigError("repeat is retired: correlation.csv now carries a one-run SE of each correlation")
    device, gates = _target(cfg)
    _check_parallel(device, gates, cfg.kind)
    if len(gates) < 2:
        raise ConfigError(f"correlate needs at least two gates to correlate, got {list(gates)}")
    cfg.subsets = "singles+pairs"
    block = GateBlock.parallel_cz(device, gates)
    rep = run_cab_experiment(device, block, cfg.cab_config(gates))
    matrix = correlation_matrix(rep, device)
    pairs, values, ses, bounds = matrix.subsets, matrix.values, matrix.ses, matrix.lower_bounds
    _write_csv(
        out / "correlation.csv",
        ["gate_a", "gate_b", "distance", "correlation", "se", "lower_bound"],
        [((), [[a for a, _ in pairs], [b for _, b in pairs], matrix.distances, values, ses, bounds])],
    )
    doc = {"pairs": [list(s) for s in pairs], "correlations": values, "correlation_ses": ses, "lower_bounds": bounds}
    return {"report": _report_doc(rep), **doc}


def _run_landscape(cfg: ExperimentConfig, settings: dict, out: Path) -> dict:
    spec = settings["landscape"]
    points = spec["points"]
    files = [f"landscape_g12_{g12:.6f}.csv" for g12 in spec["gamma12"]]
    if len(set(files)) < len(files):
        raise ConfigError(f"landscape.gamma12 values {list(spec['gamma12'])} share a file name: {files}")
    grid = np.linspace(0.0, spec["max"], points)
    for g12, name in zip(spec["gamma12"], files):
        values = correlation_landscape(g12, grid, grid)
        columns = [np.repeat(grid, points).tolist(), np.tile(grid, points).tolist(), values.ravel().tolist()]
        _write_csv(out / name, ["gamma13", "gamma23", "correlation"], [((), columns)])
    return {"gamma12_values": list(spec["gamma12"]), "files": files}


def _run_optimize(cfg: ExperimentConfig, settings: dict, out: Path) -> dict:
    device, gates = _target(cfg)
    _check_parallel(device, gates, cfg.kind)
    spec = settings["optimize"]
    cab_cfg = replace(cfg.cab_config(gates, k_r=40, k_s=2000, mode="traverse"), subsets=())
    traj = optimize_parallel_cz(
        device,
        gates,
        spec["target"],
        cab_cfg,
        spec["iterations"],
        NelderMeadOptions(initial_step=spec["initial_step"], x_tol=spec["x_tol"]),
        window=spec["window"],
    )
    its = traj.iterations
    n_params = len(its[0].params) if its else 0
    columns = [range(len(its)), *([float(it.params[j]) for it in its] for j in range(n_params))]
    columns += [[it.reference.value for it in its], [it.reference.se for it in its]]
    columns += [[it.iterative.value for it in its], [it.iterative.se for it in its], [it.target for it in its]]
    _write_csv(
        out / "trajectory.csv",
        ["iteration"]
        + [f"param_{i}" for i in range(n_params)]
        + ["ref_fidelity", "ref_se", "iter_fidelity", "iter_se", "target"],
        [((), columns)],
    )
    return {
        "mode": traj.mode,
        "parameterization": traj.parameterization,
        "window_stats": traj.window_stats(),
        "converged": traj.converged,
        "aborted": traj.aborted,
        "metadata": traj.metadata,
    }


def _run_calibrate(cfg: ExperimentConfig, settings: dict, out: Path) -> dict:
    device, gates = _target(cfg)  # run one at a time, so they may share qubits
    spec = settings["calibrate"]
    betas = np.linspace(0, 2 * np.pi, spec["beta_points"], endpoint=False)
    phases = np.linspace(0, 2 * np.pi, spec["phase_points"], endpoint=False)
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
    names = ["conditional_phase", "cond_phase_correction", "dyn_correction_i", "dyn_correction_j"]
    _write_csv(
        out / "corrections.csv",
        ["gate", *names],
        [((), [list(corrections), *([c[key] for c in corrections.values()] for key in names)])],
    )
    return {"corrections": corrections}


def _run_order_stats(cfg: ExperimentConfig, settings: dict, out: Path) -> dict:
    n_list, samples, cap = settings["n_list"], settings["samples"], settings["cap"]
    rng = np.random.default_rng([cfg.seed, 9])
    blocks = []
    medians = {}
    for n in n_list:
        orders = gate_order_samples(n, samples, rng, cap=cap)
        finite = [o for o in orders if o is not None]
        # null when every draw exceeds the cap: JSON has no NaN
        medians[str(n)] = float(np.median(finite)) if finite else None
        blocks.append(((n,), [range(len(orders)), [o if o is not None else -1 for o in orders]]))
    _write_csv(out / "orders.csv", ["n", "sample", "order"], blocks)
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
    settings = cfg.settings()
    out = Path(cfg.out_dir)
    body = _RUNNERS[cfg.kind](cfg, settings, out)
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
