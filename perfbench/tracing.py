"""In-memory spans and work counters around the calls into each cabbench layer.

The wrappers are installed where each caller looks a function up: modules
that do ``from .x import f`` hold their own reference to ``f``, so patching
``x.f`` alone would miss those calls.  Spans are kept in a list and reduced
to per-name self time and call counts when the run ends.
"""

from __future__ import annotations

import functools
import time

# Span names, as "<module>.<function>" of the function's home module.
SPANS = (
    "cli.run",
    "cab.run_cab_experiment",
    "cab.execute_cab_run",
    "cab.build_cab_sequence",
    "tableau.compile_inverse_pauli",
    "backends.stab_run_counts",
    "device.apply_readout_noise",
    "backends.ShotCounts.from_outcomes",
    "backends.dm_run",
    "backends.ShotCounts.from_probabilities",
    "backends.ShotCounts.all_survivals",
    "backends.ShotCounts.marginal_count_vector",
    "device.fwht",
    "cab.estimate_fidelity",
    "cab.subset_fidelity",
    "calibration.optimize_parallel_cz",
    "device.DeviceModel.with_control_offsets",
    "device.DeviceModel.layer_twirl_channels",
    "device.DeviceModel.coherent_layer_components",
    "experiments.fully_connected_gate",
    "experiments.ring_device",
    "experiments.gate_order_samples",
    "tableau.gate_order",
)

# Exact work counts; each must repeat exactly for the same (config, seed).
COUNTERS = (
    "cab.sequences",
    "circuits.layers",
    "backends.shots",
    "backends.unique_outcomes",
    "cab.masks_fitted",
    "cab.flagged",
    "tableau.gate_order.compositions",
    "calibration.iterations",
)


class Tracer:
    """Records nested spans and counters; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` timed as a span named ``name``; ``on_return(result)`` runs after it."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = self.clock()
                self._stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, on_return=None):
        """Replace ``owner.attr`` by its wrapped form until ``uninstall``."""
        original = vars(owner)[attr]  # a class's staticmethod object, not the function
        if isinstance(original, staticmethod):
            wrapped = staticmethod(self.wrap(name, original.__func__, on_return))
        else:
            wrapped = self.wrap(name, original, on_return)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: summed self time (span minus its direct children) and calls."""
        out = {name: {"self_s": 0.0, "calls": 0} for name in SPANS}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _parent), inner in zip(self.spans, child_time):
            entry = out.setdefault(name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += end - start - inner
            entry["calls"] += 1
        return out

    # -- counters -------------------------------------------------------------

    def _count_sequence(self, seq):
        self.counters["cab.sequences"] += 1
        self.counters["circuits.layers"] += len(seq.layers)

    def _count_shots(self, counts):
        self.counters["backends.shots"] += int(counts.k_s)
        self.counters["backends.unique_outcomes"] += len(counts.counts)

    def _count_fit(self, est):
        self.counters["cab.masks_fitted"] += len(est.quality_params)
        self.counters["cab.flagged"] += int(est.n_flagged)

    def _count_order(self, order):
        self.counters["tableau.gate_order.compositions"] += order or 0

    def _count_iterations(self, traj):
        self.counters["calibration.iterations"] += len(traj.iterations)

    def install(self):
        """Wrap every traced cabbench function at the places it is looked up."""
        from cabbench import backends, cab, calibration, cli, device, experiments

        shot_counts, device_model = backends.ShotCounts, device.DeviceModel
        for owner, attr, name, on_return in (
            (cli, "run", "cli.run", None),
            (cli, "run_cab_experiment", "cab.run_cab_experiment", None),
            (calibration, "run_cab_experiment", "cab.run_cab_experiment", None),
            (cli, "optimize_parallel_cz", "calibration.optimize_parallel_cz", self._count_iterations),
            (cli, "fully_connected_gate", "experiments.fully_connected_gate", None),
            (cli, "ring_device", "experiments.ring_device", None),
            (cli, "gate_order_samples", "experiments.gate_order_samples", None),
            (experiments, "gate_order", "tableau.gate_order", self._count_order),
            (cab, "execute_cab_run", "cab.execute_cab_run", None),
            (cab, "build_cab_sequence", "cab.build_cab_sequence", self._count_sequence),
            (cab, "compile_inverse_pauli", "tableau.compile_inverse_pauli", None),
            (cab, "stab_run_counts", "backends.stab_run_counts", None),
            (cab, "dm_run", "backends.dm_run", None),
            (cab, "estimate_fidelity", "cab.estimate_fidelity", self._count_fit),
            (cab, "subset_fidelity", "cab.subset_fidelity", self._count_fit),
            # stab_run_counts and subset_fidelity import these two at call time
            (device, "apply_readout_noise", "device.apply_readout_noise", None),
            (device, "fwht", "device.fwht", None),
            (backends, "fwht", "device.fwht", None),
            (shot_counts, "from_outcomes", "backends.ShotCounts.from_outcomes", self._count_shots),
            (shot_counts, "from_probabilities", "backends.ShotCounts.from_probabilities", self._count_shots),
            (shot_counts, "all_survivals", "backends.ShotCounts.all_survivals", None),
            (shot_counts, "marginal_count_vector", "backends.ShotCounts.marginal_count_vector", None),
            (device_model, "with_control_offsets", "device.DeviceModel.with_control_offsets", None),
            (device_model, "layer_twirl_channels", "device.DeviceModel.layer_twirl_channels", None),
            (
                device_model,
                "coherent_layer_components",
                "device.DeviceModel.coherent_layer_components",
                None,
            ),
        ):
            self.patch(owner, attr, name, on_return)
