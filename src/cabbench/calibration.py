"""Simulated CZ calibration circuits and derivative-free gate optimization.

Calibration uses the exact density-matrix backend: a Ramsey-style scan
extracts the conditional phase, and a phase-compensation scan zeroes each
qubit's dynamic phase.  Parallel CZ parameters are optimized with a
Nelder-Mead simplex over control-phase corrections, benchmarking both the
frozen reference parameters and the iterate each step and taking the
difference as the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backends import dm_run
from .cab import CabConfig, ConfigError, FidelityEstimate, run_cab_experiment
from .circuits import CircuitSequence, GateLayer, Unitary1qLayer
from .device import DeviceModel

COSINE_RESIDUAL_TOL = 0.05  # RMS residual above which a Ramsey scan is rejected


class PoorFitError(RuntimeError):
    """A calibration scan did not match its fit model."""


class NoSignalError(RuntimeError):
    """A calibration scan shows no usable contrast."""


class NonFiniteObjective(RuntimeError):
    """The optimization objective returned a non-finite value."""


# ---------------------------------------------------------------------------
# pulses and scans
# ---------------------------------------------------------------------------


def half_pi_pulse(azimuth: float) -> np.ndarray:
    """pi/2 rotation about the equatorial axis at the given azimuth."""
    return np.array(
        [
            [1.0, -1j * np.exp(-1j * azimuth)],
            [-1j * np.exp(1j * azimuth), 1.0],
        ],
        dtype=complex,
    ) / math.sqrt(2)


_X_PI = np.array([[0.0, -1j], [-1j, 0.0]], dtype=complex)


def _z_phase(phi: float) -> np.ndarray:
    return np.diag([1.0, np.exp(1j * phi)]).astype(complex)


def _marginal_p1(probs: np.ndarray, n: int, qubit: int) -> float:
    """Probability that the given qubit reads 1."""
    t = probs.reshape([2] * n)
    return float(np.moveaxis(t, qubit, 0)[1].sum())


def _fit_cosine_phase(betas: np.ndarray, values: np.ndarray):
    """Fit values ~ c0 + a*cos(beta - psi); returns (psi, amplitude)."""
    design = np.column_stack([np.ones_like(betas), np.cos(betas), np.sin(betas)])
    coef, *_ = np.linalg.lstsq(design, values, rcond=None)
    fit = design @ coef
    resid = float(np.sqrt(np.mean((values - fit) ** 2)))
    if resid > COSINE_RESIDUAL_TOL:
        raise PoorFitError(f"cosine fit residual {resid:.3g} above {COSINE_RESIDUAL_TOL}")
    psi = math.atan2(coef[2], coef[1])
    amp = math.hypot(coef[1], coef[2])
    return psi, amp


def _wrap_near_pi(angle: float) -> float:
    """Wrap to the branch (-pi/2, 3pi/2], continuous around both 0 and pi."""
    return (angle + math.pi / 2) % (2 * math.pi) - math.pi / 2


def measure_conditional_phase(
    device: DeviceModel, gate: int, beta_grid: np.ndarray
) -> tuple[float, float, float]:
    """Conditional phase of a gate from Ramsey scans with the partner in 0/1.

    Returns (phi_identity, phi_excited, phi) with phi their difference
    wrapped to (-pi/2, 3pi/2]; an ideal CZ gives phi = pi.
    """
    beta_grid = np.asarray(beta_grid, dtype=float)
    if len(beta_grid) < 8:
        raise ValueError("need at least 8 scan points over the full circle")
    spec = device.gates[gate]
    qa, qb = spec.pair
    n = device.n_qubits
    cz = GateLayer((gate,))
    # the partner in 0, then excited to 1
    preps = [Unitary1qLayer(((qa, half_pi_pulse(0.0)),)), Unitary1qLayer(((qa, half_pi_pulse(0.0)), (qb, _X_PI)))]
    analyses = [Unitary1qLayer(((qa, half_pi_pulse(float(beta))),)) for beta in beta_grid]
    seqs = [CircuitSequence(n, (prep, cz, analysis)) for prep in preps for analysis in analyses]
    values = np.array([_marginal_p1(probs, n, qa) for probs in dm_run(seqs, device)]).reshape(2, -1)
    phases = [_fit_cosine_phase(beta_grid, v)[0] for v in values]
    phi = _wrap_near_pi(phases[1] - phases[0])
    return phases[0], phases[1], phi


def calibrate_dynamic_phase(
    device: DeviceModel, gate: int, qubit: int, phase_grid: np.ndarray
) -> float:
    """Z-phase correction maximizing P(|1>) on the scanned qubit.

    Applying the returned correction to the gate's dynamic-phase parameter
    zeroes it within the grid resolution.
    """
    phase_grid = np.asarray(phase_grid, dtype=float)
    spec = device.gates[gate]
    if qubit not in spec.pair:
        raise ValueError("qubit must belong to the gate")
    n = device.n_qubits
    pulse, cz = Unitary1qLayer(((qubit, half_pi_pulse(0.0)),)), GateLayer((gate,))
    seqs = [
        CircuitSequence(n, (pulse, cz, Unitary1qLayer(((qubit, _z_phase(float(phi))),)), pulse))
        for phi in phase_grid
    ]
    values = np.array([_marginal_p1(probs, n, qubit) for probs in dm_run(seqs, device)])
    if values.max() - values.min() < 0.02:
        raise NoSignalError("dynamic-phase scan shows no contrast")
    return float(phase_grid[int(np.argmax(values))])


# ---------------------------------------------------------------------------
# Nelder-Mead simplex (ask/tell form, supporting noisy objectives)
# ---------------------------------------------------------------------------


# the standard Nelder-Mead coefficients
NM_REFLECT = 1.0
NM_EXPAND = 2.0
NM_CONTRACT = 0.5
NM_SHRINK = 0.5
NM_REEVAL_BEST_EVERY = 10  # refresh the stored best value (noisy objectives)


@dataclass
class NelderMeadOptions:
    initial_step: float = 0.1
    x_tol: float = 1e-6
    max_evals: int = 500


class NelderMead:
    """Minimizer driven through ask() / tell() so evaluations can be shared.

    The method itself is the generator ``_search``: it yields each point to
    evaluate and receives that point's value; ``tell`` sends the value in.
    """

    def __init__(self, x0, options: NelderMeadOptions | None = None):
        self.opt = options or NelderMeadOptions()
        x0 = np.asarray(x0, dtype=float)
        self.dim = len(x0)
        self.simplex = [x0.copy()]
        for i in range(self.dim):
            v = x0.copy()
            v[i] += self.opt.initial_step
            self.simplex.append(v)
        self.values = [np.nan] * (self.dim + 1)
        self.evals = 0
        self._steps = self._search()
        self._pending = next(self._steps)

    def ask(self) -> np.ndarray:
        return self._pending.copy()

    def tell(self, fx: float):
        if not np.isfinite(fx):
            raise NonFiniteObjective(f"objective returned {fx}")
        self.evals += 1
        self._pending = self._steps.send(fx)

    def _search(self):
        s, f = self.simplex, self.values
        for i in range(self.dim + 1):
            f[i] = yield s[i]
        while True:
            if self.evals % NM_REEVAL_BEST_EVERY == 0:
                b = self._best_index()
                f[b] = yield s[b]
            w = int(np.argmax(f))
            c = np.mean([v for i, v in enumerate(s) if i != w], axis=0)
            xr = c + NM_REFLECT * (c - s[w])
            fr = yield xr
            order = np.argsort(f)
            if fr < f[order[0]]:
                xe = c + NM_EXPAND * (xr - c)
                fe = yield xe
                s[w], f[w] = (xe, fe) if fe < fr else (xr, fr)
            elif fr < f[order[-2]]:
                s[w], f[w] = xr, fr
            else:
                # outside contraction when the reflection beats the worst vertex
                xc = c + NM_CONTRACT * ((xr if fr < f[w] else s[w]) - c)
                fc = yield xc
                if fc <= min(fr, f[w]):
                    s[w], f[w] = xc, fc
                else:
                    b = self._best_index()
                    others = [i for i in range(self.dim + 1) if i != b]
                    for i in others:
                        s[i] = s[b] + NM_SHRINK * (s[i] - s[b])
                    for i in others:
                        f[i] = yield s[i]

    @property
    def best(self) -> tuple[np.ndarray, float]:
        i = self._best_index()
        return self.simplex[i].copy(), self.values[i]

    def diameter(self) -> float:
        xb = self.simplex[self._best_index()]
        return max(float(np.max(np.abs(v - xb))) for v in self.simplex)

    def finished(self) -> bool:
        if any(np.isnan(v) for v in self.values):
            return False
        return self.diameter() < self.opt.x_tol

    def _best_index(self) -> int:
        vals = [v if np.isfinite(v) else np.inf for v in self.values]
        return int(np.argmin(vals))


# ---------------------------------------------------------------------------
# parallel CZ optimization with reference differencing
# ---------------------------------------------------------------------------


@dataclass
class OptIteration:
    params: np.ndarray
    reference: FidelityEstimate
    iterative: FidelityEstimate
    target: float
    ref_subsets: dict[tuple[int, ...], float]
    iter_subsets: dict[tuple[int, ...], float]


@dataclass
class OptTrajectory:
    mode: str
    gates: tuple[int, ...]
    parameterization: str
    iterations: list[OptIteration] = field(default_factory=list)
    converged: bool = False
    aborted: bool = False
    window: tuple[int, int] = (100, 180)
    metadata: dict = field(default_factory=dict)

    def window_stats(self) -> dict:
        """Means and SDs of fidelities and correlations over the window."""
        from .analysis import correlation

        lo, hi = self.window
        rows = self.iterations[lo:hi]
        if not rows:
            raise ValueError("window outside the recorded trajectory")
        out: dict = {"window": [lo, hi], "count": len(rows)}
        for label, pick in (
            ("reference", lambda r: r.reference.value),
            ("iterative", lambda r: r.iterative.value),
        ):
            vals = np.array([pick(r) for r in rows])
            out[f"{label}_mean"] = float(vals.mean())
            out[f"{label}_sd"] = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        singles = sorted(k for k in rows[0].iter_subsets if len(k) == 1)
        combos = sorted(
            (k for k in rows[0].iter_subsets if len(k) > 1), key=lambda k: (len(k), k)
        )
        for phase in ("ref", "iter"):
            for combo in combos:
                vals = []
                for r in rows:
                    subs = r.ref_subsets if phase == "ref" else r.iter_subsets
                    parts = [subs[(g,)] for g in combo]
                    try:
                        vals.append(correlation(subs[combo], parts))
                    except ValueError:
                        vals.append(np.nan)
                arr = np.array(vals)
                good = arr[np.isfinite(arr)]
                key = f"{phase}_corr_{'_'.join(str(g) for g in combo)}"
                out[f"{key}_mean"] = float(good.mean()) if good.size else float("nan")
                out[f"{key}_sd"] = float(good.std(ddof=1)) if good.size > 1 else 0.0
        for combo in combos:
            key = f"iter_corr_{'_'.join(str(g) for g in combo)}"
            out.setdefault("correlation_keys", []).append(key)
        out["singles"] = [k[0] for k in singles]
        return out


def _parameter_layout(device: DeviceModel, gates: tuple[int, ...]):
    """Vector layout: one dynamic phase per involved qubit, then one
    conditional phase and one coupler compensation per gate (2n in total
    for n qubits)."""
    qubits = sorted({q for g in gates for q in device.gates[g].pair})
    qpos = {q: i for i, q in enumerate(qubits)}
    nq = len(qubits)
    ng = len(gates)
    n_params = nq + 2 * ng
    label = "dyn_phase_per_qubit+cond_phase_per_gate+coupler_comp_per_gate"

    def to_offsets(vec: np.ndarray) -> dict[int, tuple[float, float, float, float]]:
        out = {}
        for gi, g in enumerate(gates):
            qa, qb = device.gates[g].pair
            out[g] = (
                float(vec[nq + gi]),
                float(vec[qpos[qa]]),
                float(vec[qpos[qb]]),
                float(vec[nq + ng + gi]),
            )
        return out

    return n_params, to_offsets, label, qubits


def _benchmark_once(
    device: DeviceModel,
    gates: tuple[int, ...],
    config: CabConfig,
    seed: int,
):
    """One dressed CAB measurement returning the global estimate and
    per-subset dressed fidelities."""
    from .circuits import GateBlock

    subsets = [tuple([g]) for g in gates]
    if len(gates) > 1:
        from itertools import combinations

        for r in range(2, len(gates) + 1):
            subsets.extend(tuple(c) for c in combinations(gates, r))
    cfg = config.replace(seed=seed, subsets=tuple(subsets))
    block = GateBlock.parallel_cz(device, gates)
    rep = run_cab_experiment(device, block, cfg, measure_twirl=False)
    sub_values = {key: res.dressed.value for key, res in rep.subsets.items()}
    return rep.dressed, sub_values


def optimize_parallel_cz(
    device: DeviceModel,
    gates: tuple[int, ...],
    target: str,
    config: CabConfig,
    iterations: int,
    options: NelderMeadOptions,
    window: tuple[int, int] = (100, 180),
) -> OptTrajectory:
    """Optimize control-phase corrections of a parallel CZ gate.

    ``target`` selects the objective: "global" maximizes the joint dressed
    fidelity with a single simplex over all corrections; "local" runs one
    simplex per gate on its own subset fidelity, stepped in lockstep, so
    every iteration still measures one joint experiment pair.  Both modes
    benchmark the frozen reference parameters alongside the iterate and
    maximize their difference.  ``options`` give every simplex its initial
    step and tolerance; the loop runs exactly ``iterations`` steps.
    ``window`` = (start, end) picks the iterations that ``window_stats``
    averages; it is checked against ``iterations`` before anything runs.
    """
    if target not in ("global", "local"):
        raise ConfigError(f"optimize target must be 'global' or 'local', got {target!r}")
    lo, hi = window
    if not 0 <= lo < hi <= iterations:
        raise ConfigError(f"window {list(window)} must satisfy 0 <= start < end <= iterations = {iterations}")
    gates = tuple(gates)
    n_params, to_offsets, label, qubits = _parameter_layout(device, gates)
    traj = OptTrajectory(
        mode=target,
        gates=gates,
        parameterization=label,
        window=window,
        metadata={
            "n_params": n_params,
            "qubits": qubits,
            "best_vertex_reeval_every": NM_REEVAL_BEST_EVERY,
        },
    )

    if target == "global":
        opts = [NelderMead(np.zeros(n_params), options)]
        slices = [slice(0, n_params)]
    else:
        opts = []
        slices = []
        nq = len(qubits)
        for gi, g in enumerate(gates):
            qa, qb = device.gates[g].pair
            idxs = [qubits.index(qa), qubits.index(qb), nq + gi, nq + len(gates) + gi]
            opts.append(NelderMead(np.zeros(4), options))
            slices.append(np.array(idxs))

    for it in range(iterations):
        vec = np.zeros(n_params)
        for opt, sl in zip(opts, slices):
            vec[sl] = opt.ask()
        dev_iter = device.with_control_offsets(to_offsets(vec))
        ref_est, ref_subs = _benchmark_once(device, gates, config, seed=config.seed + 1_000_003 * it)
        iter_est, iter_subs = _benchmark_once(
            dev_iter, gates, config, seed=config.seed + 1_000_003 * it + 500_009
        )
        traj.iterations.append(
            OptIteration(
                params=vec.copy(),
                reference=ref_est,
                iterative=iter_est,
                target=iter_est.value - ref_est.value,
                ref_subsets=ref_subs,
                iter_subsets=iter_subs,
            )
        )
        try:
            if target == "global":
                opts[0].tell(-(iter_est.value - ref_est.value))
            else:
                for opt, g in zip(opts, gates):
                    opt.tell(-(iter_subs[(g,)] - ref_subs[(g,)]))
        except NonFiniteObjective:
            traj.aborted = True
            break
    traj.converged = all(o.finished() for o in opts) and not traj.aborted
    return traj
