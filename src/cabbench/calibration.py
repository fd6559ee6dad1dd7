"""Simulated CZ calibration circuits and derivative-free gate optimization.

Calibration uses the exact density-matrix backend: a Ramsey-style scan
extracts the conditional phase, a phase-compensation scan zeroes each
qubit's dynamic phase, and random two-qubit Clifford sequences provide the
back-to-initial-state probability used for parameter search.  Parallel CZ
parameters are optimized with a Nelder-Mead simplex over control-phase
corrections, benchmarking both the frozen reference parameters and the
iterate each step and taking the difference as the target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .backends import ShotCounts, dm_run
from .cab import CabConfig, FidelityEstimate, run_cab_experiment
from .circuits import CircuitSequence, CliffordLayer, GateLayer, Unitary1qLayer
from .device import DeviceModel
from .paulis import LocalCliffordLayer, single_qubit_cliffords

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
    phases = []
    for excite_partner in (False, True):
        values = np.empty(len(beta_grid))
        prep_ops = [(qa, half_pi_pulse(0.0))]
        if excite_partner:
            prep_ops.append((qb, _X_PI))
        for i, beta in enumerate(beta_grid):
            seq = CircuitSequence(
                n,
                (
                    Unitary1qLayer(tuple(prep_ops)),
                    GateLayer((gate,)),
                    Unitary1qLayer(((qa, half_pi_pulse(float(beta))),)),
                ),
            )
            probs = dm_run(seq, device)
            values[i] = _marginal_p1(probs, n, qa)
        psi, _amp = _fit_cosine_phase(beta_grid, values)
        phases.append(psi)
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
    values = np.empty(len(phase_grid))
    for i, phi in enumerate(phase_grid):
        seq = CircuitSequence(
            n,
            (
                Unitary1qLayer(((qubit, half_pi_pulse(0.0)),)),
                GateLayer((gate,)),
                Unitary1qLayer(((qubit, _z_phase(float(phi))),)),
                Unitary1qLayer(((qubit, half_pi_pulse(0.0)),)),
            ),
        )
        probs = dm_run(seq, device)
        values[i] = _marginal_p1(probs, n, qubit)
    if values.max() - values.min() < 0.02:
        raise NoSignalError("dynamic-phase scan shows no contrast")
    return float(phase_grid[int(np.argmax(values))])


# ---------------------------------------------------------------------------
# two-qubit Clifford enumeration (for back-probability sequences)
# ---------------------------------------------------------------------------

_H_ELEM_IMAGES = ((0, 1, 0), (1, 0, 0))  # X -> Z, Z -> X
_S_ELEM_IMAGES = ((1, 1, 0), (0, 1, 0))  # X -> Y, Z -> Z


def _apply_word_op(xb, zb, sg, op):
    """Left-multiply a raw 2-qubit tableau by one generator, in place."""
    kind = op[0]
    if kind == "h":
        q = op[1]
        sg ^= xb[:, q] & zb[:, q]
        xb[:, q], zb[:, q] = zb[:, q].copy(), xb[:, q].copy()
    elif kind == "s":
        q = op[1]
        sg ^= xb[:, q] & zb[:, q]
        zb[:, q] ^= xb[:, q]
    elif kind == "cz":
        sg ^= xb[:, 0] & xb[:, 1] & (zb[:, 0] ^ zb[:, 1])
        zb[:, 0] ^= xb[:, 1]
        zb[:, 1] ^= xb[:, 0]
    else:
        raise ValueError(op)


def _tableau_key(xb, zb, sg) -> bytes:
    return xb.tobytes() + zb.tobytes() + sg.tobytes()


@lru_cache(maxsize=1)
def two_qubit_clifford_words() -> tuple[list[tuple], dict[bytes, int]]:
    """Shortest {H, S, CZ} word for each of the 11520 two-qubit Cliffords."""
    gens = [("h", 0), ("h", 1), ("s", 0), ("s", 1), ("cz",)]
    xb0 = np.array([[1, 0], [0, 1], [0, 0], [0, 0]], dtype=np.uint8)
    zb0 = np.array([[0, 0], [0, 0], [1, 0], [0, 1]], dtype=np.uint8)
    sg0 = np.zeros(4, dtype=np.uint8)
    words: list[tuple] = []
    index: dict[bytes, int] = {}
    frontier = [(xb0, zb0, sg0, ())]
    index[_tableau_key(xb0, zb0, sg0)] = 0
    words.append(())
    while frontier:
        nxt = []
        for xb, zb, sg, word in frontier:
            for op in gens:
                nxb, nzb, nsg = xb.copy(), zb.copy(), sg.copy()
                _apply_word_op(nxb, nzb, nsg, op)
                key = _tableau_key(nxb, nzb, nsg)
                if key not in index:
                    index[key] = len(words)
                    words.append(word + (op,))
                    nxt.append((nxb, nzb, nsg, word + (op,)))
        frontier = nxt
    assert len(words) == 11520
    return words, index


def _word_tableau(word) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xb = np.array([[1, 0], [0, 1], [0, 0], [0, 0]], dtype=np.uint8)
    zb = np.array([[0, 0], [0, 0], [1, 0], [0, 1]], dtype=np.uint8)
    sg = np.zeros(4, dtype=np.uint8)
    for op in word:
        _apply_word_op(xb, zb, sg, op)
    return xb, zb, sg


def _inverse_word(word) -> tuple:
    """Word of the group inverse, via the enumeration index."""
    words, index = two_qubit_clifford_words()
    from .tableau import CliffordTableau

    xb, zb, sg = _word_tableau(word)
    t = CliffordTableau(2, xb.copy(), zb.copy(), sg.copy())
    ti = t.inverse()
    key = _tableau_key(
        np.ascontiguousarray(ti.xbits), np.ascontiguousarray(ti.zbits), ti.signs
    )
    return words[index[key]]


_H_IDX = None
_S_IDX = None


def _elem_indices():
    global _H_IDX, _S_IDX
    if _H_IDX is None:
        table = single_qubit_cliffords()
        _H_IDX = table.element_from_images(*_H_ELEM_IMAGES)
        _S_IDX = table.element_from_images(*_S_ELEM_IMAGES)
    return _H_IDX, _S_IDX


def _words_to_layers(device: DeviceModel, assignments: dict[int, tuple]) -> list:
    """Merge per-gate Clifford words into shared device layers.

    ``assignments`` maps gate index to a word; words run in parallel, CZ
    steps of different gates that line up share one gate layer.
    """
    h_idx, s_idx = _elem_indices()
    table = single_qubit_cliffords()
    n = device.n_qubits
    ident = table.identity_index
    positions = {g: 0 for g in assignments}
    layers: list = []
    while any(positions[g] < len(assignments[g]) for g in assignments):
        # collect a maximal run of single-qubit ops across all gates
        elems = np.full(n, ident, dtype=np.uint8)
        progressed = True
        any_local = False
        while progressed:
            progressed = False
            for g, word in assignments.items():
                i = positions[g]
                if i < len(word) and word[i][0] in ("h", "s"):
                    kind, q_local = word[i]
                    q = device.gates[g].pair[q_local]
                    e = h_idx if kind == "h" else s_idx
                    elems[q] = table.compose(e, int(elems[q]))
                    positions[g] += 1
                    progressed = True
                    any_local = True
        if any_local:
            layers.append(CliffordLayer(LocalCliffordLayer(n, elems)))
        cz_gates = tuple(
            g for g, word in assignments.items() if positions[g] < len(word) and word[positions[g]][0] == "cz"
        )
        if cz_gates:
            for g in cz_gates:
                positions[g] += 1
            layers.append(GateLayer(cz_gates))
    return layers


def parallel_back_probability(
    device: DeviceModel,
    gates: tuple[int, ...],
    length: int,
    k_s: int,
    rng: np.random.Generator,
    shot_rng: np.random.Generator | None = None,
) -> dict[int, float]:
    """Return probability per gate after a random two-qubit Clifford sequence.

    Each gate runs its own uniformly random length-element sequence plus
    the closing inverse, decomposed into CZ and single-qubit gates; gates
    execute in parallel.  The returned value estimates P(0,0) on each
    gate's pair from ``k_s`` sampled shots.  Passing a separate ``shot_rng``
    keeps the circuits fixed while redrawing shots, which is how reference
    and iterative parameter sets are compared on the same circuits.
    """
    if length < 1:
        raise ValueError("sequence length must be >= 1")
    device.check_layer_disjoint(gates)
    words, _index = two_qubit_clifford_words()
    assignments: dict[int, tuple] = {}
    for g in gates:
        seq_words = [words[int(rng.integers(len(words)))] for _ in range(length)]
        flat = tuple(op for w in seq_words for op in w)
        assignments[g] = flat + _inverse_word(flat)
    layers = _words_to_layers(device, assignments)
    seq = CircuitSequence(device.n_qubits, tuple(layers))
    probs = dm_run(seq, device)
    counts = ShotCounts.from_probabilities(probs, device.n_qubits, k_s, shot_rng or rng)
    out = {}
    for g in gates:
        qubits = tuple(device.gates[g].pair)
        marg = counts.marginal_count_vector(tuple(sorted(qubits)))
        out[g] = float(marg[0] / k_s)
    return out


def back_probability(
    device: DeviceModel,
    gate: int,
    length: int,
    k_s: int,
    rng: np.random.Generator,
    shot_rng: np.random.Generator | None = None,
) -> float:
    """P(00) on one gate's pair after a random Clifford sequence."""
    return parallel_back_probability(device, (gate,), length, k_s, rng, shot_rng)[gate]


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
    """Minimizer driven through ask() / tell() so evaluations can be shared."""

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
        self._state = ("init", 0)
        self.evals = 0
        self.aborted = False

    # -- public interface ---------------------------------------------------

    def ask(self) -> np.ndarray:
        kind = self._state[0]
        if kind == "init":
            return self.simplex[self._state[1]].copy()
        if kind == "reflect":
            return self._reflection_point()
        if kind == "expand":
            return self._expansion_point()
        if kind == "contract":
            return self._contraction_point()
        if kind == "shrink":
            return self.simplex[self._state[1]].copy()
        if kind == "reeval":
            return self.simplex[self._best_index()].copy()
        raise RuntimeError(f"bad state {self._state}")

    def tell(self, fx: float):
        if not np.isfinite(fx):
            self.aborted = True
            raise NonFiniteObjective(f"objective returned {fx}")
        self.evals += 1
        kind = self._state[0]
        if kind == "init":
            i = self._state[1]
            self.values[i] = fx
            self._state = ("init", i + 1) if i + 1 <= self.dim else ("reflect",)
        elif kind == "reflect":
            self._fr = fx
            order = np.argsort(self.values)
            best, second_worst = self.values[order[0]], self.values[order[-2]]
            if fx < best:
                self._state = ("expand",)
            elif fx < second_worst:
                self._replace_worst(self._reflection_point(), fx)
                self._state = ("reflect",)
            else:
                self._state = ("contract",)
        elif kind == "expand":
            xr, fr = self._reflection_point(), self._fr
            xe = self._expansion_point()
            if fx < fr:
                self._replace_worst(xe, fx)
            else:
                self._replace_worst(xr, fr)
            self._state = ("reflect",)
        elif kind == "contract":
            worst = self.values[self._worst_index()]
            bound = min(self._fr, worst)
            if fx <= bound:
                self._replace_worst(self._contraction_point(), fx)
                self._state = ("reflect",)
            else:
                self._begin_shrink()
        elif kind == "shrink":
            i = self._state[1]
            self.values[i] = fx
            nxt = i + 1
            while nxt <= self.dim and nxt == self._shrink_keep:
                nxt += 1
            if nxt <= self.dim:
                self._state = ("shrink", nxt)
            else:
                self._state = ("reflect",)
        elif kind == "reeval":
            self.values[self._best_index()] = fx
            self._state = ("reflect",)
        if self._state[0] == "reflect" and self.evals % NM_REEVAL_BEST_EVERY == 0:
            self._state = ("reeval",)

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

    # -- geometry -----------------------------------------------------------

    def _best_index(self) -> int:
        vals = [v if np.isfinite(v) else np.inf for v in self.values]
        return int(np.argmin(vals))

    def _worst_index(self) -> int:
        vals = [v if np.isfinite(v) else -np.inf for v in self.values]
        return int(np.argmax(vals))

    def _centroid(self) -> np.ndarray:
        w = self._worst_index()
        pts = [v for i, v in enumerate(self.simplex) if i != w]
        return np.mean(pts, axis=0)

    def _reflection_point(self) -> np.ndarray:
        c = self._centroid()
        return c + NM_REFLECT * (c - self.simplex[self._worst_index()])

    def _expansion_point(self) -> np.ndarray:
        c = self._centroid()
        return c + NM_EXPAND * (self._reflection_point() - c)

    def _contraction_point(self) -> np.ndarray:
        c = self._centroid()
        w = self.simplex[self._worst_index()]
        if self._fr < self.values[self._worst_index()]:
            return c + NM_CONTRACT * (self._reflection_point() - c)
        return c + NM_CONTRACT * (w - c)

    def _replace_worst(self, x: np.ndarray, fx: float):
        w = self._worst_index()
        self.simplex[w] = x.copy()
        self.values[w] = fx

    def _begin_shrink(self):
        b = self._best_index()
        self._shrink_keep = b
        xb = self.simplex[b]
        for i in range(self.dim + 1):
            if i != b:
                self.simplex[i] = xb + NM_SHRINK * (self.simplex[i] - xb)
        first = 0 if b != 0 else 1
        self._state = ("shrink", first)


@dataclass
class OptResult:
    x: np.ndarray
    fx: float
    history: list[tuple[np.ndarray, float]]
    converged: bool
    aborted: bool


def nelder_mead(objective, x0, options: NelderMeadOptions | None = None) -> OptResult:
    """Minimize a (possibly noisy) objective; returns best point and history."""
    opt = NelderMead(x0, options)
    history: list[tuple[np.ndarray, float]] = []
    try:
        while opt.evals < opt.opt.max_evals and not opt.finished():
            x = opt.ask()
            fx = objective(x)
            history.append((x.copy(), float(fx)))
            opt.tell(float(fx))
    except NonFiniteObjective:
        xb, fb = opt.best
        return OptResult(xb, fb, history, converged=False, aborted=True)
    xb, fb = opt.best
    return OptResult(xb, fb, history, converged=opt.finished(), aborted=False)


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
    window: tuple[int, int] = (100, 180),
    nm_options: NelderMeadOptions | None = None,
) -> OptTrajectory:
    """Optimize control-phase corrections of a parallel CZ gate.

    ``target`` selects the objective: "global" maximizes the joint dressed
    fidelity with a single simplex over all corrections; "local" runs one
    simplex per gate on its own subset fidelity, stepped in lockstep, so
    every iteration still measures one joint experiment pair.  Both modes
    benchmark the frozen reference parameters alongside the iterate and
    maximize their difference.  ``window`` = (start, end) picks the
    iterations that ``window_stats`` averages; it is checked against
    ``iterations`` before anything runs.
    """
    if target not in ("global", "local"):
        raise ValueError("target must be 'global' or 'local'")
    lo, hi = window
    if not 0 <= lo < hi <= iterations:
        raise ValueError(f"window {list(window)} must satisfy 0 <= start < end <= iterations = {iterations}")
    gates = tuple(gates)
    n_params, to_offsets, label, qubits = _parameter_layout(device, gates)
    options = nm_options or NelderMeadOptions(initial_step=0.15, x_tol=1e-4, max_evals=iterations)
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
        proposals = []
        for opt, sl in zip(opts, slices):
            x = opt.ask()
            proposals.append(x)
            vec[sl] = x
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
                for gi, (opt, g) in enumerate(zip(opts, gates)):
                    diff = iter_subs[(g,)] - ref_subs[(g,)]
                    opt.tell(-diff)
        except NonFiniteObjective:
            traj.aborted = True
            break
    traj.converged = all(o.finished() for o in opts) and not traj.aborted
    return traj
