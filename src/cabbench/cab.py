"""Character-average benchmarking engine and cycle-benchmarking baseline.

A benchmark run samples random sequences per circuit depth, executes them
on a backend, extracts Z-observable survival probabilities, fits the decay
f(m) = A * lambda^(2m) per observable, and averages the quality parameters
into a process-fidelity estimate.  The twirling-layer fidelity is measured
the same way with the identity as the target gate; the interleaved formula
isolates the pure gate fidelity from the dressed one.

Every draw comes from ``np.random.default_rng(key)``, and no two draws of
one run share a key (tag 0 dressed, 1 twirl; d the depth or cycle index,
k the sequence, ci the CB character):

- ``[seed, 5, tag]`` sample-mode observables; ``[seed, 17, tag, d, k]`` a
  CAB sequence and ``[seed, 23, tag, d, k]`` its shots;
- ``[seed, 7, 2]`` CB characters; ``[seed, 29, 2, d, ci, k]`` a CB
  sequence and ``[seed, 31, 2, d, ci, k]`` its shots;
- ``[seed, 3]`` the ``fully_connected`` block, ``[seed, 9]`` the
  ``order_stats`` draws (``cli``);
- runs seeded ``seed + 1_000_003 * it`` for ``optimize``'s reference at
  iteration it and that + 500,009 for its iterate (``calibration``), and
  ``seed + r`` for ``correlate``'s rerun r (``cli``).

``parallel_cz_scan`` reuses the keys at every point on purpose: sequence k
is the same draw at every gate count, which makes the differences between
points less noisy, and the twirl run is shared outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .backends import ShotCounts, dm_run, pack_bits, stab_run_counts
from .circuits import CircuitSequence, CliffordLayer, GateBlock, PauliLayer
from .device import DeviceModel, ResourceLimitError
from .paulis import sample_local_clifford, sample_random_pauli
from .tableau import compile_cycle_pauli, compile_inverse_pauli, gate_order

TRAVERSE_LIMIT = 12
SUBSET_QUBIT_LIMIT = 8
DM_AUTO_LIMIT = 6


class ConfigError(ValueError):
    """The experiment configuration is invalid."""


class DegenerateFitError(RuntimeError):
    """A decay fit has a zero denominator, or no decay is left to average."""


class UnsupportedGateError(ConfigError):
    """The target gate cannot be benchmarked by this protocol."""


@dataclass(frozen=True)
class CabConfig:
    """Settings of one benchmarking experiment."""

    depths: tuple[int, ...] = (0, 2)
    k_r: int = 50
    k_s: int = 20_000
    mode: str = "sample"  # "sample" or "traverse"
    k_q: int = 100
    seed: int = 0
    subsets: tuple[tuple[int, ...], ...] = ()
    backend: str = "auto"  # "dm", "stab", or "auto"

    def __post_init__(self):
        if len(set(self.depths)) < 2 or any(m < 0 for m in self.depths):
            raise ConfigError("need at least two distinct non-negative depths")
        if self.k_r < 2:
            raise ConfigError(f"k_r must be >= 2 for a jackknife standard error, got {self.k_r}")
        if self.k_s < 1:
            raise ConfigError("k_s must be >= 1")
        if self.mode not in ("sample", "traverse"):
            raise ConfigError("mode must be 'sample' or 'traverse'")
        if self.mode == "sample" and self.k_q < 1:
            raise ConfigError("k_q must be >= 1 in sample mode")
        if self.backend not in ("dm", "stab", "auto"):
            raise ConfigError(f"backend must be 'dm', 'stab' or 'auto', got {self.backend!r}")


# one fitted decay per Z-observable mask: lambda, its SE (0.0 where the fit
# gives none) and whether the fit was sign-ambiguous
QUALITY_DTYPE = np.dtype([("w_mask", np.int64), ("lam", float), ("se", float), ("flagged", bool)])


@dataclass
class FidelityEstimate:
    value: float
    se: float
    kind: str  # "dressed", "twirl" or "pure"
    quality_params: np.ndarray = field(default_factory=lambda: np.empty(0, QUALITY_DTYPE))
    n_flagged: int = 0
    metadata: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "se": self.se,
            "kind": self.kind,
            "n_flagged": self.n_flagged,
            "metadata": self.metadata,
        }


# ---------------------------------------------------------------------------
# sequence generation and observables
# ---------------------------------------------------------------------------


def build_cab_sequence(block: GateBlock, m: int, rng: np.random.Generator) -> CircuitSequence:
    """One random benchmarking sequence of depth m for the target block.

    Layout: C, then m repetitions of (P, U, P, U^-1), then the compiled
    closing Pauli, then C^-1.  The noiseless composition is the identity.
    """
    n = block.n
    c = sample_local_clifford(n, rng)
    paulis = [sample_random_pauli(n, rng) for _ in range(2 * m)]
    closer = compile_inverse_pauli(block.tableau, paulis, m)
    layers: list = [CliffordLayer(c)]
    for i in range(m):
        layers.append(PauliLayer(paulis[2 * i]))
        layers.extend(block.layers)
        layers.append(PauliLayer(paulis[2 * i + 1]))
        layers.extend(block.inverse_layers)
    layers.append(PauliLayer(closer, closing=True))
    layers.append(CliffordLayer(c.inverse()))
    return CircuitSequence(n, tuple(layers))


def sample_observables(n: int, k_q: int, rng: np.random.Generator) -> np.ndarray:
    """k_q Z-observable masks, each bit set independently with probability 3/4.

    This is the product form of the weight distribution 3^|w| / 4^n; the
    same list must be reused for every depth.
    """
    if k_q < 1:
        raise ValueError("k_q must be >= 1")
    bits = (rng.random((k_q, n)) < 0.75).astype(np.uint8)
    return pack_bits(bits)


# ---------------------------------------------------------------------------
# decay fitting
# ---------------------------------------------------------------------------


def _fit_lambda_arrays(exponents: np.ndarray, fbar: np.ndarray, ses: np.ndarray | None):
    """Vectorized decay fits f = A * lambda^x per observable column.

    ``fbar`` has shape (M, Q).  Returns (lam, se, flagged); flagged marks
    sign-ambiguous fits (non-positive survival ratios), whose lam is nan.
    """
    x = np.asarray(exponents, dtype=float)
    m, q = fbar.shape
    if m == 2:
        dx = x[1] - x[0]
        if dx == 0:
            raise DegenerateFitError("two identical depths")
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = fbar[1] / fbar[0]
            flagged = ~(ratio > 0) | ~np.isfinite(ratio)
            lam = np.where(flagged, np.nan, np.abs(ratio)) ** (1.0 / dx)
            lam = np.where(flagged, np.nan, lam)
            if ses is not None:
                rel = np.sqrt((ses[0] / fbar[0]) ** 2 + (ses[1] / fbar[1]) ** 2)
                se = np.abs(lam) / dx * rel
            else:
                se = np.full(q, np.nan)
        return lam, se, flagged
    flagged = np.any(fbar <= 0, axis=0) | ~np.all(np.isfinite(fbar), axis=0)
    lam = np.full(q, np.nan)
    se = np.full(q, np.nan)
    ok = ~flagged
    if np.any(ok):
        y = np.log(fbar[:, ok])
        if ses is not None:
            with np.errstate(divide="ignore", invalid="ignore"):
                w = (fbar[:, ok] / ses[:, ok]) ** 2
            w = np.where(np.isfinite(w), w, 1.0)
        else:
            w = np.ones_like(y)
        wsum = w.sum(axis=0)
        xbar = (w * x[:, None]).sum(axis=0) / wsum
        ybar = (w * y).sum(axis=0) / wsum
        sxx = (w * (x[:, None] - xbar) ** 2).sum(axis=0)
        if np.any(sxx == 0):
            raise DegenerateFitError("zero spread of depths after weighting")
        slope = (w * (x[:, None] - xbar) * (y - ybar)).sum(axis=0) / sxx
        lam[ok] = np.exp(slope)
        se[ok] = lam[ok] * np.sqrt(1.0 / sxx)
    return lam, se, flagged


def _weights_for_masks(masks: np.ndarray, n: int, mode: str) -> np.ndarray:
    if mode == "traverse":
        w = np.bitwise_count(masks.astype(np.int64)).astype(float)
        return 3.0**w / 4.0**n
    return np.full(len(masks), 1.0 / len(masks))


def _aggregate(lam: np.ndarray, weights: np.ndarray, flagged: np.ndarray) -> np.ndarray:
    """The ``weights``-weighted mean of the unflagged lambda of each row of
    ``lam`` (rows, masks); nan for a row that keeps none.

    The rows that keep the same number of masks are summed as one (rows,
    kept) array.  numpy sums along a contiguous last axis pairwise, eight
    terms at a time, just as it sums a row's kept terms on their own, so
    every mean is the per-row one to the bit.  Zero-filling the flagged
    terms instead would regroup the additions.
    """
    keep = ~flagged
    kept = keep.sum(axis=1)
    out = np.full(len(lam), np.nan)
    for size in sorted(set(kept[kept > 0].tolist())):
        rows = np.flatnonzero(kept == size)
        sel = keep[rows]
        w = np.broadcast_to(weights, sel.shape)[sel].reshape(-1, size)
        out[rows] = np.sum(w * lam[rows][sel].reshape(-1, size), axis=1) / np.sum(w, axis=1)
    return out


# ---------------------------------------------------------------------------
# run data
# ---------------------------------------------------------------------------


@dataclass
class CabRunData:
    """Raw per-sequence results of one CAB run (one target, one device).

    ``counts`` holds one ``ShotCounts`` per depth with that depth's k_r
    sequences stacked in order, so survivals and subset marginals take one
    batched call per depth.
    """

    block_name: str
    n: int
    kind: str
    depths: tuple[int, ...]
    k_r: int
    k_s: int
    mode: str
    masks: np.ndarray  # (Q,) observable masks tracked in `surv`
    surv: np.ndarray  # (M, K_r, Q) per-sequence survivals
    counts: list[ShotCounts]  # [depth], k_r sequences each
    backend: str

    def depth_means(self) -> np.ndarray:
        return self.surv.mean(axis=1)

    def depth_ses(self) -> np.ndarray:
        return self.surv.std(axis=1, ddof=1) / np.sqrt(self.k_r)


def _resolve_backend(name: str, n: int) -> str:
    if name == "auto":
        return "dm" if n <= DM_AUTO_LIMIT else "stab"
    return name


def _run_counts(
    seqs: list[CircuitSequence],
    device: DeviceModel,
    backend: str,
    k_s: int,
    rngs: list[np.random.Generator],
) -> ShotCounts:
    """Execute sequences of one layout (a depth's sequences, or one CB
    character group) on a resolved backend and sample k_s shots of each
    from its own stream, stacked in order: one backend call per stack."""
    if backend == "dm":
        probs = dm_run(seqs, device)
        return ShotCounts.stack(
            [ShotCounts.from_probabilities(p, seqs[0].n, k_s, rng) for p, rng in zip(probs, rngs)]
        )
    return stab_run_counts(seqs, device, k_s, rngs)


def execute_cab_run(
    device: DeviceModel,
    block: GateBlock,
    config: CabConfig,
    kind: str,
    tag: int,
) -> CabRunData:
    """Sample, execute and post-process all sequences of one run."""
    n = block.n
    backend = _resolve_backend(config.backend, n)
    depths = tuple(config.depths)
    if config.mode == "traverse":
        if n > TRAVERSE_LIMIT:
            raise ResourceLimitError(f"traverse mode limited to {TRAVERSE_LIMIT} qubits")
        masks = np.arange(2**n, dtype=np.int64)
    else:
        rng_obs = np.random.default_rng([config.seed, 5, tag])
        masks = sample_observables(n, config.k_q, rng_obs)

    counts: list[ShotCounts] = []
    for d, m in enumerate(depths):
        seqs = [
            build_cab_sequence(block, m, np.random.default_rng([config.seed, 17, tag, d, k])) for k in range(config.k_r)
        ]
        rngs = [np.random.default_rng([config.seed, 23, tag, d, k]) for k in range(config.k_r)]
        counts.append(_run_counts(seqs, device, backend, config.k_s, rngs))

    # C-contiguous (depth, sequence, mask): the depth means sum along the
    # sequence axis in this layout
    surv = np.empty((len(depths), config.k_r, len(masks)))
    for d, sc in enumerate(counts):
        surv[d] = sc.all_survivals() if config.mode == "traverse" else sc.survivals(masks)
    return CabRunData(
        block_name=block.name,
        n=n,
        kind=kind,
        depths=depths,
        k_r=config.k_r,
        k_s=config.k_s,
        mode=config.mode,
        masks=masks,
        surv=surv,
        counts=counts,
        backend=backend,
    )


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------


def _estimate_from_surv(
    surv: np.ndarray,
    masks: np.ndarray,
    exponents: np.ndarray,
    weights: np.ndarray,
    kind: str,
) -> FidelityEstimate:
    """Fit every mask's decay, aggregate, and jackknife over the sequences.

    ``surv`` has shape (depth, sequence, mask).  The identity mask is pinned
    to lambda = 1 with zero SE and is never flagged; flagged masks drop out
    of the ``weights``-weighted mean of lambda.  When no mask but the
    identity is left, there is no estimate: ``DegenerateFitError``.

    The SE is the delete-one jackknife over the sequence axis, recomputing
    the whole chain.  Every replicate's depth means come from one array
    operation, (sum - surv) / (k_r - 1), and are fitted in one call.  One
    ``_aggregate`` call then averages all replicates: the replicates that
    keep the same number of masks form one (replicates, kept) array, summed
    along its last axis, so each replicate's terms are added in the same
    pairwise grouping as a sum over that replicate alone, and the jackknife
    SE is the per-replicate one to the bit.
    """
    n_depths, k_r = surv.shape[:2]
    identity = masks == 0

    def fit(fbar, ses=None):
        """Fits of fbar (depth, ..., mask), each column on its own."""
        flat = [None if a is None else a.reshape(n_depths, -1) for a in (fbar, ses)]
        lam, lam_se, flagged = (a.reshape(fbar.shape[1:]) for a in _fit_lambda_arrays(exponents, *flat))
        lam[..., identity] = 1.0
        lam_se[..., identity] = 0.0
        flagged[..., identity] = False
        return lam, lam_se, flagged

    lam, lam_se, flagged = fit(surv.mean(axis=1), surv.std(axis=1, ddof=1) / np.sqrt(k_r))
    if np.all(flagged | identity):
        raise DegenerateFitError(
            f"{kind}: every decay but the identity's is flagged ({int(flagged.sum())} of {len(masks)} masks)"
        )
    # every delete-one replicate in one fit, shape (depth, replicate, mask)
    lk, _, flk = fit((surv.sum(axis=1, keepdims=True) - surv) / (k_r - 1))
    jack = _aggregate(lk, weights, flk)
    good = np.isfinite(jack)
    if good.sum() >= 2:
        jm = jack[good].mean()
        se = float(np.sqrt((good.sum() - 1) / good.sum() * np.sum((jack[good] - jm) ** 2)))
    else:
        se = float("nan")
    qps = np.empty(len(masks), QUALITY_DTYPE)
    qps["w_mask"], qps["lam"], qps["flagged"] = masks, lam, flagged
    qps["se"] = np.where(np.isfinite(lam_se), lam_se, 0.0)
    return FidelityEstimate(
        value=float(_aggregate(lam[None], weights, flagged[None])[0]),
        se=se,
        kind=kind,
        quality_params=qps,
        n_flagged=int(flagged.sum()),
    )


def estimate_fidelity(data: CabRunData, kind: str | None = None) -> FidelityEstimate:
    """Fidelity from a run: weighted (traverse) or plain (sample) mean of lambda."""
    exponents = 2.0 * np.asarray(data.depths, dtype=float)
    weights = _weights_for_masks(data.masks, data.n, data.mode)
    est = _estimate_from_surv(data.surv, data.masks, exponents, weights, kind or data.kind)
    est.metadata = {"se_jackknife": est.se, "mode": data.mode}
    if data.mode == "sample":
        # the spread of lambda over the sampled observables adds to the variance
        lam = est.quality_params["lam"][~est.quality_params["flagged"]]
        between = float(np.var(lam, ddof=1) / len(lam)) if len(lam) >= 2 else 0.0
        est.se = float(np.sqrt(est.se**2 + between))
        est.metadata["se_observable_sampling"] = float(np.sqrt(between))
    est.metadata["backend"] = data.backend
    est.metadata["depths"] = list(data.depths)
    return est


def subset_fidelity(data: CabRunData, gate_subset: tuple[int, ...], device: DeviceModel) -> FidelityEstimate:
    """Fidelity of a gate subset, traversing the Z-observables on its qubits.

    Reuses the run's shot data: each depth's stacked counts are
    marginalized to the subset's qubits in one call, and all
    2^(2*len(subset)) restricted observables are traversed.
    """
    qubits = tuple(sorted({q for g in gate_subset for q in device.gates[g].pair}))
    if len(qubits) > SUBSET_QUBIT_LIMIT:
        raise ResourceLimitError(
            f"subset spans {len(qubits)} qubits, traverse limit is {SUBSET_QUBIT_LIMIT}"
        )
    # here: perfbench/tracing.py patches device.fwht, which a module-level import bypasses
    from .device import fwht

    n_s = len(qubits)
    masks = np.arange(2**n_s, dtype=np.int64)
    surv = np.empty((len(data.depths), data.k_r, 2**n_s))
    for d, sc in enumerate(data.counts):
        surv[d] = fwht(sc.marginal_count_vector(qubits)) / data.k_s
    exponents = 2.0 * np.asarray(data.depths, dtype=float)
    weights = _weights_for_masks(masks, n_s, "traverse")
    est = _estimate_from_surv(surv, masks, exponents, weights, data.kind)
    est.metadata = {
        "se_jackknife": est.se,
        "mode": "traverse",
        "gates": list(gate_subset),
        "qubits": list(qubits),
    }
    return est


def interleaved_pure_fidelity(dress: FidelityEstimate, twirl: FidelityEstimate, n: int) -> FidelityEstimate:
    """Isolate the target-gate fidelity from dressed and twirl estimates."""
    d4 = 4.0**n
    denom = d4 * twirl.value - 1.0
    if denom == 0.0:
        raise DegenerateFitError("twirl fidelity equals 1/4^n")
    f = (d4 * dress.value - 1.0) / denom * (1.0 - 1.0 / d4) + 1.0 / d4
    inv = 1.0 / d4
    var = 0.0
    if dress.value != inv:
        var += dress.se**2 / (dress.value - inv) ** 2
    if twirl.value != inv:
        var += twirl.se**2 / (twirl.value - inv) ** 2
    se = abs(f - inv) * math.sqrt(var)
    return FidelityEstimate(
        value=float(f),
        se=float(se),
        kind="pure",
        n_flagged=dress.n_flagged + twirl.n_flagged,
        metadata={"n": n},
    )


# ---------------------------------------------------------------------------
# full experiments
# ---------------------------------------------------------------------------


@dataclass
class SubsetResult:
    gates: tuple[int, ...]
    qubits: tuple[int, ...]
    dressed: FidelityEstimate
    twirl: FidelityEstimate
    pure: FidelityEstimate


@dataclass
class CabReport:
    block_name: str
    n: int
    config: CabConfig
    dressed: FidelityEstimate
    twirl: FidelityEstimate
    pure: FidelityEstimate
    subsets: dict[tuple[int, ...], SubsetResult]
    metadata: dict
    dressed_data: CabRunData
    twirl_data: CabRunData | None  # None when the twirl run is skipped


def run_cab_experiment(
    device: DeviceModel,
    block: GateBlock,
    config: CabConfig,
    *,
    measure_twirl: bool = True,
    twirl_data: CabRunData | None = None,
) -> CabReport:
    """Full pipeline: dressed run, twirl run, interleaving, subset fidelities.

    ``twirl_data`` is a twirl run to reuse instead of running it again: a
    run's twirl depends on the register size and on ``config`` without its
    subsets, not on the target gate.
    """
    outside = sorted({g for s in config.subsets for g in s} - set(block.gate_indices))
    if outside:
        raise ConfigError(
            f"subsets name gates {outside} that are not in the target block {list(block.gate_indices)}"
        )
    dressed_data = execute_cab_run(device, block, config, "dressed", tag=0)
    dressed = estimate_fidelity(dressed_data)
    if measure_twirl:
        if twirl_data is None:
            twirl_data = execute_cab_run(device, GateBlock.identity(block.n), config, "twirl", tag=1)
        twirl = estimate_fidelity(twirl_data)
    else:
        twirl_data = None
        twirl = FidelityEstimate(1.0, 0.0, "twirl", metadata={"assumed_perfect": True})
    pure = interleaved_pure_fidelity(dressed, twirl, block.n)
    subsets: dict[tuple[int, ...], SubsetResult] = {}
    for subset in config.subsets:
        key = tuple(sorted(subset))
        sd = subset_fidelity(dressed_data, key, device)
        st = twirl if twirl_data is None else subset_fidelity(twirl_data, key, device)
        qubits = tuple(sd.metadata["qubits"])
        sp = interleaved_pure_fidelity(sd, st, len(qubits))
        subsets[key] = SubsetResult(key, qubits, sd, st, sp)
    meta = {
        "flag_policy": "sign-ambiguous quality parameters are excluded from the mean",
        "gate_order_convention": "tableau identity, i.e. modulo global phase",
        "backend": dressed.metadata.get("backend"),
        "seed": config.seed,
    }
    return CabReport(
        block_name=block.name,
        n=block.n,
        config=config,
        dressed=dressed,
        twirl=twirl,
        pure=pure,
        subsets=subsets,
        metadata=meta,
        dressed_data=dressed_data,
        twirl_data=twirl_data,
    )


# ---------------------------------------------------------------------------
# cycle-benchmarking baseline
# ---------------------------------------------------------------------------


def _prep_layer_for_character(n: int, char_x: np.ndarray, char_z: np.ndarray):
    """Local Cliffords mapping each qubit's Z to the character's letter."""
    from .paulis import LocalCliffordLayer, single_qubit_cliffords

    table = single_qubit_cliffords()
    elements = np.empty(n, dtype=np.uint8)
    for q in range(n):
        code = int(char_x[q]) + 2 * int(char_z[q])
        if code == 0:
            elements[q] = table.identity_index
        else:
            elements[q] = table.find_z_preparation(int(char_x[q]), int(char_z[q]))
    return LocalCliffordLayer(n, elements)


def build_cb_sequence(
    block: GateBlock,
    character,
    cycles: int,
    order: int,
    rng: np.random.Generator,
) -> CircuitSequence:
    """One cycle-benchmarking sequence: basis prep, cycles of (P, U), closure."""
    n = block.n
    if cycles % order != 0:
        raise ValueError("cycle count must be a multiple of the gate order")
    prep = _prep_layer_for_character(n, character.x, character.z)
    paulis = [sample_random_pauli(n, rng) for _ in range(cycles)]
    layers: list = [CliffordLayer(prep)]
    for p in paulis:
        layers.append(PauliLayer(p))
        layers.extend(block.layers)
    layers.append(PauliLayer(compile_cycle_pauli(block.tableau, paulis), closing=True))
    layers.append(CliffordLayer(prep.inverse()))
    return CircuitSequence(n, tuple(layers))


def run_cb_experiment(
    device: DeviceModel,
    block: GateBlock,
    config: CabConfig,
    cycles: tuple[int, ...],
    n_chars: int,
    order_cap: int = 64,
) -> FidelityEstimate:
    """Cycle-benchmarking estimate of the dressed fidelity of the block.

    The k_r sequences are split into n_chars groups, each tied to one
    uniformly sampled Pauli character; per character the decay of its
    expectation over the number of gate applications is fitted and the
    results are averaged.  This variant samples characters uniformly from
    the full Pauli group and closes every sequence with a compiled Pauli.
    """
    n = block.n
    order = gate_order(block.tableau, cap=order_cap)
    if order is None:
        raise UnsupportedGateError(f"gate order exceeds {order_cap}")
    for c in cycles:
        if c % order != 0:
            raise UnsupportedGateError("cycle counts must be multiples of the gate order")
    if n_chars < 1 or config.k_r % n_chars != 0:
        raise ConfigError("k_r must be divisible by the number of characters")
    group = config.k_r // n_chars
    if group < 2:
        raise ConfigError(f"k_r // n_chars must give >= 2 sequences per character, got {group}")
    backend = _resolve_backend(config.backend, n)

    rng_char = np.random.default_rng([config.seed, 7, 2])
    characters = [sample_random_pauli(n, rng_char) for _ in range(n_chars)]
    char_masks = pack_bits(np.array([p.x | p.z for p in characters]))

    surv = np.empty((len(cycles), n_chars, group))
    for d, c in enumerate(cycles):
        for ci, char in enumerate(characters):
            seqs = [
                build_cb_sequence(block, char, c, order, np.random.default_rng([config.seed, 29, 2, d, ci, k]))
                for k in range(group)
            ]
            rngs = [np.random.default_rng([config.seed, 31, 2, d, ci, k]) for k in range(group)]
            sc = _run_counts(seqs, device, backend, config.k_s, rngs)
            surv[d, ci] = sc.survivals(char_masks[ci : ci + 1])[:, 0]

    est = _estimate_from_surv(
        surv.transpose(0, 2, 1),
        char_masks,
        np.asarray(cycles, dtype=float),
        np.ones(n_chars),  # equal weights: the plain mean over characters
        "dressed",
    )
    est.metadata = {
        "protocol": "cycle-benchmarking variant (uniform characters, compiled Pauli closure)",
        "cycles": list(cycles),
        "gate_order": order,
        "n_characters": n_chars,
        "backend": backend,
    }
    return est
