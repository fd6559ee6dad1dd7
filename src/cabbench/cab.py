"""Character-average benchmarking engine and cycle-benchmarking baseline.

A benchmark run samples random sequences per circuit depth, executes them
on a backend, extracts Z-observable survival probabilities, fits the decay
f(m) = A * lambda^(2m) per observable, and averages the quality parameters
into a process-fidelity estimate.  A depth's sequences (a CB cycle count's,
every character's) are built as one ``SequenceStack`` and run by one backend
call: sequence k draws its Clifford and its Paulis, one Pauli at a time, from
its own stream, and one GF(2) product gives every closing Pauli.  The twirling-layer fidelity is measured
the same way with the identity as the target gate; the interleaved formula
isolates the pure gate fidelity from the dressed one.

Every SE is one delete-one jackknife (Efron & Stein 1981): an estimate
keeps its replicates, and a derived number (a pure fidelity, a correlation)
is its function of the full values and of replicate k of each group
(``jackknife``); each observable's lambda is such an estimate too.

Every draw comes from ``np.random.default_rng(key)``, and no two draws of
one run share a key (tag 0 dressed, 1 twirl, from the run's kind; d the
depth or cycle index, k the sequence, ci the CB character):

- ``[seed, 5, tag]`` sample-mode observables; ``[seed, 17, tag, d, k]`` a
  CAB sequence and ``[seed, 23, tag, d, k]`` its shots;
- ``[seed, 7, 2]`` CB characters; ``[seed, 29, 2, d, ci, k]`` a CB
  sequence and ``[seed, 31, 2, d, ci, k]`` its shots;
- ``[seed, 3]`` the ``fully_connected`` block, ``[seed, 9]`` the
  ``order_stats`` draws (``cli``);
- runs seeded ``seed + 1_000_003 * it`` for ``optimize``'s reference at
  iteration it and that + 500,009 for its iterate (``calibration``).

``parallel_cz_scan`` reuses the keys at every point on purpose: sequence k
is the same draw at every gate count, which makes the differences between
points less noisy, and the twirl run is shared outright.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .backends import ShotCounts, dm_run, pack_bits, stab_run_counts
from .circuits import GateBlock, SequenceStack
from .device import DeviceModel, ResourceLimitError
from .paulis import local_clifford_elements, random_pauli_bits, single_qubit_cliffords
from .tableau import compile_cycle_pauli, compile_inverse_pauli, gate_order

TRAVERSE_LIMIT = 12
CB_ORDER_CAP = 64
SUBSET_QUBIT_LIMIT = 8
DM_AUTO_LIMIT = 6


class ConfigError(ValueError):
    """The experiment configuration is invalid."""


class DegenerateFitError(RuntimeError):
    """A decay fit has a zero denominator, or no decay is left to average."""


class UnsupportedGateError(ConfigError):
    """The target gate cannot be benchmarked by this protocol."""


def _check_depths(depths, name: str = "depths"):
    """A decay is fitted over at least two distinct non-negative depths."""
    if len(set(depths)) < 2 or any(m < 0 for m in depths):
        raise ConfigError(f"need at least two distinct non-negative {name}, got {list(depths)}")


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
        _check_depths(self.depths)
        if self.k_r < 2:
            raise ConfigError(f"k_r must be >= 2 for a jackknife standard error, got {self.k_r}")
        if self.k_s < 1:
            raise ConfigError("k_s must be >= 1")
        if self.mode not in ("sample", "traverse"):
            raise ConfigError("mode must be 'sample' or 'traverse'")
        if self.mode == "sample" and self.k_q < 2:
            raise ConfigError(f"k_q must be >= 2 in sample mode for an observable-sampling SE, got {self.k_q}")
        if self.backend not in ("dm", "stab", "auto"):
            raise ConfigError(f"backend must be 'dm', 'stab' or 'auto', got {self.backend!r}")


# one fitted decay per Z-observable mask: lambda, its jackknife SE (0.0 where
# that is undefined) and whether the fit was sign-ambiguous
QUALITY_DTYPE = np.dtype([("w_mask", np.int64), ("lam", float), ("se", float), ("flagged", bool)])


@dataclass
class FidelityEstimate:
    """A fidelity and its SE, ``jackknife_se`` of its ``replicates``: the
    estimate redone without each sequence ("sequence", each mask's lambda
    SE too) and, in sample mode, without each sampled mask ("observable").
    An estimate without replicates, such as the assumed-perfect twirl, is a
    constant."""

    value: float
    se: float
    kind: str  # "dressed", "twirl" or "pure"
    quality_params: np.ndarray = field(default_factory=lambda: np.empty(0, QUALITY_DTYPE))
    n_flagged: int = 0
    metadata: dict = field(default_factory=dict)
    replicates: dict[str, np.ndarray] = field(default_factory=dict)

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


def build_cab_sequence(block: GateBlock, m: int, rngs: list[np.random.Generator]) -> SequenceStack:
    """Random benchmarking sequences of depth m for the target block, one
    per stream of ``rngs``, as one stack.

    Layout: C, then m repetitions of (P, U, P, U^-1), then the compiled
    closing Pauli, then C^-1; each sequence's noiseless composition is the
    identity.  Sequence k draws its C, then its 2m Paulis, from ``rngs[k]``;
    all K closing Paulis come from one ``compile_inverse_pauli`` call.
    """
    n, k = block.n, len(rngs)
    c = np.empty((k, n), dtype=np.uint8)
    paulis = np.empty((k, 2 * m, 2, n), dtype=np.uint8)
    for row, rng in enumerate(rngs):
        c[row] = local_clifford_elements(n, rng)
        for i in range(2 * m):
            paulis[row, i] = random_pauli_bits(n, rng)
    closer = compile_inverse_pauli(block.tableau, paulis.reshape(k, 2 * m, 2 * n), m)
    layers: list = [("clifford", c)]
    for i in range(m):
        layers += [("pauli", paulis[:, 2 * i]), *block.layers, ("pauli", paulis[:, 2 * i + 1]), *block.inverse_layers]
    layers += [("pauli", closer.reshape(k, 2, n)), ("clifford", single_qubit_cliffords().inverse_table[c])]
    return SequenceStack(n, tuple(layers))


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

    ``fbar`` has shape (M, Q).  Returns (lam, flagged); flagged marks
    sign-ambiguous fits (non-positive survival ratios), whose lam is nan.
    Past two depths the fit of log f is weighted by (fbar / ses)^2, or 1
    where that is not finite; two depths read no ``ses``.
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
        return lam, flagged
    flagged = np.any(fbar <= 0, axis=0) | ~np.all(np.isfinite(fbar), axis=0)
    lam = np.full(q, np.nan)
    ok = ~flagged
    if np.any(ok):
        y = np.log(fbar[:, ok])
        with np.errstate(divide="ignore", invalid="ignore"):
            w = (fbar[:, ok] / ses[:, ok]) ** 2
        w = np.where(np.isfinite(w), w, 1.0)
        wsum = w.sum(axis=0)
        xbar = (w * x[:, None]).sum(axis=0) / wsum
        ybar = (w * y).sum(axis=0) / wsum
        sxx = (w * (x[:, None] - xbar) ** 2).sum(axis=0)
        if np.any(sxx == 0):
            raise DegenerateFitError("zero spread of depths after weighting")
        slope = (w * (x[:, None] - xbar) * (y - ybar)).sum(axis=0) / sxx
        lam[ok] = np.exp(slope)
    return lam, flagged


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
    batched call per depth.  The byte histograms that subset marginals
    build are cached on those counts, so every subset of the run shares
    them, and they live as long as the run data.
    """

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
    stack: SequenceStack,
    device: DeviceModel,
    backend: str,
    k_s: int,
    rngs: list[np.random.Generator],
) -> ShotCounts:
    """Execute a stack (a depth's sequences, or a CB cycle count's) on a
    resolved backend and sample k_s shots of each sequence from its own
    stream, stacked in order: one backend call per stack."""
    if backend == "dm":
        probs = dm_run(stack, device)
        return ShotCounts.stack([ShotCounts.from_probabilities(p, stack.n, k_s, rng) for p, rng in zip(probs, rngs)])
    return stab_run_counts(stack, device, k_s, rngs)


def execute_cab_run(
    device: DeviceModel,
    block: GateBlock,
    config: CabConfig,
    kind: str,
) -> CabRunData:
    """Sample, execute and post-process all sequences of one run of ``kind``
    "dressed" or "twirl", which picks its stream tag (module docstring)."""
    tag = {"dressed": 0, "twirl": 1}.get(kind)
    if tag is None:
        raise ValueError(f"run kind must be 'dressed' or 'twirl', got {kind!r}")
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
        seq_rngs = [np.random.default_rng([config.seed, 17, tag, d, k]) for k in range(config.k_r)]
        rngs = [np.random.default_rng([config.seed, 23, tag, d, k]) for k in range(config.k_r)]
        counts.append(_run_counts(build_cab_sequence(block, m, seq_rngs), device, backend, config.k_s, rngs))

    # C-contiguous (depth, sequence, mask): the depth means sum along the
    # sequence axis in this layout
    surv = np.empty((len(depths), config.k_r, len(masks)))
    for d, sc in enumerate(counts):
        surv[d] = sc.all_survivals() if config.mode == "traverse" else sc.survivals(masks)
    return CabRunData(
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


def jackknife_se(replicates: dict[str, np.ndarray]) -> float | np.ndarray:
    """sqrt of the sum over groups of (g - 1) / g * sum((r - mean)^2) over
    each group's g finite replicates r along the last axis, nan where a group
    keeps fewer than 2: a float for 1-d replicates.  Rows that keep as many
    replicates are summed as one array, each to the bit (``_aggregate``)."""
    var = 0.0
    for reps in replicates.values():
        good = np.isfinite(reps)
        kept = good.sum(axis=-1)
        part = np.full(kept.shape, np.nan)
        for size in set(kept[kept > 1].tolist()):
            rows = kept == size
            r = reps[rows] if size == reps.shape[-1] else reps[rows][good[rows]].reshape(-1, size)
            part[rows] = (size - 1) / size * np.sum((r - r.mean(axis=1, keepdims=True)) ** 2, axis=1)
        var = var + part
    return float(np.sqrt(var)) if np.ndim(var) == 0 else np.sqrt(var)


def jackknife(fn, *inputs: FidelityEstimate) -> tuple[float, float, dict[str, np.ndarray]]:
    """The value, SE and replicates of ``fn`` of the ``inputs``.

    Replicate k of a group is ``fn``, elementwise on arrays, of replicate k
    of each input that has the group and of the value of each that has not.
    Deleting sequence k from independent runs of equal k_r is a valid grouped
    jackknife; replicates of unequal number fail to broadcast.  Failed
    arithmetic (a division by zero) gives a non-finite replicate, dropped.
    """
    sizes = {name: len(reps) for est in inputs for name, reps in est.replicates.items()}
    value = float(fn(*(est.value for est in inputs)))
    with np.errstate(all="ignore"):
        replicates = {
            name: np.asarray(fn(*(est.replicates.get(name, np.full(size, est.value)) for est in inputs)), dtype=float)
            for name, size in sizes.items()
        }
    return value, jackknife_se(replicates), replicates


def _estimate_from_surv(
    surv: np.ndarray,
    masks: np.ndarray,
    exponents: np.ndarray,
    weights: np.ndarray,
    kind: str,
) -> FidelityEstimate:
    """Fit every mask's decay, aggregate, and jackknife over the sequences.

    ``surv`` has shape (depth, sequence, mask).  The identity mask is pinned
    to lambda = 1 and is never flagged; flagged masks drop out of the
    ``weights``-weighted mean of lambda.  When no mask but the identity is
    left, there is no estimate: ``DegenerateFitError``.

    One fit and one ``_aggregate`` call cover every row: row 0 fits the
    depth means of all sequences, row 1 + k those without sequence k, each
    weighted past two depths by its own depth SEs.  The value is row 0, the
    "sequence" replicates rows 1..., and each mask's lambda SE the jackknife
    of its lambda over them: 0.0 for the identity, a flagged mask, or fewer
    than two finite replicates.
    """
    n_depths, k_r = surv.shape[:2]
    identity = masks == 0
    fbar = np.concatenate([surv.mean(axis=1, keepdims=True), (surv.sum(axis=1, keepdims=True) - surv) / (k_r - 1)], 1)
    ses = None
    if n_depths > 2:
        # the squared deviations from the mean sum to SS, and without sequence k
        # to SS - k_r / (k_r - 1) * dev_k^2; one sequence left (k_r = 2) has no
        # spread, so its fit takes unit weights
        dev2 = (surv - surv.mean(axis=1, keepdims=True)) ** 2
        ss = np.maximum(dev2.sum(axis=1, keepdims=True) - k_r / (k_r - 1) * dev2, 0.0)
        rows = np.sqrt(ss / ((k_r - 2) * (k_r - 1))) if k_r > 2 else np.full_like(surv, np.nan)
        ses = np.concatenate([surv.std(axis=1, ddof=1, keepdims=True) / np.sqrt(k_r), rows], 1).reshape(n_depths, -1)
    lam, flagged = (a.reshape(1 + k_r, -1) for a in _fit_lambda_arrays(exponents, fbar.reshape(n_depths, -1), ses))
    lam[:, identity] = 1.0
    flagged[:, identity] = False
    if np.all(flagged[0] | identity):
        raise DegenerateFitError(
            f"{kind}: every decay but the identity's is flagged ({int(flagged[0].sum())} of {len(masks)} masks)"
        )
    means = _aggregate(lam, weights, flagged)
    replicates = {"sequence": means[1:]}
    mask_se = jackknife_se({"sequence": np.ascontiguousarray(lam[1:].T)})
    qps = np.empty(len(masks), QUALITY_DTYPE)
    qps["w_mask"], qps["lam"], qps["flagged"] = masks, lam[0], flagged[0]
    qps["se"] = np.where(np.isfinite(mask_se) & ~flagged[0], mask_se, 0.0)
    return FidelityEstimate(
        value=float(means[0]),
        se=jackknife_se(replicates),
        kind=kind,
        quality_params=qps,
        n_flagged=int(flagged[0].sum()),
        replicates=replicates,
    )


def estimate_fidelity(data: CabRunData) -> FidelityEstimate:
    """Fidelity from a run: weighted (traverse) or plain (sample) mean of
    lambda.  Sample mode adds the "observable" replicates, the mean without
    each mask (a flagged one: the full value), from one (k_q, k_q)
    ``_aggregate`` call."""
    exponents = 2.0 * np.asarray(data.depths, dtype=float)
    weights = _weights_for_masks(data.masks, data.n, data.mode)
    est = _estimate_from_surv(data.surv, data.masks, exponents, weights, data.kind)
    est.metadata = {"se_jackknife": est.se, "mode": data.mode}
    if data.mode == "sample":
        q = est.quality_params
        drop = q["flagged"][None] | np.eye(len(q), dtype=bool)
        est.replicates["observable"] = _aggregate(np.broadcast_to(q["lam"], drop.shape), weights, drop)
        est.se = jackknife_se(est.replicates)
        est.metadata["se_observable_sampling"] = jackknife_se({"observable": est.replicates["observable"]})
    est.metadata["backend"] = data.backend
    est.metadata["depths"] = list(data.depths)
    return est


def subset_fidelity(data: CabRunData, gate_subset: tuple[int, ...], device: DeviceModel) -> FidelityEstimate:
    """Fidelity of a gate subset, traversing the Z-observables on its qubits.

    Reuses the run's shot data: each depth's stacked counts are
    marginalized to the subset's qubits in one call, and all
    2^(2*len(subset)) restricted observables are traversed.  A subset
    whose qubits lie in one code byte folds that byte's histogram, which
    the run's subsets share; any other takes one pass over the codes
    (``ShotCounts.marginal_count_vector``).  Subsets past
    ``SUBSET_QUBIT_LIMIT`` qubits raise ResourceLimitError;
    ``run_cab_experiment`` refuses them as a ConfigError before its runs.
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
    """Isolate the target-gate fidelity from dressed and twirl estimates; the
    pure estimate keeps the formula's replicates (``jackknife``)."""
    d4 = 4.0**n
    if d4 * twirl.value - 1.0 == 0.0:
        raise DegenerateFitError("twirl fidelity equals 1/4^n")
    value, se, replicates = jackknife(
        lambda fd, ft: (d4 * fd - 1.0) / (d4 * ft - 1.0) * (1.0 - 1.0 / d4) + 1.0 / d4, dress, twirl
    )
    return FidelityEstimate(
        value=value,
        se=se,
        kind="pure",
        n_flagged=dress.n_flagged + twirl.n_flagged,
        metadata={"n": n},
        replicates=replicates,
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
    subsets, not on the target gate.  A subset that names a gate outside the
    block, or spans more than ``SUBSET_QUBIT_LIMIT`` qubits, is a
    ConfigError before any run.
    """
    outside = sorted({g for s in config.subsets for g in s} - set(block.gate_indices))
    if outside:
        raise ConfigError(
            f"subsets name gates {outside} that are not in the target block {list(block.gate_indices)}"
        )
    for s in config.subsets:
        span = len({q for g in s for q in device.gates[g].pair})
        if span > SUBSET_QUBIT_LIMIT:
            raise ConfigError(f"subset {list(s)} spans {span} qubits, traverse limit is {SUBSET_QUBIT_LIMIT}")
    dressed_data = execute_cab_run(device, block, config, "dressed")
    dressed = estimate_fidelity(dressed_data)
    if measure_twirl:
        if twirl_data is None:
            twirl_data = execute_cab_run(device, GateBlock.identity(block.n), config, "twirl")
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


def build_cb_sequence(
    block: GateBlock,
    characters: np.ndarray,
    cycles: int,
    order: int,
    rngs: list[np.random.Generator],
) -> SequenceStack:
    """Cycle-benchmarking sequences, one per stream of ``rngs``, as one
    stack: basis prep, cycles of (P, U), closure.

    ``characters`` holds the Pauli bits (K, 2, n) of each sequence's
    character, or (1, 2, n) of one that every sequence shares.  Each qubit's
    prep maps Z to the +letter of the character (``z_preparation``).
    Sequence k draws its Paulis from ``rngs[k]``, and all K closing Paulis
    come from one ``compile_cycle_pauli`` call.
    """
    n, k = block.n, len(rngs)
    if cycles % order != 0:
        raise ValueError("cycle count must be a multiple of the gate order")
    table = single_qubit_cliffords()
    prep = table.z_preparation[characters[:, 0] + 2 * characters[:, 1]]
    paulis = np.empty((k, cycles, 2, n), dtype=np.uint8)
    for row, rng in enumerate(rngs):
        for i in range(cycles):
            paulis[row, i] = random_pauli_bits(n, rng)
    closer = compile_cycle_pauli(block.tableau, paulis.reshape(k, cycles, 2 * n))
    layers: list = [("clifford", prep)]
    for i in range(cycles):
        layers += [("pauli", paulis[:, i]), *block.layers]
    layers += [("pauli", closer.reshape(k, 2, n)), ("clifford", table.inverse_table[prep])]
    return SequenceStack(n, tuple(layers))


def run_cb_experiment(
    device: DeviceModel,
    block: GateBlock,
    config: CabConfig,
    cycles: tuple[int, ...],
    n_chars: int,
) -> FidelityEstimate:
    """Cycle-benchmarking estimate of the dressed fidelity of the block.

    The k_r sequences are split into n_chars groups, each tied to one
    uniformly sampled Pauli character; per character the decay of its
    expectation over the number of gate applications is fitted and the
    results are averaged.  This variant samples characters uniformly from
    the full Pauli group and closes every sequence with a compiled Pauli.
    A cycle count's k_r sequences, character by character, are one stack:
    one backend call, and one ``survivals`` call of every character's mask.
    """
    _check_depths(cycles, "cycles")
    n = block.n
    order = gate_order(block.tableau, cap=CB_ORDER_CAP)
    if order is None:
        raise UnsupportedGateError(f"gate order exceeds {CB_ORDER_CAP}")
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
    characters = np.array([random_pauli_bits(n, rng_char) for _ in range(n_chars)])  # (n_chars, 2, n)
    char_masks = pack_bits(characters[:, 0] | characters[:, 1])

    row_chars = np.repeat(np.arange(n_chars), group)  # stack row ci * group + k is sequence k of character ci
    surv = np.empty((len(cycles), n_chars, group))
    for d, c in enumerate(cycles):
        seq_rngs = [np.random.default_rng([config.seed, 29, 2, d, *divmod(r, group)]) for r in range(config.k_r)]
        stack = build_cb_sequence(block, characters[row_chars], c, order, seq_rngs)
        rngs = [np.random.default_rng([config.seed, 31, 2, d, *divmod(r, group)]) for r in range(config.k_r)]
        sc = _run_counts(stack, device, backend, config.k_s, rngs)
        surv[d] = sc.survivals(char_masks)[np.arange(config.k_r), row_chars].reshape(n_chars, group)

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
