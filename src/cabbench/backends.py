"""Two circuit backends plus process-fidelity evaluation.

``dm_run`` is the exact oracle: full density-matrix evolution with the
coherent coupling unitary, depolarizing channels applied as channels, and
readout confusion.  ``stab_run_counts`` is the scalable backend: sequences
that ideally close to the identity are executed by propagating sampled
Pauli faults through the Clifford layers, with every coherent diagonal
error replaced by its exact Pauli twirl.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CircuitSequence, CliffordLayer, GateLayer, PauliLayer, Unitary1qLayer
from .device import DeviceModel, PauliChannel, ResourceLimitError, fwht
from .paulis import _LETTER_MATS, PauliString, single_qubit_cliffords

DM_QUBIT_LIMIT = 12
CHOI_QUBIT_LIMIT = 6
CHOI_CHUNK = 1024  # basis pairs per batched channel call


# ---------------------------------------------------------------------------
# density-matrix primitives (batch-aware: rho has shape (..., d, d))
# ---------------------------------------------------------------------------


def _dm_zero_state(n: int) -> np.ndarray:
    d = 2**n
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _split_subsystem(rho: np.ndarray, n: int, qubits: tuple[int, ...]):
    """View rho as (..., dS, R, dS, R) with the given qubits grouped first."""
    batch = rho.shape[:-2]
    nb = len(batch)
    t = rho.reshape(*batch, *([2] * n), *([2] * n))
    qs = set(qubits)
    ket = [nb + q for q in qubits]
    bra = [nb + n + q for q in qubits]
    rest_ket = [nb + q for q in range(n) if q not in qs]
    rest_bra = [nb + n + q for q in range(n) if q not in qs]
    perm = list(range(nb)) + ket + rest_ket + bra + rest_bra
    t = t.transpose(perm)
    ds = 2 ** len(qubits)
    r = 2 ** (n - len(qubits))
    return t.reshape(*batch, ds, r, ds, r), perm, batch


def _unsplit_subsystem(t: np.ndarray, n: int, perm, batch) -> np.ndarray:
    d = 2**n
    t = t.reshape(*batch, *([2] * (2 * n)))
    t = t.transpose(np.argsort(perm))
    return t.reshape(*batch, d, d)


def apply_1q_unitary(rho: np.ndarray, n: int, q: int, u: np.ndarray) -> np.ndarray:
    t, perm, batch = _split_subsystem(rho, n, (q,))
    t = np.einsum("ab,...brcs->...arcs", u, t)
    t = np.einsum("cd,...ardt->...arct", u.conj(), t)
    return _unsplit_subsystem(t, n, perm, batch)


def apply_multiplier(rho: np.ndarray, n: int, qubits: tuple[int, ...], mult: np.ndarray) -> np.ndarray:
    """Elementwise multiply by ``mult[ket_sub, bra_sub]`` on a subsystem."""
    t, perm, batch = _split_subsystem(rho, n, qubits)
    t = t * mult[:, None, :, None]
    return _unsplit_subsystem(t, n, perm, batch)


def apply_diagonal_unitary(rho: np.ndarray, n: int, qubits: tuple[int, ...], diag: np.ndarray) -> np.ndarray:
    return apply_multiplier(rho, n, qubits, np.outer(diag, diag.conj()))


def apply_pauli_channel(rho: np.ndarray, n: int, channel: PauliChannel) -> np.ndarray:
    """Z-type Pauli channel: rho entry (a,b) scales by sum_w p_w s_w(a)s_w(b)."""
    k = len(channel.support)
    dim = 2**k
    signs = np.empty((dim, dim))
    idx = np.arange(dim)
    for w in range(dim):
        par = np.bitwise_count(np.bitwise_and(idx, w)) & 1
        signs[w] = 1.0 - 2.0 * par
    mult = np.einsum("w,wa,wb->ab", channel.weights, signs, signs)
    return apply_multiplier(rho, n, channel.support, mult)


def apply_depol_channel(rho: np.ndarray, n: int, qubits: tuple[int, ...], p: float) -> np.ndarray:
    if p == 1.0:
        return rho
    t, perm, batch = _split_subsystem(rho, n, qubits)
    ds = t.shape[-4]
    traced = np.einsum("...iaib->...ab", t)
    mixed = np.einsum("ij,...ab->...iajb", np.eye(ds) / ds, traced)
    t = p * t + (1 - p) * mixed
    return _unsplit_subsystem(t, n, perm, batch)


def _readout_confusion(probs: np.ndarray, n: int, e0: np.ndarray, e1: np.ndarray) -> np.ndarray:
    t = probs.reshape([2] * n)
    for q in range(n):
        if e0[q] == 0.0 and e1[q] == 0.0:
            continue
        m = np.array([[1 - e0[q], e1[q]], [e0[q], 1 - e1[q]]])
        t = np.moveaxis(np.tensordot(m, np.moveaxis(t, q, 0), axes=(1, 0)), 0, q)
    return t.reshape(-1)


def _ideal_cz_diag() -> np.ndarray:
    return np.array([1.0, 1.0, 1.0, -1.0], dtype=complex)


def _apply_layer_dm(
    rho: np.ndarray,
    n: int,
    layer,
    device: DeviceModel,
    noisy: bool,
    twirl_coupling: bool,
) -> np.ndarray:
    table = single_qubit_cliffords()
    if isinstance(layer, CliffordLayer):
        for q, e in enumerate(layer.layer.elements):
            if e != table.identity_index:
                rho = apply_1q_unitary(rho, n, q, table.matrix(int(e)))
        if noisy:
            rho = _apply_1q_depol_all(rho, n, device)
    elif isinstance(layer, PauliLayer):
        p = layer.pauli
        for q in range(n):
            code = int(p.x[q]) + 2 * int(p.z[q])
            if code:
                rho = apply_1q_unitary(rho, n, q, _LETTER_MATS[code])
        if noisy and device.pauli_layer_noise:
            rho = _apply_1q_depol_all(rho, n, device)
    elif isinstance(layer, Unitary1qLayer):
        for q, u in layer.ops:
            rho = apply_1q_unitary(rho, n, q, u)
        if noisy:
            rho = _apply_1q_depol_all(rho, n, device)
    elif isinstance(layer, GateLayer):
        device.check_layer_disjoint(layer.gates)
        if noisy:
            for g in layer.gates:
                spec = device.gates[g]
                rho = apply_depol_channel(rho, n, tuple(spec.pair), spec.effective_depol_p())
            if twirl_coupling:
                for ch in device.layer_twirl_channels(layer.gates):
                    rho = apply_pauli_channel(rho, n, ch)
            else:
                for v in device.coherent_layer_components(layer.gates):
                    rho = apply_diagonal_unitary(rho, n, v.qubits, v.diag)
        for g in layer.gates:
            rho = apply_diagonal_unitary(rho, n, tuple(device.gates[g].pair), _ideal_cz_diag())
    else:
        raise TypeError(f"unknown layer type {type(layer)!r}")
    return rho


def _apply_1q_depol_all(rho: np.ndarray, n: int, device: DeviceModel) -> np.ndarray:
    for q in range(n):
        p = float(device.single_qubit_depol[q])
        if p < 1.0:
            rho = apply_depol_channel(rho, n, (q,), p)
    return rho


def dm_run(
    seq: CircuitSequence,
    device: DeviceModel,
    *,
    twirl_coupling: bool = False,
) -> np.ndarray:
    """Exact outcome distribution of a sequence on the device.

    Returns the probability vector over the 2^n bitstrings (qubit 0 is the
    most significant bit).  ``twirl_coupling`` replaces each coherent
    diagonal error component by its exact Pauli twirl, which is the model
    the stochastic backend samples from.
    """
    n = seq.n
    if n > DM_QUBIT_LIMIT:
        raise ResourceLimitError(f"density-matrix backend limited to {DM_QUBIT_LIMIT} qubits")
    rho = _dm_zero_state(n)
    for layer in seq.layers:
        rho = _apply_layer_dm(rho, n, layer, device, noisy=True, twirl_coupling=twirl_coupling)
    probs = np.real(np.diagonal(rho))
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise RuntimeError(f"probabilities sum to {total}, expected 1")
    probs = np.clip(probs, 0.0, None)
    if np.any(device.readout_e0 > 0) or np.any(device.readout_e1 > 0):
        probs = _readout_confusion(probs, n, device.readout_e0, device.readout_e1)
    return probs


# ---------------------------------------------------------------------------
# stabilizer fault-propagation backend
# ---------------------------------------------------------------------------


@dataclass
class ShotCounts:
    """Measurement outcomes of one sequence: unique bitstrings with counts."""

    n: int
    k_s: int
    bits: np.ndarray  # (D, n) uint8, unique outcome rows
    counts: np.ndarray  # (D,) int64

    def __post_init__(self):
        if self.k_s < 1:
            raise ValueError("empty counts: k_s must be >= 1")
        if int(self.counts.sum()) != self.k_s:
            raise ValueError("counts must sum to the number of shots")

    @staticmethod
    def from_outcomes(outcomes: np.ndarray) -> "ShotCounts":
        outcomes = np.asarray(outcomes, dtype=np.uint8)
        k_s, n = outcomes.shape
        packed = pack_bits(outcomes)
        uniq, counts = np.unique(packed, return_counts=True)
        return ShotCounts(n, k_s, unpack_bits(uniq, n), counts.astype(np.int64))

    @staticmethod
    def from_probabilities(probs: np.ndarray, n: int, k_s: int, rng: np.random.Generator) -> "ShotCounts":
        sampled = rng.multinomial(k_s, probs / probs.sum())
        nz = np.flatnonzero(sampled)
        return ShotCounts(n, k_s, unpack_bits(nz.astype(np.int64), n), sampled[nz].astype(np.int64))

    def packed(self) -> np.ndarray:
        return pack_bits(self.bits)

    def survival(self, w_mask: int) -> float:
        """sum_x count(x)/k_s * (-1)^(w.x) for the Z-observable mask w."""
        par = np.bitwise_count(np.bitwise_and(self.packed(), np.int64(w_mask))) & 1
        signs = 1.0 - 2.0 * par
        return float(np.dot(signs, self.counts) / self.k_s)

    def count_vector(self) -> np.ndarray:
        """Dense count vector over all 2^n outcomes (small n only)."""
        if self.n > 26:
            raise ResourceLimitError("dense count vector too large")
        vec = np.zeros(2**self.n)
        vec[self.packed()] = self.counts
        return vec

    def all_survivals(self) -> np.ndarray:
        """Survivals of every Z-observable at once (small n only)."""
        return np.real(fwht(self.count_vector())) / self.k_s

    def marginal_count_vector(self, qubits: tuple[int, ...]) -> np.ndarray:
        """Dense count vector of the outcomes restricted to ``qubits``."""
        k = len(qubits)
        sub = np.zeros(len(self.counts), dtype=np.int64)
        for i, q in enumerate(qubits):
            sub |= self.bits[:, q].astype(np.int64) << (k - 1 - i)
        return np.bincount(sub, weights=self.counts, minlength=2**k)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Rows of bits (qubit 0 first = MSB) to int64 codes."""
    n = bits.shape[-1]
    if n > 62:
        raise ResourceLimitError("bit packing limited to 62 qubits")
    weights = (1 << np.arange(n - 1, -1, -1)).astype(np.int64)
    return bits.astype(np.int64) @ weights


def unpack_bits(codes: np.ndarray, n: int) -> np.ndarray:
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    return ((codes[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def _conj_bits_table() -> np.ndarray:
    """(24, 4, 2) letter-code action of the single-qubit Cliffords."""
    table = single_qubit_cliffords()
    return table.action[:, :, :2].copy()


def stab_run_counts(
    seq: CircuitSequence, device: DeviceModel, k_s: int, rng: np.random.Generator
) -> ShotCounts:
    """Sample k_s measurement outcomes of a sequence that closes to identity.

    Noise is applied as sampled Pauli faults: per-qubit depolarizing after
    single-qubit layers, per-gate depolarizing, and the exact Pauli twirl
    of each coherent diagonal component of every gate layer.  Faults are
    propagated through the remaining ideal Clifford layers, so the noiseless
    outcome (all zeros) is flipped where the accumulated fault has an X
    component.
    """
    n = seq.n
    act = _conj_bits_table()
    fx = np.zeros((k_s, n), dtype=np.uint8)
    fz = np.zeros((k_s, n), dtype=np.uint8)
    depol = device.single_qubit_depol
    any_1q_noise = bool(np.any(depol < 1.0))

    def add_1q_depol():
        if not any_1q_noise:
            return
        mask = rng.random((k_s, n)) < (1.0 - depol)[None, :]
        fx_new = mask & (rng.integers(0, 2, size=(k_s, n), dtype=np.uint8) > 0)
        fz_new = mask & (rng.integers(0, 2, size=(k_s, n), dtype=np.uint8) > 0)
        np.bitwise_xor(fx, fx_new.astype(np.uint8), out=fx)
        np.bitwise_xor(fz, fz_new.astype(np.uint8), out=fz)

    for layer in seq.layers:
        if isinstance(layer, CliffordLayer):
            codes = fx + 2 * fz
            mapped = act[layer.layer.elements[None, :], codes]
            fx[:] = mapped[:, :, 0]
            fz[:] = mapped[:, :, 1]
            add_1q_depol()
        elif isinstance(layer, PauliLayer):
            # conjugation by a Pauli leaves the fault bits unchanged
            if device.pauli_layer_noise:
                add_1q_depol()
        elif isinstance(layer, GateLayer):
            for g in layer.gates:
                a, b = device.gates[g].pair
                fz[:, a] ^= fx[:, b]
                fz[:, b] ^= fx[:, a]
            for g in layer.gates:
                spec = device.gates[g]
                p_eff = spec.effective_depol_p()
                if p_eff < 1.0:
                    mask = rng.random(k_s) >= p_eff
                    for q in spec.pair:
                        fx[:, q] ^= (mask & (rng.integers(0, 2, size=k_s, dtype=np.uint8) > 0)).astype(np.uint8)
                        fz[:, q] ^= (mask & (rng.integers(0, 2, size=k_s, dtype=np.uint8) > 0)).astype(np.uint8)
            for ch in device.layer_twirl_channels(layer.gates):
                idx = ch.sample_masks(rng, k_s)
                k = len(ch.support)
                for i, q in enumerate(ch.support):
                    fz[:, q] ^= ((idx >> (k - 1 - i)) & 1).astype(np.uint8)
        elif isinstance(layer, Unitary1qLayer):
            raise ValueError("stabilizer backend cannot execute arbitrary 1q unitaries")
        else:
            raise TypeError(f"unknown layer type {type(layer)!r}")

    outcomes = fx
    if np.any(device.readout_e0 > 0) or np.any(device.readout_e1 > 0):
        from .device import apply_readout_noise

        outcomes = apply_readout_noise(outcomes, device.readout_e0, device.readout_e1, rng)
    return ShotCounts.from_outcomes(outcomes)


# ---------------------------------------------------------------------------
# process fidelity
# ---------------------------------------------------------------------------


def choi_process_fidelity(channel, n: int) -> float:
    """Process fidelity F = <Phi+| (L x I)(|Phi+><Phi+|) |Phi+>.

    ``channel`` must accept a stacked array (B, 2^n, 2^n) of input matrices
    and return the stacked outputs.  Evaluated as the normalized sum of
    <i| L(|i><j|) |j> over all basis index pairs.
    """
    if n > CHOI_QUBIT_LIMIT:
        raise ResourceLimitError(f"Choi evaluation limited to {CHOI_QUBIT_LIMIT} qubits")
    d = 2**n
    total = 0.0 + 0.0j
    all_i, all_j = np.divmod(np.arange(d * d), d)
    for start in range(0, d * d, CHOI_CHUNK):
        i_arr = all_i[start : start + CHOI_CHUNK]
        j_arr = all_j[start : start + CHOI_CHUNK]
        b = len(i_arr)
        inputs = np.zeros((b, d, d), dtype=complex)
        inputs[np.arange(b), i_arr, j_arr] = 1.0
        outputs = channel(inputs)
        total += outputs[np.arange(b), i_arr, j_arr].sum()
    return float(np.real(total) / d**2)


def pauli_sum_process_fidelity(channel, n: int) -> float:
    """Same fidelity via the Pauli-overlap average (small n cross-check)."""
    d = 2**n
    total = 0.0
    labels = _all_pauli_labels(n)
    for start in range(0, len(labels), 64):
        batch = labels[start : start + 64]
        mats = np.stack([PauliString.from_label(lab).to_matrix() for lab in batch])
        outs = channel(mats.astype(complex))
        for b in range(len(batch)):
            total += np.real(np.trace(mats[b] @ outs[b]))
    return float(total / 2 ** (3 * n))


def _all_pauli_labels(n: int) -> list[str]:
    labels = [""]
    for _ in range(n):
        labels = [lab + c for lab in labels for c in "IXYZ"]
    return labels


# ---------------------------------------------------------------------------
# channel evaluators for oracle fidelities
# ---------------------------------------------------------------------------


def compose_channels(*channels):
    """Compose evaluators; the first listed acts first."""

    def apply(rho):
        for ch in channels:
            rho = ch(rho)
        return rho

    return apply


def pauli_layer_noise_channel(device: DeviceModel):
    """The tensor-product depolarizing noise of one single-qubit layer."""
    n = device.n_qubits

    def apply(rho):
        return _apply_1q_depol_all(rho, n, device)

    return apply


def block_noise_channel(device: DeviceModel, block):
    """Noise channel L with noisy_block = ideal_block o L.

    Applies the block's noisy layers, then the inverse ideal layers, so
    the ideal gate cancels and only the noise remains.
    """
    n = block.n

    def apply(rho):
        for layer in block.layers:
            rho = _apply_layer_dm(rho, n, layer, device, noisy=True, twirl_coupling=False)
        for layer in block.inverse_layers:
            rho = _apply_layer_dm(rho, n, layer, device, noisy=False, twirl_coupling=False)
        return rho

    return apply


def dressed_cycle_channel(device: DeviceModel, block):
    """Noise of one benchmarking half-step: twirling layer then target gate."""
    if device.pauli_layer_noise:
        return compose_channels(pauli_layer_noise_channel(device), block_noise_channel(device, block))
    return block_noise_channel(device, block)


def restricted_channel(channel, n: int, subset_qubits: tuple[int, ...]):
    """Restriction of an n-qubit channel to a subset with a mixed environment.

    The returned evaluator acts on len(subset) qubits: the input is embedded
    with the complement in the maximally mixed state, the full channel is
    applied, and the complement is traced out.
    """
    subset = tuple(subset_qubits)
    k = len(subset)
    rest = tuple(q for q in range(n) if q not in set(subset))
    d_rest = 2 ** len(rest)

    def apply(rho_s):
        batch = rho_s.shape[:-2]
        d = 2**n
        full = np.zeros((*batch, d, d), dtype=complex)
        t, perm, b = _split_subsystem(full, n, subset)
        rho_env = np.eye(d_rest, dtype=complex) / d_rest
        t += np.einsum("...ab,cd->...acbd", rho_s, rho_env).reshape(t.shape)
        full = _unsplit_subsystem(t, n, perm, b)
        out = channel(full)
        t, perm, b = _split_subsystem(out, n, subset)
        return np.einsum("...arbr->...ab", t)

    return apply
