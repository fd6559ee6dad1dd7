"""Two circuit backends plus process-fidelity evaluation.

``dm_run`` is the exact oracle: full density-matrix evolution with the
coherent coupling unitary, depolarizing channels applied as channels, and
readout confusion.  Each layer is a few whole-register array operations on
rho of shape (..., d, d), with the noise precomputed once per device
(``DeviceModel.cached``):

- a single-qubit layer is one U rho U^dagger, U the Kronecker product of
  the layer's 2x2 matrices, applied as its two halves on each side;
- every depolarizing step, the twirled coupling and a Pauli layer are
  Pauli-diagonal channels.  Each is one multiply in the Walsh frame
  M[a, x] = rho[a, a^x]: gather, Walsh transform along a as two
  Kronecker-factor matmuls, multiply by a cached eigenvalue table
  lambda[z, x], transform back, scatter;
- a gate layer's coherent components and ideal CZs are one cached (d, d)
  phase multiplier.

``block_noise_channel``, ``dressed_cycle_channel`` and so
``choi_process_fidelity`` run the same kernel on stacks of matrices.

``stab_run_counts`` is the scalable backend: sequences that ideally close
to the identity are executed by propagating sampled Pauli faults through
the Clifford layers, with every coherent diagonal error replaced by its
exact Pauli twirl.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CircuitSequence, CliffordLayer, GateLayer, PauliLayer, Unitary1qLayer
from .device import DeviceModel, ResourceLimitError, fwht
from .paulis import single_qubit_cliffords

DM_QUBIT_LIMIT = 12
CHOI_QUBIT_LIMIT = 6
CHOI_CHUNK = 1024  # basis pairs per batched channel call


# ---------------------------------------------------------------------------
# density-matrix kernel (batch-aware: rho has shape (..., d, d))
# ---------------------------------------------------------------------------


def _dm_zero_state(n: int) -> np.ndarray:
    d = 2**n
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def _bits(a: np.ndarray, n: int, qubits) -> np.ndarray:
    """Sub-index of register indices ``a`` on ``qubits`` (qubits[0] = MSB)."""
    sub = np.zeros_like(a)
    for q in qubits:
        sub = (sub << 1) | ((a >> (n - 1 - q)) & 1)
    return sub


def _parity(a: np.ndarray) -> np.ndarray:
    """(-1)^popcount(a) as floats."""
    return 1.0 - 2.0 * (np.bitwise_count(a) & 1)


def _kron_2x2(mats) -> np.ndarray:
    """Kronecker product of 2x2 factors, the first the most significant."""
    u = np.ones((1, 1), dtype=mats.dtype)
    for m in mats:
        k = 2 * u.shape[0]
        u = (u[:, None, :, None] * m[None, :, None, :]).reshape(k, k)
    return u


def _kron_rows(t: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    """(f1 x f2) @ t for t (..., d1*d2, m): one matmul per Kronecker factor."""
    *batch, d, m = t.shape
    d1, d2 = len(f1), len(f2)
    t = np.matmul(f1, t.reshape(*batch, d1, d2 * m))
    return np.matmul(f2, t.reshape(*batch, d1, d2, m)).reshape(*batch, d, m)


def _apply_local_unitary(rho: np.ndarray, mats) -> np.ndarray:
    """U rho U^dagger, U the Kronecker product of one 2x2 factor per qubit.

    U is applied as U1 x U2 (the first floor(n/2) qubits and the rest) on
    each side, which costs O(d^2.5) instead of the O(d^3) of a dense U.
    """
    h = len(mats) // 2
    u1, u2 = _kron_2x2(mats[:h]), _kron_2x2(mats[h:])
    *batch, d, _ = rho.shape
    t = _kron_rows(rho, u1, u2)
    t = t.reshape(*batch, d * len(u1), len(u2)) @ u2.conj().T
    t = np.matmul(u1.conj(), t.reshape(*batch, d, len(u1), len(u2)))
    return t.reshape(*batch, d, d)


def _walsh(k: int) -> np.ndarray:
    a = np.arange(2**k)
    return _parity(a[:, None] & a[None, :])


def _frame(device: DeviceModel, n: int):
    """Gather index (a, x) -> a*d + (a^x), and the 2^floor(n/2) and
    2^ceil(n/2) Kronecker factors of the 2^n Walsh matrix."""

    def build():
        a = np.arange(2**n)
        return a[:, None] * 2**n + (a[:, None] ^ a[None, :]), _walsh(n // 2), _walsh(n - n // 2)

    return device.cached(("frame", n), build)


def _eigenvalue_table(lam: np.ndarray) -> np.ndarray:
    """Eigenvalues lam[z, x] of X^x Z^z laid out for ``_apply_pauli_diagonal``:
    divided by d (the two transforms multiply by d) and repeated over the
    real and imaginary parts of the float view."""
    return np.repeat(lam / len(lam), 2, axis=1)


def _apply_pauli_diagonal(rho: np.ndarray, table: np.ndarray, frame) -> np.ndarray:
    """Multiply the coefficient of every Pauli X^x Z^z in rho by its eigenvalue.

    With M[a, x] = rho[a, a^x], that coefficient is the Walsh transform of
    M[:, x] at z (up to a phase fixed by x and z).  So the channel is: gather
    M, transform along a, multiply by the table, transform back, scatter.
    The index map is an involution, so the scatter is the same gather.
    """
    idx, h1, h2 = frame
    *batch, d, _ = rho.shape
    m = np.take(rho.reshape(*batch, d * d), idx, axis=-1)
    t = _kron_rows(m.view(float), h1, h2)
    t *= table
    t = _kron_rows(t, h1, h2)
    return np.take(t.view(complex).reshape(*batch, d * d), idx, axis=-1)


def _nontrivial_on(n: int, qubits) -> np.ndarray:
    """Mask over the Paulis X^x Z^z, indexed [z, x], that act on any of ``qubits``."""
    a = np.arange(2**n)
    support = sum(1 << (n - 1 - q) for q in qubits)
    return ((a[:, None] | a[None, :]) & support) != 0


def _single_qubit_noise(device: DeviceModel, n: int):
    """Eigenvalue table of the per-qubit depolarizing layer, or None."""

    def build():
        noisy = [(q, float(p)) for q, p in enumerate(device.single_qubit_depol[:n]) if p < 1.0]
        if not noisy:
            return None
        lam = np.ones((2**n, 2**n))
        for q, p in noisy:
            lam[_nontrivial_on(n, (q,))] *= p
        return _eigenvalue_table(lam)

    return device.cached(("dm_1q", n), build)


def _gate_layer_tables(device: DeviceModel, n: int, gates: tuple[int, ...], noisy: bool, twirl_coupling: bool):
    """(eigenvalue table or None, phase multiplier) of one gate layer.

    The noise is the gates' depolarizing channels and, with
    ``twirl_coupling``, the twirled coupling; both are Pauli-diagonal, so
    they share one table.  Without the twirl the coherent components join
    the ideal CZs in one diagonal unitary D, applied as rho * D D^dagger.
    """

    def build():
        device.check_layer_disjoint(gates)
        d = 2**n
        a = np.arange(d)
        diag = np.ones(d, dtype=complex)
        for g in gates:
            diag[_bits(a, n, device.gates[g].pair) == 3] *= -1.0
        table = None
        if noisy:
            lam = np.ones((d, d))
            for g in gates:
                spec = device.gates[g]
                p = spec.effective_depol_p()
                if p < 1.0:
                    lam[_nontrivial_on(n, spec.pair)] *= p
            if twirl_coupling:
                for ch in device.layer_twirl_channels(gates):
                    # Z_w X^x Z^z Z_w = (-1)^(w.x) X^x Z^z
                    eig = np.real(fwht(ch.weights))
                    lam *= eig[_bits(a, n, ch.support)][None, :]
            else:
                for v in device.coherent_layer_components(gates):
                    diag *= v.diag[_bits(a, n, v.qubits)]
            if np.any(lam != 1.0):
                table = _eigenvalue_table(lam)
        return table, diag[:, None] * diag.conj()[None, :]

    return device.cached(("dm_gate", n, gates, noisy, twirl_coupling), build)


def _readout_factors(device: DeviceModel, n: int):
    """Kronecker factors (first floor(n/2) qubits, rest) of the readout
    confusion matrix, or None without readout error."""

    def build():
        e0, e1 = device.readout_e0[:n], device.readout_e1[:n]
        if not (np.any(e0 > 0) or np.any(e1 > 0)):
            return None
        mats = np.array([[1 - e0, e1], [e0, 1 - e1]]).transpose(2, 0, 1)
        return _kron_2x2(mats[: n // 2]), _kron_2x2(mats[n // 2 :])

    return device.cached(("readout", n), build)


def _apply_layer_dm(
    rho: np.ndarray,
    n: int,
    layer,
    device: DeviceModel,
    noisy: bool,
    twirl_coupling: bool,
) -> np.ndarray:
    """One layer on rho (..., 2^n, 2^n) as a few whole-register operations.

    A gate layer is one Pauli-diagonal multiply for its noise and one phase
    multiply.  A Clifford or unitary layer is one U rho U^dagger, then the
    per-qubit depolarizing layer as one Pauli-diagonal multiply.  A Pauli
    layer is Pauli-diagonal itself (eigenvalues +-1), so it shares that
    multiply with its noise.
    """
    frame = _frame(device, n)
    if isinstance(layer, GateLayer):
        table, phase = _gate_layer_tables(device, n, tuple(layer.gates), noisy, twirl_coupling)
        if table is not None:
            rho = _apply_pauli_diagonal(rho, table, frame)
        return rho * phase
    noise = _single_qubit_noise(device, n) if noisy else None
    if isinstance(layer, PauliLayer):
        if not device.pauli_layer_noise:
            noise = None
        x, z = int(pack_bits(layer.pauli.x)), int(pack_bits(layer.pauli.z))
        if x or z:
            # X^x Z^z rho Z^z X^x scales the coefficient of X^x' Z^z' by (-1)^(x.z' + z.x')
            a = np.arange(2**n)
            sign = _parity(a & x)[:, None] * np.repeat(_parity(a & z), 2)[None, :]
            noise = sign / 2**n if noise is None else sign * noise
    elif isinstance(layer, CliffordLayer):
        cliffords = single_qubit_cliffords()
        elements = layer.layer.elements
        if np.any(elements != cliffords.identity_index):
            rho = _apply_local_unitary(rho, cliffords.matrices[elements])
    elif isinstance(layer, Unitary1qLayer):
        if layer.ops:
            mats = np.array([np.eye(2, dtype=complex)] * n)
            for q, u in layer.ops:
                mats[q] = u @ mats[q]
            rho = _apply_local_unitary(rho, mats)
    else:
        raise TypeError(f"unknown layer type {type(layer)!r}")
    return rho if noise is None else _apply_pauli_diagonal(rho, noise, frame)


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
    confusion = _readout_factors(device, n)
    if confusion is not None:
        probs = _kron_rows(probs.reshape(-1, 1), *confusion).reshape(-1)
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

    def survivals(self, w_masks: np.ndarray) -> np.ndarray:
        """sum_x count(x)/k_s * (-1)^(w.x) for each Z-observable mask w."""
        par = (np.bitwise_count(self.packed()[:, None] & w_masks[None, :]) & 1).astype(float)
        # k_s minus twice the odd-parity count; integer-valued, so exact
        return (self.k_s - 2.0 * (self.counts @ par)) / self.k_s

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
        table = _single_qubit_noise(device, n)
        return rho if table is None else _apply_pauli_diagonal(rho, table, _frame(device, n))

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
