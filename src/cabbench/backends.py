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

``stab_run_counts`` is the scalable backend, a Pauli-frame sampler for
sequences that ideally close to the identity, with every coherent diagonal
error replaced by its exact Pauli twirl.  It compiles, then samples:

- compile: one backward walk over the layers gives every noise location
  with the readout flip (a GF(2) vector of the final X bits) of each of its
  Paulis;
- sample: each (location, shot) fires independently with its probability,
  drawn as geometric gaps over the locations that share a channel, so the
  work is proportional to the number of faults, not to shots x qubits.  A
  shot's outcome is the XOR of the flips of its faults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import CircuitSequence, CliffordLayer, GateLayer, PauliLayer, Unitary1qLayer
from .device import DeviceModel, ResourceLimitError, bernoulli_positions, fwht
from .paulis import single_qubit_cliffords

DM_QUBIT_LIMIT = 12
PACK_QUBIT_LIMIT = 62  # outcomes are int64 codes; also the stabilizer backend's size limit
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
    """Rows of 0/1 bits (qubit 0 first = MSB) to int64 codes."""
    n = bits.shape[-1]
    if n > PACK_QUBIT_LIMIT:
        raise ResourceLimitError(f"bit packing limited to {PACK_QUBIT_LIMIT} qubits")
    padded = np.zeros((*bits.shape[:-1], 64), dtype=np.uint8)
    padded[..., 64 - n :] = bits
    # [()] makes one row's code a scalar, as for a 2-d input it is a no-op
    return np.packbits(padded, axis=-1).view(">i8")[..., 0].astype(np.int64)[()]


def unpack_bits(codes: np.ndarray, n: int) -> np.ndarray:
    """int64 codes to rows of n bits (qubit 0 first = MSB)."""
    # shift the n code bits to the top, so they are the first n unpacked
    top = np.asarray(codes).astype(np.uint64) << np.uint64(64 - n)
    return np.unpackbits(top.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1, count=n)


def _compile_faults(seq: CircuitSequence, device: DeviceModel) -> list:
    """Every noise location of a sequence, with the readout flips of its Paulis.

    The layers are walked once, backwards, keeping for each qubit the flip
    vector of an X and of a Z fault at the current point: the GF(2) vector
    of final X bits the fault ends up as, packed like ``pack_bits``.  Noise
    follows its layer's ideal operation, so a layer's locations take the
    vectors before stepping back through the layer:

    - a Clifford layer maps a fault P to C P C^dagger
      (``single_qubit_cliffords().action``);
    - a CZ maps X_a to X_a Z_b, and a Pauli layer leaves faults unchanged.

    The locations come grouped by channel, in order of first appearance:
    (firing probability, conditional weights, flips).  ``flips`` is (L, b),
    one row per location.  A firing picks a b-bit index (first bit the most
    significant) uniformly when the weights are None, or from the weights
    with the index offset by one (the identity is excluded); the outcome
    flips by the XOR of the row entries whose bits are set.  Per-qubit
    depolarizing has rows (X, Z) and per-gate depolarizing (X_a, Z_a, X_b,
    Z_b), both uniform over all 4 or 16 Paulis, identity included; a twirled
    coupling has the Z flips of its support, weighted by the twirl.
    """
    n = seq.n
    if n > PACK_QUBIT_LIMIT:
        raise ResourceLimitError(f"stabilizer backend limited to {PACK_QUBIT_LIMIT} qubits")
    act = single_qubit_cliffords().action.astype(bool)
    fx = np.left_shift(1, np.arange(n - 1, -1, -1, dtype=np.int64))
    fz = np.zeros(n, dtype=np.int64)
    groups: dict = {}

    def add(key, p: float, weights, rows: np.ndarray):
        if p > 0.0:
            groups.setdefault(key, (p, weights, []))[2].append(rows)

    fire_1q = 1.0 - device.single_qubit_depol[:n]

    def depol_1q():
        rows = np.stack([fx, fz], axis=1)
        for p in np.unique(fire_1q):
            add(("1q", p), float(p), None, rows[fire_1q == p])

    for layer in reversed(seq.layers):
        if isinstance(layer, CliffordLayer):
            depol_1q()
            img = act[layer.layer.elements]  # (n, letter, (x, z, sign))
            fx, fz = (
                np.where(img[:, 1, 0], fx, 0) ^ np.where(img[:, 1, 1], fz, 0),
                np.where(img[:, 2, 0], fx, 0) ^ np.where(img[:, 2, 1], fz, 0),
            )
        elif isinstance(layer, PauliLayer):
            if device.pauli_layer_noise:
                depol_1q()
        elif isinstance(layer, GateLayer):
            for g in layer.gates:
                spec = device.gates[g]
                a, b = spec.pair
                p = 1.0 - spec.effective_depol_p()
                add(("2q", p), p, None, np.array([[fx[a], fz[a], fx[b], fz[b]]]))
            # the channels are cached per layer: one object per channel
            for ch in device.layer_twirl_channels(layer.gates):
                p = float(ch.weights[1:].sum())  # the identity does not fire
                if p > 0.0:
                    add(("twirl", id(ch)), p, ch.weights[1:] / p, fz[list(ch.support)][None, :])
            for g in layer.gates:
                a, b = device.gates[g].pair
                fx[a], fx[b] = fx[a] ^ fz[b], fx[b] ^ fz[a]
        elif isinstance(layer, Unitary1qLayer):
            raise ValueError("stabilizer backend cannot execute arbitrary 1q unitaries")
        else:
            raise TypeError(f"unknown layer type {type(layer)!r}")
    return [(p, weights, np.concatenate(rows)) for p, weights, rows in groups.values()]


def stab_run_counts(
    seq: CircuitSequence, device: DeviceModel, k_s: int, rng: np.random.Generator
) -> ShotCounts:
    """Sample k_s measurement outcomes of a sequence that closes to identity.

    Compile, then sample.  ``_compile_faults`` lists every noise location
    (per-qubit depolarizing after single-qubit layers, per-gate
    depolarizing, and the exact Pauli twirl of each coherent diagonal
    component of every gate layer) with the readout flip of each of its
    Paulis.  Each (location, shot) then fires independently with exactly its
    probability; the firings of the locations that share a channel are
    drawn as geometric gaps over their L * k_s trials.  A firing picks its
    Pauli from the channel's conditional distribution, and a shot's outcome
    (ideally all zeros) is the XOR of the flips of its faults.  Readout
    error follows (``apply_readout_noise``).
    """
    n = seq.n
    groups = _compile_faults(seq, device)
    frame = np.zeros(k_s, dtype=np.int64)
    for p, weights, flips in groups:
        n_loc, b = flips.shape
        shot, loc = np.divmod(bernoulli_positions(rng, n_loc * k_s, p), n_loc)
        if weights is None:
            idx = rng.integers(0, 2**b, size=len(loc))
        else:
            idx = rng.choice(len(weights), size=len(loc), p=weights) + 1
        bits = (idx[:, None] >> np.arange(b - 1, -1, -1)) & 1
        flip = np.bitwise_xor.reduce(np.where(bits, flips[loc], 0), axis=1)
        np.bitwise_xor.at(frame, shot, flip)

    outcomes = unpack_bits(frame, n)
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
