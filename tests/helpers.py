"""Dense-matrix reference implementations used as test oracles.

Everything here is deliberately independent of the package internals:
plain kron products and explicit channel evaluations.
"""

import numpy as np

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S2 = np.array([[1, 0], [0, 1j]], dtype=complex)

LETTERS = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def kron_all(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli_matrix(label: str) -> np.ndarray:
    return kron_all([LETTERS[c] for c in label])


def embed_1q(n: int, q: int, mat: np.ndarray) -> np.ndarray:
    return kron_all([mat if i == q else I2 for i in range(n)])


def cz_matrix(n: int, a: int, b: int) -> np.ndarray:
    d = 2**n
    diag = np.ones(d, dtype=complex)
    for idx in range(d):
        if (idx >> (n - 1 - a)) & 1 and (idx >> (n - 1 - b)) & 1:
            diag[idx] = -1
    return np.diag(diag)


def process_fidelity_pauli_sum(apply_channel, n: int) -> float:
    """Eq-style Pauli-overlap average, computed brute force."""
    d = 2**n
    labels = ["".join(p) for p in _product_letters(n)]
    total = 0.0
    for lab in labels:
        p = pauli_matrix(lab)
        total += np.real(np.trace(p @ apply_channel(p)))
    return float(total / (2 ** (3 * n)))


def _product_letters(n):
    if n == 0:
        yield ()
        return
    for rest in _product_letters(n - 1):
        for c in "IXYZ":
            yield (c, *rest)


def depolarizing_channel(p: float, dim: int):
    def apply(rho):
        return p * rho + (1 - p) * np.trace(rho) * np.eye(dim) / dim

    return apply


def unitary_channel(u: np.ndarray):
    def apply(rho):
        return u @ rho @ u.conj().T

    return apply


def exact_survival(probs: np.ndarray, w: int) -> float:
    """sum_x p(x) (-1)^(w.x) from an exact outcome distribution."""
    d = len(probs)
    parity = (np.bitwise_count(np.arange(d) & w) & 1).astype(np.float64)
    return float(probs @ (1.0 - 2.0 * parity))


def _z_mask_matrix(n: int, qubits, w: int) -> np.ndarray:
    """Z on the qubits flagged by the bits of w (qubits[0] = MSB of w)."""
    k = len(qubits)
    mats = [I2] * n
    for i, q in enumerate(qubits):
        if (w >> (k - 1 - i)) & 1:
            mats[q] = Z2
    return kron_all(mats)


def _embed_diagonal(n: int, qubits, diag: np.ndarray) -> np.ndarray:
    full = np.empty(2**n, dtype=complex)
    for idx in range(2**n):
        sub = 0
        for q in qubits:
            sub = (sub << 1) | ((idx >> (n - 1 - q)) & 1)
        full[idx] = diag[sub]
    return np.diag(full)


def _depolarize(rho: np.ndarray, n: int, qubits, p: float) -> np.ndarray:
    """p rho + (1 - p) 4^-k sum_P P rho P over the Paulis P on ``qubits``."""
    k = len(qubits)
    twirled = np.zeros_like(rho)
    for letters in _product_letters(k):
        mats = [I2] * n
        for q, c in zip(qubits, letters):
            mats[q] = LETTERS[c]
        pm = kron_all(mats)
        twirled += pm @ rho @ pm.conj().T
    return p * rho + (1 - p) * twirled / 4**k


def dense_dm_reference(seq, device, twirl_coupling: bool = False) -> np.ndarray:
    """Outcome distribution of a sequence from explicit full-register matrices.

    Unitaries are Kronecker products, depolarizing channels explicit Pauli
    Kraus sums, coherent errors and CZs dense diagonal unitaries, readout a
    dense confusion matrix.  The noise model is the device's: its
    per-qubit and per-gate depolarizing parameters, its coherent layer
    components or their Pauli twirls, and its readout error rates.
    """
    from cabbench.circuits import CliffordLayer, GateLayer, PauliLayer, Unitary1qLayer
    from cabbench.paulis import single_qubit_cliffords

    n = seq.n
    d = 2**n
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0

    def depol_1q(rho):
        for q in range(n):
            rho = _depolarize(rho, n, (q,), float(device.single_qubit_depol[q]))
        return rho

    for layer in seq.layers:
        if isinstance(layer, GateLayer):
            for g in layer.gates:
                rho = _depolarize(rho, n, device.gates[g].pair, device.gates[g].effective_depol_p())
            if twirl_coupling:
                for ch in device.layer_twirl_channels(layer.gates):
                    out = np.zeros_like(rho)
                    for w, weight in enumerate(ch.weights):
                        zw = _z_mask_matrix(n, ch.support, w)
                        out += weight * zw @ rho @ zw
                    rho = out
            else:
                for v in device.coherent_layer_components(layer.gates):
                    u = _embed_diagonal(n, v.qubits, v.diag)
                    rho = u @ rho @ u.conj().T
            for g in layer.gates:
                u = cz_matrix(n, *device.gates[g].pair)
                rho = u @ rho @ u
            continue
        if isinstance(layer, CliffordLayer):
            table = single_qubit_cliffords()
            u = kron_all([table.matrix(int(e)) for e in layer.layer.elements])
        elif isinstance(layer, PauliLayer):
            u = pauli_matrix("".join("IXZY"[int(x) + 2 * int(z)] for x, z in zip(layer.pauli.x, layer.pauli.z)))
        elif isinstance(layer, Unitary1qLayer):
            u = np.eye(d, dtype=complex)
            for q, op in layer.ops:
                u = embed_1q(n, q, op) @ u
        rho = u @ rho @ u.conj().T
        if not isinstance(layer, PauliLayer) or device.pauli_layer_noise:
            rho = depol_1q(rho)
    probs = np.real(np.diagonal(rho))
    conf = kron_all(
        [np.array([[1 - e0, e1], [e0, 1 - e1]]) for e0, e1 in zip(device.readout_e0, device.readout_e1)]
    )
    return conf @ probs


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


def restricted_channel(channel, n: int, subset_qubits: tuple[int, ...]):
    """Restriction of an n-qubit channel to a subset with a mixed environment.

    The returned evaluator acts on len(subset) qubits: the input is embedded
    with the complement in the maximally mixed state, the full channel is
    applied, and the complement is traced out.
    """
    subset = tuple(subset_qubits)
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
