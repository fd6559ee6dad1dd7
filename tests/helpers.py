"""Reference implementations and test-only builders used as test oracles.

The first section holds the object forms that the package replaced by
bit and element arrays: a ``PauliString`` with an exact phase (with
``pauli_multiply``, the product by the package's letter table), a
``LocalCliffordLayer`` of element indices, and the per-sequence form of a
circuit: one ``CircuitSequence`` of layer objects per sequence, the form
the backends took before sequence stacks.  Both types draw through the
package's ``random_pauli_bits`` and ``local_clifford_elements``, as the
stack builders do.  ``stack_of`` turns sequences of one layout
into a ``SequenceStack`` (a layer object that every sequence holds becomes
a shared row) and ``sequences_of`` turns a stack back into sequences.
``cab_sequences_one`` and ``cb_sequences_one`` build sequences one at a
time, with ``compile_inverse_pauli_one`` and ``compile_cycle_pauli_one``
closing each, as the stack builders must agree with to the bit.
The dense-matrix helpers are deliberately independent of the package
internals: plain kron products and explicit channel evaluations, with
each Clifford element's 2x2 unitary from ``clifford_matrices``, built
from H and S alone.  The
conversions between matrices and Pauli coefficients wrap the package's
coefficient-level channels as matrix evaluators and back, and
``matrix_unit_choi_fidelity`` is the matrix-unit process-fidelity sum that
the coefficient route is checked against.  The Pauli helpers build a
Pauli from its letters, its dense matrix and the tableau of conjugation by
it.  The tableau helpers
(single-gate and layer builders, ``local_layer_tableau`` among them,
conjugation, inversion and the
qubit-by-qubit ``compose_loop``) work on ``CliffordTableau`` bits, one
generator at a time, with the Pauli multiplication table;
``gate_order_by_squaring`` finds an order by repeated squaring,
``orbit_sign_loop`` the sign of t^k by XORing one ``_images`` sign per
power, ``gate_order_loop`` an order by the route before the symplectic
check, and ``fully_connected_tableaus_loop`` builds the order draws'
tableaus one draw at a time.
``stab_run_counts_bitwise`` is the stabilizer sampler that expands every
fault's Pauli index into bits and XORs the flips of the set ones;
``compile_faults_one`` and ``stab_run_counts_one`` compile and sample one
sequence at a time, as the stacked sampler must agree with to the bit; and
``apply_readout_noise_at`` the readout thinning with a gather, ``np.where``
and an unbuffered ``np.bitwise_xor.at`` per candidate flip;
``bernoulli_positions_geometric`` the Bernoulli positions from
``rng.geometric`` gaps, as the inversion sampler must agree with to the
bit below p = 1/3.  The
survival, marginal and aggregate references work on one sequence or one
replicate at a time, as the stacked paths of ``ShotCounts`` and
``cab._aggregate`` must agree with to the bit;
``observable_sampling_variance`` is the formula that the observable
replicates' jackknife must match.  ``write_csv_rows`` writes a CSV one row tuple at a time.  The last
section holds small functions that only tests call: outcome-code
unpacking, the parametric CZ unitary, the two-gate closed forms and
closed-form limits, a one-observable
fit, the two-depth delta-method lambda SE, the observable budget and a
Nelder-Mead loop.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from cabbench.analysis import correlation
from cabbench import backends
from cabbench.cab import QUALITY_DTYPE, _fit_lambda_arrays
from cabbench.calibration import NelderMead, NelderMeadOptions, NonFiniteObjective
from cabbench.circuits import SequenceStack, unitary_layer
from cabbench.device import DeviceModel, DiagonalUnitary, GateSpec, PauliChannel, walsh_matrix
from cabbench.experiments import ring_cz_patterns
from cabbench.paulis import _MUL_PHASE, local_clifford_elements, random_pauli_bits, single_qubit_cliffords
from cabbench.tableau import CliffordTableau, NonCliffordError, local_layer_lookup

I2 = np.eye(2, dtype=complex)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
H2 = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
S2 = np.array([[1, 0], [0, 1j]], dtype=complex)

LETTERS = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}

# an odd register: gates (0, 1) and (2, 3), qubit 4 a spectator; coherent
# control errors, a coupling and asymmetric readout
ODD_REGISTER_5Q = {
    "n_qubits": 5,
    "gates": [
        {"pair": [0, 1], "depol_p": 0.985, "control": {"cond_phase": 0.02, "dyn_i": 0.01, "dyn_j": -0.01}},
        {"pair": [2, 3], "depol_p": 0.985, "control": {"cond_phase": -0.015, "dyn_i": 0.0, "dyn_j": 0.02}},
    ],
    "couplings": [{"gates": [0, 1], "gamma": 0.1}],
    "readout": {"e0": [0.01, 0.02, 0.0, 0.03, 0.01], "e1": [0.04, 0.02, 0.03, 0.01, 0.05]},
    "single_qubit_depol": 0.997,
}


# -- sequences as tuples of layer objects, one sequence at a time ---------------


@dataclass(frozen=True, eq=False)
class PauliString:
    """The n-qubit Pauli i**phase_exp L_0 (x) ... (x) L_{n-1}, the letter on
    qubit q given by its bits (x[q], z[q]) as in ``cabbench.paulis``."""

    n: int
    x: np.ndarray
    z: np.ndarray
    phase_exp: int = 0

    @staticmethod
    def identity(n: int) -> "PauliString":
        return PauliString(n, np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8))

    @staticmethod
    def draw(n: int, rng: np.random.Generator) -> "PauliString":
        """A phaseless Pauli from ``random_pauli_bits``, as the stack builders draw it."""
        x, z = random_pauli_bits(n, rng)
        return PauliString(n, x, z)

    def __eq__(self, other) -> bool:
        return (
            (self.n, self.phase_exp) == (other.n, other.phase_exp)
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )


def pauli_multiply(p: PauliString, q: PauliString) -> PauliString:
    """The product p q: the letters XOR, and ``_MUL_PHASE`` gives each qubit's phase."""
    assert p.n == q.n
    idx = (p.x.astype(np.int64) << 3) | (p.z.astype(np.int64) << 2) | (q.x.astype(np.int64) << 1) | q.z
    return PauliString(p.n, p.x ^ q.x, p.z ^ q.z, (p.phase_exp + q.phase_exp + int(_MUL_PHASE[idx].sum())) % 4)


@dataclass(frozen=True, eq=False)
class LocalCliffordLayer:
    """One single-qubit Clifford per qubit: element indices (n,) into
    ``single_qubit_cliffords()``."""

    n: int
    elements: np.ndarray

    @staticmethod
    def draw(n: int, rng: np.random.Generator) -> "LocalCliffordLayer":
        """A layer from ``local_clifford_elements``, as the stack builders draw it."""
        return LocalCliffordLayer(n, local_clifford_elements(n, rng))

    def inverse(self) -> "LocalCliffordLayer":
        return LocalCliffordLayer(self.n, single_qubit_cliffords().inverse_table[self.elements])


@dataclass(frozen=True)
class CliffordLayer:
    """A layer of parallel single-qubit Cliffords."""

    layer: LocalCliffordLayer


@dataclass(frozen=True)
class PauliLayer:
    """A layer of single-qubit Paulis."""

    pauli: PauliString


@dataclass(frozen=True)
class GateLayer:
    """Parallel execution of a set of the device's two-qubit gates."""

    gates: tuple[int, ...]


@dataclass(frozen=True)
class Unitary1qLayer:
    """Arbitrary single-qubit unitaries, (qubit, 2x2) applied in turn."""

    ops: tuple[tuple[int, np.ndarray], ...]


@dataclass(frozen=True)
class CircuitSequence:
    """Ordered layers acting on a fixed register."""

    n: int
    layers: tuple


def stack_of(seqs: list[CircuitSequence]) -> SequenceStack:
    """The stack of sequences of one layout; ValueError for no sequences,
    or unless they share one register, their layer kinds and their gate
    layers.  A position whose sequences all hold the same layer object is
    one shared row, any other one row per sequence."""
    if not seqs:
        raise ValueError("a stack needs at least one sequence")
    n = seqs[0].n
    if any(s.n != n or len(s.layers) != len(seqs[0].layers) for s in seqs):
        raise ValueError("stacked sequences need one register size and one number of layers")
    entries = []
    for i, col in enumerate(zip(*(s.layers for s in seqs))):
        kind = type(col[0])
        if any(type(layer) is not kind for layer in col) or (
            kind is GateLayer and any(tuple(layer.gates) != tuple(col[0].gates) for layer in col)
        ):
            raise ValueError(f"stacked sequences differ in layer kind or gates at position {i}")
        if kind is GateLayer:
            entries.append(("gates", tuple(col[0].gates)))
            continue
        col = col[:1] if all(layer is col[0] for layer in col) else col
        if kind is CliffordLayer:
            entries.append(("clifford", np.array([layer.layer.elements for layer in col], dtype=np.uint8)))
        elif kind is PauliLayer:
            entries.append(("pauli", np.array([(layer.pauli.x, layer.pauli.z) for layer in col], dtype=np.uint8)))
        else:
            entries.append(("unitary", np.array([unitary_layer(n, layer.ops) for layer in col])))
    return SequenceStack(n, tuple(entries))


def _layer_object(n: int, kind: str, row):
    if kind == "gates":
        return GateLayer(tuple(row))
    if kind == "clifford":
        return CliffordLayer(LocalCliffordLayer(n, np.array(row, dtype=np.uint8)))
    if kind == "pauli":
        return PauliLayer(PauliString(n, np.array(row[0], dtype=np.uint8), np.array(row[1], dtype=np.uint8), 0))
    return Unitary1qLayer(tuple((q, row[q]) for q in range(n)))


def sequences_of(stack: SequenceStack) -> list[CircuitSequence]:
    """The stack's sequences as tuples of layer objects, a shared row as one
    object in every sequence."""
    shared = [
        _layer_object(stack.n, kind, data) if kind == "gates" else _layer_object(stack.n, kind, data[0])
        for kind, data in stack.layers
    ]
    return [
        CircuitSequence(
            stack.n,
            tuple(
                obj if kind == "gates" or len(data) == 1 else _layer_object(stack.n, kind, data[k])
                for obj, (kind, data) in zip(shared, stack.layers)
            ),
        )
        for k in range(stack.size)
    ]


def compile_inverse_pauli_one(u: CliffordTableau, pauli_layers: list[PauliString], m: int) -> PauliString:
    """Closing Pauli of one interleaved u / u^-1 sequence of depth m, from
    its 2m Paulis, as ``cabbench.tableau.compile_inverse_pauli`` computes
    it for a stack."""
    if len(pauli_layers) != 2 * m:
        raise ValueError("need exactly 2*m Pauli layers")
    n = u.n
    bits = np.array([np.concatenate([p.x, p.z]) for p in pauli_layers], dtype=np.int64).reshape(2 * m, 2 * n)
    odd = np.bitwise_xor.reduce(bits[0::2], axis=0)
    even = np.bitwise_xor.reduce(bits[1::2], axis=0)
    mat, j = u._symplectic()
    net = ((odd + even @ j @ mat.T @ j) % 2).astype(np.uint8)
    return PauliString(n, net[:n], net[n:], 0)


def compile_cycle_pauli_one(u: CliffordTableau, paulis: list[PauliString]) -> PauliString:
    """Closing Pauli of one cycle-benchmarking sequence, from its Paulis."""
    n = u.n
    mat, j = u._symplectic()
    uinv = (j @ mat.T @ j) % 2
    net = np.zeros(2 * n, dtype=np.int64)
    for p in reversed(paulis):
        net = (net @ uinv + np.concatenate([p.x, p.z])) % 2
    net = net.astype(np.uint8)
    return PauliString(n, net[:n], net[n:], 0)


def block_layer_objects(block) -> tuple[tuple, tuple]:
    """A target block's layers and inverse layers as layer objects."""
    return tuple(sequences_of(SequenceStack(block.n, e))[0].layers for e in (block.layers, block.inverse_layers))


def cab_sequences_one(block, m: int, rngs: list[np.random.Generator]) -> list[CircuitSequence]:
    """``cabbench.cab.build_cab_sequence`` one sequence at a time: per
    stream a sampled C, 2m sampled Paulis and their compiled closing Pauli,
    with the block's layers as objects that every sequence shares."""
    n = block.n
    layers, inverse_layers = block_layer_objects(block)
    seqs = []
    for rng in rngs:
        c = LocalCliffordLayer.draw(n, rng)
        paulis = [PauliString.draw(n, rng) for _ in range(2 * m)]
        out = [CliffordLayer(c)]
        for i in range(m):
            out += [PauliLayer(paulis[2 * i]), *layers, PauliLayer(paulis[2 * i + 1]), *inverse_layers]
        out += [PauliLayer(compile_inverse_pauli_one(block.tableau, paulis, m)), CliffordLayer(c.inverse())]
        seqs.append(CircuitSequence(n, tuple(out)))
    return seqs


def cb_sequences_one(
    block, characters: np.ndarray, cycles: int, rngs: list[np.random.Generator]
) -> list[CircuitSequence]:
    """``cabbench.cab.build_cb_sequence`` one sequence at a time, each with
    a basis prep of its own: sequence k's character is row k of
    ``characters`` (K, 2, n), or the one character (2, n) or (1, 2, n) that
    every sequence shares.  Its prep is looked up qubit by qubit."""
    n = block.n
    layers, _ = block_layer_objects(block)
    table = single_qubit_cliffords()
    seqs = []
    for character, rng in zip(np.broadcast_to(characters, (len(rngs), 2, n)), rngs):
        prep = LocalCliffordLayer(n, np.array([table.z_preparation[x + 2 * z] for x, z in character.T], dtype=np.uint8))
        paulis = [PauliString.draw(n, rng) for _ in range(cycles)]
        out = [CliffordLayer(prep)]
        for p in paulis:
            out += [PauliLayer(p), *layers]
        out += [PauliLayer(compile_cycle_pauli_one(block.tableau, paulis)), CliffordLayer(prep.inverse())]
        seqs.append(CircuitSequence(n, tuple(out)))
    return seqs


def kron_all(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def pauli_matrix(label: str) -> np.ndarray:
    return kron_all([LETTERS[c] for c in label])


def embed_1q(n: int, q: int, mat: np.ndarray) -> np.ndarray:
    return kron_all([mat if i == q else I2 for i in range(n)])


def _signed_letter(mat: np.ndarray) -> tuple[int, int, int]:
    """(x, z, sign bit) of a 2x2 matrix that is a signed Pauli letter other than I."""
    for x, z in ((1, 0), (0, 1), (1, 1)):
        for sign_bit in (0, 1):
            if np.allclose(mat, (-1) ** sign_bit * LETTERS["IXZY"[x + 2 * z]], atol=1e-12):
                return x, z, sign_bit
    raise AssertionError("the matrix is not a signed Pauli letter")


@lru_cache(maxsize=1)
def clifford_matrices() -> np.ndarray:
    """2x2 unitaries (24, 2, 2), each up to a global phase, of the elements
    of ``single_qubit_cliffords()``.

    The products of H and S are searched breadth first from the identity,
    and each new one is placed at the element whose conjugation action on
    X and Z it has; the first product found for an element is kept.  So the
    unitaries come from H and S alone, and a dense reference built on them
    checks the table rather than restating it.
    """
    images = single_qubit_cliffords().action[:, 1:3]
    mats = np.zeros((24, 2, 2), dtype=complex)
    placed = set()
    frontier = [I2]
    while len(placed) < 24:
        nxt = []
        for u in frontier:
            key = [_signed_letter(u @ p @ u.conj().T) for p in (X2, Z2)]
            (e,) = np.flatnonzero((images == np.array(key)).all(axis=(1, 2)))
            if e in placed:
                continue
            placed.add(e)
            mats[e] = u
            nxt += [H2 @ u, S2 @ u]
        frontier = nxt
    mats.flags.writeable = False
    return mats


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


def dense_apply_layers(rho, layers, device, twirl_coupling: bool = False, noisy: bool = True) -> np.ndarray:
    """Layers applied to a (not necessarily Hermitian) matrix with explicit
    full-register matrices.

    Unitaries are Kronecker products, depolarizing channels explicit Pauli
    Kraus sums, coherent errors and CZs dense diagonal unitaries.  The noise
    model is the device's: its per-qubit and per-gate depolarizing
    parameters and its coherent layer components or their Pauli twirls.
    Without ``noisy`` only the ideal operations are applied.
    """
    d = rho.shape[-1]
    n = d.bit_length() - 1

    def depol_1q(rho):
        for q in range(n):
            rho = _depolarize(rho, n, (q,), float(device.single_qubit_depol[q]))
        return rho

    for layer in layers:
        if isinstance(layer, GateLayer):
            if noisy:
                for g in layer.gates:
                    rho = _depolarize(rho, n, device.gates[g].pair, device.gates[g].effective_depol_p())
            if noisy and twirl_coupling:
                for ch in device.layer_twirl_channels(layer.gates):
                    out = np.zeros_like(rho)
                    for w, weight in enumerate(ch.weights):
                        zw = _z_mask_matrix(n, ch.support, w)
                        out += weight * zw @ rho @ zw
                    rho = out
            elif noisy:
                for v in device.coherent_layer_components(layer.gates):
                    u = _embed_diagonal(n, v.qubits, v.diag)
                    rho = u @ rho @ u.conj().T
            for g in layer.gates:
                u = cz_matrix(n, *device.gates[g].pair)
                rho = u @ rho @ u
            continue
        if isinstance(layer, CliffordLayer):
            u = kron_all(clifford_matrices()[layer.layer.elements])
        elif isinstance(layer, PauliLayer):
            u = pauli_matrix("".join("IXZY"[int(x) + 2 * int(z)] for x, z in zip(layer.pauli.x, layer.pauli.z)))
        elif isinstance(layer, Unitary1qLayer):
            u = np.eye(d, dtype=complex)
            for q, op in layer.ops:
                u = embed_1q(n, q, op) @ u
        rho = u @ rho @ u.conj().T
        if noisy:
            rho = depol_1q(rho)
    return rho


def dense_dm_reference(seq, device, twirl_coupling: bool = False) -> np.ndarray:
    """Outcome distribution of a sequence from explicit full-register matrices
    (``dense_apply_layers`` on |0..0>, then a dense readout confusion matrix),
    as real probabilities."""
    d = 2**seq.n
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    probs = np.real(np.diagonal(dense_apply_layers(rho, seq.layers, device, twirl_coupling)))
    conf = kron_all(
        [np.array([[1 - e0, e1], [e0, 1 - e1]]) for e0, e1 in zip(device.readout_e0, device.readout_e1)]
    )
    return conf.real @ probs


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


# -- matrices and Pauli coefficients --------------------------------------------


def _coefficient_tables(n: int):
    """Register indices, the Walsh matrix (-1)^(z.b) and the phases i^|x&z|."""
    a = np.arange(2**n)
    overlap = np.bitwise_count(a[:, None] & a[None, :])
    return a, 1.0 - 2.0 * (overlap & 1), np.array([1, 1j, -1, -1j])[overlap & 3]


def to_coefficients(rho: np.ndarray, n: int) -> np.ndarray:
    """Pauli coefficients c[z, x] = tr(P rho), P = i^|x&z| X^x Z^z, of matrices
    (..., d, d): c[z, x] = i^|x&z| sum_b (-1)^(z.b) rho[b, b^x]."""
    a, walsh, phases = _coefficient_tables(n)
    return phases * (walsh @ rho[..., a[:, None], a[:, None] ^ a])


def to_matrices(c: np.ndarray, n: int) -> np.ndarray:
    """The inverse: rho[b^x, b] = sum_z (-1)^(z.b) i^|x&z| c[z, x] / d."""
    a, walsh, phases = _coefficient_tables(n)
    m = walsh @ (phases * c) / 2**n
    return m[..., a, a[:, None] ^ a]


def matrix_channel(step, n: int):
    """Evaluator on matrices (..., 2^n, 2^n) that runs the coefficient
    ``step`` (``block_noise_channel``) on their Pauli coefficients."""
    return lambda rho: to_matrices(step(to_coefficients(rho, n)), n)


def coefficient_step(channel, n: int):
    """The coefficient step of a Hermiticity-preserving evaluator on stacked
    matrices: real coefficients in, real coefficients out."""
    return lambda c: to_coefficients(channel(to_matrices(c, n)), n).real


def pauli_layer_noise_channel(device: DeviceModel):
    """The tensor-product depolarizing noise of one single-qubit layer, on matrices."""
    n = device.n_qubits
    return matrix_channel(lambda c: _depolarize_1q_one(c, device, n), n)


def matrix_unit_choi_fidelity(channel, n: int) -> float:
    """F = <Phi+| (L x I)(|Phi+><Phi+|) |Phi+> of an evaluator on stacked
    matrices: the normalized sum of <i| L(|i><j|) |j> over all basis index
    pairs, one row i per call."""
    d = 2**n
    j = np.arange(d)
    total = 0.0 + 0.0j
    for i in range(d):
        inputs = np.zeros((d, d, d), dtype=complex)
        inputs[j, i, j] = 1.0
        total += channel(inputs)[j, i, j].sum()
    return float(np.real(total) / d**2)


# -- the per-sequence density-matrix kernel -------------------------------------


def _kron_one(factors: np.ndarray) -> np.ndarray:
    """Kronecker product of per-qubit factors (k, 2, ..., 2) along every axis."""
    r = factors.ndim - 1
    if not len(factors):
        return np.ones((1,) * r, dtype=factors.dtype)
    u = factors[-1]
    for f in factors[-2::-1]:
        s = u.shape[0]
        u = (f.reshape((2, 1) * r) * u.reshape((1, s) * r)).reshape((2 * s,) * r)
    return u


def _kron_rows_one(t: np.ndarray, f1: np.ndarray, f2: np.ndarray) -> np.ndarray:
    *batch, d, m = t.shape
    d1, d2 = len(f1), len(f2)
    t = np.matmul(f1, t.reshape(*batch, d1, d2 * m))
    return np.matmul(f2, t.reshape(*batch, d1, d2, m)).reshape(*batch, d, m)


def _halves_one(maps: np.ndarray):
    n, r, _ = maps.shape
    bits = (2,) * (r.bit_length() + 1)
    h = n // 2
    return tuple(
        _kron_one(m.reshape(len(m), *bits)).reshape(r ** len(m), 4 ** len(m)) for m in (maps[:h], maps[h:])
    )


def _apply_halves_one(c: np.ndarray, ma: np.ndarray, mb: np.ndarray) -> np.ndarray:
    *batch, d, _ = c.shape
    da = math.isqrt(ma.shape[1])
    db = d // da
    t = c.reshape(*batch, da, db, da, db).swapaxes(-3, -2).reshape(*batch, da * da, db * db)
    return ma @ t @ mb.T


def _local_ptms_one(layer, device: DeviceModel, n: int, noisy: bool) -> np.ndarray:
    if isinstance(layer, CliffordLayer):
        ptm = backends._clifford_ptms()[layer.layer.elements]
    else:
        mats = np.array([np.eye(2, dtype=complex)] * n)
        for q, u in layer.ops:
            mats[q] = u @ mats[q]
        ptm = np.einsum("aij,qjk,bkl,qil->qab", backends._PAULIS, mats, backends._PAULIS, mats.conj()).real / 2
    if noisy:
        ptm[:, 1:] *= device.single_qubit_depol[:n, None, None]
    return ptm


def _walsh_column_one(w: int, n: int) -> np.ndarray:
    h1, h2 = walsh_matrix(n // 2), walsh_matrix(n - n // 2)
    return np.multiply.outer(h1[w >> (n - n // 2)], h2[w & (len(h2) - 1)]).ravel()


def _depolarize_1q_one(c: np.ndarray, device: DeviceModel, n: int) -> np.ndarray:
    table = backends._single_qubit_noise(device, n)
    return c if table is None else c * table


def _apply_layer_one(c: np.ndarray, n: int, layer, device: DeviceModel) -> np.ndarray:
    if isinstance(layer, GateLayer):
        lam, phase = backends._gate_layer_tables(device, n, tuple(layer.gates), True)
        s = backends._pauli_phases(device, n)
        halves = walsh_matrix(n // 2), walsh_matrix(n - n // 2)
        t = c * s
        if lam is not None:
            t *= lam
        t = _kron_rows_one(t.view(float), *halves).view(complex)
        t *= phase
        t = _kron_rows_one(t.view(float), *halves).view(complex)
        np.conjugate(t, out=t)
        t *= s
        return t.real
    if isinstance(layer, (CliffordLayer, Unitary1qLayer)):
        ma, mb = _halves_one(_local_ptms_one(layer, device, n, noisy=True))
        d = c.shape[-1]
        da = math.isqrt(ma.shape[0])
        t = _apply_halves_one(c, ma, mb).reshape(da, da, d // da, d // da)
        return t.swapaxes(-3, -2).reshape(d, d)
    x, z = np.dot((layer.pauli.x, layer.pauli.z), 1 << np.arange(n - 1, -1, -1)).tolist()
    if x or z:
        c = c * _walsh_column_one(x, n)[:, None]
        c *= _walsh_column_one(z, n)
    return _depolarize_1q_one(c, device, n)


def dm_run_one(seq, device: DeviceModel) -> np.ndarray:
    """``backends.dm_run`` of one sequence, one (d, d) state at a time with
    fresh arrays per step: the reference the stacked kernel must match to
    the bit."""
    n = seq.n
    local = (CliffordLayer, Unitary1qLayer)
    layers = list(seq.layers)
    first = layers.pop(0) if layers and isinstance(layers[0], local) else None
    last = layers.pop() if layers and isinstance(layers[-1], local) else None
    if first is None:
        blocks = np.broadcast_to(np.array([[1.0, 0.0], [1.0, 0.0]]), (n, 2, 2))
    else:
        ptm = _local_ptms_one(first, device, n, noisy=True)
        blocks = (ptm[:, :, 0] + ptm[:, :, 2]).reshape(n, 2, 2)
    c = _kron_one(blocks)
    for layer in layers:
        c = _apply_layer_one(c, n, layer, device)
    if last is None:
        meas = np.broadcast_to(backends._Z_MEASURE, (n, 2, 4))
    else:
        meas = backends._Z_MEASURE @ _local_ptms_one(last, device, n, noisy=True)
    probs = np.clip(_apply_halves_one(c, *_halves_one(meas)).reshape(-1), 0.0, None)
    confusion = backends._readout_factors(device, n)
    if confusion is not None:
        probs = _kron_rows_one(probs.reshape(-1, 1), *confusion).reshape(-1)
    return probs


# -- Clifford tableaus, one generator at a time --------------------------------



def local_layer_tableau(elements: np.ndarray) -> CliffordTableau:
    """Tableau of a local Clifford layer, element indices (n,): the identity
    tableau's rows through ``local_layer_lookup``."""
    t = CliffordTableau.identity(len(elements))
    return CliffordTableau(t.n, *local_layer_lookup(np.asarray(elements, dtype=np.uint8), t.xbits, t.zbits, t.signs))


def _single_qubit_tableau(n: int, q: int, element: int) -> CliffordTableau:
    elements = np.full(n, single_qubit_cliffords().identity_index, dtype=np.uint8)
    elements[q] = element
    return local_layer_tableau(elements)


def hadamard(n: int, q: int) -> CliffordTableau:
    # maps Z -> +X; H also maps X -> +Z
    return _single_qubit_tableau(n, q, single_qubit_cliffords().z_preparation[1])


def phase_gate(n: int, q: int) -> CliffordTableau:
    # S maps X -> +Y, Z -> +Z: (x, z, sign) images (1, 1, 0) and (0, 1, 0)
    action = single_qubit_cliffords().action
    s = next(e for e in range(24) if action[e, 1].tolist() == [1, 1, 0] and action[e, 2].tolist() == [0, 1, 0])
    return _single_qubit_tableau(n, q, s)


def cz(n: int, a: int, b: int) -> CliffordTableau:
    return CliffordTableau.from_cz_layer(n, [(a, b)])


def _letters(p: PauliString) -> str:
    return "".join("IXZY"[int(xb) + 2 * int(zb)] for xb, zb in zip(p.x, p.z))


def to_label(p: PauliString) -> str:
    return ("", "i", "-", "-i")[p.phase_exp] + _letters(p)


def pauli_from_label(label: str, phase_exp: int = 0) -> PauliString:
    """A Pauli from a letter string such as ``"XIZY"`` (qubit 0 first)."""
    x = np.array([c in "XY" for c in label], dtype=np.uint8)
    z = np.array([c in "ZY" for c in label], dtype=np.uint8)
    return PauliString(len(label), x, z, phase_exp % 4)


def pauli_bits(paulis: list[PauliString]) -> np.ndarray:
    """Bits [x | z] (len(paulis), 2n) of Paulis, one row each."""
    return np.array([np.concatenate([p.x, p.z]) for p in paulis], dtype=np.uint8)


def pauli_of_bits(bits: np.ndarray) -> PauliString:
    """The phaseless Pauli of bits [x | z] (2n,)."""
    n = len(bits) // 2
    return PauliString(n, bits[:n], bits[n:])


def pauli_to_matrix(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Pauli, its phase included."""
    return 1j**p.phase_exp * pauli_matrix(_letters(p))


def pauli_conjugation_tableau(p: PauliString) -> CliffordTableau:
    """Tableau of conjugation by a Pauli: identity bits, and a sign flip on
    each generator that anticommutes with it (X_i where P has a Z component
    on i, Z_i where it has an X component)."""
    t = CliffordTableau.identity(p.n)
    return CliffordTableau(p.n, t.xbits, t.zbits, np.concatenate([p.z, p.x]).astype(np.uint8))


def commutes_with(p: PauliString, q: PauliString) -> bool:
    assert p.n == q.n
    return int(np.sum(p.x & q.z) + np.sum(p.z & q.x)) % 2 == 0


def x_image(t: CliffordTableau, i: int) -> PauliString:
    return PauliString(t.n, t.xbits[i].copy(), t.zbits[i].copy(), int(t.signs[i]) * 2)


def z_image(t: CliffordTableau, i: int) -> PauliString:
    return x_image(t, t.n + i)


def conjugate(t: CliffordTableau, p: PauliString) -> PauliString:
    """T p T^dagger with the sign tracked exactly, one generator row at a time."""
    n = t.n
    assert p.n == n
    # p = i**(phase + y_count) * prod_q X_q^{x_q} Z_q^{z_q}
    phase = (p.phase_exp + int(np.sum(p.x & p.z))) % 4
    rows = np.flatnonzero(np.concatenate([p.x, p.z]))
    # for each qubit q the X_q row precedes the Z_q row, as in the product above
    rows = rows[np.argsort([r % n * 2 + r // n for r in rows], kind="stable")]
    ax = np.zeros(n, dtype=np.uint8)
    az = np.zeros(n, dtype=np.uint8)
    for r in rows:
        rx, rz = t.xbits[r], t.zbits[r]
        idx = (ax.astype(np.int64) << 3) | (az.astype(np.int64) << 2) | (rx.astype(np.int64) << 1) | rz.astype(np.int64)
        phase = (phase + 2 * int(t.signs[r]) + int(_MUL_PHASE[idx].sum())) % 4
        ax ^= rx
        az ^= rz
    if (phase - p.phase_exp) % 2 != 0:
        raise NonCliffordError("conjugation changed the phase parity")
    return PauliString(n, ax, az, phase)


def symplectic_ok(t: CliffordTableau) -> bool:
    """Check the generator images' commutation pattern."""
    m, j = t._symplectic()
    return np.array_equal((m @ j @ m.T) % 2, j)


def inverse(t: CliffordTableau) -> CliffordTableau:
    n = t.n
    m, j = t._symplectic()
    if not np.array_equal((m @ j @ m.T) % 2, j):
        raise NonCliffordError("tableau bits are not symplectic")
    minv = (j @ m.T @ j) % 2
    xb = minv[:, :n].astype(np.uint8)
    zb = minv[:, n:].astype(np.uint8)
    # signs such that conjugating each candidate through t gives +X_i / +Z_i
    sg = np.array([conjugate(t, PauliString(n, xb[r].copy(), zb[r].copy(), 0)).phase_exp // 2 for r in range(2 * n)], dtype=np.uint8)
    return CliffordTableau(n, xb, zb, sg)


def compose_loop(after: CliffordTableau, before: CliffordTableau) -> CliffordTableau:
    """Reference for ``after.compose(before)``: every row of ``before``
    conjugated through ``after``, multiplying in the X and Z rows of
    ``after`` qubit by qubit with the Pauli multiplication table."""
    assert before.n == after.n
    n = after.n
    # each output row starts as i^(2 sign + y_count) * prod X^x Z^z
    phases = 2 * before.signs.astype(np.int64) + np.sum(before.xbits & before.zbits, axis=1, dtype=np.int64)
    sx = after.xbits.astype(np.int64)
    sz = after.zbits.astype(np.int64)
    ssigns = 2 * after.signs.astype(np.int64)
    acc_x = np.zeros((2 * n, n), dtype=np.int64)
    acc_z = np.zeros((2 * n, n), dtype=np.int64)
    for q in range(n):
        for row_idx, sel in ((q, before.xbits[:, q]), (n + q, before.zbits[:, q])):
            mask = sel.astype(bool)
            if not np.any(mask):
                continue
            rx = sx[row_idx]
            rz = sz[row_idx]
            ax = acc_x[mask]
            az = acc_z[mask]
            idx = (ax << 3) | (az << 2) | (rx << 1) | rz
            phases[mask] += _MUL_PHASE[idx].sum(axis=1) + ssigns[row_idx]
            acc_x[mask] = ax ^ rx
            acc_z[mask] = az ^ rz
    phases %= 4
    if np.any(phases & 1):
        raise NonCliffordError("composition changed a phase parity")
    return CliffordTableau(n, acc_x.astype(np.uint8), acc_z.astype(np.uint8), (phases // 2).astype(np.uint8))


def power_by_squaring(t: CliffordTableau, k: int) -> CliffordTableau:
    """t^k for k >= 1 by repeated squaring."""
    acc = None
    while True:
        if k & 1:
            acc = t if acc is None else t.compose(acc)
        k >>= 1
        if not k:
            return acc
        t = t.compose(t)


def gate_order_by_squaring(t: CliffordTableau) -> tuple[int, int]:
    """Reference for ``gate_order`` with no cap: (order, bit order k).

    k is the smallest power with M^k = I, M the symplectic matrix, found by
    iterating M in int64; the order is k when t^k, by repeated squaring, is
    the identity tableau, else 2k.
    """
    m = t._symplectic()[0]
    eye = np.eye(2 * t.n, dtype=np.int64)
    acc, k = m, 1
    while not np.array_equal(acc, eye):
        acc = acc @ m & 1
        k += 1
    return (k if power_by_squaring(t, k).is_identity() else 2 * k), k


def orbit_sign_loop(t: CliffordTableau, k: int) -> np.ndarray:
    """Reference for the sign bits of t^k per generator, for M^k = I.

    Generator r's bit is the XOR over j < k of the sign that t adds to row r
    of M^j, from one ``_images`` call per power, each with its phase-parity
    check.
    """
    m = t._symplectic()[0]
    acc = np.eye(2 * t.n, dtype=np.int64)
    sign = np.zeros(2 * t.n, dtype=np.int64)
    for _ in range(k):
        sign ^= t._images(acc, 0)[1]
        acc = acc @ m & 1
    return sign


def gate_order_loop(t: CliffordTableau, cap: int) -> int | None:
    """``gate_order`` as it was before its symplectic check, for caps below one chunk of powers.

    M is iterated in int64 up to ``cap`` and the sign of t^k comes from
    ``orbit_sign_loop``.  On bits that are not symplectic this returns
    None or an order, or raises ``NonCliffordError`` when some power's
    phase parity changes.
    """
    m = t._symplectic()[0]
    eye_bytes = np.eye(2 * t.n, dtype=np.int64).tobytes()
    acc, k = m, 1
    while acc.tobytes() != eye_bytes:
        if k >= cap:
            return None
        acc = acc @ m & 1
        k += 1
    order = 2 * k if orbit_sign_loop(t, k).any() else k
    return order if order <= cap else None


def fully_connected_tableaus_loop(n: int, samples: int, rng: np.random.Generator) -> list[CliffordTableau]:
    """Reference for the tableaus ``gate_order_samples`` builds: one draw at a time.

    Each draw takes v1, then v2, with ``local_clifford_elements`` and
    composes its own tableau: CZ layer a, v1, CZ layer b, v2 of the n-qubit
    ring.
    """
    a, b = ring_cz_patterns(n)
    cz_a, cz_b = CliffordTableau.from_cz_layer(n, a), CliffordTableau.from_cz_layer(n, b)
    tableaus = []
    for _ in range(samples):
        v1 = local_layer_tableau(local_clifford_elements(n, rng))
        v2 = local_layer_tableau(local_clifford_elements(n, rng))
        tableaus.append(v2.compose(cz_b.compose(v1.compose(cz_a))))
    return tableaus


def net_tableau(seq, device) -> CliffordTableau:
    """Tableau of a whole Clifford sequence, composed layer by layer."""
    net = CliffordTableau.identity(seq.n)
    for layer in seq.layers:
        if isinstance(layer, Unitary1qLayer):
            raise ValueError("net tableau undefined for non-Clifford layers")
        net = layer_tableau(layer, device, seq.n).compose(net)
    return net


def layer_tableau(layer, device, n: int) -> CliffordTableau:
    """Tableau of one Clifford, Pauli or gate layer."""
    if isinstance(layer, GateLayer):
        return CliffordTableau.from_cz_layer(n, [device.gates[g].pair for g in layer.gates])
    if isinstance(layer, CliffordLayer):
        return local_layer_tableau(layer.layer.elements)
    return pauli_conjugation_tableau(layer.pauli)


def closes_to_identity(seq, device) -> bool:
    return net_tableau(seq, device).is_identity()


# -- the stabilizer sampler, one fault's Pauli bits at a time --------------------


def _fault_flips(seq, device) -> list:
    """(firing probability, conditional weights, flips (L, b)) per channel:
    the backward walk of ``cabbench.backends._compile_faults`` with the b
    flip vectors of each location kept as they are."""
    n = seq.n
    act = single_qubit_cliffords().action.astype(bool)
    fx = np.left_shift(1, np.arange(n - 1, -1, -1, dtype=np.int64))
    fz = np.zeros(n, dtype=np.int64)
    groups: dict = {}

    def add(key, p, weights, rows):
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
            img = act[layer.layer.elements]
            fx, fz = (
                np.where(img[:, 1, 0], fx, 0) ^ np.where(img[:, 1, 1], fz, 0),
                np.where(img[:, 2, 0], fx, 0) ^ np.where(img[:, 2, 1], fz, 0),
            )
        elif isinstance(layer, PauliLayer):
            depol_1q()
        elif isinstance(layer, GateLayer):
            for g in layer.gates:
                spec = device.gates[g]
                a, b = spec.pair
                p = 1.0 - spec.effective_depol_p()
                add(("2q", p), p, None, np.array([[fx[a], fz[a], fx[b], fz[b]]]))
            for ch in device.layer_twirl_channels(layer.gates):
                p = float(ch.weights[1:].sum())
                if p > 0.0:
                    add(("twirl", id(ch)), p, ch.weights[1:] / p, fz[list(ch.support)][None, :])
            for g in layer.gates:
                a, b = device.gates[g].pair
                fx[a], fx[b] = fx[a] ^ fz[b], fx[b] ^ fz[a]
        else:
            raise TypeError(f"no reference for layer type {type(layer)!r}")
    return [(p, weights, np.concatenate(rows)) for p, weights, rows in groups.values()]


def stab_run_counts_bitwise(seq, device, k_s: int, rng: np.random.Generator):
    """Reference for ``cabbench.backends.stab_run_counts`` with the same
    draws in the same order: a fault's flip is the XOR of the flip vectors
    at the set bits of its Pauli index (first bit the most significant),
    expanded fault by fault instead of looked up in a table."""
    from cabbench.backends import ShotCounts
    from cabbench.device import bernoulli_positions

    frame = np.zeros(k_s, dtype=np.int64)
    for p, weights, flips in _fault_flips(seq, device):
        n_loc, b = flips.shape
        shot, loc = np.divmod(bernoulli_positions(rng, n_loc * k_s, p), n_loc)
        if weights is None:
            idx = rng.integers(0, 2**b, size=len(loc))
        else:
            idx = rng.choice(len(weights), size=len(loc), p=weights) + 1
        bits = (idx[:, None] >> np.arange(b - 1, -1, -1)) & 1
        flip = np.bitwise_xor.reduce(np.where(bits, flips[loc], 0), axis=1)
        np.bitwise_xor.at(frame, shot, flip)
    if np.any(device.readout_e0 > 0) or np.any(device.readout_e1 > 0):
        frame = apply_readout_noise_at(frame, seq.n, device.readout_e0, device.readout_e1, rng)
    return ShotCounts.from_outcomes(frame, seq.n)


def compile_faults_one(seq, device) -> list:
    """Reference for ``cabbench.backends._compile_faults`` one sequence at a
    time: ``_fault_flips`` with each group's flips (L, b) expanded into a
    table (L, 2^b), entry i the XOR of the flip vectors at the set bits of
    i, the first the most significant."""
    tables = []
    for p, weights, flips in _fault_flips(seq, device):
        table = np.zeros((len(flips), 1), dtype=np.int64)
        for f in flips.T:  # each later factor appends a less significant index bit
            table = np.stack((table, table ^ f[:, None]), axis=2).reshape(len(flips), -1)
        tables.append((p, weights, table))
    return tables


def stab_run_counts_one(seq, device, k_s: int, rng: np.random.Generator):
    """Reference for ``cabbench.backends.stab_run_counts`` one sequence at a
    time, with its own compile (``compile_faults_one``) and the same draws
    in the same order: each fault's flip is looked up in its table and XORed
    into the frame by ``xor_sorted``, then the readout flips by
    ``apply_readout_noise``."""
    from cabbench.backends import ShotCounts
    from cabbench.device import apply_readout_noise, bernoulli_positions, xor_sorted

    frame = np.zeros(k_s, dtype=np.int64)
    for p, weights, table in compile_faults_one(seq, device):
        n_loc, size = table.shape
        shot, loc = np.divmod(bernoulli_positions(rng, n_loc * k_s, p), n_loc)
        if weights is None:
            idx = rng.integers(0, size, size=len(loc))
        else:
            idx = rng.choice(len(weights), size=len(loc), p=weights) + 1
        xor_sorted(frame, shot, table[loc, idx])
    if np.any(device.readout_e0 > 0) or np.any(device.readout_e1 > 0):
        frame = apply_readout_noise(frame, seq.n, device.readout_e0, device.readout_e1, rng)
    return ShotCounts.from_outcomes(frame, seq.n)


def apply_readout_noise_at(codes: np.ndarray, n: int, e0, e1, rng: np.random.Generator) -> np.ndarray:
    """Reference for ``cabbench.device.apply_readout_noise`` with the same
    draws in the same order: per rate group, candidates split by ``divmod``,
    each one's keep rate picked by ``np.where`` from its bit, and the kept
    flips XORed in by an unbuffered ``np.bitwise_xor.at``."""
    from cabbench.device import bernoulli_positions

    out = np.array(codes, dtype=np.int64)
    e0 = np.broadcast_to(np.asarray(e0, dtype=float), (n,))
    e1 = np.broadcast_to(np.asarray(e1, dtype=float), (n,))
    rate = np.maximum(e0, e1)
    for r in np.unique(rate):
        qubits = np.flatnonzero(rate == r)
        shot, j = np.divmod(bernoulli_positions(rng, len(out) * len(qubits), float(r)), len(qubits))
        q = qubits[j]
        flip = np.left_shift(1, n - 1 - q)
        keep = rng.random(len(q)) * r < np.where(out[shot] & flip, e1[q], e0[q])
        np.bitwise_xor.at(out, shot[keep], flip[keep])
    return out


def bernoulli_positions_geometric(rng: np.random.Generator, n_trials: int, p: float) -> np.ndarray:
    """Reference for ``cabbench.device.bernoulli_positions``: the gaps drawn
    by ``rng.geometric``, element by element, in the same chunks.  For
    p < 1/3 the positions and the generator state after them must be equal
    to the bit.  Gaps that ``rng.geometric`` clamps to INT64_MAX overflow
    the cumsum, so it holds only where n_trials p is not tiny."""
    if p <= 0.0 or n_trials == 0:
        return np.zeros(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(n_trials, dtype=np.int64)
    mean = n_trials * p
    chunk = int(mean + 5.0 * np.sqrt(mean)) + 16
    parts, last = [], -1
    while last < n_trials:
        pos = rng.geometric(p, size=chunk)
        np.cumsum(pos, out=pos)
        pos += last
        parts.append(pos)
        last = int(pos[-1])
    pos = np.concatenate(parts)
    return pos[: np.searchsorted(pos, n_trials)]


# -- per-sequence references for the stacked ShotCounts paths -------------------


def survivals_one(codes: np.ndarray, counts: np.ndarray, k_s: int, w_masks: np.ndarray) -> np.ndarray:
    """One sequence's survivals: sum_x count(x)/k_s * (-1)^(w.x) per mask w."""
    par = (np.bitwise_count(w_masks[:, None] & codes[None, :]) & 1).astype(float)
    return (k_s - 2.0 * (par @ counts.astype(float))) / k_s


def all_survivals_one(codes: np.ndarray, counts: np.ndarray, k_s: int, n: int) -> np.ndarray:
    """One sequence's survivals of every Z-observable, mask w at index w:
    ``survivals_one`` over all 2^n masks, with no Walsh transform."""
    return survivals_one(codes, counts, k_s, np.arange(2**n))


def marginal_count_vector_one(codes: np.ndarray, counts: np.ndarray, n: int, qubits) -> np.ndarray:
    """One sequence's dense count vector restricted to ``qubits`` (qubits[0] the MSB)."""
    from cabbench.backends import _bits

    return np.bincount(_bits(codes, n, qubits), weights=counts, minlength=2 ** len(qubits))


def aggregate_row(lam: np.ndarray, weights: np.ndarray, flagged: np.ndarray) -> float:
    """The weighted mean of one row's unflagged lambda, nan when none is left."""
    ok = ~flagged
    if not np.any(ok):
        return float("nan")
    return float(np.sum(weights[ok] * lam[ok]) / np.sum(weights[ok]))


def observable_sampling_variance(lam: np.ndarray, flagged: np.ndarray) -> float:
    """The observable-sampling term of a sample-mode variance as a formula:
    var(lambda, ddof=1) / len(lambda) over the unflagged lambda, 0 when
    fewer than two are left."""
    kept = lam[~flagged]
    return float(np.var(kept, ddof=1) / len(kept)) if len(kept) >= 2 else 0.0


# -- the CSV writer, one row at a time ------------------------------------------


def write_csv_rows(path, header: list[str], rows):
    """Reference for ``cabbench.cli._write_csv``: one format string per
    file, applied to each row tuple, every value written as format(v, "")."""
    line = ",".join(["{}"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line.format(*row) for row in rows)


# -- small functions that only tests call ---------------------------------------


def unpack_bits(codes: np.ndarray, n: int) -> np.ndarray:
    """int64 outcome codes to rows of n bits (qubit 0 first = MSB), the
    inverse of ``cabbench.backends.pack_bits``."""
    # shift the n code bits to the top, so they are the first n unpacked
    top = np.asarray(codes).astype(np.uint64) << np.uint64(64 - n)
    return np.unpackbits(top.astype(">u8").view(np.uint8).reshape(-1, 8), axis=1, count=n)


def parametric_cz_unitary(spec: GateSpec) -> DiagonalUnitary:
    """diag(1, e^{i dyn_j}, e^{i dyn_i}, e^{i(dyn_i+dyn_j+pi+cond)}) on the pair."""
    c = spec.control
    diag = np.exp(1j * np.array([0.0, c.dyn_j, c.dyn_i, c.dyn_i + c.dyn_j + np.pi + c.cond_phase]))
    return DiagonalUnitary(tuple(spec.pair), diag)


def weight_of(channel: PauliChannel, pauli: PauliString) -> float:
    """Probability of a given Z-type Pauli on the full register."""
    if np.any(pauli.x):
        return 0.0
    k = len(channel.support)
    zero_outside = np.ones(pauli.n, dtype=bool)
    zero_outside[list(channel.support)] = False
    if np.any(pauli.z[zero_outside]):
        return 0.0
    w = 0
    for pos, q in enumerate(channel.support):
        w |= int(pauli.z[q]) << (k - 1 - pos)
    return float(channel.weights[w])


def kq_for_accuracy(epsilon: float, delta: float) -> int:
    """Observable budget from the Hoeffding bound: ceil(2 eps^-2 ln(2/delta))."""
    if not 0 < epsilon <= 1 or not 0 < delta < 1:
        raise ValueError("require 0 < epsilon <= 1 and 0 < delta < 1")
    return math.ceil(2.0 * epsilon**-2 * math.log(2.0 / delta))


def fit_quality_parameter(points: list[tuple[float, float, float]], w_mask: int = 0) -> np.void:
    """Fit one observable's decay; points are (m, fbar, se) per depth, the
    SEs weighting the fit past two depths.  The fit is one ``QUALITY_DTYPE``
    record whose se is nan: one fit gives no SE, the jackknife over
    sequences does."""
    ms = np.array([p[0] for p in points], dtype=float)
    fbar = np.array([[p[1]] for p in points])
    ses = np.array([[p[2]] for p in points])
    if len(points) < 2 or len(set(ms.tolist())) < 2:
        raise ValueError("need at least two distinct depths")
    lam, flagged = _fit_lambda_arrays(2.0 * ms, fbar, ses)
    return np.array([(w_mask, lam[0], np.nan, flagged[0])], QUALITY_DTYPE)[0]


def delta_method_lambda_se(exponents, fbar: np.ndarray, ses: np.ndarray) -> np.ndarray:
    """The two-depth delta-method SE of lambda = (fbar[1] / fbar[0])^(1/dx)
    per column, from each depth mean's SE: |lambda| / |dx| times the
    relative SE of the ratio: the reference that each mask's jackknife
    lambda SE is compared with at two depths."""
    dx = exponents[1] - exponents[0]
    lam = np.abs(fbar[1] / fbar[0]) ** (1.0 / dx)
    return lam / abs(dx) * np.sqrt((ses[0] / fbar[0]) ** 2 + (ses[1] / fbar[1]) ** 2)


@dataclass
class OptResult:
    x: np.ndarray
    fx: float
    history: list[tuple[np.ndarray, float]]
    converged: bool
    aborted: bool


def nelder_mead(objective, x0, options: NelderMeadOptions | None = None, max_evals: int = 500) -> OptResult:
    """Minimize a (possibly noisy) objective; returns best point and history."""
    opt = NelderMead(x0, options or NelderMeadOptions(initial_step=0.1, x_tol=1e-6))
    history: list[tuple[np.ndarray, float]] = []
    try:
        while opt.evals < max_evals and not opt.finished():
            x = opt.ask()
            fx = objective(x)
            history.append((x.copy(), float(fx)))
            opt.tell(float(fx))
    except NonFiniteObjective:
        xb, fb = opt.best
        return OptResult(xb, fb, history, converged=False, aborted=True)
    xb, fb = opt.best
    return OptResult(xb, fb, history, converged=opt.finished(), aborted=False)


@dataclass(frozen=True)
class TwoGateForms:
    f1: float
    f2: float
    f_both: float
    correlation: float


def closed_form_r2(p1: float, p2: float, gamma12: float, variant: int = 4) -> TwoGateForms:
    """Two-gate closed forms; ``variant`` is the per-gate dimension (2 or 4).

    The variant-2 constants divide the depolarized remainder by 4, the
    variant-4 ones by 16; both share the same correlation numerator
    p1 p2 cos^2 sin^2.
    """
    if variant not in (2, 4):
        raise ValueError("variant must be the per-gate dimension 2 or 4")
    c2 = math.cos(gamma12) ** 2
    q1, q2 = 1.0 - p1, 1.0 - p2
    dd = variant**2
    f1 = p1 * c2 + q1 / dd
    f2 = p2 * c2 + q2 / dd
    f_both = (p1 * p2 + (p1 * q2 + q1 * p2) / dd) * c2 + q1 * q2 / dd**2
    corr = correlation(f_both, [f1, f2])
    return TwoGateForms(f1, f2, f_both, corr)


def small_coupling_correlation(gamma: float) -> float:
    """Two-gate correlation in the near-unit-depolarizing limit."""
    return math.sin(gamma) * math.tan(gamma)


def pairwise_correlation_strong_depol_limit(gamma12: float, gamma13: float, gamma23: float) -> float:
    """Three-gate correlation of gates 1 and 2 in the p -> 1 limit."""
    c12, s12 = math.cos(gamma12) ** 2, math.sin(gamma12) ** 2
    c13, s13 = math.cos(gamma13) ** 2, math.sin(gamma13) ** 2
    c23, s23 = math.cos(gamma23) ** 2, math.sin(gamma23) ** 2
    a1 = c12 * c13 + s12 * s13
    a2 = c12 * c23 + s12 * s23
    cos_l = math.cos(gamma12) * math.cos(gamma13) * math.cos(gamma23)
    sin_l = math.sin(gamma12) * math.sin(gamma13) * math.sin(gamma23)
    b = cos_l**2 + sin_l**2
    num = c12 * s12 * (c13 - s13) * (c23 - s23)
    return num / math.sqrt(b * a1 * a2)
