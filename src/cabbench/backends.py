"""Two circuit backends plus process-fidelity evaluation.

``dm_run`` is the exact oracle: density-matrix evolution with the coherent
coupling unitary, depolarizing channels applied as channels, and readout
confusion.  The state is held as its real Pauli coefficients
c[z, x] = tr(P rho) for P = i^|x&z| X^x Z^z: a (d, d) array with rows z and
columns x, qubit 0 the most significant bit (Chow et al., PRL 109, 060501;
the Pauli transfer representation).  Each layer is a few whole-register
array operations on a stack c of shape (K, d, d), with the tables built
once per device (``DeviceModel.cached``):

- per-qubit and per-gate depolarizing and the twirled coupling are
  Pauli-diagonal: one multiply each by a cached table;
- a Pauli layer X^x Z^z is Pauli-diagonal too, with sign (-1)^(x.z') on
  row z' and (-1)^(z.x') on column x': two broadcast multiplies by rows
  of the Walsh matrix, each gathered from the rows of its two halves, with
  no (d, d) table;
- a single-qubit layer is a Kronecker product of real 4x4 transfer
  matrices, applied as two half-register matmuls;
- a gate layer's CZs and coherent components form one diagonal unitary D.
  It is one multiply in the frame M[b, x] = rho[b^x, b], which is the
  Walsh transform of c along z: transform, multiply, transform back;
- a first single-qubit layer on |0..0> gives a product state, and the last
  one folds into the Z measurement.

``dm_run`` takes a stack of sequences with one layout (the same layer
kinds and the same gate layers) and runs the states as one c.  The
sequences' own Pauli and single-qubit layers are stacked (one sign row or
one set of 4x4 matrices per state); a layer every sequence shares, such as
a gate table or a target block's local layer, broadcasts over the stack.
matmul runs a stack as one 2-d product per state, so each row is the
sequence's run on its own to the bit.  The stack goes in chunks of
``DM_CHUNK_ELEMENTS // 4^n`` states: 10 at 6 qubits, and one from 8
qubits on, where one state is already large.  A call allocates its work
memory once, and every layer of every chunk reuses it through ``out=`` and
in-place steps (``_Stack``).  A fresh array of a few hundred KB per step
can cost more in page faults than the arithmetic on it, and larger chunks
only add memory: one chunk of 40 states at 6 qubits was slower than
chunks of 10.

``block_noise_channel`` and ``dressed_cycle_channel`` are the same kernel
as steps on stacks of real coefficients (a complex input runs as its real
and imaginary parts), and
``choi_process_fidelity`` takes the process fidelity F = tr(R) / d^2 from
such a step, R its Pauli transfer matrix.  The one-hot coefficient input
e_(z, x) is the Pauli P / d, so entry [z, x] of its output is R's diagonal
entry for P.  The d inputs of one row z are one real (d, d, d) batch: the
batch size is fixed by the layout, and no input or output is ever a
matrix.

``stab_run_counts`` is the scalable backend, a Pauli-frame sampler for
sequences that ideally close to the identity, with every coherent diagonal
error replaced by its exact Pauli twirl.  It takes a stack of one layout,
as ``dm_run`` does, and like Stim (Gidney, Quantum 5, 497 (2021)) it
compiles, then samples:

- compile: one backward walk over the stack's layers tabulates, per noise
  location and sequence, the readout flip (a GF(2) vector of the final X
  bits) of each of its Paulis.  The sequences share their locations, so
  the walk carries (K, n) flip vectors and fills (K, L, 2^b) tables;
- sample, one sequence at a time from its own stream: each (location,
  shot) fires independently with its probability, drawn as geometric gaps
  over the locations that share a channel, so the work is proportional to
  the number of faults, not to shots x qubits.  A shot's outcome is the
  XOR of its faults' flips, each one lookup in the sequence's table.  The
  faults come in shot order, so their flips, and then the readout flips,
  are XORed in with one pass per group (``xor_sorted``).

Both backends give outcomes as int64 codes, qubit 0 the most significant
bit (``pack_bits``): ``dm_run``'s probability index, the stab frame, the
readout flips XORed into it and the ``ShotCounts`` that parities and
marginals read all use the one format.  A CAB run makes one backend call
per stack (a depth's sequences, or one CB character group) and holds its
outcomes as one ``ShotCounts`` (codes, counts and per-sequence offsets),
so that each kind of readout takes one call per depth and gives one row
per sequence:

- traverse mode: all survivals, one batched transform;
- sample mode: the parities of the sampled masks, carried as packed bits
  per code and gathered from one table per code byte, then counted per
  (sequence, mask) by one weighted ``bincount`` per parity byte; no
  (masks, codes) array is built;
- subset marginals: one ``bincount`` per subset, its sub-index built by
  shifts.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .circuits import CircuitSequence, CliffordLayer, GateLayer, PauliLayer, Unitary1qLayer
from .device import DeviceModel, ResourceLimitError, bernoulli_positions, fwht, xor_sorted
from .paulis import _LETTER_MATS, single_qubit_cliffords

DM_QUBIT_LIMIT = 12
PACK_QUBIT_LIMIT = 62  # outcomes are int64 codes; also the stabilizer backend's size limit
CHOI_QUBIT_LIMIT = 6
# Pauli coefficients per dm_run chunk: 10 sequences at 6 qubits, one from 8 qubits on
DM_CHUNK_ELEMENTS = 10 * 4**6

_BYTE_VALUES = np.arange(256, dtype=np.uint8)
# [byte value, i]: bit i of the value in packbits order, the first the most significant
_BIT_SELECT = np.unpackbits(_BYTE_VALUES[:, None], axis=1).astype(float)


# ---------------------------------------------------------------------------
# density-matrix kernel in the Pauli basis, on stacks c of shape (K, d, d)
# ---------------------------------------------------------------------------

_PAULIS = np.array(_LETTER_MATS)  # index 2z + x: I, X, Z, Y
_Z_MEASURE = np.array([[1.0, 0.0, 1.0, 0.0], [1.0, 0.0, -1.0, 0.0]]) / 2  # [outcome, Pauli]
_LOCAL = (CliffordLayer, Unitary1qLayer)


def _bits(a: np.ndarray, n: int, qubits) -> np.ndarray:
    """Sub-index of register indices or outcome codes ``a`` (1-d int64) on
    ``qubits`` (qubits[0] = MSB), by shifts: a run of consecutive qubits,
    such as a gate's pair, is one shift and one mask."""
    q = np.asarray(qubits, dtype=np.int64)
    sub = np.zeros(len(a), dtype=np.int64)
    if not len(q):
        return sub
    part = np.empty_like(sub)
    place = len(q)
    for run in np.split(q, np.flatnonzero(np.diff(q) != 1) + 1):
        place -= len(run)
        np.right_shift(a, n - 1 - run[-1], out=part)
        part &= (1 << len(run)) - 1
        part <<= place
        sub |= part
    return sub


def _kron(factors: np.ndarray) -> np.ndarray:
    """Kronecker products of per-qubit factors (B, k, 2, ..., 2), one per
    leading index, the first qubit the most significant, taken along every
    factor axis: the result (B, 2^k, ..., 2^k) has one axis of length 2^k
    per factor axis.  For (B, k, 2, 2) it is the Kronecker product of k 2x2
    matrices.  The factors are taken last first, so that each broadcast
    multiply runs over the grown product in its inner loop."""
    b, k = factors.shape[:2]
    r = factors.ndim - 2
    if not k:
        return np.ones((b,) + (1,) * r, dtype=factors.dtype)
    u = factors[:, -1]
    for i in range(k - 2, -1, -1):
        s = u.shape[1]
        u = (factors[:, i].reshape((b,) + (2, 1) * r) * u.reshape((b,) + (1, s) * r)).reshape((b,) + (2 * s,) * r)
    return u


def _kron_rows(t: np.ndarray, f1: np.ndarray, f2: np.ndarray, scratch: np.ndarray | None = None) -> np.ndarray:
    """(f1 x f2) @ t for t (..., d1*d2, m): one matmul per Kronecker factor.

    Given a float ``scratch`` of t's shape, the first product goes there
    and the second back into t (contiguous), so nothing is allocated."""
    *batch, d, m = t.shape
    d1, d2 = len(f1), len(f2)
    first = None if scratch is None else scratch.reshape(*batch, d1, d2 * m)
    u = np.matmul(f1, t.reshape(*batch, d1, d2 * m), out=first)
    second = None if scratch is None else t.reshape(*batch, d1, d2, m)
    return np.matmul(f2, u.reshape(*batch, d1, d2, m), out=second).reshape(*batch, d, m)


def _walsh(k: int) -> np.ndarray:
    a = np.arange(2**k)
    return 1.0 - 2.0 * (np.bitwise_count(a[:, None] & a[None, :]) & 1)


def _halves(maps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-qubit maps (B, n, r, 4) as the two half-register matrices of
    ``_apply_halves``, (B, r^h, 4^h) for the first h = floor(n/2) qubits
    and (B, r^(n-h), 4^(n-h)) for the rest.  A map's input is a qubit's
    index pair 2u + v (a Pauli 2z + x); its output is another pair (r = 4)
    or one bit (r = 2)."""
    b, n, r, _ = maps.shape
    bits = (2,) * (r.bit_length() + 1)
    h = n // 2
    return tuple(
        _kron(m.reshape(b, k, *bits)).reshape(b, r**k, 4**k)
        for m, k in ((maps[:, :h], h), (maps[:, h:], n - h))
    )


def _apply_halves(c: np.ndarray, ma: np.ndarray, mb: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """(ma x mb) on c (K, d, d) viewed as (u_A v_A, u_B v_B), the A bits
    those of the first floor(n/2) qubits of both indices: two matmuls.

    ma and mb have a leading axis of K, or of 1 for one map for every state.
    The permuted copy of c and both products go into ``buf``, a flat array
    of c's dtype and twice c's size; the result (K, ra, rb) is a view of it.
    """
    k, d, _ = c.shape
    da = math.isqrt(ma.shape[-1])
    db = d // da
    ra, rb = ma.shape[-2], mb.shape[-2]
    t = buf[: c.size].reshape(k, da * da, db * db)
    np.copyto(t.reshape(k, da, da, db, db), c.reshape(k, da, db, da, db).swapaxes(-3, -2))
    u = np.matmul(ma, t, out=buf[c.size : c.size + k * ra * db * db].reshape(k, ra, db * db))
    return np.matmul(u, mb.swapaxes(-1, -2), out=buf[: k * ra * rb].reshape(k, ra, rb))


@lru_cache(maxsize=1)
def _clifford_ptms() -> np.ndarray:
    """Pauli transfer matrices [element, out, in] of the 24 single-qubit
    Cliffords over the Paulis 2z + x (I, X, Z, Y): signed permutations read
    off the conjugation table."""
    action = single_qubit_cliffords().action.astype(np.int64)
    ptm = np.zeros((24, 4, 4))
    e, p = np.meshgrid(np.arange(24), np.arange(4), indexing="ij")
    ptm[e, action[..., 0] + 2 * action[..., 1], p] = 1.0 - 2.0 * action[..., 2]
    ptm.flags.writeable = False
    return ptm


def _local_ptms(layers, device: DeviceModel, n: int, noisy: bool) -> np.ndarray:
    """Per-qubit Pauli transfer matrices (B, n, 4, 4) of B single-qubit
    layers of one kind, each followed by the per-qubit depolarizing when
    ``noisy``."""
    if isinstance(layers[0], CliffordLayer):
        ptm = _clifford_ptms()[np.stack([layer.layer.elements for layer in layers])]
    else:
        ptm = np.empty((len(layers), n, 4, 4))
        for out, layer in zip(ptm, layers):
            mats = np.array([np.eye(2, dtype=complex)] * n)
            for q, u in layer.ops:
                mats[q] = u @ mats[q]
            # tr(P_a U P_b U^dagger) / 2
            out[:] = np.einsum("aij,qjk,bkl,qil->qab", _PAULIS, mats, _PAULIS, mats.conj()).real / 2
    if noisy:
        ptm[..., 1:, :] *= device.single_qubit_depol[:n, None, None]
    return ptm


def _product_state(first, device: DeviceModel, n: int, out: np.ndarray):
    """Writes to ``out`` (K, d, d) the coefficients of |0..0>, or of the
    product states the local layers ``first`` (one, or one per state; noise
    included) make from it."""
    if first is None:
        blocks = np.broadcast_to(np.array([[1.0, 0.0], [1.0, 0.0]]), (1, n, 2, 2))
    else:
        ptm = _local_ptms(first, device, n, noisy=True)
        blocks = (ptm[..., 0] + ptm[..., 2]).reshape(-1, n, 2, 2)  # |0><0| = (I + Z) / 2
    # the first qubit's factor times the rest, as _kron's last step, into out
    rest = _kron(blocks[:, 1:])
    s = rest.shape[1]
    head = blocks[:, 0].reshape(-1, 2, 1, 2, 1)
    np.multiply(head, rest.reshape(-1, 1, s, 1, s), out=out.reshape(len(out), 2, s, 2, s))


def _walsh_halves(device: DeviceModel, n: int):
    """The 2^floor(n/2) and 2^ceil(n/2) Kronecker factors of the 2^n Walsh matrix."""
    return device.cached(("walsh", n), lambda: (_walsh(n // 2), _walsh(n - n // 2)))


def _walsh_rows(w: np.ndarray, device: DeviceModel, n: int) -> np.ndarray:
    """(-1)^(a.w) over the register indices a, one row per entry of ``w``:
    rows w of the 2^n Walsh matrix, gathered from its two halves' rows."""
    h1, h2 = _walsh_halves(device, n)
    return (h1[w >> (n - n // 2)][:, :, None] * h2[w & (len(h2) - 1)][:, None, :]).reshape(len(w), -1)


def _pauli_phases(device: DeviceModel, n: int) -> np.ndarray:
    """i^|x & z| indexed [z, x]: P = i^|x & z| X^x Z^z is Hermitian."""

    def build():
        a = np.arange(2**n)
        return np.array([1, 1j, -1, -1j])[np.bitwise_count(a[:, None] & a[None, :]) & 3]

    return device.cached(("phases", n), build)


def _nontrivial_on(n: int, qubits) -> np.ndarray:
    """Mask over the Paulis X^x Z^z, indexed [z, x], that act on any of ``qubits``."""
    a = np.arange(2**n)
    support = sum(1 << (n - 1 - q) for q in qubits)
    return ((a[:, None] | a[None, :]) & support) != 0


def _single_qubit_noise(device: DeviceModel, n: int):
    """Eigenvalues [z, x] of the per-qubit depolarizing layer, or None."""

    def build():
        noisy = [(q, float(p)) for q, p in enumerate(device.single_qubit_depol[:n]) if p < 1.0]
        if not noisy:
            return None
        lam = np.ones((2**n, 2**n))
        for q, p in noisy:
            lam[_nontrivial_on(n, (q,))] *= p
        return lam

    return device.cached(("dm_1q", n), build)


def _gate_layer_tables(device: DeviceModel, n: int, gates: tuple[int, ...], noisy: bool, twirl_coupling: bool):
    """(eigenvalues or None, phase table) of one gate layer.

    The noise is the gates' depolarizing channels and, with
    ``twirl_coupling``, the twirled coupling; both are Pauli-diagonal, so
    they share one eigenvalue table [z, x].  Without the twirl the coherent
    components join the ideal CZs in one diagonal unitary D.  D rho D^dagger
    scales rho[b^x, b] by D[b^x] D*[b]: that is the phase table [b, x],
    divided by d for the two Walsh transforms around it.
    """

    def build():
        device.check_layer_disjoint(gates)
        d = 2**n
        a = np.arange(d)
        diag = np.ones(d, dtype=complex)
        for g in gates:
            diag[_bits(a, n, device.gates[g].pair) == 3] *= -1.0
        lam = None
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
                    eig = fwht(ch.weights)
                    lam *= eig[_bits(a, n, ch.support)][None, :]
            else:
                for v in device.coherent_layer_components(gates):
                    diag *= v.diag[_bits(a, n, v.qubits)]
            if np.all(lam == 1.0):
                lam = None
        return lam, diag[a[:, None] ^ a[None, :]] * diag.conj()[:, None] / d

    return device.cached(("dm_gate", n, gates, noisy, twirl_coupling), build)


def _readout_factors(device: DeviceModel, n: int):
    """Kronecker factors (first floor(n/2) qubits, rest) of the readout
    confusion matrix, or None without readout error."""

    def build():
        e0, e1 = device.readout_e0[:n], device.readout_e1[:n]
        if not (np.any(e0 > 0) or np.any(e1 > 0)):
            return None
        mats = np.array([[1 - e0, e1], [e0, 1 - e1]]).transpose(2, 0, 1)
        return _kron(mats[None, : n // 2])[0], _kron(mats[None, n // 2 :])[0]

    return device.cached(("readout", n), build)


class _Stack:
    """Pauli coefficients c (K, d, d) of K states, which each layer updates
    in place.

    ``buf``, twice c's size, holds the local layers' permuted copy and
    products (``_apply_halves``).  Its complex view is the gate layers'
    frame, and c shares its memory with ``scratch``, the Walsh transforms'
    first products: c is dead while the frame holds the state.  The memory
    is allocated once per stack and reused by every layer.
    """

    def __init__(self, k: int, device: DeviceModel, n: int):
        self.device, self.n = device, n
        d = 2**n
        size = k * d * d
        mem = np.empty(4 * size)
        self.buf, self.scratch = mem[: 2 * size], mem[2 * size :].reshape(k, d, 2 * d)
        self.c = mem[2 * size : 3 * size].reshape(k, d, d)

    def head(self, k: int) -> "_Stack":
        """A stack of the first k states, on the same memory."""
        head = copy.copy(self)
        head.c, head.scratch = self.c[:k], self.scratch[:k]
        return head

    def apply(self, layers, noisy: bool, twirl_coupling: bool):
        """One layer position: ``layers`` holds each state's layer, or one
        layer for every state.

        A single-qubit layer is a Kronecker product of 4x4 transfer matrices
        with its depolarizing folded in.  A Pauli layer X^x Z^z and its
        depolarizing are Pauli-diagonal: X^x Z^z P Z^z X^x = (-1)^(x.z' + z.x') P
        for P = X^x' Z^z'.  The sign is the Walsh row of x along the rows z'
        times that of z along the columns x', so the layer is two broadcast
        multiplies, exact in any order since every factor is a sign.
        """
        layer = layers[0]
        if isinstance(layer, GateLayer):
            self.gate(tuple(layer.gates), noisy, twirl_coupling)
        elif isinstance(layer, _LOCAL):
            self.local(_local_ptms(layers, self.device, self.n, noisy))
        elif isinstance(layer, PauliLayer):
            place = 1 << np.arange(self.n - 1, -1, -1)
            x = np.stack([lay.pauli.x for lay in layers]) @ place
            z = np.stack([lay.pauli.z for lay in layers]) @ place
            if np.any(x) or np.any(z):
                self.c *= _walsh_rows(x, self.device, self.n)[:, :, None]
                self.c *= _walsh_rows(z, self.device, self.n)[:, None, :]
            if noisy and self.device.pauli_layer_noise:
                self.depolarize_1q()
        else:
            raise TypeError(f"unknown layer type {type(layer)!r}")

    def depolarize_1q(self):
        table = _single_qubit_noise(self.device, self.n)
        if table is not None:
            self.c *= table

    def gate(self, gates: tuple[int, ...], noisy: bool, twirl_coupling: bool):
        """One gate layer: its noise, then D rho D^dagger.

        With M[b, x] = rho[b^x, b], column x of M is the Walsh transform
        along z of i^|x&z| c[:, x] / d.  So: multiply by the phases and the
        noise, transform along z, multiply by the phase table, transform
        back, and take the phases off again.  The transforms run on the
        frame's float view, which carries the real and imaginary parts
        through the same real matmuls.
        """
        lam, phase = _gate_layer_tables(self.device, self.n, gates, noisy, twirl_coupling)
        s = _pauli_phases(self.device, self.n)
        c = self.c
        t = self.buf.view(complex)[: c.size].reshape(c.shape)
        np.multiply(c, s, out=t)
        if lam is not None:
            t *= lam
        halves = _walsh_halves(self.device, self.n)
        _kron_rows(t.view(float), *halves, self.scratch)
        t *= phase
        _kron_rows(t.view(float), *halves, self.scratch)
        # i^-|x&z| t = conj(conj(t) i^|x&z|), in place
        np.conjugate(t, out=t)
        t *= s
        np.copyto(c, t.real)

    def local(self, ptms: np.ndarray):
        """A Kronecker product of per-qubit 4x4 maps ``ptms`` (B, n, 4, 4) on c."""
        k, d, _ = self.c.shape
        ma, mb = _halves(ptms)
        da = math.isqrt(ma.shape[-1])
        db = d // da
        t = _apply_halves(self.c, ma, mb, self.buf).reshape(k, da, da, db, db)
        np.copyto(self.c.reshape(k, da, db, da, db), t.swapaxes(-3, -2))

    def measure(self, last) -> np.ndarray:
        """P(b) = tr(|b><b| rho), (K, d), after the local layers ``last`` or
        none: per qubit (I + (-1)^b Z) / 2, with ``last`` folded in."""
        if last is None:
            meas = np.broadcast_to(_Z_MEASURE, (1, self.n, 2, 4))
        else:
            meas = _Z_MEASURE @ _local_ptms(last, self.device, self.n, noisy=True)
        return _apply_halves(self.c, *_halves(meas), self.buf).reshape(len(self.c), -1)


def _layout(seqs: list[CircuitSequence]) -> list[tuple]:
    """The layer positions of a stack, each as the tuple of its sequences'
    layers there; ValueError for no sequences, or unless they share one
    layout."""
    if not seqs:
        raise ValueError("a stack needs at least one sequence")
    head = seqs[0]
    if any(s.n != head.n or len(s.layers) != len(head.layers) for s in seqs):
        raise ValueError("stacked sequences need one register size and one number of layers")
    columns = list(zip(*(s.layers for s in seqs)))
    for i, col in enumerate(columns):
        kind = type(col[0])
        if any(type(layer) is not kind for layer in col) or (
            kind is GateLayer and any(tuple(layer.gates) != tuple(col[0].gates) for layer in col)
        ):
            raise ValueError(f"stacked sequences differ in layer kind or gates at position {i}")
    return columns


def _run_chunk(columns: list[tuple], stack: _Stack, twirl_coupling: bool, out: np.ndarray):
    """``dm_run`` on one chunk of len(out) sequences, the rows written to
    ``out``; ``stack`` holds at least that many states."""
    device, n = stack.device, stack.n
    stack = stack.head(len(out))
    # a layer every sequence shares is applied once to the whole stack
    columns = [col[:1] if all(layer is col[0] for layer in col) else col for col in columns]
    first = columns.pop(0) if columns and isinstance(columns[0][0], _LOCAL) else None
    last = columns.pop() if columns and isinstance(columns[-1][0], _LOCAL) else None
    _product_state(first, device, n, stack.c)
    for col in columns:
        stack.apply(col, noisy=True, twirl_coupling=twirl_coupling)
    probs = stack.measure(last)
    error = np.abs(probs.sum(axis=1) - 1.0)
    if np.any(error > 1e-10):
        raise RuntimeError(f"probabilities sum to 1 +- {error.max()}, expected 1")
    np.clip(probs, 0.0, None, out=out)
    confusion = _readout_factors(device, n)
    if confusion is not None:
        out[:] = _kron_rows(out[..., None], *confusion)[..., 0]


def dm_run(
    seqs: list[CircuitSequence],
    device: DeviceModel,
    *,
    twirl_coupling: bool = False,
) -> np.ndarray:
    """Exact outcome distributions of a stack of sequences on the device.

    The sequences must share one layout: one register, the same layer kind
    at every position and the same gates in every gate layer
    (``ValueError`` otherwise).  Their Pauli and single-qubit layers may
    differ.  Returns one probability row over the 2^n bitstrings (qubit 0
    is the most significant bit) per sequence, in chunks of
    ``DM_CHUNK_ELEMENTS // 4^n`` sequences (at least one).
    ``twirl_coupling`` replaces each coherent diagonal error component by
    its exact Pauli twirl, which is the model the stochastic backend
    samples from.
    """
    seqs = list(seqs)
    columns = _layout(seqs)
    n = seqs[0].n
    if n > DM_QUBIT_LIMIT:
        raise ResourceLimitError(f"density-matrix backend limited to {DM_QUBIT_LIMIT} qubits")
    probs = np.empty((len(seqs), 2**n))
    size = min(len(seqs), max(1, DM_CHUNK_ELEMENTS // 4**n))
    stack = _Stack(size, device, n)
    for s in range(0, len(seqs), size):
        _run_chunk([col[s : s + size] for col in columns], stack, twirl_coupling, probs[s : s + size])
    return probs


# ---------------------------------------------------------------------------
# stabilizer fault-propagation backend
# ---------------------------------------------------------------------------


@dataclass
class ShotCounts:
    """Measurement outcomes of one or more sequences, each as its unique
    outcome codes with their counts.

    A code is an int64 whose bit n-1-q is qubit q's outcome (qubit 0 the
    most significant bit, as ``pack_bits`` writes it).  Sequence s holds
    codes[offsets[s]:offsets[s + 1]], and each sequence has k_s shots.
    ``from_outcomes`` and ``from_probabilities`` make one sequence's counts;
    ``stack`` joins sequences, as ``stab_run_counts`` and the dm path of a
    CAB run do per stack.  Every method returns one row per sequence.
    """

    n: int
    k_s: int  # shots per sequence
    codes: np.ndarray  # (D,) int64, each sequence's unique outcome codes in turn
    counts: np.ndarray  # (D,) int64
    offsets: np.ndarray | None = None  # (sequences + 1,) int64; None for one sequence

    def __post_init__(self):
        if self.k_s < 1:
            raise ValueError("empty counts: k_s must be >= 1")
        if self.offsets is None:  # one sequence, as from_outcomes and from_probabilities make
            self.offsets = np.array([0, len(self.codes)], dtype=np.int64)
            bad = int(self.counts.sum()) != self.k_s
        else:
            # with a code in every sequence, reduceat sums each one's counts
            o = self.offsets
            bad = np.any(o[1:] <= o[:-1]) or np.any(np.add.reduceat(self.counts, o[:-1]) != self.k_s)
        if bad:
            raise ValueError("each sequence's counts must sum to the number of shots")

    @staticmethod
    def from_outcomes(codes: np.ndarray, n: int) -> "ShotCounts":
        uniq, counts = np.unique(codes, return_counts=True)
        return ShotCounts(n, len(codes), uniq, counts.astype(np.int64))

    @staticmethod
    def from_probabilities(probs: np.ndarray, n: int, k_s: int, rng: np.random.Generator) -> "ShotCounts":
        sampled = rng.multinomial(k_s, probs / probs.sum())
        nz = np.flatnonzero(sampled)
        return ShotCounts(n, k_s, nz.astype(np.int64), sampled[nz].astype(np.int64))

    @staticmethod
    def stack(parts: list["ShotCounts"]) -> "ShotCounts":
        """The sequences of ``parts`` (one n and k_s) in order, as one."""
        starts = np.cumsum([0] + [len(p.codes) for p in parts])
        offsets = np.concatenate([p.offsets[:-1] + s for p, s in zip(parts, starts)] + [starts[-1:]])
        return ShotCounts(
            parts[0].n,
            parts[0].k_s,
            np.concatenate([p.codes for p in parts]),
            np.concatenate([p.counts for p in parts]),
            offsets,
        )

    @property
    def sequences(self) -> int:
        return len(self.offsets) - 1

    @cached_property
    def _rows(self) -> np.ndarray:
        """The sequence of each code, computed once per stack."""
        return np.repeat(np.arange(self.sequences), np.diff(self.offsets))

    @cached_property
    def _weights(self) -> np.ndarray:
        """The counts as floats, the ``bincount`` weights, computed once per stack."""
        return self.counts.astype(float)

    def survivals(self, w_masks: np.ndarray) -> np.ndarray:
        """sum_x count(x)/k_s * (-1)^(w.x) for each Z-observable mask w, one
        row per sequence, in one pass over all codes.

        A code's parities against all M masks are carried as packed bits,
        (M + 7) // 8 bytes.  For each code byte j, a table holds the packed
        parities of every byte value against the masks' byte j; a code's
        parities are the XOR of its bytes' table rows, gathered as uint64
        words.  Then, per parity byte, one ``bincount`` over (sequence,
        byte value) weighted by the counts, times the (256, 8) bit-select
        matrix, gives each (sequence, mask)'s odd-parity count.  That count
        is an exact integer, so (k_s - 2 odd) / k_s is the float that a
        dense parity sum gives.
        """
        w_masks = np.asarray(w_masks, dtype=np.int64)
        n_out = (len(w_masks) + 7) // 8  # parity bytes per code
        words = (n_out + 7) // 8  # the table rows padded to whole uint64 words
        code_bytes = np.ascontiguousarray(self.codes, dtype="<i8").view(np.uint8).reshape(-1, 8)
        mask_bytes = np.ascontiguousarray(w_masks, dtype="<i8").view(np.uint8).reshape(-1, 8)
        table = np.zeros((256, 8 * words), dtype=np.uint8)
        parity = np.zeros((len(self.codes), words), dtype=np.uint64)
        for j in range((self.n + 7) // 8):
            odd_bits = np.bitwise_count(_BYTE_VALUES[:, None] & mask_bytes[:, j]) & 1  # [byte value, mask]
            table[:, :n_out] = np.packbits(odd_bits, axis=1)
            parity ^= np.take(table.view(np.uint64), code_bytes[:, j], axis=0)
        parity = np.ascontiguousarray(parity.view(np.uint8)[:, :n_out].T)  # [parity byte, code]
        base = self._rows << 8
        hist = np.empty((n_out, self.sequences, 256))
        for k, p in enumerate(parity):
            hist[k].flat = np.bincount(base | p, weights=self._weights, minlength=self.sequences << 8)
        odd = (hist @ _BIT_SELECT).transpose(1, 0, 2).reshape(self.sequences, 8 * n_out)
        return (self.k_s - 2.0 * odd[:, : len(w_masks)]) / self.k_s

    def count_vector(self) -> np.ndarray:
        """Dense count vectors over all 2^n outcomes, one row per sequence
        (small n only)."""
        if self.n > 26:
            raise ResourceLimitError("dense count vector too large")
        vec = np.zeros((self.sequences, 2**self.n))
        vec[self._rows, self.codes] = self.counts
        return vec

    def all_survivals(self) -> np.ndarray:
        """Survivals of every Z-observable at once, one row per sequence: one
        batched transform (small n only)."""
        return fwht(self.count_vector()) / self.k_s

    def marginal_count_vector(self, qubits: tuple[int, ...]) -> np.ndarray:
        """Dense count vectors of the outcomes restricted to ``qubits``, one
        row per sequence: one ``bincount`` over every sequence's codes,
        whose bins add each sequence's counts in code order."""
        k = len(qubits)
        sub = _bits(self.codes, self.n, qubits)
        sub |= self._rows << k
        return np.bincount(sub, weights=self._weights, minlength=self.sequences << k).reshape(-1, 2**k)


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Rows of 0/1 bits (qubit 0 first = MSB) to int64 codes."""
    n = bits.shape[-1]
    if n > PACK_QUBIT_LIMIT:
        raise ResourceLimitError(f"bit packing limited to {PACK_QUBIT_LIMIT} qubits")
    padded = np.zeros((*bits.shape[:-1], 64), dtype=np.uint8)
    padded[..., 64 - n :] = bits
    # [()] makes one row's code a scalar, as for a 2-d input it is a no-op
    return np.packbits(padded, axis=-1).view(">i8")[..., 0].astype(np.int64)[()]


def _compile_faults(seqs: list[CircuitSequence], device: DeviceModel) -> list:
    """Every noise location of a stack of K sequences of one layout, with
    the readout flips of its Paulis in each sequence.

    The layers are walked once, backwards, keeping for each sequence and
    qubit the flip vector of an X and of a Z fault at the current point
    ((K, n) arrays): the GF(2) vector of final X bits the fault ends up as,
    packed like ``pack_bits``.  Noise follows its layer's ideal operation,
    so a layer's locations take the vectors before stepping back through
    the layer:

    - a Clifford layer maps a fault P to C P C^dagger
      (``single_qubit_cliffords().action``), each sequence by its own layer;
    - a CZ maps X_a to X_a Z_b, and a Pauli layer leaves faults unchanged.

    The sequences share their layer kinds and gate layers, so they share
    their locations; only the flips differ.  The locations come grouped by
    channel, in order of first appearance: (firing probability, conditional
    weights, tables).  A location has b flip vectors, one per Pauli factor:
    (X, Z) for per-qubit and (X_a, Z_a, X_b, Z_b) for per-gate depolarizing,
    uniform over all 4 or 16 Paulis, identity included, and the Z flips of
    its support for a twirled coupling, weighted by the twirl.  ``tables``
    (K, L, 2^b) has a row per sequence and location: entry i is the XOR of
    the flip vectors whose bits are set in i, the first the most
    significant.  A firing picks i uniformly when the weights are None, or
    from the weights offset by one (the identity is excluded), and flips
    sequence k's outcome by ``tables[k, loc, i]``.
    """
    columns = _layout(seqs)
    k, n = len(seqs), seqs[0].n
    if n > PACK_QUBIT_LIMIT:
        raise ResourceLimitError(f"stabilizer backend limited to {PACK_QUBIT_LIMIT} qubits")
    act = single_qubit_cliffords().action.astype(bool)
    fx = np.repeat(np.left_shift(1, np.arange(n - 1, -1, -1, dtype=np.int64))[None], k, axis=0)
    fz = np.zeros((k, n), dtype=np.int64)
    groups: dict = {}

    def add(key, p: float, weights, rows: np.ndarray):
        if p > 0.0:
            groups.setdefault(key, (p, weights, []))[2].append(rows)

    fire_1q = 1.0 - device.single_qubit_depol[:n]

    def depol_1q():
        rows = np.stack([fx, fz], axis=2)
        for p in sorted(set(fire_1q.tolist())):
            add(("1q", p), float(p), None, rows[:, fire_1q == p])

    for col in reversed(columns):
        layer = col[0]
        if isinstance(layer, CliffordLayer):
            depol_1q()
            img = act[np.stack([lay.layer.elements for lay in col])]  # (K, n, letter, (x, z, sign))
            fx, fz = (
                np.where(img[..., 1, 0], fx, 0) ^ np.where(img[..., 1, 1], fz, 0),
                np.where(img[..., 2, 0], fx, 0) ^ np.where(img[..., 2, 1], fz, 0),
            )
        elif isinstance(layer, PauliLayer):
            if device.pauli_layer_noise:
                depol_1q()
        elif isinstance(layer, GateLayer):
            for g in layer.gates:
                spec = device.gates[g]
                a, b = spec.pair
                p = 1.0 - spec.effective_depol_p()
                add(("2q", p), p, None, np.stack([fx[:, a], fz[:, a], fx[:, b], fz[:, b]], axis=1)[:, None])
            # the channels are cached per layer: one object per channel
            for ch in device.layer_twirl_channels(layer.gates):
                p = float(ch.weights[1:].sum())  # the identity does not fire
                if p > 0.0:
                    add(("twirl", id(ch)), p, ch.weights[1:] / p, fz[:, list(ch.support)][:, None])
            for g in layer.gates:
                a, b = device.gates[g].pair
                fx[:, a], fx[:, b] = fx[:, a] ^ fz[:, b], fx[:, b] ^ fz[:, a]
        elif isinstance(layer, Unitary1qLayer):
            raise ValueError("stabilizer backend cannot execute arbitrary 1q unitaries")
        else:
            raise TypeError(f"unknown layer type {type(layer)!r}")
    compiled = []
    for p, weights, rows in groups.values():
        flips = np.concatenate(rows, axis=1)  # (K, L, b)
        tables = np.zeros(flips.shape[:2] + (1,), dtype=np.int64)
        for f in np.moveaxis(flips, 2, 0):  # each later factor appends a less significant index bit
            tables = np.stack((tables, tables ^ f[..., None]), axis=3).reshape(*flips.shape[:2], -1)
        compiled.append((p, weights, tables))
    return compiled


def stab_run_counts(
    seqs: list[CircuitSequence], device: DeviceModel, k_s: int, rngs: list[np.random.Generator]
) -> ShotCounts:
    """Sample k_s measurement outcomes of each of a stack of sequences of
    one layout (as ``dm_run`` takes them) that close to identity, sequence
    k from its own stream ``rngs[k]``; the counts are stacked in order.

    Compile, then sample.  ``_compile_faults`` lists, in one walk over the
    stack's layers, every noise location (per-qubit depolarizing after
    single-qubit layers, per-gate depolarizing, and the exact Pauli twirl of
    each coherent diagonal component of every gate layer) with each
    sequence's readout flip of each of its Paulis.  Then, per sequence, each
    (location, shot) fires independently with exactly its probability; the
    firings of the locations that share a channel are drawn as geometric
    gaps over their L * k_s trials.  A firing picks its Pauli from the
    channel's conditional distribution, and a shot's outcome code (ideally
    0) is the XOR of the table flips of its faults.  Readout error is XORed
    into the codes (``apply_readout_noise``), which go to ``ShotCounts`` as
    they are.  The sampling stays per sequence: a stack's frames, fault
    XORs and readout in one pass were slower at 44 qubits, their larger
    arrays costing more in page faults than the loop saves.
    """
    groups = _compile_faults(seqs, device)
    if len(rngs) != len(seqs):
        raise ValueError(f"{len(seqs)} sequences need as many streams, got {len(rngs)}")
    n = seqs[0].n
    readout = np.any(device.readout_e0 > 0) or np.any(device.readout_e1 > 0)
    if readout:
        # here: perfbench/tracing.py patches device.apply_readout_noise, which a module-level import bypasses
        from .device import apply_readout_noise
    parts = []
    for k, rng in enumerate(rngs):
        frame = np.zeros(k_s, dtype=np.int64)
        for p, weights, tables in groups:
            table = tables[k]
            n_loc, size = table.shape
            pos = bernoulli_positions(rng, n_loc * k_s, p)
            shot = pos // n_loc
            loc = np.subtract(pos, shot * n_loc, out=pos)
            if weights is None:
                idx = rng.integers(0, size, size=len(loc))
            else:
                idx = rng.choice(len(weights), size=len(loc), p=weights) + 1
            loc *= size  # the flat index of table[loc, idx]
            loc += idx
            xor_sorted(frame, shot, table.ravel()[loc])
        if readout:
            frame = apply_readout_noise(frame, n, device.readout_e0, device.readout_e1, rng)
        parts.append(ShotCounts.from_outcomes(frame, n))
    return ShotCounts.stack(parts)


# ---------------------------------------------------------------------------
# process fidelity
# ---------------------------------------------------------------------------


def choi_process_fidelity(step, n: int) -> float:
    """Process fidelity F = <Phi+| (L x I)(|Phi+><Phi+|) |Phi+> = tr(R) / d^2,
    R the Pauli transfer matrix of L (Chow et al., PRL 109, 060501 (2012)).

    ``step`` is L on real Pauli coefficients c (..., 2^n, 2^n), as
    ``block_noise_channel`` returns it.  The one-hot input e_(z, x) is the
    Pauli P / d, and entry [z, x] of its output is the diagonal entry
    R[P, P].  Local layers mix rows and columns, so all d^2 inputs are
    needed; the d inputs of one row z form one (d, d, d) batch.
    """
    if n > CHOI_QUBIT_LIMIT:
        raise ResourceLimitError(f"Choi evaluation limited to {CHOI_QUBIT_LIMIT} qubits")
    d = 2**n
    x = np.arange(d)
    total = 0.0
    for z in range(d):
        inputs = np.zeros((d, d, d))
        inputs[x, z, x] = 1.0
        total += step(inputs)[x, z, x].sum()
    return float(total / d**2)


# ---------------------------------------------------------------------------
# channel evaluators for oracle fidelities
# ---------------------------------------------------------------------------


def _block_noise(c: np.ndarray, device: DeviceModel, block, depolarize_first: bool = False) -> np.ndarray:
    """The channel on real coefficients c; a complex c runs as its real and
    imaginary parts, since the channel's Pauli transfer matrix is real."""
    if np.iscomplexobj(c):
        parts = _block_noise(np.stack([c.real, c.imag]), device, block, depolarize_first)
        return parts[0] + 1j * parts[1]
    d = 2**block.n
    stack = _Stack(np.size(c) // d**2, device, block.n)
    stack.c[:] = np.reshape(c, (-1, d, d))
    if depolarize_first:
        stack.depolarize_1q()
    for layer in block.layers:
        stack.apply((layer,), noisy=True, twirl_coupling=False)
    for layer in block.inverse_layers:
        stack.apply((layer,), noisy=False, twirl_coupling=False)
    return stack.c.reshape(np.shape(c))


def block_noise_channel(device: DeviceModel, block):
    """Noise channel L with noisy_block = ideal_block o L, as a step on
    Pauli coefficients c (..., 2^n, 2^n).

    Applies the block's noisy layers, then the inverse ideal layers, so
    the ideal gate cancels and only the noise remains.
    """
    return lambda c: _block_noise(c, device, block)


def dressed_cycle_channel(device: DeviceModel, block):
    """Noise of one benchmarking half-step, twirling layer then target gate,
    as a step on Pauli coefficients."""
    if device.pauli_layer_noise:
        return lambda c: _block_noise(c, device, block, depolarize_first=True)
    return block_noise_channel(device, block)
