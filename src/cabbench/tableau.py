"""Clifford tableaus: composition, order, and closing Paulis in GF(2).

A tableau stores the images of the 2n generators X_0..X_{n-1}, Z_0..Z_{n-1}
under conjugation by a Clifford unitary, as sign-tracked Pauli strings.
Global phase is not representable, so identity and order comparisons are
modulo global phase by construction (generator signs are still tracked,
e.g. the phase gate S has order 4, not 2).

Composition and order work on whole bit matrices (Dehaene & De Moor,
PRA 68, 042318; Aaronson & Gottesman, quant-ph/0406196): the bits of a
product are a GF(2) matrix product, and its signs a quadratic form over
the same bits (``_images``, shared by ``compose``, ``gate_order`` and the
fully connected gate's stacked builder).  The order is the order k of the
2n x 2n symplectic matrix M, or 2k when t^k has a sign: bit 1 of the form
summed along a generator's orbit, where the x.z terms cancel.  A local
Clifford layer, an array of element indices, is applied by lookup in the
single-qubit action table (``local_layer_lookup``), to a whole stack of
tableaus at once.  The closing Paulis of the benchmark sequences need only
bits, so they are GF(2) products alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .paulis import single_qubit_cliffords


class NonCliffordError(ValueError):
    """The supplied generator images do not form a valid Clifford tableau."""


@cache
def _unit_forms(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only 2n x 2n: the identity, 2 above the diagonal (float64), J = [[0, I], [I, 0]] (int64)."""
    eye = np.eye(2 * n)
    out = eye, np.triu(np.full_like(eye, 2.0), 1), np.roll(eye, n, axis=1).astype(np.int64)
    for arr in out:
        arr.flags.writeable = False
    return out


def local_layer_lookup(
    elements: np.ndarray, xbits: np.ndarray, zbits: np.ndarray, signs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bits and signs of tableaus followed by local layers, by table lookup.

    ``elements`` (..., n) holds one layer per tableau, ``xbits``/``zbits``
    (..., 2n, n) and ``signs`` (..., 2n) the tableaus; the leading axes
    broadcast, so one call serves a stack of draws.  Each row's letter on
    qubit q (Y for x = z = 1, as i X Z) goes to its signed image under
    element q; the letter signs XOR into the row sign.  Returns uint8
    arrays of the broadcast shapes.
    """
    act = single_qubit_cliffords().action[elements[..., None, :], xbits + 2 * zbits]  # (..., 2n, n, 3)
    signs = (signs ^ np.bitwise_xor.reduce(act[..., 2], axis=-1)).astype(np.uint8, copy=False)
    return np.ascontiguousarray(act[..., 0]), np.ascontiguousarray(act[..., 1]), signs


@dataclass(frozen=True)
class CliffordTableau:
    """Images of X_i (rows 0..n-1) and Z_i (rows n..2n-1) as bit rows.

    ``xbits``/``zbits`` have shape (2n, n); ``signs`` holds one bit per row
    (0 for +, 1 for -).
    """

    n: int
    xbits: np.ndarray
    zbits: np.ndarray
    signs: np.ndarray

    @staticmethod
    def identity(n: int) -> "CliffordTableau":
        eye = np.eye(2 * n, dtype=np.uint8)
        return CliffordTableau(n, eye[:, :n].copy(), eye[:, n:].copy(), np.zeros(2 * n, dtype=np.uint8))

    @staticmethod
    def from_cz_layer(n: int, pairs) -> "CliffordTableau":
        """Parallel CZ gates on disjoint qubit pairs."""
        t = CliffordTableau.identity(n)
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if len(set(pairs.ravel().tolist())) != pairs.size:
            raise ValueError("CZ pairs within a layer must be disjoint")
        # CZ: X_a -> X_a Z_b, X_b -> X_b Z_a, Z unchanged.
        t.zbits[pairs[:, 0], pairs[:, 1]] = t.zbits[pairs[:, 1], pairs[:, 0]] = 1
        return t

    def compose(self, before: "CliffordTableau") -> "CliffordTableau":
        """Tableau of 'apply ``before``, then ``self``': ``before``'s rows through ``_images``."""
        if before.n != self.n:
            raise ValueError(f"size mismatch: {before.n} != {self.n}")
        n = self.n
        bits, signs = self._images(np.concatenate([before.xbits, before.zbits], axis=1), before.signs)
        return CliffordTableau(n, bits[:, :n].astype(np.uint8), bits[:, n:].astype(np.uint8), signs.astype(np.uint8))

    def _images(self, v: np.ndarray, signs: np.ndarray | int) -> tuple[np.ndarray, np.ndarray]:
        """Images under ``self`` of the Paulis with bit rows v (R, 2n) and sign bits ``signs``.

        Row i is i^(2 s_i + |x_i & z_i|) prod_r G_r^sel[i, r] over the
        generators G_r in the order X_0..X_{n-1}, Z_0..Z_{n-1} (exact, since
        X_q and Z_p commute for p != q), with sel = v = [x | z].  Each G_r
        maps to self's row r, i^(2 t_r + |a_r & c_r|) X^a_r Z^c_r.  Their
        ordered product is X^(sel a) Z^(sel c) times
        (-1)^(sum_{r < r'} sel_r sel_r' c_r . a_r'), and turning X^x Z^z
        back into a signed Pauli costs i^-|x & z|.  The sums are small
        integers, exact in float64, which lets the products use BLAS.
        Returns the image bits (R, 2n) and sign bits (R,), both int64; the
        image sign is s_i XOR a bit that depends on v_i alone.
        """
        n = self.n
        sel = np.asarray(v, dtype=np.float64)
        m, _, w = self._form()
        bits = (sel @ m).astype(np.int64) & 1
        phases = (
            2 * signs
            + np.einsum("ij,ij->i", sel[:, :n], sel[:, n:])
            + np.einsum("ij,ij->i", sel @ w, sel)
        ).astype(np.int64) - np.einsum("ij,ij->i", bits[:, :n], bits[:, n:])
        phases %= 4
        if (phases & 1).any():
            raise NonCliffordError("composition changed a phase parity")
        return bits, phases >> 1

    def _form(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """M = [a | c], C = c a^T and ``_images``' quadratic form W, float64."""
        m = np.concatenate([self.xbits, self.zbits], axis=1, dtype=np.float64)
        cat = m[:, self.n :] @ m[:, : self.n].T
        # sel W sel^T = sum_r sel_r (2 t_r + C_rr) + 2 sum_{r < r'} sel_r sel_r' C_rr'
        w = cat * _unit_forms(self.n)[1]
        w.flat[:: 2 * self.n + 1] = 2 * self.signs + cat.diagonal()
        return m, cat, w

    def _symplectic(self) -> tuple[np.ndarray, np.ndarray]:
        """The 2n x 2n bit matrix M (row r = generator image r as [x | z]) and J.

        A Pauli with bits v = [x | z] maps to v M (mod 2) under conjugation;
        the inverse tableau's bit matrix is J M^T J (J cached, read-only).
        """
        m = np.concatenate([self.xbits, self.zbits], axis=1).astype(np.int64)
        return m, _unit_forms(self.n)[2]

    def is_identity(self) -> bool:
        return self == CliffordTableau.identity(self.n)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CliffordTableau):
            return NotImplemented
        return (
            self.n == other.n
            and np.array_equal(self.xbits, other.xbits)
            and np.array_equal(self.zbits, other.zbits)
            and np.array_equal(self.signs, other.signs)
        )

    def __hash__(self):
        return hash((self.n, self.xbits.tobytes(), self.zbits.tobytes(), self.signs.tobytes()))


# most rows in one _images call (chunks of draws, 2n rows each) or one orbit
# sum (chunks of powers of M): memory is bounded whatever the order or draws
_SIGN_CHUNK_ROWS = 4096


def _orbit_sign(t: CliffordTableau, cap: int) -> tuple[int, np.ndarray] | None:
    """``gate_order``'s k and sign bits of t^k per generator; None when k > cap."""
    m, cat, w = t._form()
    eye, _, j = _unit_forms(t.n)
    if not np.array_equal(np.fmod(cat + cat.T, 2.0), j):
        raise NonCliffordError("tableau bits are not symplectic")
    eye_bytes = eye.tobytes()
    per_chunk = max(1, _SIGN_CHUNK_ROWS // len(m))
    phase, powers, acc, k = 0.0, [eye], m, 1
    while True:
        closed = acc.tobytes() == eye_bytes
        if closed or len(powers) == per_chunk:
            p = np.concatenate(powers)
            phase = phase + np.einsum("ij,ij->i", p @ w, p).reshape(-1, len(m)).sum(axis=0)
            powers = []
        if closed:
            return k, phase.astype(np.int64) >> 1 & 1
        if k >= cap:
            return None
        powers.append(acc)
        acc = np.fmod(acc @ m, 2.0)
        k += 1


def gate_order(t: CliffordTableau, cap: int = 10**6) -> int | None:
    """Smallest p <= cap with t^p equal to the identity tableau.

    Comparisons are at the tableau level, hence modulo global phase.
    Returns None past the cap; raises ``NonCliffordError`` unless t's bits
    M = [a | c] are symplectic, (c a^T + a c^T) mod 2 = J.  The order k of
    M comes from iterating M mod 2 in float64 (exact: entries <= 2n).  t^k
    fixes every Pauli up to sign, so it squares to the identity: the order
    is k, or 2k when t^k has a sign.  On generator r's orbit v_j = row r of
    M^j, closed at v_k = v_0, step j of ``_images`` adds the phase
    |x_j & z_j| + v_j W v_j^T - |x_(j+1) & z_(j+1)|.  The x.z terms cancel,
    so the sign is bit 1 of sum_(j < k) v_j W v_j^T, summed raw over chunks
    of at most ``_SIGN_CHUNK_ROWS`` rows of powers (a chunk's can be odd).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    orbit = _orbit_sign(t, cap)
    if orbit is None:
        return None
    k, sign = orbit
    order = 2 * k if sign.any() else k
    return order if order <= cap else None


def compile_inverse_pauli(u: CliffordTableau, bits: np.ndarray, m: int) -> np.ndarray:
    """Closing Paulis for interleaved u / u^-1 sequences of depth m.

    ``bits`` (..., 2m, 2n) holds each sequence's 2m twirling Paulis in
    circuit order P(1), P(2), ..., P(2m), each as its bits [x | z].  The net
    unitary of prod_i (u^-1 P(2i) u P(2i-1)) is itself a Pauli; the returned
    one, bits (..., 2n) uint8, is its inverse, so appending it closes the
    interleaved section to the identity up to global phase.  Only the bits
    are computed, in GF(2), for every sequence at once: odd + even (J M^T J),
    where odd and even are the XORs of the odd- and even-numbered layers'
    bits and M is u's symplectic matrix.
    """
    bits = np.asarray(bits, dtype=np.int64)
    if bits.shape[-2:] != (2 * m, 2 * u.n):
        raise ValueError(f"need 2*m Pauli layers of {2 * u.n} bits, got shape {bits.shape}")
    odd = np.bitwise_xor.reduce(bits[..., 0::2, :], axis=-2)
    even = np.bitwise_xor.reduce(bits[..., 1::2, :], axis=-2)
    mat, j = u._symplectic()
    return ((odd + even @ j @ mat.T @ j) % 2).astype(np.uint8)


def compile_cycle_pauli(u: CliffordTableau, bits: np.ndarray) -> np.ndarray:
    """Closing Paulis for cycle-benchmarking sequences P(0), u, P(1), u, ...

    ``bits`` (..., c, 2n) holds each sequence's Pauli per cycle in circuit
    order, as bits [x | z].  When u^c is the identity, the net unitary of
    the c cycles is the Pauli prod_j u^-j P(j) u^j, whose bits are
    sum_j v_j (J M^T J)^j mod 2 with v_j the bits of P(j) and M u's
    symplectic matrix; they are evaluated in Horner form for every sequence
    at once.  Returns the bits (..., 2n) uint8; the phase is global.
    """
    bits = np.asarray(bits, dtype=np.int64)
    mat, j = u._symplectic()
    uinv = (j @ mat.T @ j) % 2
    net = np.zeros(bits.shape[:-2] + bits.shape[-1:], dtype=np.int64)
    for c in range(bits.shape[-2] - 1, -1, -1):
        net = (net @ uinv + bits[..., c, :]) % 2
    return net.astype(np.uint8)
