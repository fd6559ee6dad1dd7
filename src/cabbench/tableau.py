"""Clifford tableaus: composition, order, and closing Paulis in GF(2).

A tableau stores the images of the 2n generators X_0..X_{n-1}, Z_0..Z_{n-1}
under conjugation by a Clifford unitary, as sign-tracked Pauli strings.
Global phase is not representable, so identity and order comparisons are
modulo global phase by construction (generator signs are still tracked,
e.g. the phase gate S has order 4, not 2).

Composition and order work on whole bit matrices (Dehaene & De Moor,
PRA 68, 042318; Aaronson & Gottesman, quant-ph/0406196): the bits of a
product are a GF(2) matrix product, and its signs a quadratic form over
the same bits (``_images``, shared by ``compose`` and ``gate_order``).
The order is the order k of the 2n x 2n symplectic matrix M, or 2k when
the signs that t adds along each generator's orbit under M^0..M^(k-1)
do not cancel.  A local Clifford layer is applied by lookup in the
single-qubit action table (``local_layer_lookup``), to one tableau or to a
stack of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .paulis import (
    DimensionError,
    LocalCliffordLayer,
    PauliString,
    single_qubit_cliffords,
)


class NonCliffordError(ValueError):
    """The supplied generator images do not form a valid Clifford tableau."""


@cache
def _strict_upper(d: int) -> np.ndarray:
    """2 above the diagonal, 0 on and below it (float64, read-only)."""
    out = np.triu(np.full((d, d), 2.0), 1)
    out.flags.writeable = False
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
        xb = np.zeros((2 * n, n), dtype=np.uint8)
        zb = np.zeros((2 * n, n), dtype=np.uint8)
        xb[:n] = np.eye(n, dtype=np.uint8)
        zb[n:] = np.eye(n, dtype=np.uint8)
        return CliffordTableau(n, xb, zb, np.zeros(2 * n, dtype=np.uint8))

    @staticmethod
    def from_local_layer(layer: LocalCliffordLayer) -> "CliffordTableau":
        return CliffordTableau.identity(layer.n).then_local_layer(layer)

    @staticmethod
    def from_cz_layer(n: int, pairs) -> "CliffordTableau":
        """Parallel CZ gates on disjoint qubit pairs."""
        t = CliffordTableau.identity(n)
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if len(set(pairs.ravel().tolist())) != pairs.size:
            raise ValueError("CZ pairs within a layer must be disjoint")
        zb = t.zbits
        # CZ: X_a -> X_a Z_b, X_b -> X_b Z_a, Z unchanged.
        zb[pairs[:, 0], pairs[:, 1]] = 1
        zb[pairs[:, 1], pairs[:, 0]] = 1
        return t

    def compose(self, before: "CliffordTableau") -> "CliffordTableau":
        """Tableau of 'apply ``before``, then ``self``': ``before``'s rows through ``_images``."""
        if before.n != self.n:
            raise DimensionError(f"size mismatch: {before.n} != {self.n}")
        n = self.n
        bits, signs = self._images(np.concatenate([before.xbits, before.zbits], axis=1), before.signs)
        return CliffordTableau(n, bits[:, :n].astype(np.uint8), bits[:, n:].astype(np.uint8), signs.astype(np.uint8))

    def then_local_layer(self, layer: LocalCliffordLayer) -> "CliffordTableau":
        """``from_local_layer(layer).compose(self)``, by ``local_layer_lookup``."""
        return CliffordTableau(self.n, *local_layer_lookup(layer.elements, self.xbits, self.zbits, self.signs))

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
        m = np.concatenate([self.xbits, self.zbits], axis=1, dtype=np.float64)
        a, c = m[:, :n], m[:, n:]
        # sel_i w sel_i = sum_r sel_ir (2 t_r + |a_r & c_r|) + 2 sum_{r < r'} sel_ir sel_ir' c_r . a_r'
        w = (c @ a.T) * _strict_upper(2 * n)
        w.flat[:: 2 * n + 1] = 2 * self.signs + np.einsum("ij,ij->i", a, c)
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

    def _symplectic(self) -> tuple[np.ndarray, np.ndarray]:
        """The 2n x 2n bit matrix M (row r = generator image r as [x | z]) and J.

        A Pauli with bits v = [x | z] maps to v M (mod 2) under conjugation;
        the inverse tableau's bit matrix is J M^T J.
        """
        n = self.n
        m = np.concatenate([self.xbits, self.zbits], axis=1).astype(np.int64)
        j = np.zeros((2 * n, 2 * n), dtype=np.int64)
        j[:n, n:] = np.eye(n, dtype=np.int64)
        j[n:, :n] = np.eye(n, dtype=np.int64)
        return m, j

    def is_identity(self) -> bool:
        # n ones in each bit block, all on the diagonal of its generator rows
        n = self.n
        return (
            not self.signs.any()
            and np.count_nonzero(self.xbits) == n == np.count_nonzero(self.zbits)
            and self.xbits[:n].trace() == n == self.zbits[n:].trace()
        )

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


# most rows passed to one _images call: gate_order's chunks of powers of M,
# and gate_order_samples' chunks of draws (2n rows each), so memory stays
# bounded whatever the order, cap or number of draws
_SIGN_CHUNK_ROWS = 4096


def _sign_sum(t: CliffordTableau, powers: list[np.ndarray]) -> np.ndarray:
    """Per generator r, the XOR over the matrices P in ``powers`` of the sign t adds to row r of P."""
    signs = t._images(np.concatenate(powers), 0)[1]
    return np.bitwise_xor.reduce(signs.reshape(len(powers), -1), axis=0)


def gate_order(t: CliffordTableau, cap: int = 10**6) -> int | None:
    """Smallest p <= cap with t^p equal to the identity tableau.

    Comparisons are at the tableau level, hence modulo global phase.
    Returns None when the cap is exceeded.  The order k of t's symplectic
    matrix M comes from iterating M in GF(2).  t^k then fixes every Pauli
    up to sign, so it is a Pauli conjugation and squares to the identity:
    the order is k when t^k has no sign, else 2k.

    The sign t adds to a Pauli depends on its bits alone, so signs add up
    (mod 2) along an orbit: the sign of t^k on generator r is the XOR over
    j < k of the sign t adds to row r of M^j.  The powers M^0..M^(k-1) are
    evaluated as the iteration produces them, in chunks of at most
    ``_SIGN_CHUNK_ROWS`` rows, so memory does not grow with k or ``cap``.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    d = 2 * t.n
    # entries of acc @ m are sums of at most d bits
    m = np.concatenate([t.xbits, t.zbits], axis=1).astype(np.min_scalar_type(d))
    eye = np.eye(d, dtype=m.dtype)
    eye_bytes = eye.tobytes()
    per_chunk = max(1, _SIGN_CHUNK_ROWS // d)
    sign = np.zeros(d, dtype=np.int64)
    powers, acc, k = [eye], m, 1
    while acc.tobytes() != eye_bytes:
        if k >= cap:
            return None
        if len(powers) == per_chunk:
            sign ^= _sign_sum(t, powers)
            powers = []
        powers.append(acc)
        acc = acc @ m & 1
        k += 1
    sign ^= _sign_sum(t, powers)
    order = 2 * k if sign.any() else k
    return order if order <= cap else None


def compile_inverse_pauli(u: CliffordTableau, pauli_layers: list[PauliString], m: int) -> PauliString:
    """Closing Pauli for an interleaved u / u^-1 sequence of depth m.

    ``pauli_layers`` holds the 2m twirling Paulis in circuit order
    P(1), P(2), ..., P(2m).  The net unitary of
    prod_i (u^-1 P(2i) u P(2i-1)) is itself a Pauli; the returned operator
    is its inverse, so appending it closes the interleaved section to the
    identity up to global phase.  Only the bits are computed, in GF(2):
    odd + even (J M^T J), where odd and even are the XORs of the odd- and
    even-numbered layers' bits and M is u's symplectic matrix.  The phase
    is global, so it is returned as 0.
    """
    if len(pauli_layers) != 2 * m:
        raise ValueError("need exactly 2*m Pauli layers")
    n = u.n
    bits = np.array([np.concatenate([p.x, p.z]) for p in pauli_layers], dtype=np.int64)
    bits = bits.reshape(2 * m, 2 * n)  # keeps two axes when m = 0
    odd = np.bitwise_xor.reduce(bits[0::2], axis=0)
    even = np.bitwise_xor.reduce(bits[1::2], axis=0)
    mat, j = u._symplectic()
    net = ((odd + even @ j @ mat.T @ j) % 2).astype(np.uint8)
    return PauliString(n, net[:n], net[n:], 0)


def compile_cycle_pauli(u: CliffordTableau, paulis: list[PauliString]) -> PauliString:
    """Closing Pauli for a cycle-benchmarking sequence P(0), u, P(1), u, ...

    ``paulis`` holds one Pauli per cycle in circuit order.  When u^c is the
    identity (c = len(paulis)), the net unitary of the c cycles is the
    Pauli prod_j u^-j P(j) u^j, whose bits are sum_j v_j (J M^T J)^j mod 2
    with v_j the bits of P(j) and M u's symplectic matrix; they are
    evaluated in Horner form.  The phase is global, so it is returned as 0.
    """
    n = u.n
    mat, j = u._symplectic()
    uinv = (j @ mat.T @ j) % 2
    net = np.zeros(2 * n, dtype=np.int64)
    for p in reversed(paulis):
        net = (net @ uinv + np.concatenate([p.x, p.z])) % 2
    net = net.astype(np.uint8)
    return PauliString(n, net[:n], net[n:], 0)
