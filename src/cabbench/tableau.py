"""Clifford tableaus: composition, order, and closing Paulis in GF(2).

A tableau stores the images of the 2n generators X_0..X_{n-1}, Z_0..Z_{n-1}
under conjugation by a Clifford unitary, as sign-tracked Pauli strings.
Global phase is not representable, so identity and order comparisons are
modulo global phase by construction (generator signs are still tracked,
e.g. the phase gate S has order 4, not 2).

Composition and order work on whole bit matrices (Dehaene & De Moor,
PRA 68, 042318; Aaronson & Gottesman, quant-ph/0406196): the bits of a
product are a GF(2) matrix product, its signs a quadratic form over the
same bits, and the order is read off the 2n x 2n symplectic matrix.
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
        n = layer.n
        act = single_qubit_cliffords().action[layer.elements]  # (n, 4, 3)
        q = np.arange(n)
        xb = np.zeros((2 * n, n), dtype=np.uint8)
        zb = np.zeros((2 * n, n), dtype=np.uint8)
        # rows q and n + q hold the images of X_q (act[:, 1]) and Z_q (act[:, 2])
        xb[q, q], zb[q, q] = act[:, 1, 0], act[:, 1, 1]
        xb[n + q, q], zb[n + q, q] = act[:, 2, 0], act[:, 2, 1]
        return CliffordTableau(n, xb, zb, np.concatenate([act[:, 1, 2], act[:, 2, 2]]))

    @staticmethod
    def from_cz_layer(n: int, pairs) -> "CliffordTableau":
        """Parallel CZ gates on disjoint qubit pairs."""
        t = CliffordTableau.identity(n)
        pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
        if len(np.unique(pairs)) != pairs.size:
            raise ValueError("CZ pairs within a layer must be disjoint")
        zb = t.zbits
        # CZ: X_a -> X_a Z_b, X_b -> X_b Z_a, Z unchanged.
        zb[pairs[:, 0], pairs[:, 1]] = 1
        zb[pairs[:, 1], pairs[:, 0]] = 1
        return t

    @staticmethod
    def from_pauli_conjugation(p: PauliString) -> "CliffordTableau":
        """Tableau of conjugation by a Pauli: identity bits, sign flips."""
        t = CliffordTableau.identity(p.n)
        # X_i anticommutes with P iff P has a Z component on i, etc.
        return CliffordTableau(p.n, t.xbits, t.zbits, np.concatenate([p.z, p.x]).astype(np.uint8))

    def compose(self, before: "CliffordTableau") -> "CliffordTableau":
        """Tableau of 'apply ``before``, then ``self``'.

        Row i of ``before`` is i^(2 s_i + |x_i & z_i|) prod_r G_r^sel[i, r]
        over the generators G_r in the order X_0..X_{n-1}, Z_0..Z_{n-1}
        (exact, since X_q and Z_p commute for p != q), with sel = [x | z].
        Each G_r maps to self's row r, i^(2 t_r + |a_r & c_r|) X^a_r Z^c_r.
        Their ordered product is X^(sel a) Z^(sel c) times
        (-1)^(sum_{r < r'} sel_r sel_r' c_r . a_r'), and turning X^x Z^z
        back into a signed Pauli costs i^-|x & z|.  The sums are small
        integers, exact in float64, which lets the products use BLAS.
        """
        if before.n != self.n:
            raise DimensionError(f"size mismatch: {before.n} != {self.n}")
        n = self.n
        sel = np.concatenate([before.xbits, before.zbits], axis=1, dtype=np.float64)
        m = np.concatenate([self.xbits, self.zbits], axis=1, dtype=np.float64)
        a, c = m[:, :n], m[:, n:]
        # sel_i w sel_i = sum_r sel_ir (2 t_r + |a_r & c_r|) + 2 sum_{r < r'} sel_ir sel_ir' c_r . a_r'
        w = (c @ a.T) * _strict_upper(2 * n)
        w.flat[:: 2 * n + 1] = 2 * self.signs + np.einsum("ij,ij->i", a, c)
        bits = (sel @ m).astype(np.int64) & 1
        ax, az = bits[:, :n], bits[:, n:]
        phases = (
            2 * before.signs
            + np.einsum("ij,ij->i", sel[:, :n], sel[:, n:])
            + np.einsum("ij,ij->i", sel @ w, sel)
        ).astype(np.int64) - np.einsum("ij,ij->i", ax, az)
        phases %= 4
        if (phases & 1).any():
            raise NonCliffordError("composition changed a phase parity")
        return CliffordTableau(n, ax.astype(np.uint8), az.astype(np.uint8), (phases >> 1).astype(np.uint8))

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


def _power(t: CliffordTableau, k: int) -> CliffordTableau:
    """t^k for k >= 1 by repeated squaring."""
    acc = None
    while True:
        if k & 1:
            acc = t if acc is None else t.compose(acc)
        k >>= 1
        if not k:
            return acc
        t = t.compose(t)


def gate_order(t: CliffordTableau, cap: int = 10**6) -> int | None:
    """Smallest p <= cap with t^p equal to the identity tableau.

    Comparisons are at the tableau level, hence modulo global phase.
    Returns None when the cap is exceeded.  The order k of t's symplectic
    matrix M comes from iterating M in GF(2).  t^k then fixes every Pauli
    up to sign, so it is a Pauli conjugation and squares to the identity:
    the order is k when t^k (by repeated squaring) has no sign, else 2k.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    m = t._symplectic()[0]
    eye = np.eye(2 * t.n, dtype=np.int64)
    acc, k = m, 1
    while not np.array_equal(acc, eye):
        if k >= cap:
            return None
        acc = acc @ m & 1
        k += 1
    order = k if _power(t, k).is_identity() else 2 * k
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
