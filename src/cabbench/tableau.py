"""Clifford tableaus: conjugation of Paulis, composition, inversion, order.

A tableau stores the images of the 2n generators X_0..X_{n-1}, Z_0..Z_{n-1}
under conjugation by a Clifford unitary, as sign-tracked Pauli strings.
Global phase is not representable, so identity and order comparisons are
modulo global phase by construction (generator signs are still tracked,
e.g. the phase gate S has order 4, not 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .paulis import (
    _MUL_PHASE,
    DimensionError,
    LocalCliffordLayer,
    PauliString,
    single_qubit_cliffords,
)


class NonCliffordError(ValueError):
    """The supplied generator images do not form a valid Clifford tableau."""


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
        table = single_qubit_cliffords()
        n = layer.n
        t = CliffordTableau.identity(n)
        xb, zb, sg = t.xbits.copy(), t.zbits.copy(), t.signs.copy()
        act = table.action[layer.elements]  # (n, 4, 3)
        for q in range(n):
            ax = act[q, 1]  # image of X
            az = act[q, 2]  # image of Z
            xb[q, q], zb[q, q], sg[q] = ax[0], ax[1], ax[2]
            xb[n + q, q], zb[n + q, q], sg[n + q] = az[0], az[1], az[2]
        return CliffordTableau(n, xb, zb, sg)

    @staticmethod
    def from_cz_layer(n: int, pairs) -> "CliffordTableau":
        """Parallel CZ gates on disjoint qubit pairs."""
        t = CliffordTableau.identity(n)
        xb, zb, sg = t.xbits, t.zbits.copy(), t.signs
        seen = set()
        for a, b in pairs:
            if a in seen or b in seen or a == b:
                raise ValueError("CZ pairs within a layer must be disjoint")
            seen.update((a, b))
            # CZ: X_a -> X_a Z_b, X_b -> X_b Z_a, Z unchanged.
            zb[a, b] ^= 1
            zb[b, a] ^= 1
        return CliffordTableau(n, xb, zb, sg)

    @staticmethod
    def from_pauli_conjugation(p: PauliString) -> "CliffordTableau":
        """Tableau of conjugation by a Pauli: identity bits, sign flips."""
        n = p.n
        t = CliffordTableau.identity(n)
        sg = t.signs.copy()
        # X_i anticommutes with P iff P has a Z component on i, etc.
        sg[:n] = p.z
        sg[n:] = p.x
        return CliffordTableau(n, t.xbits, t.zbits, sg)

    # -- single-gate builders, mainly for tests and enumeration ------------

    @staticmethod
    def hadamard(n: int, q: int) -> "CliffordTableau":
        layer = LocalCliffordLayer.identity(n)
        table = single_qubit_cliffords()
        e = table.find_z_preparation(1, 0)  # maps Z -> +X; H also maps X -> +Z
        elements = layer.elements.copy()
        elements[q] = e
        return CliffordTableau.from_local_layer(LocalCliffordLayer(n, elements))

    @staticmethod
    def phase_gate(n: int, q: int) -> "CliffordTableau":
        table = single_qubit_cliffords()
        # S maps X -> +Y, Z -> +Z.
        e = table.element_from_images((1, 1, 0), (0, 1, 0))
        elements = LocalCliffordLayer.identity(n).elements.copy()
        elements[q] = e
        return CliffordTableau.from_local_layer(LocalCliffordLayer(n, elements))

    @staticmethod
    def cz(n: int, a: int, b: int) -> "CliffordTableau":
        return CliffordTableau.from_cz_layer(n, [(a, b)])

    # -- core operations ----------------------------------------------------

    def x_image(self, i: int) -> PauliString:
        return PauliString(self.n, self.xbits[i].copy(), self.zbits[i].copy(), int(self.signs[i]) * 2)

    def z_image(self, i: int) -> PauliString:
        r = self.n + i
        return PauliString(self.n, self.xbits[r].copy(), self.zbits[r].copy(), int(self.signs[r]) * 2)

    def conjugate(self, p: PauliString) -> PauliString:
        """Return T p T^dagger with the sign tracked exactly."""
        if p.n != self.n:
            raise DimensionError(f"size mismatch: {p.n} != {self.n}")
        n = self.n
        # p = i**(phase + y_count) * prod_q X_q^{x_q} Z_q^{z_q}
        phase = (p.phase_exp + int(np.sum(p.x & p.z))) % 4
        sel = np.concatenate([p.x, p.z]).astype(bool)
        rows = np.flatnonzero(sel)
        # Reorder so that for each qubit q the X_q row precedes the Z_q row,
        # matching the decomposition order above.
        order = np.argsort([r % n * 2 + r // n for r in rows], kind="stable")
        rows = rows[order]
        ax = np.zeros(n, dtype=np.uint8)
        az = np.zeros(n, dtype=np.uint8)
        for r in rows:
            rx, rz = self.xbits[r], self.zbits[r]
            idx = (ax.astype(np.int64) << 3) | (az.astype(np.int64) << 2) | (rx.astype(np.int64) << 1) | rz.astype(np.int64)
            phase = (phase + 2 * int(self.signs[r]) + int(_MUL_PHASE[idx].sum())) % 4
            ax ^= rx
            az ^= rz
        if (phase - p.phase_exp) % 2 != 0:
            raise NonCliffordError("conjugation changed the phase parity")
        return PauliString(n, ax, az, phase)

    def compose(self, before: "CliffordTableau") -> "CliffordTableau":
        """Tableau of 'apply ``before``, then ``self``'.

        Every generator image of ``before`` is conjugated through ``self``,
        vectorized across all 2n output rows: the per-qubit X and Z rows of
        ``self`` are multiplied in, in qubit order, with exact phase
        bookkeeping.
        """
        if before.n != self.n:
            raise DimensionError(f"size mismatch: {before.n} != {self.n}")
        n = self.n
        # each output row starts as i^(2 sign + y_count) * prod X^x Z^z
        phases = (
            2 * before.signs.astype(np.int64)
            + np.sum(before.xbits & before.zbits, axis=1, dtype=np.int64)
        )
        sx = self.xbits.astype(np.int64)
        sz = self.zbits.astype(np.int64)
        ssigns = 2 * self.signs.astype(np.int64)
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
        return CliffordTableau(
            n, acc_x.astype(np.uint8), acc_z.astype(np.uint8), (phases // 2).astype(np.uint8)
        )

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

    def symplectic_ok(self) -> bool:
        """Check the generator images' commutation pattern."""
        m, j = self._symplectic()
        return np.array_equal((m @ j @ m.T) % 2, j)

    def inverse(self) -> "CliffordTableau":
        n = self.n
        m, j = self._symplectic()
        if not np.array_equal((m @ j @ m.T) % 2, j):
            raise NonCliffordError("tableau bits are not symplectic")
        minv = (j @ m.T @ j) % 2
        xb = minv[:, :n].astype(np.uint8)
        zb = minv[:, n:].astype(np.uint8)
        sg = np.zeros(2 * n, dtype=np.uint8)
        # Fix signs so that conjugating each candidate through self returns
        # the corresponding +X_i / +Z_i generator.
        for r in range(2 * n):
            img = self.conjugate(PauliString(n, xb[r].copy(), zb[r].copy(), 0))
            sg[r] = img.phase_exp // 2
        return CliffordTableau(n, xb, zb, sg)

    def is_identity(self) -> bool:
        ident = CliffordTableau.identity(self.n)
        return (
            np.array_equal(self.xbits, ident.xbits)
            and np.array_equal(self.zbits, ident.zbits)
            and not np.any(self.signs)
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


def gate_order(t: CliffordTableau, cap: int = 10**6) -> int | None:
    """Smallest p <= cap with t^p equal to the identity tableau.

    Comparisons are at the tableau level, hence modulo global phase.
    Returns None when the cap is exceeded.  Plain repeated composition;
    orders encountered in practice are far below the default cap.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    acc = t
    for p in range(1, cap + 1):
        if acc.is_identity():
            return p
        if p == cap:
            break
        acc = t.compose(acc)
    return None


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
