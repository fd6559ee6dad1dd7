"""Pauli bits and the single-qubit Clifford group.

Conventions used throughout the package:

* A Pauli on ``n`` qubits is stored as bits, x then z: a (2, n) array in
  a sequence stack, a row [x | z] of 2n bits in the GF(2) products of
  ``tableau``.  The letter on qubit ``q`` is determined by
  ``(x[q], z[q])``: ``(0,0) -> I``, ``(1,0) -> X``, ``(1,1) -> Y``,
  ``(0,1) -> Z``.  A drawn Pauli carries no phase; a tableau row carries
  one sign bit on the product of its letters.
* Qubit 0 is the most significant bit of integer-encoded bitstrings, i.e.
  basis state index ``sum(bit[q] << (n-1-q))``.  The same convention is
  used for measurement outcomes and Z-observable labels.
* The 24-element single-qubit Clifford group is enumerated once in a fixed
  canonical order so that indices are stable across runs; a local Clifford
  layer is an array of element indices, composed and inverted by lookup in
  ``compose_table`` and ``inverse_table``.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

# Phase exponent g in L1*L2 = i**g * L3, indexed by (x1,z1,x2,z2) packed
# into 4 bits.  Letters: I=(0,0), X=(1,0), Y=(1,1), Z=(0,1).
_MUL_PHASE = np.zeros(16, dtype=np.int64)
_MUL_PHASE[0b0110] = 1  # Z*X = iY
_MUL_PHASE[0b0111] = 3  # Z*Y = -iX
_MUL_PHASE[0b1001] = 3  # X*Z = -iY
_MUL_PHASE[0b1011] = 1  # X*Y = iZ
_MUL_PHASE[0b1101] = 1  # Y*Z = iX
_MUL_PHASE[0b1110] = 3  # Y*X = -iZ

_I2 = np.eye(2, dtype=complex)
_X2 = np.array([[0, 1], [1, 0]], dtype=complex)
_Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z2 = np.array([[1, 0], [0, -1]], dtype=complex)
_LETTER_MATS = (_I2, _X2, _Z2, _Y2)  # index = x + 2*z -> I, X, Z, Y


def random_pauli_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    """Bits (2, n) uint8, x then z, of a uniform draw from the 4^n phaseless Paulis.

    The single draw of a random Pauli: the CAB and CB sequence stacks and
    the CB characters take it one Pauli at a time, as their test references
    do, so both consume the stream alike.  (One draw of many Paulis consumes
    it differently unless 2n is a multiple of 4.)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.integers(0, 2, size=(2, n), dtype=np.uint8)


# ---------------------------------------------------------------------------
# Single-qubit Clifford group
# ---------------------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)


def _conj_letter(mat: np.ndarray, letter: np.ndarray):
    """Return (x, z, sign_bit) of mat * letter * mat^dagger, a signed letter."""
    img = mat @ letter @ mat.conj().T
    for code, ref in enumerate(_LETTER_MATS[1:], 1):
        for sign_bit in (0, 1):
            if np.allclose(img, (-1) ** sign_bit * ref, atol=1e-12):
                return code & 1, code >> 1, sign_bit
    raise AssertionError("conjugated Pauli letter is not a signed Pauli letter")


class SingleQubitCliffords:
    """Fixed canonical table of the 24 single-qubit Clifford elements.

    Each element is identified by the signed letters it maps X and Z to.
    The enumeration sorts the (x_image, z_image) descriptors, so indices
    are reproducible across runs and platforms.  Composition and inversion
    are table lookups; a concrete 2x2 unitary per element (fixed up to
    global phase) supports dense simulation.
    """

    def __init__(self):
        letters = permutations(((1, 0), (1, 1), (0, 1)), 2)  # distinct X and Z images
        keys = sorted((*xi, xs, *zi, zs) for xi, zi in letters for xs in (0, 1) for zs in (0, 1))
        assert len(keys) == 24
        self._key_to_index = {k: i for i, k in enumerate(keys)}
        # action[e, x + 2*z] = (x', z', sign_bit) of conj of the input letter
        self.action = np.zeros((24, 4, 3), dtype=np.uint8)
        self.matrices = np.zeros((24, 2, 2), dtype=complex)
        self.identity_index = self._key_to_index[(1, 0, 0, 0, 1, 0)]

        found = {}
        frontier = [np.eye(2, dtype=complex)]
        while len(found) < 24:
            nxt = []
            for mat in frontier:
                key = self._action_key(mat)
                if key in found:
                    continue
                found[key] = mat
                nxt.extend([_H @ mat, _S @ mat])
            frontier = nxt
        for key, mat in found.items():
            e = self._key_to_index[key]
            self.matrices[e] = mat
            xx, xz, xsgn = key[0], key[1], key[2]
            zx, zz, zsgn = key[3], key[4], key[5]
            self.action[e, 1] = (xx, xz, xsgn)
            self.action[e, 2] = (zx, zz, zsgn)
            # Y = iXZ, so the Y image is i times the product of the X and Z
            # images: their letters XOR, and the phase i^(1 + 2 xs + 2 zs + g)
            # is a sign, with g from the letter product table
            yphase = (1 + 2 * xsgn + 2 * zsgn + _MUL_PHASE[xx << 3 | xz << 2 | zx << 1 | zz]) % 4
            assert yphase in (0, 2)
            self.action[e, 3] = (xx ^ zx, xz ^ zz, yphase // 2)

        # a after b: b maps X and Z to signed letters, a maps those letters
        # on, and the two signs multiply (XOR of the sign bits)
        img = self.action[:, 1:3]  # (b, X|Z, (x, z, sign))
        comp = self.action[:, img[..., 0] + 2 * img[..., 1]]  # (a, b, X|Z, ...)
        comp[..., 2] ^= img[..., 2]
        keys = comp.reshape(24 * 24, 6).tolist()
        self.compose_table = np.array(
            [self._key_to_index[tuple(k)] for k in keys], dtype=np.uint8
        ).reshape(24, 24)
        self.inverse_table = np.zeros(24, dtype=np.uint8)
        for a in range(24):
            inv = np.flatnonzero(self.compose_table[a] == self.identity_index)
            assert inv.size == 1
            self.inverse_table[a] = inv[0]
        self._verify_group()

    def _action_key(self, mat: np.ndarray):
        return (*_conj_letter(mat, _X2), *_conj_letter(mat, _Z2))

    def _verify_group(self):
        comp = self.compose_table
        assert sorted(comp[self.identity_index]) == list(range(24))
        for a in range(24):
            assert sorted(comp[a]) == list(range(24))
            assert sorted(comp[:, a]) == list(range(24))
            assert comp[a, self.inverse_table[a]] == self.identity_index

    def find_z_preparation(self, x: int, z: int) -> int:
        """Smallest element index mapping Z to the +letter given by (x, z)."""
        for e in range(24):
            if tuple(self.action[e, 2]) == (x, z, 0):
                return e
        raise ValueError("no Clifford maps Z to the requested letter")


@lru_cache(maxsize=1)
def single_qubit_cliffords() -> SingleQubitCliffords:
    return SingleQubitCliffords()


def local_clifford_elements(n: int, rng: np.random.Generator) -> np.ndarray:
    """One local layer's element indices (n,) uint8, each uniform over the 24 elements.

    The single draw of a random local layer: the sequence stacks, the fully
    connected gate and the stacked order draws take it, as their test
    references do, so both consume the stream alike.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.integers(0, 24, size=n, dtype=np.uint8)
