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
* The 24-element single-qubit Clifford group is listed once, each element
  as the signed letters it maps X and Z to, in a fixed canonical order so
  that indices are stable across runs.  A local Clifford layer is an array
  of element indices, composed and inverted by lookup in ``compose_table``
  and ``inverse_table``, and a CB basis prep by ``z_preparation``, a
  table indexed by the letter's x + 2z.  This module is bookkeeping on
  bits and signs only; it holds no unitaries.
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


class SingleQubitCliffords:
    """Fixed canonical table of the 24 single-qubit Clifford elements.

    A Clifford is fixed, up to a global phase, by the signed letters it
    maps X and Z to, and each pair of signed letters with two different
    letters of X, Y, Z is the image of exactly one (Aaronson & Gottesman,
    PRA 70, 052328 (2004)).  So the 24 sorted (x_image, z_image) keys are
    the group, with nothing to search, and their order makes the indices
    reproducible across runs and platforms.  ``action`` holds each
    element's images of I, X, Z and Y; composition and inversion are table
    lookups.
    """

    def __init__(self):
        letters = permutations(((1, 0), (1, 1), (0, 1)), 2)  # distinct X and Z images
        keys = sorted((*xi, xs, *zi, zs) for xi, zi in letters for xs in (0, 1) for zs in (0, 1))
        assert len(keys) == 24
        self._key_to_index = {k: i for i, k in enumerate(keys)}
        self.identity_index = self._key_to_index[(1, 0, 0, 0, 1, 0)]
        # action[e, x + 2*z] = (x', z', sign_bit) of conj of the input letter
        self.action = np.zeros((24, 4, 3), dtype=np.uint8)
        key = np.array(keys, dtype=np.int64)
        self.action[:, 1:3] = key.reshape(24, 2, 3)
        xx, xz, xsgn, zx, zz, zsgn = key.T
        # Y = iXZ, so the Y image is i times the product of the X and Z
        # images: their letters XOR, and the phase i^(1 + 2 xs + 2 zs + g)
        # is a sign, with g from the letter product table
        yphase = (1 + 2 * xsgn + 2 * zsgn + _MUL_PHASE[xx << 3 | xz << 2 | zx << 1 | zz]) % 4
        assert np.all(yphase % 2 == 0)
        self.action[:, 3] = np.stack([xx ^ zx, xz ^ zz, yphase // 2], axis=1)

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
        # z_preparation[x + 2z]: the first element mapping Z to +(x, z); the identity for I
        z_images = self.action[:, 2].tolist()
        firsts = [z_images.index([j & 1, j >> 1, 0]) for j in (1, 2, 3)]
        self.z_preparation = np.array([self.identity_index, *firsts], dtype=np.uint8)

    def _verify_group(self):
        comp = self.compose_table
        assert sorted(comp[self.identity_index]) == list(range(24))
        for a in range(24):
            assert sorted(comp[a]) == list(range(24))
            assert sorted(comp[:, a]) == list(range(24))
            assert comp[a, self.inverse_table[a]] == self.identity_index


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
