"""Binary-symplectic Pauli algebra and the single-qubit Clifford group.

Conventions used throughout the package:

* A Pauli operator on ``n`` qubits is stored as two bit vectors ``x`` and
  ``z`` plus a phase exponent ``s``, representing ``i**s * L_0 (x) ... (x)
  L_{n-1}`` where the letter on qubit ``q`` is determined by
  ``(x[q], z[q])``: ``(0,0) -> I``, ``(1,0) -> X``, ``(1,1) -> Y``,
  ``(0,1) -> Z``.  The phase is tracked exactly as a power of ``i``.
* Qubit 0 is the most significant bit of integer-encoded bitstrings, i.e.
  basis state index ``sum(bit[q] << (n-1-q))``.  The same convention is
  used for measurement outcomes and Z-observable labels.
* The 24-element single-qubit Clifford group is enumerated once in a fixed
  canonical order so that indices are stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


class DimensionError(ValueError):
    """Operands act on different qubit counts."""


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator with an exact i**phase_exp prefactor."""

    n: int
    x: np.ndarray
    z: np.ndarray
    phase_exp: int

    def __post_init__(self):
        if self.x.shape != (self.n,) or self.z.shape != (self.n,):
            raise ValueError("x/z bit vectors must have length n")
        if self.phase_exp not in (0, 1, 2, 3):
            raise ValueError("phase_exp must be in {0,1,2,3}")

    @staticmethod
    def identity(n: int) -> "PauliString":
        return PauliString(n, np.zeros(n, dtype=np.uint8), np.zeros(n, dtype=np.uint8), 0)

    @staticmethod
    def from_bits(x, z, phase_exp: int = 0) -> "PauliString":
        x = np.asarray(x, dtype=np.uint8) & 1
        z = np.asarray(z, dtype=np.uint8) & 1
        return PauliString(len(x), x, z, phase_exp % 4)

    @property
    def weight(self) -> int:
        return int(np.count_nonzero(self.x | self.z))

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.x | self.z)

    def is_identity(self, up_to_phase: bool = False) -> bool:
        trivial = not np.any(self.x) and not np.any(self.z)
        return trivial and (up_to_phase or self.phase_exp == 0)

    def inverse(self) -> "PauliString":
        return PauliString(self.n, self.x, self.z, (-self.phase_exp) % 4)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.n == other.n
            and self.phase_exp == other.phase_exp
            and np.array_equal(self.x, other.x)
            and np.array_equal(self.z, other.z)
        )

    def __hash__(self):
        return hash((self.n, self.phase_exp, self.x.tobytes(), self.z.tobytes()))


def pauli_multiply(p: PauliString, q: PauliString) -> PauliString:
    """Product ``p * q`` with exact phase tracking."""
    if p.n != q.n:
        raise DimensionError(f"size mismatch: {p.n} != {q.n}")
    idx = (p.x.astype(np.int64) << 3) | (p.z.astype(np.int64) << 2) | (q.x.astype(np.int64) << 1) | q.z.astype(np.int64)
    phase = (p.phase_exp + q.phase_exp + int(_MUL_PHASE[idx].sum())) % 4
    return PauliString(p.n, p.x ^ q.x, p.z ^ q.z, phase)


def random_pauli_bits(n: int, rng: np.random.Generator) -> np.ndarray:
    """Bits (2, n) uint8, x then z, of a uniform draw from the 4^n phaseless Paulis.

    The single draw of a random Pauli: ``sample_random_pauli`` and the
    sequence stacks both take it, one Pauli at a time, so they consume the
    stream alike.  (One draw of many Paulis consumes it differently unless
    2n is a multiple of 4.)
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.integers(0, 2, size=(2, n), dtype=np.uint8)


def sample_random_pauli(n: int, rng: np.random.Generator) -> PauliString:
    """Uniform draw from the 4^n phaseless Paulis."""
    bits = random_pauli_bits(n, rng)
    return PauliString(n, bits[0], bits[1], 0)


# ---------------------------------------------------------------------------
# Single-qubit Clifford group
# ---------------------------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
_S = np.array([[1, 0], [0, 1j]], dtype=complex)


def _conj_letter(mat: np.ndarray, letter: np.ndarray):
    """Return (x, z, sign_bit) of mat * letter * mat^dagger, a signed letter."""
    img = mat @ letter @ mat.conj().T
    for code, ref in enumerate(_LETTER_MATS):
        if code == 0:
            continue
        for sign_bit, s in ((0, 1.0), (1, -1.0)):
            if np.allclose(img, s * ref, atol=1e-12):
                x = code & 1
                z = code >> 1
                return x, z, sign_bit
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
        keys = []
        for xi in ((1, 0), (1, 1), (0, 1)):
            for xs in (0, 1):
                for zi in ((1, 0), (1, 1), (0, 1)):
                    if zi == xi:
                        continue
                    for zs in (0, 1):
                        keys.append((*xi, xs, *zi, zs))
        keys.sort()
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
            # Y = iXZ, so the Y image is the phase-tracked product of the
            # X and Z images.
            px = PauliString.from_bits([xx], [xz], 2 * xsgn)
            pz = PauliString.from_bits([zx], [zz], 2 * zsgn)
            py = pauli_multiply(px, pz)
            yphase = (py.phase_exp + 1) % 4  # reattach the i from Y = iXZ
            assert yphase in (0, 2)
            self.action[e, 3] = (py.x[0], py.z[0], yphase // 2)

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

    def compose(self, after: int, before: int) -> int:
        """Index of the element acting as ``before`` then ``after``."""
        return int(self.compose_table[after, before])

    def inverse(self, e: int) -> int:
        return int(self.inverse_table[e])

    def matrix(self, e: int) -> np.ndarray:
        return self.matrices[e]

    def find_z_preparation(self, x: int, z: int) -> int:
        """Smallest element index mapping Z to the +letter given by (x, z)."""
        for e in range(24):
            if tuple(self.action[e, 2]) == (x, z, 0):
                return e
        raise ValueError("no Clifford maps Z to the requested letter")


@lru_cache(maxsize=1)
def single_qubit_cliffords() -> SingleQubitCliffords:
    return SingleQubitCliffords()


@dataclass(frozen=True)
class LocalCliffordLayer:
    """A layer of independent single-qubit Cliffords, one per qubit."""

    n: int
    elements: np.ndarray  # indices into the 24-element table

    def __post_init__(self):
        if self.elements.shape != (self.n,):
            raise ValueError("one element index per qubit required")
        if np.any(self.elements >= 24):
            raise ValueError("element index out of range")

    @staticmethod
    def identity(n: int) -> "LocalCliffordLayer":
        e = single_qubit_cliffords().identity_index
        return LocalCliffordLayer(n, np.full(n, e, dtype=np.uint8))

    def inverse(self) -> "LocalCliffordLayer":
        table = single_qubit_cliffords().inverse_table
        return LocalCliffordLayer(self.n, table[self.elements])

    def compose(self, before: "LocalCliffordLayer") -> "LocalCliffordLayer":
        comp = single_qubit_cliffords().compose_table
        return LocalCliffordLayer(self.n, comp[self.elements, before.elements])

    def __eq__(self, other) -> bool:
        if not isinstance(other, LocalCliffordLayer):
            return NotImplemented
        return self.n == other.n and np.array_equal(self.elements, other.elements)

    def __hash__(self):
        return hash((self.n, self.elements.tobytes()))


def local_clifford_elements(n: int, rng: np.random.Generator) -> np.ndarray:
    """One local layer's element indices (n,) uint8, each uniform over the 24 elements.

    The single draw of a random local layer: ``sample_local_clifford`` and
    the stacked order draws both take it, so they consume the stream alike.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return rng.integers(0, 24, size=n, dtype=np.uint8)


def sample_local_clifford(n: int, rng: np.random.Generator) -> LocalCliffordLayer:
    """Each qubit's element independent and uniform over the 24 elements."""
    return LocalCliffordLayer(n, local_clifford_elements(n, rng))
