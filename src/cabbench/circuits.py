"""Stacks of sequences of one layout, and benchmark target gate blocks.

Every CAB sequence of one depth, and every CB sequence of one cycle count,
has the same layout; only its random Cliffords and Paulis differ (and a CB
sequence's basis prep, which follows its character).
A ``SequenceStack`` holds that layout once, with one entry per layer
position, a (kind, data) pair of one of four kinds:

- ``("gates", indices)``: a tuple of the device's two-qubit gates, run in
  parallel; every sequence shares it;
- ``("clifford", elements)``: single-qubit Clifford elements (K, n) uint8,
  indices into ``single_qubit_cliffords()``;
- ``("pauli", bits)``: Pauli layers X^x Z^z as bits (K, 2, n) uint8, x then z;
- ``("unitary", mats)``: single-qubit unitaries (K, n, 2, 2) complex, for
  the calibration scans; the density-matrix backend only.

Row k of every array is sequence k.  A leading axis of 1 marks a layer that
every sequence shares, such as a target block's local layer; the backends
apply it once to the whole stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .device import DeviceModel
from .tableau import CliffordTableau


@dataclass(frozen=True)
class SequenceStack:
    """K sequences of one layout on an n-qubit register, one (kind, data)
    entry per layer position."""

    n: int
    layers: tuple[tuple[str, object], ...]

    def __post_init__(self):
        row = {"clifford": (self.n,), "pauli": (2, self.n), "unitary": (self.n, 2, 2)}
        k = self.size
        for i, (kind, data) in enumerate(self.layers):
            if kind == "gates":
                continue
            if kind not in row or np.shape(data)[1:] != row[kind] or len(data) not in {1, k} or not len(data):
                raise ValueError(f"position {i}: {kind!r} {np.shape(data)}, a stack of {k} on {self.n} qubits")

    @property
    def size(self) -> int:
        """The number of sequences K: 1 when every layer is shared."""
        return max((len(data) for kind, data in self.layers if kind != "gates"), default=1)

    def rows(self, start: int, stop: int) -> "SequenceStack":
        """Sequences start..stop-1 as a stack; shared layers stay as they are."""
        return SequenceStack(
            self.n,
            tuple((kind, d if kind == "gates" or len(d) == 1 else d[start:stop]) for kind, d in self.layers),
        )


def unitary_layer(n: int, ops) -> np.ndarray:
    """One sequence's single-qubit unitaries (n, 2, 2): the identity on
    every qubit, times each (qubit, 2x2 unitary) of ``ops`` in turn."""
    mats = np.array([np.eye(2, dtype=complex)] * n)
    for q, u in ops:
        mats[q] = u @ mats[q]
    return mats


@dataclass(frozen=True)
class GateBlock:
    """A benchmark target: its tableau plus device-level layer decomposition.

    ``layers`` implement the gate, ``inverse_layers`` its inverse, both in
    circuit order, as ``SequenceStack`` entries that every sequence shares.
    For a parallel CZ gate the two coincide.
    """

    name: str
    n: int
    tableau: CliffordTableau
    layers: tuple[tuple[str, object], ...]
    inverse_layers: tuple[tuple[str, object], ...]
    gate_indices: tuple[int, ...] = ()

    @staticmethod
    def parallel_cz(device: DeviceModel, gate_indices: tuple[int, ...]) -> "GateBlock":
        device.check_layer_disjoint(gate_indices)
        n = device.n_qubits
        pairs = [device.gates[g].pair for g in gate_indices]
        t = CliffordTableau.from_cz_layer(n, pairs)
        layer = (("gates", tuple(gate_indices)),)
        return GateBlock(
            name=f"parallel_cz[{','.join(str(g) for g in gate_indices)}]",
            n=n,
            tableau=t,
            layers=layer,
            inverse_layers=layer,
            gate_indices=tuple(gate_indices),
        )

    @staticmethod
    def identity(n: int) -> "GateBlock":
        return GateBlock(
            name="identity",
            n=n,
            tableau=CliffordTableau.identity(n),
            layers=(),
            inverse_layers=(),
        )
