"""Circuit sequences built from layers, and benchmark target gate blocks."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .device import DeviceModel
from .paulis import LocalCliffordLayer, PauliString
from .tableau import CliffordTableau


@dataclass(frozen=True)
class CliffordLayer:
    """A layer of parallel single-qubit Cliffords."""

    layer: LocalCliffordLayer


@dataclass(frozen=True)
class PauliLayer:
    """A layer of single-qubit Paulis; ``closing`` marks the inverse gate."""

    pauli: PauliString
    closing: bool = False


@dataclass(frozen=True)
class GateLayer:
    """Parallel execution of a set of the device's two-qubit gates."""

    gates: tuple[int, ...]


@dataclass(frozen=True)
class Unitary1qLayer:
    """Arbitrary single-qubit unitaries; density-matrix backend only."""

    ops: tuple[tuple[int, np.ndarray], ...]


Layer = CliffordLayer | PauliLayer | GateLayer | Unitary1qLayer


@dataclass(frozen=True)
class CircuitSequence:
    """Ordered layers acting on a fixed register."""

    n: int
    layers: tuple[Layer, ...]


@dataclass(frozen=True)
class GateBlock:
    """A benchmark target: its tableau plus device-level layer decomposition.

    ``layers`` implement the gate, ``inverse_layers`` its inverse, both in
    circuit order.  For a parallel CZ gate the two coincide.
    """

    name: str
    n: int
    tableau: CliffordTableau
    layers: tuple[Layer, ...]
    inverse_layers: tuple[Layer, ...]
    gate_indices: tuple[int, ...] = ()

    @staticmethod
    def parallel_cz(device: DeviceModel, gate_indices: tuple[int, ...]) -> "GateBlock":
        device.check_layer_disjoint(gate_indices)
        n = device.n_qubits
        pairs = [device.gates[g].pair for g in gate_indices]
        t = CliffordTableau.from_cz_layer(n, pairs)
        layer = (GateLayer(tuple(gate_indices)),)
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
