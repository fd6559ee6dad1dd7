"""Composite benchmark targets and device constructors used by the CLI."""

from __future__ import annotations

import numpy as np

from .circuits import GateBlock
from .device import CouplingMap, DeviceModel, GateSpec
from .paulis import local_clifford_elements, single_qubit_cliffords
from .tableau import _SIGN_CHUNK_ROWS, CliffordTableau, gate_order, local_layer_lookup


def ring_cz_patterns(n: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """The two brickwork CZ patterns of an n-qubit ring."""
    if n % 2 or n < 4:
        raise ValueError("ring size must be even and at least 4")
    a = [(q, q + 1) for q in range(0, n, 2)]
    b = [(q, (q + 1) % n) for q in range(1, n, 2)]
    return a, b


def ring_device(n: int, gate_depol: float = 1.0, **kw) -> DeviceModel:
    """Device with both brickwork CZ layers of a ring available."""
    a, b = ring_cz_patterns(n)
    gates = tuple(GateSpec(pair=p, depol_p=gate_depol) for p in a + b)
    edges = tuple((q, (q + 1) % n) for q in range(n))
    return DeviceModel(n_qubits=n, gates=gates, couplings=CouplingMap(), layout_edges=edges, **kw)


def fully_connected_tableau(
    cz_a: CliffordTableau, cz_b: CliffordTableau, v1: np.ndarray, v2: np.ndarray
) -> list[CliffordTableau]:
    """Tableaus of CZ layer ``cz_a``, local layer v1, CZ layer ``cz_b``, local layer v2, one per draw.

    ``v1`` and ``v2`` hold element indices with a leading draw axis, shape
    (draws, n).  The whole stack is built at once (Dehaene & De Moor, PRA
    68, 042318): one ``local_layer_lookup`` per local layer, and ``cz_b``
    composed by one ``_images`` call over the 2n rows of every draw.
    """
    n, draws = cz_a.n, len(v1)
    xb, zb, signs = local_layer_lookup(v1, cz_a.xbits, cz_a.zbits, cz_a.signs)  # (draws, 2n, n)
    bits, signs = cz_b._images(np.concatenate([xb, zb], axis=-1).reshape(-1, 2 * n), signs.reshape(-1))
    bits = bits.reshape(draws, 2 * n, 2 * n)
    xb, zb, signs = local_layer_lookup(v2, bits[..., :n], bits[..., n:], signs.reshape(draws, 2 * n))
    return [CliffordTableau(n, x, z, s) for x, z, s in zip(xb, zb, signs)]


def fully_connected_gate(device: DeviceModel, a_gates: tuple[int, ...], b_gates: tuple[int, ...], rng: np.random.Generator) -> GateBlock:
    """Brickwork unit: CZ layer, random local layer, CZ layer, local layer.

    The tableau comes from ``fully_connected_tableau`` with one draw, the
    builder that ``gate_order_samples`` calls with many.  The local layers
    are (1, n) stack entries, shared by every sequence.
    """
    n = device.n_qubits
    v1 = local_clifford_elements(n, rng)[None]
    v2 = local_clifford_elements(n, rng)[None]
    cz_a = CliffordTableau.from_cz_layer(n, [device.gates[g].pair for g in a_gates])
    cz_b = CliffordTableau.from_cz_layer(n, [device.gates[g].pair for g in b_gates])
    (t,) = fully_connected_tableau(cz_a, cz_b, v1, v2)
    a, b, inv = ("gates", tuple(a_gates)), ("gates", tuple(b_gates)), single_qubit_cliffords().inverse_table
    layers = (a, ("clifford", v1), b, ("clifford", v2))
    inverse_layers = (("clifford", inv[v2]), b, ("clifford", inv[v1]), a)
    return GateBlock(
        name=f"fully_connected[n={n}]",
        n=n,
        tableau=t,
        layers=layers,
        inverse_layers=inverse_layers,
        gate_indices=tuple(a_gates) + tuple(b_gates),
    )


def ring_fully_connected(n: int, rng: np.random.Generator, **device_kw) -> tuple[GateBlock, DeviceModel]:
    """Fully connected gate on a fresh ring device; returns (block, device)."""
    dev = ring_device(n, **device_kw)
    n_half = n // 2
    a_gates = tuple(range(n_half))
    b_gates = tuple(range(n_half, n))
    return fully_connected_gate(dev, a_gates, b_gates, rng), dev


def gate_order_samples(n: int, samples: int, rng: np.random.Generator, cap: int) -> list[int | None]:
    """Orders of the fully connected gate over random local-layer draws.

    Each sample draws v1, then v2, with ``local_clifford_elements`` as
    ``ring_fully_connected`` does, so the same stream gives the same gates.
    The tableaus are built by ``fully_connected_tableau``, as in
    ``fully_connected_gate``, in chunks of at most ``_SIGN_CHUNK_ROWS //
    (2n)`` draws, so memory does not grow with ``samples``.  Each order is
    one ``gate_order`` call.
    """
    a, b = ring_cz_patterns(n)
    cz_a, cz_b = CliffordTableau.from_cz_layer(n, a), CliffordTableau.from_cz_layer(n, b)
    per_chunk = max(1, _SIGN_CHUNK_ROWS // (2 * n))
    orders = []
    for start in range(0, samples, per_chunk):
        draws = min(per_chunk, samples - start)
        v = np.stack([local_clifford_elements(n, rng) for _ in range(2 * draws)]).reshape(draws, 2, n)
        orders += [gate_order(t, cap=cap) for t in fully_connected_tableau(cz_a, cz_b, v[:, 0], v[:, 1])]
    return orders
