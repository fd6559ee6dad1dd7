import numpy as np
import pytest

from cabbench.backends import dm_run, stab_run_counts
from cabbench.cab import build_cab_sequence, sample_observables
from cabbench.circuits import CircuitSequence, CliffordLayer, GateBlock, GateLayer
from cabbench.cli import load_device
from cabbench.device import ControlPhases, CouplingMap, DeviceModel, GateSpec, fwht
from cabbench.experiments import fully_connected_gate
from cabbench.paulis import LocalCliffordLayer, single_qubit_cliffords

from exact_oracle import assert_survivals_match, exact_survivals


def chain_device(n, rng, pauli_layer_noise=True):
    """Gates on (0,1), (2,3), ... with control errors, chain couplings and
    symmetric per-qubit readout, so every twirl channel and noise kind shows."""
    gates = tuple(
        GateSpec(pair=(2 * i, 2 * i + 1), depol_p=float(rng.uniform(0.9, 1.0)), control=ControlPhases(*rng.uniform(-0.2, 0.2, 3)))
        for i in range(n // 2)
    )
    couplings = CouplingMap()
    for i in range(len(gates) - 1):
        couplings.set(i, i + 1, float(rng.uniform(0.05, 0.3)))
    e = rng.uniform(0.0, 0.05, n)
    return DeviceModel(
        n_qubits=n,
        gates=gates,
        couplings=couplings,
        readout_e0=e,
        readout_e1=e,
        single_qubit_depol=rng.uniform(0.95, 1.0, n),
        pauli_layer_noise=pauli_layer_noise,
    )


def symmetric_ring44():
    """ring_44q with each qubit's readout error set to the mean of e0 and e1."""
    doc = load_device("ring_44q").to_dict()
    e = [(a + b) / 2 for a, b in zip(doc["readout"]["e0"], doc["readout"]["e1"])]
    doc["readout"] = {"e0": e, "e1": e}
    return DeviceModel.from_dict(doc)


@pytest.mark.parametrize("pauli_layer_noise", [True, False])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_oracle_equals_walsh_transform_of_twirled_dm(n, pauli_layer_noise):
    rng = np.random.default_rng([n, pauli_layer_noise])
    dev = chain_device(n, rng, pauli_layer_noise)
    blocks = [GateBlock.parallel_cz(dev, tuple(range(n // 2))), GateBlock.identity(n)]
    if n >= 4:
        half = tuple(range(n // 2))
        blocks.append(fully_connected_gate(dev, half[::2], half[1::2], rng))
    masks = np.arange(2**n)
    for block in blocks:
        for m in (0, 1, 3):
            seq = build_cab_sequence(block, m, rng)
            exact = np.real(fwht(dm_run([seq], dev, twirl_coupling=True)[0]))
            assert np.max(np.abs(exact_survivals(seq, dev, masks) - exact)) < 1e-12


def test_oracle_refuses_asymmetric_readout_and_open_sequences():
    dev = DeviceModel(n_qubits=2, gates=(GateSpec(pair=(0, 1)),), readout_e0=0.01, readout_e1=0.02)
    closed = CircuitSequence(2, (GateLayer((0,)), GateLayer((0,))))
    with pytest.raises(ValueError, match="symmetric"):
        exact_survivals(closed, dev, np.arange(4))
    dev = DeviceModel(n_qubits=2, gates=(GateSpec(pair=(0, 1)),))
    assert np.array_equal(exact_survivals(closed, dev, np.arange(4)), np.ones(4))
    # a lone Hadamard-like Clifford carries Z_0 back to X_0
    h = single_qubit_cliffords().find_z_preparation(1, 0)
    layer = CliffordLayer(LocalCliffordLayer(2, np.array([h, single_qubit_cliffords().identity_index], dtype=np.uint8)))
    with pytest.raises(ValueError, match="close"):
        exact_survivals(CircuitSequence(2, (layer,)), dev, np.arange(4))


def test_stab_matches_oracle_on_coupled_devices():
    # the test_backend_agreement devices, with symmetric readout added
    rng = np.random.default_rng(11)
    k_s = 20_000
    sampled, exact = [], []
    for trial in range(24):
        dev = chain_device(4, rng, pauli_layer_noise=bool(trial % 2))
        block = GateBlock.parallel_cz(dev, (0, 1))
        seq = build_cab_sequence(block, int(rng.integers(0, 4)), rng)
        counts = stab_run_counts([seq], dev, k_s, [np.random.default_rng(trial)])
        sampled.append(counts.all_survivals()[0, 1:])
        exact.append(exact_survivals(seq, dev, np.arange(1, 16)))
    assert_survivals_match(np.concatenate(sampled), np.concatenate(exact), k_s, z_bound=5.0, std_range=(0.8, 1.2))


def test_stab_matches_oracle_on_ring44():
    dev = symmetric_ring44()
    n = dev.n_qubits
    rng = np.random.default_rng(44)
    # CAB-style masks (weight about 33) and low-weight ones, which see single faults
    low = np.zeros((20, n), dtype=np.uint8)
    for row in low:
        row[rng.choice(n, size=rng.integers(1, 4), replace=False)] = 1
    masks = np.concatenate([sample_observables(n, 20, rng), low @ (1 << np.arange(n - 1, -1, -1, dtype=np.int64))])
    k_s = 10_000
    sampled, exact = [], []
    for block in (GateBlock.parallel_cz(dev, tuple(range(len(dev.gates)))), GateBlock.identity(n)):
        for m in (0, 2):
            for k in range(8):
                seq = build_cab_sequence(block, m, rng)
                counts = stab_run_counts([seq], dev, k_s, [np.random.default_rng([44, m, k, len(block.layers)])])
                sampled.append(counts.survivals(masks)[0])
                exact.append(exact_survivals(seq, dev, masks))
    sampled, exact = np.concatenate(sampled), np.concatenate(exact)
    assert len(sampled) >= 500
    assert_survivals_match(sampled, exact, k_s, z_bound=5.0, std_range=(0.8, 1.2))
