import numpy as np
import pytest

from cabbench.device import (
    ContractViolation,
    ControlPhases,
    CouplingMap,
    DeviceModel,
    DiagonalUnitary,
    GateSpec,
    ResourceLimitError,
    apply_readout_noise,
    build_coupling_unitary,
    parametric_cz_unitary,
    pauli_twirl_diagonal,
)
from cabbench.paulis import PauliString

from helpers import kron_all, I2, Z2


def two_gate_device(gamma=0.1, p1=1.0, p2=1.0, **kw):
    gates = (GateSpec(pair=(0, 1), depol_p=p1), GateSpec(pair=(2, 3), depol_p=p2))
    couplings = CouplingMap({(0, 1): gamma})
    return DeviceModel(n_qubits=4, gates=gates, couplings=couplings, **kw)


def test_coupling_unitary_zero_gamma_is_identity():
    dev = two_gate_device(gamma=0.0)
    v = build_coupling_unitary(list(dev.gates), dev.couplings, (0, 1))
    assert np.allclose(v.diag, 1.0)


def test_coupling_unitary_single_pair_matches_exponential():
    gamma = 0.37
    dev = two_gate_device(gamma=gamma)
    v = build_coupling_unitary(list(dev.gates), dev.couplings, (0, 1))
    # oracle: exp(-i gamma Z_0 Z_2) over qubits (0,1,2,3)
    zz = np.diag(kron_all([Z2, I2, Z2, I2]))
    expected = np.exp(-1j * gamma * zz.real)
    assert np.allclose(v.diag, expected, atol=1e-12)


def test_coupling_unitary_three_gates_factorizes():
    gates = tuple(GateSpec(pair=(2 * i, 2 * i + 1)) for i in range(3))
    couplings = CouplingMap({(0, 1): 0.1, (1, 2): 0.2, (0, 2): 0.3})
    v = build_coupling_unitary(list(gates), couplings, (0, 1, 2))
    prod = np.ones_like(v.diag)
    for (a, b), gamma in couplings.items():
        va = build_coupling_unitary(list(gates), CouplingMap({(a, b): gamma}), (0, 1, 2))
        prod = prod * va.diag
    assert np.allclose(v.diag, prod, atol=1e-12)


def test_coupling_cluster_limit():
    gates = tuple(GateSpec(pair=(2 * i, 2 * i + 1)) for i in range(9))
    couplings = CouplingMap({(i, i + 1): 0.1 for i in range(8)})
    with pytest.raises(ResourceLimitError):
        build_coupling_unitary(list(gates), couplings, tuple(range(9)))


def test_twirl_identity():
    v = DiagonalUnitary((0, 1), np.ones(4, dtype=complex))
    ch = pauli_twirl_diagonal(v)
    assert ch.weights[0] == pytest.approx(1.0)
    assert np.all(ch.weights[1:] == pytest.approx(0.0))


def test_twirl_single_pair_cos2_sin2():
    gamma = 0.3
    dev = two_gate_device(gamma=gamma)
    v = build_coupling_unitary(list(dev.gates), dev.couplings, (0, 1))
    ch = pauli_twirl_diagonal(v)
    ident = PauliString.identity(4)
    zz = PauliString.from_label("ZIZI")
    assert ch.weight_of(ident) == pytest.approx(np.cos(gamma) ** 2, abs=1e-12)
    assert ch.weight_of(zz) == pytest.approx(np.sin(gamma) ** 2, abs=1e-12)
    assert ch.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_twirl_quarter_pi_symmetry_point():
    dev = two_gate_device(gamma=np.pi / 4)
    v = build_coupling_unitary(list(dev.gates), dev.couplings, (0, 1))
    ch = pauli_twirl_diagonal(v)
    assert ch.weight_of(PauliString.identity(4)) == pytest.approx(0.5, abs=1e-12)
    assert ch.weight_of(PauliString.from_label("ZIZI")) == pytest.approx(0.5, abs=1e-12)


def test_twirl_rejects_nonunitary_diagonal():
    with pytest.raises(ContractViolation):
        pauli_twirl_diagonal(DiagonalUnitary((0,), np.array([1.0, 0.5], dtype=complex)))


def test_twirl_weights_factorize_for_disjoint_pairs():
    # two independent coupled pairs in one four-gate cluster
    gates = tuple(GateSpec(pair=(2 * i, 2 * i + 1)) for i in range(4))
    g1, g2 = 0.15, 0.4
    couplings = CouplingMap({(0, 1): g1, (2, 3): g2})
    dev = DeviceModel(n_qubits=8, gates=gates, couplings=couplings)
    comps = dev.couplings.components((0, 1, 2, 3))
    assert comps == [(0, 1), (2, 3)]
    for comp, gamma in zip(comps, (g1, g2)):
        v = build_coupling_unitary(list(gates), couplings, comp)
        ch = pauli_twirl_diagonal(v)
        nontrivial = np.sort(ch.weights)[::-1][:2]
        assert nontrivial == pytest.approx([np.cos(gamma) ** 2, np.sin(gamma) ** 2], abs=1e-12)


def test_parametric_cz_ideal():
    v = parametric_cz_unitary(GateSpec(pair=(0, 1)))
    assert np.allclose(v.diag, [1, 1, 1, -1], atol=1e-15)


def test_parametric_cz_pi_offset_cancels():
    v = parametric_cz_unitary(GateSpec(pair=(0, 1), control=ControlPhases(cond_phase=np.pi)))
    assert np.allclose(v.diag, [1, 1, 1, 1], atol=1e-12)


def test_parametric_cz_phases():
    v = parametric_cz_unitary(
        GateSpec(pair=(0, 1), control=ControlPhases(cond_phase=0.1, dyn_i=0.05, dyn_j=0.0))
    )
    expected = np.exp(1j * np.array([0.0, 0.0, 0.05, np.pi + 0.15]))
    assert np.allclose(v.diag, expected, atol=1e-12)


def test_readout_noise_identity_and_full_flip():
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, size=(100, 4), dtype=np.uint8)
    same = apply_readout_noise(bits, np.zeros(4), np.zeros(4), rng)
    assert np.array_equal(same, bits)
    flipped = apply_readout_noise(bits, np.ones(4), np.ones(4), rng)
    assert np.array_equal(flipped, bits ^ 1)


def test_readout_noise_rates_match_table_values():
    rng = np.random.default_rng(3)
    e0, e1 = 0.0103, 0.0382
    shots = 100_000
    zeros = np.zeros((shots, 1), dtype=np.uint8)
    ones = np.ones((shots, 1), dtype=np.uint8)
    r0 = apply_readout_noise(zeros, np.array([e0]), np.array([e1]), rng).mean()
    r1 = 1 - apply_readout_noise(ones, np.array([e0]), np.array([e1]), rng).mean()
    assert abs(r0 - e0) < 3 * np.sqrt(e0 * (1 - e0) / shots)
    assert abs(r1 - e1) < 3 * np.sqrt(e1 * (1 - e1) / shots)


def test_device_roundtrip(tmp_path):
    dev = two_gate_device(gamma=0.1, p1=0.98, p2=0.99, readout_e0=0.01, readout_e1=0.04)
    path = tmp_path / "dev.json"
    dev.save(path)
    loaded = DeviceModel.load(path)
    assert loaded.to_dict() == dev.to_dict()


def test_layer_disjointness_check():
    gates = (GateSpec(pair=(0, 1)), GateSpec(pair=(1, 2)))
    dev = DeviceModel(n_qubits=3, gates=gates)
    dev.check_layer_disjoint((0,))
    with pytest.raises(ValueError):
        dev.check_layer_disjoint((0, 1))


def test_control_offsets_copy():
    dev = two_gate_device()
    shifted = dev.with_control_offsets({0: (0.1, 0.2, 0.3)})
    assert shifted.gates[0].control == ControlPhases(0.1, 0.2, 0.3)
    assert dev.gates[0].control == ControlPhases()
