import numpy as np
import pytest

from cabbench.backends import (
    ShotCounts,
    block_noise_channel,
    choi_process_fidelity,
    compose_channels,
    dm_run,
    dressed_cycle_channel,
    pack_bits,
    pauli_layer_noise_channel,
    pauli_sum_process_fidelity,
    restricted_channel,
    stab_run_counts,
    unpack_bits,
)
from cabbench.circuits import CircuitSequence, CliffordLayer, GateBlock, GateLayer, PauliLayer
from cabbench.device import CouplingMap, ControlPhases, DeviceModel, GateSpec, ResourceLimitError
from cabbench.paulis import LocalCliffordLayer, PauliString, sample_local_clifford
from cabbench.tableau import compile_inverse_pauli

from helpers import depolarizing_channel, exact_survival, unitary_channel


def simple_device(n=2, depol_p=1.0, gamma=0.0, control=None, **kw):
    gates = [GateSpec(pair=(0, 1), depol_p=depol_p, control=control or ControlPhases())]
    couplings = CouplingMap()
    if n >= 4:
        gates.append(GateSpec(pair=(2, 3), depol_p=depol_p, control=control or ControlPhases()))
        if gamma:
            couplings.set(0, 1, gamma)
    return DeviceModel(n_qubits=n, gates=tuple(gates), couplings=couplings, **kw)


def cz_pair_sequence(n, gates, layers=1, close=True):
    """gate layer repeated an even number of times closes to identity."""
    seq = [GateLayer(tuple(gates))] * (2 * layers)
    return CircuitSequence(n, tuple(seq))


def batchify(fn):
    """Lift a single-matrix channel oracle to a stacked evaluator."""

    def apply(rhos):
        return np.stack([fn(r) for r in rhos])

    return apply


def test_dm_noiseless_closure():
    dev = simple_device()
    rng = np.random.default_rng(0)
    c = sample_local_clifford(2, rng)
    seq = CircuitSequence(
        2,
        (
            CliffordLayer(c),
            GateLayer((0,)),
            GateLayer((0,)),
            CliffordLayer(c.inverse()),
        ),
    )
    assert seq.closes_to_identity(dev)
    probs = dm_run(seq, dev)
    assert probs[0] == pytest.approx(1.0, abs=1e-12)


def test_dm_depolarizing_survival_decay():
    p = 0.9
    dev = simple_device(depol_p=p)
    # two CZ gates = identity circuit with two depolarizing applications
    seq = cz_pair_sequence(2, (0,))
    probs = dm_run(seq, dev)
    counts = ShotCounts.from_probabilities(probs, 2, 1, np.random.default_rng(0))
    # survival of any weight-2 Z observable after two depol rounds: p^2 plus
    # nothing else since depol eigenvalue is p for every nontrivial Pauli
    assert exact_survival(probs, 0) == pytest.approx(1.0, abs=1e-12)
    for w in (1, 2, 3):
        assert exact_survival(probs, w) == pytest.approx(p * p, abs=1e-12)


def test_choi_identity_channel():
    assert choi_process_fidelity(lambda r: r, 1) == pytest.approx(1.0, abs=1e-14)


def test_choi_depolarizing_two_qubits():
    ch = batchify(depolarizing_channel(0.9, 4))
    assert choi_process_fidelity(ch, 2) == pytest.approx(0.90625, abs=1e-12)


def test_choi_zz_unitary():
    gamma = 0.1
    zz = np.diag([1, -1, -1, 1]).astype(complex)
    u = np.diag(np.exp(-1j * gamma * np.diag(zz)))
    ch = batchify(unitary_channel(u))
    assert choi_process_fidelity(ch, 2) == pytest.approx(np.cos(gamma) ** 2, abs=1e-12)


def test_choi_matches_pauli_sum_on_random_channels():
    rng = np.random.default_rng(7)
    for _ in range(50):
        # random 2-qubit channel: mix of a random unitary and depolarizing
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(h)
        p = rng.uniform(0.5, 1.0)

        def chan(rhos, q=q, p=p):
            out = np.einsum("ab,...bc,dc->...ad", q, rhos, q.conj())
            tr = np.einsum("...aa->...", out)[..., None, None]
            return p * out + (1 - p) * tr * np.eye(4) / 4

        f1 = choi_process_fidelity(chan, 2)
        f2 = pauli_sum_process_fidelity(chan, 2)
        assert f1 == pytest.approx(f2, abs=1e-12)


def test_dm_channel_fidelity_matches_coupling_formula():
    gamma = 0.1
    dev = simple_device(n=4, gamma=gamma)
    block = GateBlock.parallel_cz(dev, (0, 1))
    ch = block_noise_channel(dev, block)
    f = choi_process_fidelity(ch, 4)
    assert f == pytest.approx(np.cos(gamma) ** 2, abs=1e-10)


def test_restricted_channel_single_gate_fidelity():
    gamma = 0.1
    dev = simple_device(n=4, gamma=gamma)
    block = GateBlock.parallel_cz(dev, (0, 1))
    ch = restricted_channel(block_noise_channel(dev, block), 4, (0, 1))
    f = choi_process_fidelity(ch, 2)
    assert f == pytest.approx(np.cos(gamma) ** 2, abs=1e-10)


def test_stab_noiseless_all_zeros():
    dev = simple_device()
    seq = cz_pair_sequence(2, (0,))
    rng = np.random.default_rng(1)
    counts = stab_run_counts(seq, dev, 100, rng)
    assert counts.counts.tolist() == [100]
    assert not counts.bits.any()
    assert np.array_equal(stab_run_counts(seq, dev, 1, rng).bits[0], np.zeros(2, dtype=np.uint8))


def test_stab_matches_dm_twirled_model():
    rng = np.random.default_rng(5)
    dev = simple_device(
        n=4,
        depol_p=0.95,
        gamma=0.15,
        control=ControlPhases(0.2, 0.1, -0.05),
        single_qubit_depol=0.995,
        readout_e0=0.01,
        readout_e1=0.03,
    )
    c = sample_local_clifford(4, rng)
    p1 = PauliString.from_label("XZIY")
    p2 = PauliString.from_label("YIXZ")
    u = GateBlock.parallel_cz(dev, (0, 1)).tableau
    closer = compile_inverse_pauli(u, [p1, p2], 1)
    seq = CircuitSequence(
        4,
        (
            CliffordLayer(c),
            PauliLayer(p1),
            GateLayer((0, 1)),
            PauliLayer(p2),
            GateLayer((0, 1)),
            PauliLayer(closer, closing=True),
            CliffordLayer(c.inverse()),
        ),
    )
    assert seq.closes_to_identity(dev)
    probs = dm_run(seq, dev, twirl_coupling=True)
    shots = 100_000
    counts = stab_run_counts(seq, dev, shots, np.random.default_rng(99))
    emp = counts.count_vector() / shots
    tv = 0.5 * np.abs(emp - probs).sum()
    assert tv < 0.01


def test_backend_agreement_survivals():
    # stochastic backend vs exact twirled model across random devices
    rng = np.random.default_rng(11)
    shots = 20_000
    for trial in range(8):
        gamma = rng.uniform(0, 0.3)
        dev = simple_device(
            n=4,
            depol_p=float(rng.uniform(0.9, 1.0)),
            gamma=gamma,
            control=ControlPhases(*rng.uniform(-0.2, 0.2, size=3)),
            single_qubit_depol=float(rng.uniform(0.99, 1.0)),
        )
        c = sample_local_clifford(4, rng)
        seq = CircuitSequence(
            4,
            (
                CliffordLayer(c),
                GateLayer((0, 1)),
                GateLayer((0, 1)),
                CliffordLayer(c.inverse()),
            ),
        )
        probs = dm_run(seq, dev, twirl_coupling=True)
        counts = stab_run_counts(seq, dev, shots, np.random.default_rng(trial))
        for w in (0b1000, 0b1010, 0b0101, 0b1111):
            exact = exact_survival(probs, w)
            est = counts.survival(w)
            se = np.sqrt(max(1 - exact**2, 1e-12) / shots)
            assert abs(est - exact) < 4 * se + 1e-9


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=(50, 9), dtype=np.uint8)
    assert np.array_equal(unpack_bits(pack_bits(bits), 9), bits)


def test_survival_hand_example():
    counts = ShotCounts(2, 100, np.array([[0, 0], [1, 1]], dtype=np.uint8), np.array([60, 40]))
    assert counts.survival(0b01) == pytest.approx(0.2)
    assert counts.survival(0b00) == pytest.approx(1.0)


def test_shot_counts_reject_empty():
    with pytest.raises(ValueError, match="k_s"):
        ShotCounts(2, 0, np.zeros((0, 2), dtype=np.uint8), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="k_s"):
        ShotCounts.from_probabilities(np.array([1.0, 0.0, 0.0, 0.0]), 2, 0, np.random.default_rng(0))


def test_shot_timing_budget():
    # 44-qubit, 22-gate parallel CZ; budget check, generous bound
    import time

    n = 44
    gates = tuple(GateSpec(pair=(2 * i, 2 * i + 1), depol_p=0.978) for i in range(22))
    dev = DeviceModel(n_qubits=n, gates=gates, single_qubit_depol=0.9968)
    rng = np.random.default_rng(0)
    c = sample_local_clifford(n, rng)
    seq = CircuitSequence(
        n,
        (
            CliffordLayer(c),
            GateLayer(tuple(range(22))),
            GateLayer(tuple(range(22))),
            CliffordLayer(c.inverse()),
        ),
    )
    shots = 10_000
    start = time.perf_counter()
    stab_run_counts(seq, dev, shots, rng)
    elapsed = time.perf_counter() - start
    assert elapsed / shots < 1e-3  # well under 1 ms per shot


def test_dm_qubit_limit():
    dev = DeviceModel(n_qubits=13, gates=(GateSpec(pair=(0, 1)),))
    seq = CircuitSequence(13, (GateLayer((0,)), GateLayer((0,))))
    with pytest.raises(ResourceLimitError):
        dm_run(seq, dev)
