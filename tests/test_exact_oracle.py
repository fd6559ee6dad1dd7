import math
from dataclasses import replace

import numpy as np
import pytest

from cabbench.backends import stab_run_counts
from cabbench.analysis import analytic_fidelity
from cabbench.cab import CabConfig, build_cab_sequence, run_cab_experiment, sample_observables
from cabbench.circuits import GateBlock
from cabbench.cli import load_device
from cabbench.device import ControlPhases, CouplingMap, DeviceModel, GateSpec, fwht
from cabbench.experiments import fully_connected_gate
from cabbench.paulis import single_qubit_cliffords

from exact_oracle import assert_seed_ensemble, assert_survivals_match, exact_survivals
from helpers import CircuitSequence, CliffordLayer, GateLayer, LocalCliffordLayer, dense_dm_reference, sequences_of


def chain_device(n, rng):
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
    )


def symmetric_ring44():
    """ring_44q with each qubit's readout error set to the mean of e0 and e1."""
    dev = load_device("ring_44q")
    e = (dev.readout_e0 + dev.readout_e1) / 2
    return replace(dev, readout_e0=e, readout_e1=e)


# the ids keep the names these cases have always had
@pytest.mark.parametrize("n", [2, 4, 6], ids=lambda n: f"{n}-True")
def test_oracle_equals_walsh_transform_of_twirled_dm(n):
    rng = np.random.default_rng([n, True])  # True keeps the draws these cases have always made
    dev = chain_device(n, rng)
    blocks = [GateBlock.parallel_cz(dev, tuple(range(n // 2))), GateBlock.identity(n)]
    if n >= 4:
        half = tuple(range(n // 2))
        blocks.append(fully_connected_gate(dev, half[::2], half[1::2], rng))
    masks = np.arange(2**n)
    for block in blocks:
        for m in (0, 1, 3):
            stack = build_cab_sequence(block, m, [rng])
            (seq,) = sequences_of(stack)
            exact = np.real(fwht(dense_dm_reference(seq, dev, twirl_coupling=True)))
            assert np.max(np.abs(exact_survivals(seq, dev, masks) - exact)) < 1e-12


def test_oracle_refuses_asymmetric_readout_and_open_sequences():
    dev = DeviceModel(n_qubits=2, gates=(GateSpec(pair=(0, 1)),), readout_e0=0.01, readout_e1=0.02)
    closed = CircuitSequence(2, (GateLayer((0,)), GateLayer((0,))))
    with pytest.raises(ValueError, match="symmetric"):
        exact_survivals(closed, dev, np.arange(4))
    dev = DeviceModel(n_qubits=2, gates=(GateSpec(pair=(0, 1)),))
    assert np.array_equal(exact_survivals(closed, dev, np.arange(4)), np.ones(4))
    # a lone Hadamard-like Clifford carries Z_0 back to X_0
    h = single_qubit_cliffords().z_preparation[1]
    layer = CliffordLayer(LocalCliffordLayer(2, np.array([h, single_qubit_cliffords().identity_index], dtype=np.uint8)))
    with pytest.raises(ValueError, match="close"):
        exact_survivals(CircuitSequence(2, (layer,)), dev, np.arange(4))


def test_stab_matches_oracle_on_coupled_devices():
    # the test_backend_agreement devices, with symmetric readout added
    rng = np.random.default_rng(11)
    k_s = 20_000
    sampled, exact = [], []
    for trial in range(24):
        dev = chain_device(4, rng)
        block = GateBlock.parallel_cz(dev, (0, 1))
        stack = build_cab_sequence(block, int(rng.integers(0, 4)), [rng])
        (seq,) = sequences_of(stack)
        counts = stab_run_counts(stack, dev, k_s, [np.random.default_rng(trial)])
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
                stack = build_cab_sequence(block, m, [rng])
                (seq,) = sequences_of(stack)
                counts = stab_run_counts(stack, dev, k_s, [np.random.default_rng([44, m, k, len(block.layers)])])
                sampled.append(counts.survivals(masks)[0])
                exact.append(exact_survivals(seq, dev, masks))
    sampled, exact = np.concatenate(sampled), np.concatenate(exact)
    assert len(sampled) >= 500
    assert_survivals_match(sampled, exact, k_s, z_bound=5.0, std_range=(0.8, 1.2))


# The two seed ensembles below were sized for speed and their seeds and
# bounds fixed before their first run.  With k_r sequences the jackknife SE
# has about k_r - 1 degrees of freedom, so z is roughly Student-t and its
# std about 1.1-1.2; the std of N such values has an SE of about 0.15 at
# N = 30 and 0.1 at N = 100.


def test_ring44_pure_se_covers_the_exact_fidelity():
    # sample mode, stab: the exact pure fidelity is the per-gate product
    dev = symmetric_ring44()
    gates = tuple(range(len(dev.gates)))
    exact = math.prod(analytic_fidelity((0,), [g.effective_depol_p()], CouplingMap()) for g in dev.gates)
    block = GateBlock.parallel_cz(dev, gates)
    values, ses = [], []
    for seed in range(7000, 7030):
        cfg = CabConfig(depths=(0, 2), k_r=8, k_s=10_000, mode="sample", k_q=50, seed=seed, backend="stab")
        pure = run_cab_experiment(dev, block, cfg).pure
        values.append(pure.value)
        ses.append(pure.se)
    assert_seed_ensemble(values, ses, exact, c=3.5, std_range=(0.7, 1.6))


@pytest.mark.xfail(
    strict=True,
    reason="under coherent coupling a run's SE falls as its estimate rises (correlation about -0.8 over "
    "seeds at k_r 10), so z is skewed: at its first run mean z read +0.555 against a bound of 0.350, "
    "while the mean error was +0.075 mean SE",
)
def test_traverse_subset_pure_se_covers_the_exact_fidelity():
    # a coupled pair of gates with symmetric readout, dm: the exact fidelity
    # of gate 0 alone is the general formula's, with gate 1 traced out
    p, gamma = [0.96, 0.95], 0.1
    couplings = CouplingMap({(0, 1): gamma})
    dev = DeviceModel(
        n_qubits=4,
        gates=(GateSpec(pair=(0, 1), depol_p=p[0]), GateSpec(pair=(2, 3), depol_p=p[1])),
        couplings=couplings,
        readout_e0=0.02,
        readout_e1=0.02,
    )
    exact = analytic_fidelity((0,), p, couplings)
    block = GateBlock.parallel_cz(dev, (0, 1))
    values, ses = [], []
    for seed in range(8000, 8100):
        cfg = CabConfig(depths=(0, 2), k_r=10, k_s=2000, mode="traverse", seed=seed, backend="dm", subsets=((0,),))
        pure = run_cab_experiment(dev, block, cfg).subsets[(0,)].pure
        values.append(pure.value)
        ses.append(pure.se)
    assert_seed_ensemble(values, ses, exact, c=3.5, std_range=(0.8, 1.5))
