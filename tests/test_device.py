import json
from dataclasses import replace
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabbench.backends import pack_bits
from cabbench.device import (
    ContractViolation,
    ControlPhases,
    CouplingMap,
    DeviceModel,
    DiagonalUnitary,
    GateSpec,
    ResourceLimitError,
    apply_readout_noise,
    bernoulli_positions,
    build_coupling_unitary,
    fwht,
    pauli_twirl_diagonal,
    xor_sorted,
)
from cabbench.paulis import PauliString

from helpers import (
    I2,
    Z2,
    apply_readout_noise_at,
    kron_all,
    parametric_cz_unitary,
    pauli_from_label,
    save_device,
    unpack_bits,
    weight_of,
)


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
    zz = pauli_from_label("ZIZI")
    assert weight_of(ch, ident) == pytest.approx(np.cos(gamma) ** 2, abs=1e-12)
    assert weight_of(ch, zz) == pytest.approx(np.sin(gamma) ** 2, abs=1e-12)
    assert ch.weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_twirl_quarter_pi_symmetry_point():
    dev = two_gate_device(gamma=np.pi / 4)
    v = build_coupling_unitary(list(dev.gates), dev.couplings, (0, 1))
    ch = pauli_twirl_diagonal(v)
    assert weight_of(ch, PauliString.identity(4)) == pytest.approx(0.5, abs=1e-12)
    assert weight_of(ch, pauli_from_label("ZIZI")) == pytest.approx(0.5, abs=1e-12)


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
    codes = pack_bits(rng.integers(0, 2, size=(100, 4), dtype=np.uint8))
    same = apply_readout_noise(codes, 4, np.zeros(4), np.zeros(4), rng)
    assert np.array_equal(same, codes)
    flipped = apply_readout_noise(codes, 4, np.ones(4), np.ones(4), rng)
    assert np.array_equal(flipped, codes ^ 0b1111)


def test_readout_noise_rates_match_table_values():
    rng = np.random.default_rng(3)
    e0, e1 = 0.0103, 0.0382
    shots = 100_000
    zeros = np.zeros(shots, dtype=np.int64)
    ones = np.ones(shots, dtype=np.int64)
    r0 = apply_readout_noise(zeros, 1, np.array([e0]), np.array([e1]), rng).mean()
    r1 = 1 - apply_readout_noise(ones, 1, np.array([e0]), np.array([e1]), rng).mean()
    assert abs(r0 - e0) < 3 * np.sqrt(e0 * (1 - e0) / shots)
    assert abs(r1 - e1) < 3 * np.sqrt(e1 * (1 - e1) / shots)


def test_bernoulli_positions_fire_each_trial_with_its_probability():
    rng = np.random.default_rng(4)
    n_trials, p, reps = 40, 0.25, 4000
    hits = np.zeros(n_trials)
    totals = []
    for _ in range(reps):
        pos = bernoulli_positions(rng, n_trials, p)
        assert np.all(np.diff(pos) > 0) and np.all((pos >= 0) & (pos < n_trials))
        hits[pos] += 1
        totals.append(len(pos))
    # every trial, the first and last included, fires at rate p; counts are binomial
    assert np.all(np.abs(hits / reps - p) < 5 * np.sqrt(p * (1 - p) / reps))
    assert np.var(totals) == pytest.approx(n_trials * p * (1 - p), rel=0.1)
    assert np.array_equal(bernoulli_positions(rng, 7, 1.0), np.arange(7))
    assert len(bernoulli_positions(rng, 7, 0.0)) == 0 and len(bernoulli_positions(rng, 0, 0.5)) == 0


# rates 0 and 1, e0 > e1 and e1 > e0, and e0 = e1
SIX_QUBIT_E0 = np.array([0.01, 0.2, 0.0, 0.5, 0.03, 1.0])
SIX_QUBIT_E1 = np.array([0.3, 0.05, 0.1, 0.5, 0.03, 0.0])


def test_readout_noise_per_qubit_asymmetric_rates():
    # candidates at max(e0, e1) per qubit, thinned by bit: every qubit keeps
    # its own 0->1 and 1->0 rate, including the rates 0 and 1
    e0, e1 = SIX_QUBIT_E0, SIX_QUBIT_E1
    rng = np.random.default_rng(8)
    shots = 40_000
    bits = rng.integers(0, 2, size=(shots, 6), dtype=np.uint8)
    out = unpack_bits(apply_readout_noise(pack_bits(bits), 6, e0, e1, rng), 6)
    flipped = out != bits
    for q in range(6):
        for bit, rate in ((0, e0[q]), (1, e1[q])):
            sel = bits[:, q] == bit
            observed = flipped[sel, q].mean()
            se = np.sqrt(rate * (1 - rate) / sel.sum())
            assert abs(observed - rate) <= 5 * se, (q, bit, observed, rate)


def _readout_case(case: str):
    """(n, e0, e1, codes) of one readout reference case."""
    rng = np.random.default_rng(len(case))
    if case == "six_qubit_rates":
        return 6, SIX_QUBIT_E0, SIX_QUBIT_E1, pack_bits(rng.integers(0, 2, size=(4000, 6), dtype=np.uint8))
    if case == "ring_44q_frame":
        # one shot per outcome, as stab_run_counts holds them before its readout
        from cabbench.backends import stab_run_counts
        from cabbench.cab import build_cab_sequence
        from cabbench.circuits import GateBlock
        from cabbench.cli import load_device

        dev = load_device("ring_44q")
        block = GateBlock.parallel_cz(dev, tuple(range(len(dev.gates))))
        seq = build_cab_sequence(block, 2, np.random.default_rng(5))
        counts = stab_run_counts([seq], replace(dev, readout_e0=None, readout_e1=None), 3000, [rng])
        frame = rng.permutation(np.repeat(counts.codes, counts.counts))
        assert np.count_nonzero(frame) > 1000
        return 44, dev.readout_e0, dev.readout_e1, frame
    if case == "n62_top_bit":
        bits = rng.integers(0, 2, size=(2000, 62), dtype=np.uint8)
        bits[::2, 0] = 1  # qubit 0 is bit 61, the top bit of a 62-qubit code
        e0 = rng.choice([0.0, 0.01, 0.05, 0.2], size=62)
        e1 = rng.choice([0.0, 0.02, 0.05, 1.0], size=62)
        return 62, e0, e1, pack_bits(bits)
    assert case == "zero_shots"
    return 5, np.full(5, 0.1), np.array([0.0, 0.05, 0.1, 0.2, 1.0]), np.zeros(0, dtype=np.int64)


@pytest.mark.parametrize("case", ["six_qubit_rates", "ring_44q_frame", "n62_top_bit", "zero_shots"])
def test_readout_noise_matches_the_xor_at_reference(case):
    n, e0, e1, codes = _readout_case(case)
    rng, reference_rng = np.random.default_rng(11), np.random.default_rng(11)
    got = apply_readout_noise(codes, n, e0, e1, rng)
    expected = apply_readout_noise_at(codes, n, e0, e1, reference_rng)
    assert got.dtype == np.int64 and np.array_equal(got, expected)
    # the same draws in the same order: the streams end in the same state
    assert rng.bit_generator.state == reference_rng.bit_generator.state
    assert np.array_equal(codes, _readout_case(case)[3])  # the input is left as it was
    assert (case == "zero_shots") == np.array_equal(got, codes)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.integers(1, 40).flatmap(
        lambda size: st.tuples(
            st.lists(st.integers(-(2**63), 2**63 - 1), min_size=size, max_size=size),
            st.lists(st.tuples(st.integers(0, size - 1), st.integers(-(2**63), 2**63 - 1)), max_size=80),
        )
    )
)
def test_xor_sorted_equals_unbuffered_xor_at(case):
    start, flips = case
    flips.sort(key=lambda f: f[0])  # a stable sort: each index keeps its values' order
    idx = np.array([i for i, _ in flips], dtype=np.int64)
    vals = np.array([v for _, v in flips], dtype=np.int64)
    got, expected = np.array(start, dtype=np.int64), np.array(start, dtype=np.int64)
    xor_sorted(got, idx, vals)
    np.bitwise_xor.at(expected, idx, vals)
    assert np.array_equal(got, expected)


def test_device_roundtrip(tmp_path):
    dev = two_gate_device(gamma=0.1, p1=0.98, p2=0.99, readout_e0=0.01, readout_e1=0.04)
    path = tmp_path / "dev.json"
    save_device(dev, path)
    loaded = DeviceModel.load(path)
    assert loaded.to_dict() == dev.to_dict()
    # the bundled devices hold no key that the model would drop on a save
    for name in ("two_gate_4q", "three_gate_6q", "ring_44q"):
        doc = json.loads(resources.files("cabbench.devices").joinpath(f"{name}.json").read_text())
        written = DeviceModel.from_dict(doc).to_dict()
        assert set(doc) <= set(written), name
        assert {k for g in doc["gates"] for k in g} <= set(written["gates"][0]), name


def test_layer_disjointness_check():
    gates = (GateSpec(pair=(0, 1)), GateSpec(pair=(1, 2)))
    dev = DeviceModel(n_qubits=3, gates=gates)
    dev.check_layer_disjoint((0,))
    with pytest.raises(ValueError):
        dev.check_layer_disjoint((0, 1))


@pytest.mark.parametrize(
    "depol_p, coupling_comp, comp_cost, expected",
    [
        (0.0, 0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0, 1.0),
        (0.9, 0.3, 0.5, 0.9 - 0.5 * 0.3**2),
        (0.1, 0.5, 2.0, 0.0),  # the cost outweighs depol_p: clamped below zero
        (0.9, 0.5, -2.0, 1.0),  # a negative cost, set past the constructor: clamped above one
    ],
)
def test_effective_depol_p_clamps_to_unit_interval(depol_p, coupling_comp, comp_cost, expected):
    spec = GateSpec(pair=(0, 1), depol_p=depol_p, coupling_comp=coupling_comp)
    object.__setattr__(spec, "comp_cost", comp_cost)
    got = spec.effective_depol_p()
    assert type(got) is float
    # bit for bit, the sign of zero included, as np.clip gives it
    reference = float(np.clip(depol_p - comp_cost * coupling_comp**2, 0.0, 1.0))
    assert got.hex() == reference.hex() == expected.hex()


def test_control_offsets_copy():
    dev = two_gate_device()
    shifted = dev.with_control_offsets({0: (0.1, 0.2, 0.3)})
    assert shifted.gates[0].control == ControlPhases(0.1, 0.2, 0.3)
    assert dev.gates[0].control == ControlPhases()


def fwht_loop(v):
    """The textbook butterfly, one block at a time: the reference for fwht."""
    v = np.asarray(v).astype(complex)
    h = 1
    while h < len(v):
        for i in range(0, len(v), 2 * h):
            a = v[i : i + h].copy()
            b = v[i + h : i + 2 * h].copy()
            v[i : i + h] = a + b
            v[i + h : i + 2 * h] = a - b
        h *= 2
    return v


@pytest.mark.parametrize("n", range(9))
def test_fwht_batched_rows_match_dense_walsh_product(n):
    rng = np.random.default_rng(n)
    ints = rng.integers(-50, 51, size=(5, 2**n))
    idx = np.arange(2**n)
    walsh = 1 - 2 * (np.bitwise_count(idx[:, None] & idx[None, :]) & 1).astype(np.int64)
    batched = fwht(ints)
    rows = np.array([fwht(row) for row in ints])
    assert batched.dtype == float and batched.shape == ints.shape
    assert np.array_equal(batched, rows)
    assert np.array_equal(batched, ints @ walsh.T)
    # a real input stays real: the real part of the complex transform, bit for bit
    reals = rng.normal(size=(4, 2**n))
    for real in (ints, reals):
        assert np.array_equal(fwht(real), np.real(fwht(real.astype(complex))))
    assert fwht(reals).dtype == float
    # floats: the same additions in the same order as the one-block-at-a-time loop
    floats = rng.normal(size=(3, 2, 2**n)) + 1j * rng.normal(size=(3, 2, 2**n))
    expected = np.array([[fwht_loop(row) for row in block] for block in floats])
    assert np.array_equal(fwht(floats), expected)
    assert np.array_equal(fwht(floats[1, 0]), expected[1, 0])


def test_fwht_leaves_its_input_unchanged():
    v = np.arange(8.0)
    fwht(v)
    assert np.array_equal(v, np.arange(8.0))


@pytest.mark.parametrize("field", ["readout_e0", "readout_e1", "single_qubit_depol"])
def test_device_noise_arrays_are_read_only(field):
    dev = two_gate_device(readout_e0=0.01, readout_e1=0.02, single_qubit_depol=0.99)
    with pytest.raises(ValueError, match="read-only"):
        getattr(dev, field)[0] = 0.5
    offset = dev.with_control_offsets({0: (0.1, 0.0, 0.0)})
    with pytest.raises(ValueError, match="read-only"):
        getattr(offset, field)[1] = 0.5
