from dataclasses import replace
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cabbench.backends import (
    CHOI_QUBIT_LIMIT,
    DM_CHUNK_ELEMENTS,
    ShotCounts,
    _bits,
    _compile_faults,
    block_noise_channel,
    choi_process_fidelity,
    dm_run,
    dressed_cycle_channel,
    pack_bits,
    stab_run_counts,
)
from cabbench.cab import TRAVERSE_LIMIT
from cabbench.circuits import GateBlock, SequenceStack
from cabbench.device import CouplingMap, ControlPhases, DeviceModel, GateSpec, ResourceLimitError
from cabbench.experiments import fully_connected_gate
from cabbench.paulis import random_pauli_bits

from helpers import (
    CircuitSequence,
    CliffordLayer,
    GateLayer,
    LocalCliffordLayer,
    PauliLayer,
    PauliString,
    Unitary1qLayer,
    block_layer_objects,
    closes_to_identity,
    coefficient_step,
    compile_faults_one,
    compile_inverse_pauli_one,
    dense_apply_layers,
    dense_dm_reference,
    depolarizing_channel,
    dm_run_one,
    exact_survival,
    matrix_channel,
    matrix_unit_choi_fidelity,
    pauli_from_label,
    pauli_layer_noise_channel,
    process_fidelity_pauli_sum,
    restricted_channel,
    stab_run_counts_bitwise,
    stab_run_counts_one,
    all_survivals_one,
    marginal_count_vector_one,
    survivals_one,
    sequences_of,
    stack_of,
    unitary_channel,
    unpack_bits,
)


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
    c = LocalCliffordLayer.draw(2, rng)
    seq = CircuitSequence(
        2,
        (
            CliffordLayer(c),
            GateLayer((0,)),
            GateLayer((0,)),
            CliffordLayer(c.inverse()),
        ),
    )
    assert closes_to_identity(seq, dev)
    probs = dm_run(stack_of([seq]), dev)[0]
    assert probs[0] == pytest.approx(1.0, abs=1e-12)


def test_dm_depolarizing_survival_decay():
    p = 0.9
    dev = simple_device(depol_p=p)
    # two CZ gates = identity circuit with two depolarizing applications
    seq = cz_pair_sequence(2, (0,))
    probs = dm_run(stack_of([seq]), dev)[0]
    counts = ShotCounts.from_probabilities(probs, 2, 1, np.random.default_rng(0))
    # survival of any weight-2 Z observable after two depol rounds: p^2 plus
    # nothing else since depol eigenvalue is p for every nontrivial Pauli
    assert exact_survival(probs, 0) == pytest.approx(1.0, abs=1e-12)
    for w in (1, 2, 3):
        assert exact_survival(probs, w) == pytest.approx(p * p, abs=1e-12)


def test_choi_identity_channel():
    assert choi_process_fidelity(lambda r: r, 1) == pytest.approx(1.0, abs=1e-14)


def test_choi_depolarizing_two_qubits():
    ch = coefficient_step(batchify(depolarizing_channel(0.9, 4)), 2)
    assert choi_process_fidelity(ch, 2) == pytest.approx(0.90625, abs=1e-12)


def test_choi_zz_unitary():
    gamma = 0.1
    zz = np.diag([1, -1, -1, 1]).astype(complex)
    u = np.diag(np.exp(-1j * gamma * np.diag(zz)))
    ch = coefficient_step(batchify(unitary_channel(u)), 2)
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

        f1 = choi_process_fidelity(coefficient_step(chan, 2), 2)
        f2 = process_fidelity_pauli_sum(chan, 2)
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
    ch = restricted_channel(matrix_channel(block_noise_channel(dev, block), 4), 4, (0, 1))
    f = choi_process_fidelity(coefficient_step(ch, 2), 2)
    assert f == pytest.approx(np.cos(gamma) ** 2, abs=1e-10)


def test_stab_noiseless_all_zeros():
    dev = simple_device()
    seq = cz_pair_sequence(2, (0,))
    rng = np.random.default_rng(1)
    counts = stab_run_counts(stack_of([seq]), dev, 100, [rng])
    assert counts.counts.tolist() == [100]
    assert counts.codes.tolist() == [0]
    assert stab_run_counts(stack_of([seq]), dev, 1, [rng]).codes.tolist() == [0]


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
    c = LocalCliffordLayer.draw(4, rng)
    p1 = pauli_from_label("XZIY")
    p2 = pauli_from_label("YIXZ")
    u = GateBlock.parallel_cz(dev, (0, 1)).tableau
    closer = compile_inverse_pauli_one(u, [p1, p2], 1)
    seq = CircuitSequence(
        4,
        (
            CliffordLayer(c),
            PauliLayer(p1),
            GateLayer((0, 1)),
            PauliLayer(p2),
            GateLayer((0, 1)),
            PauliLayer(closer),
            CliffordLayer(c.inverse()),
        ),
    )
    assert closes_to_identity(seq, dev)
    probs = dense_dm_reference(seq, dev, twirl_coupling=True)
    shots = 100_000
    counts = stab_run_counts(stack_of([seq]), dev, shots, [np.random.default_rng(99)])
    emp = counts.marginal_count_vector(tuple(range(counts.n)))[0] / shots
    tv = 0.5 * np.abs(emp - probs).sum()
    assert tv < 0.01


def _sampler_case(name):
    from cabbench.cab import build_cab_sequence
    from cabbench.cli import load_device
    from cabbench.experiments import ring_device

    rng = np.random.default_rng([17, len(name)])
    if name == "fully_connected_6q":
        dev = ring_device(6, gate_depol=0.97, single_qubit_depol=0.995, readout_e0=0.01, readout_e1=0.04)
        block = fully_connected_gate(dev, (0, 1, 2), (3, 4, 5), rng)
    else:
        dev = load_device(name)
        block = GateBlock.parallel_cz(dev, tuple(range(len(dev.gates))))
    return dev, build_cab_sequence(block, 2, [rng])


@pytest.mark.parametrize("name", ["ring_44q", "three_gate_6q", "fully_connected_6q"])
def test_stab_flip_tables_match_the_bitwise_sampler(name):
    # uniform 1q and 2q groups everywhere, weighted twirl groups on the
    # coupled 6q device, Clifford layers inside the fully connected block
    dev, stack = _sampler_case(name)
    (seq,) = sequences_of(stack)
    weighted = any(w is not None for _, w, _ in _compile_faults(stack, dev))
    assert weighted == (name == "three_gate_6q")
    rng, ref_rng = np.random.default_rng(3), np.random.default_rng(3)
    counts = stab_run_counts(stack, dev, 3000, [rng])
    expected = stab_run_counts_bitwise(seq, dev, 3000, ref_rng)
    assert len(expected.codes) > 10
    assert np.array_equal(counts.codes, expected.codes)
    assert np.array_equal(counts.counts, expected.counts)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


# -- the stacked stabilizer sampler against one sequence at a time -------------


def assert_stab_stack_matches_one(stack, dev, k_s, seed):
    """One walk's tables (K, L, 2^b) hold each sequence's own tables, and
    the stacked counts are each sequence's run on its own to the bit, from
    the same draws of the same streams."""
    seqs = sequences_of(stack)
    compiled = _compile_faults(stack, dev)
    for k, seq in enumerate(seqs):
        one = compile_faults_one(seq, dev)
        assert len(compiled) == len(one)
        for (p, weights, tables), (p_one, weights_one, table) in zip(compiled, one):
            assert p == p_one and np.array_equal(tables[k], table)
            assert (weights is None and weights_one is None) or np.array_equal(weights, weights_one)
    rngs = [np.random.default_rng([seed, k]) for k in range(len(seqs))]
    ref_rngs = [np.random.default_rng([seed, k]) for k in range(len(seqs))]
    got = stab_run_counts(stack, dev, k_s, rngs)
    expected = ShotCounts.stack([stab_run_counts_one(seq, dev, k_s, r) for seq, r in zip(seqs, ref_rngs)])
    assert got.sequences == len(seqs) and got.k_s == k_s
    for name in ("codes", "counts", "offsets"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
    assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]
    return got


READOUT_GROUPS_8Q = {
    "n_qubits": 8,
    "gates": [{"pair": [2 * g, 2 * g + 1], "depol_p": 0.985} for g in range(4)],
    "couplings": [{"gates": [0, 1], "gamma": 0.05}, {"gates": [2, 3], "gamma": -0.03}],
    "readout": {
        "e0": [0.01, 0.03, 0.0, 0.05, 0.02, 0.1, 0.01, 0.0],
        "e1": [0.04, 0.01, 0.0, 0.05, 0.06, 0.02, 0.04, 0.02],
    },
    "single_qubit_depol": 0.997,
}


def _stab_stack(name, m):
    """A CAB depth's stack (or a CB stack of one shared character) and its device."""
    from cabbench.cab import build_cab_sequence, build_cb_sequence
    from cabbench.cli import load_device
    from cabbench.tableau import gate_order

    dev = DeviceModel.from_dict(READOUT_GROUPS_8Q) if name == "readout_groups_8q" else load_device(name.split("-")[0])
    block = GateBlock.parallel_cz(dev, tuple(range(len(dev.gates))))
    if name.endswith("-twirl"):
        block = GateBlock.identity(dev.n_qubits)
    if name.endswith("-cb"):
        order = gate_order(block.tableau, cap=64)
        char = random_pauli_bits(dev.n_qubits, np.random.default_rng(7))
        return dev, build_cb_sequence(block, char[None], m * order, order, [np.random.default_rng([29, k]) for k in range(3)])
    return dev, build_cab_sequence(block, m, [np.random.default_rng([17, m, k]) for k in range(4)])


@pytest.mark.parametrize(
    "name, m",
    [
        ("ring_44q", 0),
        ("ring_44q", 2),
        ("ring_44q-twirl", 0),
        ("ring_44q-twirl", 2),
        ("three_gate_6q", 2),  # weighted coupling-twirl groups
        ("readout_groups_8q", 2),
        ("three_gate_6q-cb", 2),
    ],
)
def test_stacked_stab_sampler_matches_one_at_a_time(name, m):
    dev, stack = _stab_stack(name, m)
    weighted = any(w is not None for _, w, _ in _compile_faults(stack, dev))
    assert weighted == name.startswith(("three_gate_6q", "readout_groups_8q"))
    counts = assert_stab_stack_matches_one(stack, dev, 2000, seed=m)
    assert np.all(np.diff(counts.offsets) > 1)  # every sequence saw faults


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    st.integers(2, 6),
    st.lists(st.sampled_from(["clifford", "pauli", "gate"]), min_size=1, max_size=8),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
)
def test_stacked_stab_sampler_matches_one_at_a_time_on_random_stacks(n, kinds, k, seed):
    # each sequence draws its own local and Pauli layers; the gate layers are shared
    rng = np.random.default_rng(seed)
    dev = random_device(n, rng)
    gates = {i: random_layer("gate", dev, rng) for i, kind in enumerate(kinds) if kind == "gate"}
    seqs = [
        CircuitSequence(n, tuple(gates[i] if kind == "gate" else random_layer(kind, dev, rng) for i, kind in enumerate(kinds)))
        for _ in range(k)
    ]
    assert_stab_stack_matches_one(stack_of(seqs), dev, 200, seed)


def test_stab_run_counts_refuses_empty_and_mixed_stacks_before_any_draw():
    # a stack of no sequences, or of rows that do not line up, is refused
    # when it is built; a stack with the wrong number of streams by the sampler
    dev = simple_device(n=4, depol_p=0.9)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for layers in (
        (("pauli", np.zeros((0, 2, 4), dtype=np.uint8)),),
        (("clifford", np.zeros((2, 4), dtype=np.uint8)), ("pauli", np.zeros((3, 2, 4), dtype=np.uint8))),
    ):
        with pytest.raises(ValueError, match="position"):
            SequenceStack(4, layers)
    stack = SequenceStack(4, (("pauli", np.zeros((2, 2, 4), dtype=np.uint8)), ("gates", (0,)), ("gates", (0,))))
    with pytest.raises(ValueError, match="streams"):
        stab_run_counts(stack, dev, 10, [rng])
    unitary = SequenceStack(4, (("unitary", np.array([np.eye(2)] * 4)[None]),))
    with pytest.raises(ValueError, match="unitaries"):
        stab_run_counts(unitary, dev, 10, [rng])
    assert rng.bit_generator.state == state


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
        c = LocalCliffordLayer.draw(4, rng)
        seq = CircuitSequence(
            4,
            (
                CliffordLayer(c),
                GateLayer((0, 1)),
                GateLayer((0, 1)),
                CliffordLayer(c.inverse()),
            ),
        )
        probs = dense_dm_reference(seq, dev, twirl_coupling=True)
        counts = stab_run_counts(stack_of([seq]), dev, shots, [np.random.default_rng(trial)])
        # the parity route and the FWHT route agree exactly: integer sums
        assert np.array_equal(counts.survivals(np.arange(16)), counts.all_survivals())
        masks = np.array([0b1000, 0b1010, 0b0101, 0b1111])
        for w, est in zip(masks, counts.survivals(masks)[0]):
            exact = exact_survival(probs, w)
            se = np.sqrt(max(1 - exact**2, 1e-12) / shots)
            assert abs(est - exact) < 4 * se + 1e-9


def test_pack_unpack_roundtrip():
    rng = np.random.default_rng(3)
    bits = rng.integers(0, 2, size=(50, 9), dtype=np.uint8)
    assert np.array_equal(unpack_bits(pack_bits(bits), 9), bits)


def _sub_index_reference(bits: np.ndarray, qubits) -> np.ndarray:
    """Sub-index of bit rows on ``qubits`` (qubits[0] = MSB), one bit at a time."""
    sub = np.zeros(len(bits), dtype=np.int64)
    for q in qubits:
        sub = 2 * sub + bits[:, q]
    return sub


@pytest.mark.parametrize("n", [6, 8, 9, 16, 44, 62])
def test_marginal_count_vector_matches_bitwise_reference(n):
    rng = np.random.default_rng(n)
    codes = np.unique(pack_bits(rng.integers(0, 2, size=(300, n), dtype=np.uint8)))
    weights = rng.integers(1, 20, size=len(codes))
    counts = ShotCounts(n, int(weights.sum()), codes, weights)
    bits = unpack_bits(codes, n)
    register = unpack_bits(np.arange(2**n), n) if n <= 12 else None
    # unsorted tuples and the end qubits included, lengths 1 to 8; from 9
    # qubits on, (n - 8, n - 9) and (n - 9, n - 8) straddle the lowest code
    # byte boundary, between calls that read the lowest byte's histogram
    tuples = [(0,), (n - 1,), (n - 1, 0), (3, 1, 5), (0, 2, 4, n - 1)]
    if n > 8:
        tuples += [(n - 8, n - 9), (n - 2, n - 1), (n - 9, n - 8), (n - 8, n - 1)]
    tuples += [tuple(rng.choice(n, size=k, replace=False).tolist()) for k in range(1, min(n, 8) + 1)]
    # a second pass in reverse reads every histogram again, after the others
    for qubits in tuples + tuples[::-1]:
        expected = np.zeros(2 ** len(qubits))
        np.add.at(expected, _sub_index_reference(bits, qubits), weights)
        assert np.array_equal(counts.marginal_count_vector(qubits)[0], expected), qubits
        if register is not None:
            # the dm gate tables index register states the same way
            assert np.array_equal(_bits(np.arange(2**n), n, qubits), _sub_index_reference(register, qubits)), qubits
    # a histogram for each byte that holds a whole tuple, and no other
    places = [{(n - 1 - q) // 8 for q in qubits} for qubits in tuples]
    assert sorted(counts._byte_hists) == sorted({min(p) for p in places if len(p) == 1})


def test_dense_readouts_of_30_qubits_are_refused_before_they_allocate():
    # a (1, 2^30) float histogram would take 8 GiB; the marginal over every
    # qubit asked numpy for one, as only the whole-register count had a limit
    counts = ShotCounts(30, 10, np.array([0, 5, 2**30 - 1], dtype=np.int64), np.array([3, 3, 4]))
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            counts.marginal_count_vector(tuple(range(30)))
        with pytest.raises(ResourceLimitError):
            counts.all_survivals()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _sequence_counts(n, k_s, n_codes, rng):
    """One sequence's ShotCounts: k_s shots over up to ``n_codes`` random codes."""
    codes = np.unique(pack_bits(rng.integers(0, 2, size=(n_codes, n), dtype=np.uint8)))
    sampled = rng.multinomial(k_s, np.full(len(codes), 1.0 / len(codes)))
    return ShotCounts(n, k_s, codes[sampled > 0], sampled[sampled > 0].astype(np.int64))


# (n, k_s, codes per sequence): a lone one-code sequence, k_r = 2, a depth
# whose sequences include a one-code one, traverse survivals at the traverse
# limit, two-byte codes, and the 44- and 62-qubit codes
STACK_CASES = {
    "one_code": (3, 50, [1]),
    "k_r_2": (4, 200, [40, 40]),
    "mixed_6q": (6, 500, [300, 1, 80, 300, 2]),
    "n12": (12, 2000, [500, 1, 500]),
    "n16": (16, 500, [200, 1, 200]),
    "n44": (44, 1000, [300, 300, 300]),
    "n62": (62, 1000, [300, 1, 300]),
}


@pytest.mark.parametrize("case", sorted(STACK_CASES))
def test_stacked_shot_counts_match_the_per_sequence_references(case):
    n, k_s, sizes = STACK_CASES[case]
    rng = np.random.default_rng([len(case), n, k_s])
    parts = [_sequence_counts(n, k_s, size, rng) for size in sizes]
    stacked = ShotCounts.stack(parts)
    assert stacked.sequences == len(parts)
    assert np.array_equal(ShotCounts.stack([ShotCounts.stack(parts[:1]), *parts[1:]]).offsets, stacked.offsets)
    # the identity, every single qubit's Z, the all-ones mask and random masks
    masks = np.array([0, *(1 << np.arange(n)), (1 << n) - 1, *pack_bits(rng.integers(0, 2, size=(30, n), dtype=np.uint8))])
    tuples = [(0,), (n - 1,), (n - 1, 0), (2, 0, 1), tuple(rng.choice(n, size=min(n, 5), replace=False).tolist())]
    if n > 8:
        tuples.append((n - 9, n - 8))  # across the lowest code byte boundary
    surv = stacked.survivals(masks)
    full = stacked.all_survivals() if n <= TRAVERSE_LIMIT else None
    marginals = {qubits: stacked.marginal_count_vector(qubits) for qubits in tuples}
    for s, part in enumerate(parts):
        assert np.array_equal(surv[s], survivals_one(part.codes, part.counts, k_s, masks))
        assert np.array_equal(part.survivals(masks)[0], surv[s])
        if full is not None:
            assert np.array_equal(full[s], all_survivals_one(part.codes, part.counts, k_s, n))
        for qubits, vec in marginals.items():
            assert np.array_equal(vec[s], marginal_count_vector_one(part.codes, part.counts, n, qubits)), qubits
    assert surv.shape == (len(parts), len(masks))
    assert all(vec.shape == (len(parts), 2 ** len(q)) for q, vec in marginals.items())


@pytest.mark.parametrize("n", [1, 8, 9, 44, 62])
@pytest.mark.parametrize("n_masks", [1, 7, 8, 9, 100])
def test_survivals_match_the_per_sequence_reference(n, n_masks):
    # mask counts on both sides of a parity byte, codes on both sides of a
    # code byte, and one-code sequences first, inside and last
    rng = np.random.default_rng([n, n_masks])
    parts = [_sequence_counts(n, 400, size, rng) for size in (1, 60, 1, 200, 1)]
    stacked = ShotCounts.stack(parts)
    masks = pack_bits(rng.integers(0, 2, size=(n_masks, n), dtype=np.uint8))
    masks[0] = (1 << n) - 1  # every qubit, the top code bit included
    surv = stacked.survivals(masks)
    assert surv.shape == (len(parts), n_masks)
    for s, part in enumerate(parts):
        assert np.array_equal(surv[s], survivals_one(part.codes, part.counts, part.k_s, masks))
        assert np.array_equal(part.survivals(masks)[0], surv[s])


def test_stacked_shot_counts_check_every_sequence():
    codes, counts = np.array([0, 1, 2], dtype=np.int64), np.array([5, 5, 10])
    assert ShotCounts(2, 10, codes, counts, np.array([0, 2, 3])).sequences == 2
    with pytest.raises(ValueError, match="sum"):
        ShotCounts(2, 10, codes, counts, np.array([0, 1, 3]))
    with pytest.raises(ValueError, match="sum"):
        ShotCounts(2, 10, codes, counts)  # one sequence of 20 shots
    # an empty sequence, though the counts of the others sum right
    with pytest.raises(ValueError, match="sum"):
        ShotCounts(2, 10, codes, counts, np.array([0, 2, 2, 3]))


def test_survival_hand_example():
    counts = ShotCounts(2, 100, pack_bits(np.array([[0, 0], [1, 1]], dtype=np.uint8)), np.array([60, 40]))
    assert counts.survivals(np.array([0b01, 0b00]))[0] == pytest.approx([0.2, 1.0])


def test_shot_counts_reject_empty():
    with pytest.raises(ValueError, match="k_s"):
        ShotCounts(2, 0, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    with pytest.raises(ValueError, match="k_s"):
        ShotCounts.from_probabilities(np.array([1.0, 0.0, 0.0, 0.0]), 2, 0, np.random.default_rng(0))


def test_shot_timing_budget():
    # 44-qubit, 22-gate parallel CZ; budget check, generous bound
    import time

    n = 44
    gates = tuple(GateSpec(pair=(2 * i, 2 * i + 1), depol_p=0.978) for i in range(22))
    dev = DeviceModel(n_qubits=n, gates=gates, single_qubit_depol=0.9968)
    rng = np.random.default_rng(0)
    c = LocalCliffordLayer.draw(n, rng)
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
    stab_run_counts(stack_of([seq]), dev, shots, [rng])
    elapsed = time.perf_counter() - start
    assert elapsed / shots < 1e-3  # well under 1 ms per shot


def register_device(n):
    dev = DeviceModel(n_qubits=n, gates=(GateSpec(pair=(0, n - 1), depol_p=0.9),), single_qubit_depol=0.99)
    return dev, CircuitSequence(n, (GateLayer((0,)), GateLayer((0,))))


def test_stab_runs_a_62_qubit_register():
    dev, seq = register_device(62)
    counts = stab_run_counts(stack_of([seq]), dev, 500, [np.random.default_rng(0)])
    bits = unpack_bits(counts.codes, 62)
    assert bits.shape[1] == 62 and bits[:, [0, 61]].any()
    assert not bits[:, 1:61].any()  # faults only hit the gate's qubits


def test_stab_register_above_62_qubits_raises_before_any_draw():
    dev, seq = register_device(64)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ResourceLimitError, match="62 qubits"):
        stab_run_counts(stack_of([seq]), dev, 500, [rng])
    assert rng.bit_generator.state == state


def test_dm_qubit_limit():
    dev = DeviceModel(n_qubits=13, gates=(GateSpec(pair=(0, 1)),))
    seq = CircuitSequence(13, (GateLayer((0,)), GateLayer((0,))))
    with pytest.raises(ResourceLimitError):
        dm_run(stack_of([seq]), dev)[0]


@pytest.mark.parametrize("backend", ["dm", "stab"])
@pytest.mark.parametrize("stack_n, device_n", [(6, 4), (4, 6)], ids=["larger_stack", "smaller_stack"])
def test_backends_refuse_a_stack_of_another_register_size(backend, stack_n, device_n):
    # before, a larger stack failed mid-run (a broadcast ValueError on dm, an
    # IndexError on stab), and a smaller one ran on dm on the device's first
    # qubits while stab failed
    dev = simple_device(n=device_n, depol_p=0.9, single_qubit_depol=0.99)
    local = ("clifford", np.zeros((1, stack_n), dtype=np.uint8))
    stack = SequenceStack(stack_n, (local, ("gates", (0,)), ("gates", (0,)), local))
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"a stack of {stack_n} qubits cannot run on a device of {device_n} qubits"):
        dm_run(stack, dev) if backend == "dm" else stab_run_counts(stack, dev, 10, [rng])
    assert rng.bit_generator.state == state


# -- the density-matrix kernel against explicit full-register matrices --------


def random_unitary_2x2(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_device(n, rng):
    """A chain of gates with random depolarizing, control phases and couplings,
    one noiseless gate and one noiseless qubit, and asymmetric readout."""
    gates = []
    for q in range(n - 1):
        gates.append(
            GateSpec(
                pair=(q, q + 1),
                depol_p=1.0 if q == 1 else float(rng.uniform(0.85, 1.0)),
                coupled_qubit=q + int(rng.integers(2)),
                control=ControlPhases(*rng.uniform(-0.3, 0.3, size=3)),
            )
        )
    # gates a and b are disjoint for b >= a + 2, so they can share a layer
    couplings = CouplingMap(
        {(a, b): float(rng.uniform(-0.3, 0.3)) for a in range(len(gates)) for b in range(a + 2, len(gates))}
    )
    depol = rng.uniform(0.9, 1.0, size=n)
    depol[0] = 1.0
    return DeviceModel(
        n_qubits=n,
        gates=tuple(gates),
        couplings=couplings,
        readout_e0=rng.uniform(0.0, 0.05, size=n),
        readout_e1=rng.uniform(0.05, 0.1, size=n),
        single_qubit_depol=depol,
    )


def random_layer(kind, dev, rng):
    n = dev.n_qubits
    if kind == "clifford":
        return CliffordLayer(LocalCliffordLayer.draw(n, rng))
    if kind == "pauli":
        return PauliLayer(PauliString.draw(n, rng))
    if kind == "unitary":
        # the first qubit is always acted on twice
        qubits = [0, *rng.integers(0, n, size=2), 0]
        return Unitary1qLayer(tuple((int(q), random_unitary_2x2(rng)) for q in qubits))
    used, gates = set(), []
    for g in rng.permutation(len(dev.gates)):
        pair = set(dev.gates[g].pair)
        if not pair & used:
            used |= pair
            gates.append(int(g))
    return GateLayer(tuple(gates))


def random_sequence(dev, rng, n_layers=8):
    kinds = ["clifford", "pauli", "unitary"] + (["gate", "gate"] if dev.gates else [])
    layers = [random_layer(kinds[i % len(kinds)], dev, rng) for i in range(len(kinds))]
    layers += [random_layer(kinds[rng.integers(len(kinds))], dev, rng) for _ in range(n_layers - len(kinds))]
    return CircuitSequence(dev.n_qubits, tuple(layers[i] for i in rng.permutation(len(layers))))


# the ids keep the names these cases have always had
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5], ids=lambda n: f"True-{n}")
def test_dm_run_matches_dense_reference(n):
    rng = np.random.default_rng([n, 0, True])  # the 0 and True keep the draws these cases have always made
    dev = random_device(n, rng)
    for _ in range(3):
        seq = random_sequence(dev, rng)
        probs = dm_run(stack_of([seq]), dev)[0]
        expected = dense_dm_reference(seq, dev)
        assert np.max(np.abs(probs - expected)) < 1e-12


def test_dm_run_on_offset_devices_matches_dense_reference():
    # tables are cached per device: alternating calls must not mix them up
    rng = np.random.default_rng(8)
    base = random_device(4, rng)
    offset = base.with_control_offsets({0: (0.2, -0.1, 0.05, 0.02), 2: (-0.1, 0.0, 0.1, 0.0)})
    seq = random_sequence(base, rng, n_layers=10)
    expected = {id(dev): dense_dm_reference(seq, dev) for dev in (base, offset)}
    assert np.max(np.abs(expected[id(base)] - expected[id(offset)])) > 1e-4
    for dev in (base, offset, base, offset, base):
        assert np.max(np.abs(dm_run(stack_of([seq]), dev)[0] - expected[id(dev)])) < 1e-12


def test_block_noise_channel_batch_equals_matrix_by_matrix():
    rng = np.random.default_rng(9)
    dev = random_device(4, rng)
    blocks = [
        GateBlock.parallel_cz(dev, (0, 2)),
        fully_connected_gate(dev, (0, 2), (1,), rng),
    ]
    inputs = rng.normal(size=(6, 16, 16)) + 1j * rng.normal(size=(6, 16, 16))
    for block in blocks:
        for channel in (block_noise_channel(dev, block), dressed_cycle_channel(dev, block)):
            batched = channel(inputs)
            assert batched.shape == inputs.shape
            assert np.array_equal(batched, np.array([channel(r) for r in inputs]))


# -- the Pauli-basis kernel at the edges of a sequence ---------------------------


def assert_matches_dense(seq, dev):
    probs = dm_run(stack_of([seq]), dev)[0]
    assert np.max(np.abs(probs - dense_dm_reference(seq, dev))) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 5])
def test_dm_run_empty_sequence_matches_dense_reference(n):
    dev = random_device(n, np.random.default_rng(n))
    assert_matches_dense(CircuitSequence(n, ()), dev)


@pytest.mark.parametrize("kind", ["clifford", "unitary"])
@pytest.mark.parametrize("n", [1, 2, 5])
def test_dm_run_single_local_layer_matches_dense_reference(kind, n):
    # the one layer is both the first and the last local layer
    rng = np.random.default_rng([n, len(kind)])
    dev = random_device(n, rng)
    for _ in range(3):
        assert_matches_dense(CircuitSequence(n, (random_layer(kind, dev, rng),)), dev)


@pytest.mark.parametrize("edge", ["pauli", "gate"])
def test_dm_run_sequences_starting_or_ending_off_a_local_layer(edge):
    rng = np.random.default_rng([len(edge), 0])  # the 0 keeps the draws these cases have always made
    dev = random_device(4, rng)
    for _ in range(3):
        a, b = random_layer(edge, dev, rng), random_layer(edge, dev, rng)
        local = random_layer("clifford", dev, rng)
        middle = random_sequence(dev, rng, n_layers=6).layers
        for layers in ((a,), (a, b), (a, local), (local, a), (a, *middle), (*middle, a), (a, *middle, b)):
            assert_matches_dense(CircuitSequence(4, layers), dev)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_dm_run_middle_local_layers_match_dense_reference(n):
    # local layers between other layers run as two half-register matmuls; a
    # wrong Kronecker order there shows on wide and uneven registers
    rng = np.random.default_rng([n, 4])
    dev = random_device(n, rng)
    for _ in range(2):
        gates = [random_layer("gate", dev, rng) for _ in range(3)]
        layers = (
            gates[0],
            random_layer("clifford", dev, rng),
            random_layer("unitary", dev, rng),
            gates[1],
            random_layer("clifford", dev, rng),
            random_layer("pauli", dev, rng),
            random_layer("unitary", dev, rng),
            gates[2],
        )
        assert_matches_dense(CircuitSequence(n, layers), dev)


@pytest.mark.parametrize("channel", [block_noise_channel, dressed_cycle_channel])
def test_channels_match_dense_layers_on_non_hermitian_inputs(channel):
    rng = np.random.default_rng(10)
    dev = random_device(4, rng)
    block = fully_connected_gate(dev, (0, 2), (1,), rng)
    inputs = rng.normal(size=(3, 16, 16)) + 1j * rng.normal(size=(3, 16, 16))
    noise = pauli_layer_noise_channel(dev) if channel is dressed_cycle_channel else (lambda r: r)
    for rho, out in zip(inputs, matrix_channel(channel(dev, block), 4)(inputs)):
        layers, inverse_layers = block_layer_objects(block)
        expected = dense_apply_layers(noise(rho), layers, dev)
        expected = dense_apply_layers(expected, inverse_layers, dev, noisy=False)
        assert np.max(np.abs(out - expected)) < 1e-12


def test_pauli_layer_noise_channel_matches_dense_depolarizing():
    rng = np.random.default_rng(13)
    dev = random_device(3, rng)
    rho = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    identity = PauliLayer(PauliString.identity(3))
    expected = dense_apply_layers(rho, (identity,), dev)
    assert np.max(np.abs(pauli_layer_noise_channel(dev)(rho) - expected)) < 1e-12


def test_dm_run_is_pinned_on_a_three_gate_6q_cab_sequence():
    # probabilities of the Hilbert-space kernel this one replaced; the two
    # agree to about 6e-16
    from cabbench.cab import build_cab_sequence
    from cabbench.cli import load_device

    dev = load_device("three_gate_6q")
    stack = build_cab_sequence(GateBlock.parallel_cz(dev, (0, 1, 2)), 2, [np.random.default_rng(2026)])
    pinned = np.array([
        0.38163389446023077, 0.014965040171594775, 0.027884188857049748, 0.00604088198530457,
        0.01642991074797038, 0.0006844593671846878, 0.003988230825400478, 0.0003706288080255564,
        0.03009003111474026, 0.0033789195459763433, 0.1523606769247172, 0.006463563662396206,
        0.007516020452407825, 0.0003906769435079282, 0.007144507680893718, 0.00038134649794154994,
        0.059172264533170114, 0.0024309058184817916, 0.012974727236865337, 0.0012454510436192847,
        0.0027001635795636724, 0.00011719342848569434, 0.0010316654507427144, 7.438251640253408e-05,
        0.008652230392893593, 0.000674140238430622, 0.024009429790078248, 0.0010684839887490567,
        0.001419156885779472, 7.264816034085709e-05, 0.0013114658917921507, 6.989526722048757e-05,
        0.031378983243102516, 0.0015783303698492668, 0.03633475515919599, 0.001721167857663768,
        0.0021831176794505154, 0.00010650642966599736, 0.002065039313192308, 0.00010412854818725418,
        0.016632657765097012, 0.0007972776611916076, 0.01369307337278883, 0.0007168845616134878,
        0.0018092038049614732, 8.670173697728117e-05, 0.0014909275477795513, 7.86635292211309e-05,
        0.05626989782549839, 0.0023199776355797026, 0.013044752357172989, 0.0012096559867358855,
        0.0025821083672912873, 0.00011240425548417015, 0.0010157290374656009, 7.217417768420531e-05,
        0.008540716660660719, 0.0006527476148939974, 0.022860368854478022, 0.0010208644705991823,
        0.0013718676855031069, 7.012928768233269e-05, 0.001264617832758513, 6.7387102614444e-05,
    ])
    assert np.max(np.abs(dm_run(stack, dev)[0] - pinned)) < 1e-14


# sha256 of dm_run(stack, dev)[0].tobytes() for a stack of one sequence: CSVs are byte-identical only if the
# probabilities are, so these hold every bit, not a tolerance
DM_RUN_DIGESTS = {
    ("two_gate_4q", 0): "19109fefc3255f0a741a484d19f879c4b2485efa74acf7ea2a24d02713459c8e",
    ("two_gate_4q", 1): "b335b35a4fbeb394f5c98c04d64607435f1151ae926bbe707561558bd9c08da4",
    ("two_gate_4q", 2): "f6d4d663609759d9c31137c06cfb8df6d10826c7807ead781aa401f63c6dfe8e",
    ("three_gate_6q", 0): "dfafb2c2b8ec62b95b8c5b8c34ea6b9041ff0905bff0de351f220e66946e9a3f",
    ("three_gate_6q", 1): "4205cdf5234c05bc501e92a1dfd73d63e5483a229a10e3893f8c7e6548c59a36",
    ("three_gate_6q", 2): "dd89fff24079675121570fc86d168b0eab7b1702b54581378835c37895a64943",
}


@pytest.mark.parametrize("name, m", sorted(DM_RUN_DIGESTS))
def test_dm_run_bytes_are_pinned_on_cab_sequences(name, m):
    import hashlib

    from cabbench.cab import build_cab_sequence
    from cabbench.cli import load_device

    dev = load_device(name)
    block = GateBlock.parallel_cz(dev, tuple(range(len(dev.gates))))
    stack = build_cab_sequence(block, m, [np.random.default_rng([2026, m])])
    assert hashlib.sha256(dm_run(stack, dev)[0].tobytes()).hexdigest() == DM_RUN_DIGESTS[name, m]


def test_dm_run_bytes_are_pinned_with_unitary_layers():
    import hashlib

    rng = np.random.default_rng(2026)
    dev = random_device(4, rng)
    seq = random_sequence(dev, rng, n_layers=10)
    # Pauli layers and single-qubit unitaries between the gate layers
    assert sum(isinstance(layer, Unitary1qLayer) for layer in seq.layers[1:-1]) == 2
    assert sum(isinstance(layer, PauliLayer) for layer in seq.layers) == 3
    digest = "2821be6a9e5e91803a7b6fee383fd2224d5aef5d13613c1ca57041829fd4979e"
    assert hashlib.sha256(dm_run(stack_of([seq]), dev)[0].tobytes()).hexdigest() == digest


# -- stacks of sequences against the per-sequence kernel -------------------------


def chunk_size(n):
    return max(1, DM_CHUNK_ELEMENTS // 4**n)


def without_readout(dev):
    return replace(dev, readout_e0=0.0, readout_e1=0.0)


def assert_stack_matches_one(seqs, dev):
    """A stack, or a list of sequences of one layout, as one stack against
    one sequence at a time."""
    stack, seqs = (seqs, sequences_of(seqs)) if isinstance(seqs, SequenceStack) else (stack_of(seqs), seqs)
    stacked = dm_run(stack, dev)
    assert stacked.shape == (len(seqs), 2 ** seqs[0].n)
    expected = np.array([dm_run_one(seq, dev) for seq in seqs])
    assert np.array_equal(stacked, expected)


@pytest.mark.parametrize("name", ["two_gate_4q", "three_gate_6q"])
@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("readout", [True, False])
def test_dm_run_stacks_of_cab_sequences_match_one_at_a_time(name, m, readout):
    from cabbench.cab import build_cab_sequence
    from cabbench.cli import load_device

    dev = load_device(name)
    if not readout:
        dev = without_readout(dev)
    block = GateBlock.parallel_cz(dev, tuple(range(len(dev.gates))))
    size = chunk_size(dev.n_qubits)
    # one sequence, one full chunk, and a full chunk plus a one-sequence chunk
    for k_r in (1, size, size + 1):
        stack = build_cab_sequence(block, m, [np.random.default_rng([31, m, k]) for k in range(k_r)])
        assert_stack_matches_one(stack, dev)


@pytest.mark.parametrize("m", [0, 2])
def test_dm_run_stacks_of_fully_connected_sequences_match_one_at_a_time(m):
    # the block's local layers sit between gate layers and are shared by the stack
    from cabbench.cab import build_cab_sequence

    rng = np.random.default_rng(41)
    dev = random_device(6, rng)
    block = fully_connected_gate(dev, (0, 2, 4), (1, 3), rng)
    assert any(kind == "clifford" for kind, _ in block.layers)
    stack = build_cab_sequence(block, m, [np.random.default_rng([41, m, k]) for k in range(chunk_size(6) + 1)])
    assert_stack_matches_one(stack, dev)


def test_dm_run_stacks_of_unitary_scans_match_one_at_a_time():
    # calibration-style scans: shared pulses around a gate layer, and a
    # unitary layer that differs per sequence in the middle or at the end
    rng = np.random.default_rng(43)
    for n in (2, 5):
        dev = random_device(n, rng)
        pulse, gate = random_layer("unitary", dev, rng), random_layer("gate", dev, rng)
        size = chunk_size(n) + 1
        middle = [CircuitSequence(n, (pulse, gate, random_layer("unitary", dev, rng), pulse)) for _ in range(size)]
        last = [CircuitSequence(n, (pulse, gate, random_layer("unitary", dev, rng))) for _ in range(size)]
        for seqs in (middle, last):
            assert_stack_matches_one(seqs, dev)


def test_dm_run_stacks_of_random_sequences_match_one_at_a_time():
    # every sequence its own Clifford, Pauli and unitary layers around the same gate layers
    rng = np.random.default_rng(47)
    dev = random_device(5, rng)
    template = random_sequence(dev, rng, n_layers=9)
    seqs = [
        CircuitSequence(
            5,
            tuple(
                layer if isinstance(layer, GateLayer) else random_layer(kind_of(layer), dev, rng)
                for layer in template.layers
            ),
        )
        for _ in range(chunk_size(5) + 1)
    ]
    assert_stack_matches_one(seqs, dev)


def kind_of(layer):
    return {CliffordLayer: "clifford", PauliLayer: "pauli", Unitary1qLayer: "unitary"}[type(layer)]


def test_dm_run_refuses_stacks_of_mixed_layouts():
    # a stack holds one layout: each position one kind, with rows of the
    # register's width, one per sequence or one for all
    pauli = np.zeros((3, 2, 4), dtype=np.uint8)
    for bad in (
        ("pauli", np.zeros((2, 2, 4), dtype=np.uint8)),  # another number of sequences
        ("pauli", np.zeros((3, 2, 3), dtype=np.uint8)),  # another register
        ("clifford", np.zeros((3, 2, 4), dtype=np.uint8)),  # Pauli rows as a Clifford layer
        ("measure", np.zeros((3, 4), dtype=np.uint8)),  # no such kind
        ("unitary", np.zeros((0, 4, 2, 2), dtype=complex)),  # no sequences
    ):
        with pytest.raises(ValueError, match="position 2"):
            SequenceStack(4, (("pauli", pauli), ("gates", (0, 2)), bad))
    shared = SequenceStack(4, (("clifford", np.zeros((1, 4), dtype=np.uint8)), ("pauli", pauli)))
    assert shared.size == 3 and shared.rows(1, 2).layers[1][1].shape == (1, 2, 4)


def test_dressed_cycle_choi_fidelity_is_pinned():
    # the value of the Hilbert-space kernel this one replaced
    rng = np.random.default_rng(12)
    dev = random_device(4, rng)
    block = fully_connected_gate(dev, (0, 2), (1,), rng)
    assert choi_process_fidelity(dressed_cycle_channel(dev, block), 4) == pytest.approx(0.5884760583627113, abs=1e-12)


@pytest.mark.parametrize("key", [[14, True]], ids=["True"])  # the key and id this case has always had
def test_choi_process_fidelity_matches_matrix_unit_sum(key):
    # the row route on coefficients against the sum of <i| L(|i><j|) |j> on matrices
    rng = np.random.default_rng(key)
    for _ in range(3):
        dev = random_device(4, rng)
        blocks = [GateBlock.parallel_cz(dev, (0, 2)), fully_connected_gate(dev, (0, 2), (1,), rng)]
        for block in blocks:
            for channel in (block_noise_channel, dressed_cycle_channel):
                step = channel(dev, block)
                expected = matrix_unit_choi_fidelity(matrix_channel(step, 4), 4)
                assert choi_process_fidelity(step, 4) == pytest.approx(expected, abs=1e-12)


def test_dressed_cycle_choi_fidelity_is_pinned_on_three_gate_6q():
    # the oracle perfbench checks optimize_6q_dm against
    from cabbench.cli import load_device

    dev = load_device("three_gate_6q")
    block = GateBlock.parallel_cz(dev, (0, 1, 2))
    assert choi_process_fidelity(dressed_cycle_channel(dev, block), 6) == pytest.approx(0.7457957636317121, abs=1e-12)


def test_choi_process_fidelity_checks_the_qubit_limit_first():
    calls = []
    with pytest.raises(ResourceLimitError):
        choi_process_fidelity(calls.append, CHOI_QUBIT_LIMIT + 1)
    assert calls == []
