import hashlib
import math

import numpy as np
import pytest

from cabbench.backends import ShotCounts, pack_bits
from cabbench.cab import (
    CabConfig,
    ConfigError,
    DegenerateFitError,
    FidelityEstimate,
    CabRunData,
    _aggregate,
    _estimate_from_surv,
    build_cab_sequence,
    estimate_fidelity,
    execute_cab_run,
    interleaved_pure_fidelity,
    jackknife,
    jackknife_se,
    run_cab_experiment,
    sample_observables,
    subset_fidelity,
)
from cabbench.backends import dm_run, stab_run_counts
from cabbench.cab import build_cb_sequence
from cabbench.circuits import GateBlock
from cabbench.cli import load_device
from cabbench.device import ControlPhases, CouplingMap, DeviceModel, GateSpec
from cabbench.experiments import fully_connected_gate, ring_device
from cabbench.paulis import random_pauli_bits
from cabbench.tableau import gate_order

from helpers import (
    ODD_REGISTER_5Q,
    aggregate_row,
    cab_sequences_one,
    cb_sequences_one,
    closes_to_identity,
    delta_method_lambda_se,
    fit_quality_parameter,
    kq_for_accuracy,
    observable_sampling_variance,
    sequences_of,
    stack_of,
)


def plain_device(n=4, p=1.0, gamma=0.0, **kw):
    gates = tuple(GateSpec(pair=(2 * i, 2 * i + 1), depol_p=p) for i in range(n // 2))
    couplings = CouplingMap({(0, 1): gamma}) if gamma and n >= 4 else CouplingMap()
    return DeviceModel(n_qubits=n, gates=gates, couplings=couplings, **kw)


# -- sequence generation ------------------------------------------------------


def test_sequence_depth_zero_structure():
    dev = plain_device()
    block = GateBlock.parallel_cz(dev, (0, 1))
    stack = build_cab_sequence(block, 0, [np.random.default_rng(0)])
    assert [kind for kind, _ in stack.layers] == ["clifford", "pauli", "clifford"]
    assert not stack.layers[1][1].any()  # no twirling Paulis: the closing Pauli is the identity
    (seq,) = sequences_of(stack)
    assert closes_to_identity(seq, dev)


def test_sequence_depth_one_layer_order():
    dev = plain_device()
    block = GateBlock.parallel_cz(dev, (0, 1))
    stack = build_cab_sequence(block, 1, [np.random.default_rng(1)])
    assert [kind for kind, _ in stack.layers] == ["clifford", "pauli", "gates", "pauli", "gates", "pauli", "clifford"]
    (seq,) = sequences_of(stack)
    assert closes_to_identity(seq, dev)


def test_sequence_closure_random():
    dev = plain_device()
    block = GateBlock.parallel_cz(dev, (0, 1))
    stack = build_cab_sequence(block, 2, [np.random.default_rng(seed) for seed in range(8)])
    assert stack.size == 8
    for seq in sequences_of(stack):
        assert closes_to_identity(seq, dev)


# -- stack builders against the per-sequence builders ----------------------------


def _builder_device(name):
    if name == "odd_5q":
        return DeviceModel.from_dict(ODD_REGISTER_5Q)
    if name == "fully_connected_6q":
        return ring_device(6, gate_depol=0.97, single_qubit_depol=0.995, readout_e0=0.01, readout_e1=0.04)
    return load_device(name)


def assert_stack_is_the_reference(stack, seqs, dev, shared_prep=False):
    """Every array of the stack is the per-sequence builder's, row for row;
    every shared row is shared there too (a CB prep is shared only in the
    stack); and both backends give the same bits on both forms."""
    ref = stack_of(seqs)
    assert stack.n == ref.n and stack.size == ref.size == len(seqs)
    assert [kind for kind, _ in stack.layers] == [kind for kind, _ in ref.layers]
    for i, ((kind, data), (_, ref_data)) in enumerate(zip(stack.layers, ref.layers)):
        if kind == "gates":
            assert data == ref_data
            continue
        assert data.dtype == ref_data.dtype
        if shared_prep and kind == "clifford" and i in (0, len(stack.layers) - 1):
            assert len(data) == 1
            data = np.broadcast_to(data, ref_data.shape)
        assert np.array_equal(data, ref_data) and data.shape == ref_data.shape, i
    if stack.n <= 6:
        assert np.array_equal(dm_run(stack, dev), dm_run(ref, dev))
    shots = [[np.random.default_rng([3, k]) for k in range(stack.size)] for _ in range(2)]
    got, expected = stab_run_counts(stack, dev, 300, shots[0]), stab_run_counts(ref, dev, 300, shots[1])
    for name in ("codes", "counts", "offsets"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("name", ["two_gate_4q", "three_gate_6q", "ring_44q", "odd_5q", "fully_connected_6q"])
def test_cab_stack_builder_matches_the_per_sequence_builder(name, m):
    dev = _builder_device(name)
    if name == "fully_connected_6q":
        block = fully_connected_gate(dev, (0, 1, 2), (3, 4, 5), np.random.default_rng(6))
        assert any(kind == "clifford" and len(data) == 1 for kind, data in block.layers)
    else:
        block = GateBlock.parallel_cz(dev, tuple(range(len(dev.gates))))
    for twirl in (False, True):
        b = GateBlock.identity(dev.n_qubits) if twirl else block
        rngs, ref_rngs = ([np.random.default_rng([17, m, k]) for k in range(3)] for _ in range(2))
        stack = build_cab_sequence(b, m, rngs)
        assert_stack_is_the_reference(stack, cab_sequences_one(b, m, ref_rngs), dev)
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]


@pytest.mark.parametrize("name", ["two_gate_4q", "odd_5q", "fully_connected_6q"])
def test_cb_stack_builder_matches_the_per_sequence_builder(name):
    dev = _builder_device(name)
    if name == "fully_connected_6q":
        block = fully_connected_gate(dev, (0, 1, 2), (3, 4, 5), np.random.default_rng(6))
    else:
        block = GateBlock.parallel_cz(dev, tuple(range(len(dev.gates))))
    order = gate_order(block.tableau, cap=64)
    characters = [random_pauli_bits(dev.n_qubits, np.random.default_rng([7, ci])) for ci in range(3)]
    characters[0][:] = 0  # the identity character: identity preps
    for ci, char in enumerate(characters):
        rngs, ref_rngs = ([np.random.default_rng([29, ci, k]) for k in range(3)] for _ in range(2))
        stack = build_cb_sequence(block, char[None], 2 * order, order, rngs)
        assert_stack_is_the_reference(stack, cb_sequences_one(block, char, 2 * order, ref_rngs), dev, shared_prep=True)
        assert [r.bit_generator.state for r in rngs] == [r.bit_generator.state for r in ref_rngs]


@pytest.mark.parametrize("name", ["two_gate_4q", "odd_5q", "fully_connected_6q"])
def test_cb_stack_of_mixed_characters_matches_the_per_sequence_builder(name):
    # a cycle count's stack as run_cb_experiment builds it: two sequences of
    # each character in turn, the identity, X Y Z on qubits 0-2, and a drawn one
    dev = _builder_device(name)
    if name == "fully_connected_6q":
        block = fully_connected_gate(dev, (0, 1, 2), (3, 4, 5), np.random.default_rng(6))
    else:
        block = GateBlock.parallel_cz(dev, tuple(range(len(dev.gates))))
    n, order = dev.n_qubits, gate_order(block.tableau, cap=64)
    characters = np.zeros((3, 2, n), dtype=np.uint8)
    characters[1, 0, :3], characters[1, 1, :3] = (1, 1, 0), (0, 1, 1)
    characters[2] = random_pauli_bits(n, np.random.default_rng([7, 2]))
    rows = np.repeat(characters, 2, axis=0)
    rngs, ref_rngs = ([np.random.default_rng([29, k]) for k in range(len(rows))] for _ in range(2))
    stack = build_cb_sequence(block, rows, 2 * order, order, rngs)
    assert_stack_is_the_reference(stack, cb_sequences_one(block, rows, 2 * order, ref_rngs), dev)


def stack_digest(stack) -> str:
    """sha256 over every entry of a stack: its kind, then its gates or its array's dtype, shape and bytes."""
    h = hashlib.sha256()
    for kind, data in stack.layers:
        h.update(kind.encode())
        if kind == "gates":
            h.update(repr(data).encode())
        else:
            h.update(f"{data.dtype}{data.shape}".encode())
            h.update(np.ascontiguousarray(data).tobytes())
    return h.hexdigest()


# sha256 (``stack_digest``) of the stacks that the builders draw at seed 2026
# from three sequence streams each: the stack builders and their per-sequence
# references draw through the same ``random_pauli_bits`` and
# ``local_clifford_elements``, and no stab pin sees a sequence's Paulis, so
# only these and the dm pins see a change inside those two functions
STACK_DIGESTS = {
    ("cab", "two_gate_4q", 0, False): "36449964b08649fdaf53ca81037ffd2ecfb9546b177f16ec404d25b6b6c5099c",
    ("cab", "two_gate_4q", 0, True): "36449964b08649fdaf53ca81037ffd2ecfb9546b177f16ec404d25b6b6c5099c",
    ("cab", "two_gate_4q", 2, False): "318a5ca0dcaac0fe0b5218313a7d4b6a2662189d36c876c8d2b739bf7ef2d51e",
    ("cab", "two_gate_4q", 2, True): "395c39038f5260d4e65b3897646e0a7241e1879c23a55f11aa5844db9d1b6ac3",
    ("cab", "ring_44q", 0, False): "af1f3f908e74d592ead3fc1737c10c605b6eca07e1d27557f5c1ce9de9ab7b95",
    ("cab", "ring_44q", 0, True): "af1f3f908e74d592ead3fc1737c10c605b6eca07e1d27557f5c1ce9de9ab7b95",
    ("cab", "ring_44q", 2, False): "b7c941c6672ec69ae3b6816d86ae9dbddbfeb8dc0dd072aa4d469800635e073c",
    ("cab", "ring_44q", 2, True): "729f10ee838307006ae7c6f4c48863f39caeb2588a726f9f6e2079a390f4529b",
    ("cab", "odd_5q", 0, False): "af85e6ffdcd25a77d36d66816985e369f127805ca44b420d5562421c59f8a89c",
    ("cab", "odd_5q", 0, True): "af85e6ffdcd25a77d36d66816985e369f127805ca44b420d5562421c59f8a89c",
    ("cab", "odd_5q", 2, False): "fe2b280db903280203f02a5193f3aa639308efe6ac56bf0264742669e509c03d",
    ("cab", "odd_5q", 2, True): "29608a7ba0dec1da260b98d5648b4f6b375c1d5c2e4cfcbe104ac09271bc7225",
    ("cb", "two_gate_4q", 0, False): "ea1400674d47f05d3ca556722e10caa5bfdbd9ade498013f3e14d286623aadd7",
    ("cb", "two_gate_4q", 0, True): "ea1400674d47f05d3ca556722e10caa5bfdbd9ade498013f3e14d286623aadd7",
    ("cb", "two_gate_4q", 2, False): "bc9a488b32940f2f130475b311e99ab55cdca46eb7974c6f7f88b9a979614739",
    ("cb", "two_gate_4q", 2, True): "cde4ec4fc0f88aebb55f851085d6ba45a640d6fc475f95aeb094b18371ef1583",
    ("cb", "ring_44q", 0, False): "bf40e3b9c12d5fbf3975b08349a1e912e453df78f0bc40bb499f663d0500c825",
    ("cb", "ring_44q", 0, True): "bf40e3b9c12d5fbf3975b08349a1e912e453df78f0bc40bb499f663d0500c825",
    ("cb", "ring_44q", 2, False): "fdb4d875826e6e8a8f72bb89c2f2c21d136e374291b9c63d818eb313770922f4",
    ("cb", "ring_44q", 2, True): "e160a950af522f4432c5f407ed78d3b344280f8facc276ff82e617436312bbc1",
    ("cb", "odd_5q", 0, False): "0612e79fd833bb415dfb8f494993671d63b37199ce5b760823ffe87ce6592f5b",
    ("cb", "odd_5q", 0, True): "0612e79fd833bb415dfb8f494993671d63b37199ce5b760823ffe87ce6592f5b",
    ("cb", "odd_5q", 2, False): "027ef12dcd622f98df5dd1645c17044f16d06a25d771187e137c4632107e5188",
    ("cb", "odd_5q", 2, True): "2e79b72089cdf0cd94f9561a2a8f4cb5dcea603144c846d7c1ef3b5a8adf81e9",
}


@pytest.mark.parametrize("protocol, name, m, twirl", sorted(STACK_DIGESTS))
def test_stack_arrays_are_pinned(protocol, name, m, twirl):
    dev = _builder_device(name)
    block = GateBlock.identity(dev.n_qubits) if twirl else GateBlock.parallel_cz(dev, tuple(range(len(dev.gates))))
    rngs = [np.random.default_rng([2026, m, k]) for k in range(3)]
    if protocol == "cab":
        stack = build_cab_sequence(block, m, rngs)
    else:
        # m cycles of one drawn character; every block here has order 1 or 2
        char = random_pauli_bits(dev.n_qubits, np.random.default_rng([2026, 7]))
        stack = build_cb_sequence(block, char[None], m, gate_order(block.tableau, cap=2), rngs)
    assert stack_digest(stack) == STACK_DIGESTS[protocol, name, m, twirl]


# -- observable sampling ------------------------------------------------------


def test_observable_bit_probability():
    rng = np.random.default_rng(2)
    masks = sample_observables(1, 40_000, rng)
    assert abs(np.mean(masks == 1) - 0.75) < 0.01


def test_observable_pair_probability():
    rng = np.random.default_rng(3)
    masks = sample_observables(2, 40_000, rng)
    assert abs(np.mean(masks == 0b11) - 9 / 16) < 0.01


def test_observable_mean_weight():
    rng = np.random.default_rng(4)
    masks = sample_observables(8, 20_000, rng)
    weights = np.bitwise_count(masks).astype(float)
    assert abs(weights.mean() - 6.0) < 0.05


# -- survivals ----------------------------------------------------------------


def test_survival_all_zero_counts():
    c = ShotCounts(3, 50, pack_bits(np.zeros((1, 3), dtype=np.uint8)), np.array([50]))
    assert c.survivals(np.array([0, 1, 0b101, 0b111])) == pytest.approx(1.0)


def test_survival_uniform_counts_vanishes():
    bits = np.array([[b >> 1 & 1, b & 1] for b in range(4)], dtype=np.uint8)
    c = ShotCounts(2, 400, pack_bits(bits), np.full(4, 100))
    assert c.survivals(np.array([0b01, 0b11])) == pytest.approx(0.0)


def test_survival_hand_value():
    c = ShotCounts(2, 100, pack_bits(np.array([[0, 0], [1, 1]], dtype=np.uint8)), np.array([60, 40]))
    assert c.survivals(np.array([0b01]))[0, 0] == pytest.approx(0.2)


# -- fitting ------------------------------------------------------------------


def test_two_point_fit_exact():
    qp = fit_quality_parameter([(0, 0.8, 0.001), (2, 0.52488, 0.001)], w_mask=3)
    assert qp["lam"] == pytest.approx(0.9, abs=1e-12)
    assert not qp["flagged"]


def test_two_point_fit_flat():
    qp = fit_quality_parameter([(0, 0.7, 0.001), (2, 0.7, 0.001)])
    assert qp["lam"] == pytest.approx(1.0, abs=1e-12)


def test_two_point_fit_flags_negative_ratio():
    qp = fit_quality_parameter([(0, 0.5, 0.01), (2, -0.02, 0.01)])
    assert qp["flagged"]


def test_multidepth_fit_recovers_synthetic():
    # one fit gives no SE: the SE's coverage is checked over seeds
    # (test_multidepth_se_matches_the_spread_over_seeds)
    rng = np.random.default_rng(7)
    a, lam, sigma = 0.95, 0.97, 1e-4
    lams = np.array([
        fit_quality_parameter([(m, a * lam ** (2 * m) + rng.normal(0, sigma), sigma) for m in (0, 1, 2)])["lam"]
        for _ in range(30)
    ])
    spread = lams.std(ddof=1)
    assert abs(lams.mean() - lam) < 3 * spread / math.sqrt(len(lams))
    assert np.all(np.abs(lams - lam) < 5 * spread)


def test_lambda_se_at_two_depths_tracks_the_delta_method():
    # each mask's lambda SE is the jackknife of its delete-one fits; at two
    # depths it estimates what the delta method did.  The range of the
    # median ratio was fixed before the first run
    dev = load_device("two_gate_4q")
    cfg = CabConfig(depths=(0, 2), k_r=20, k_s=1000, mode="traverse", seed=11, backend="dm")
    data = execute_cab_run(dev, GateBlock.parallel_cz(dev, (0, 1)), cfg, "dressed")
    q = estimate_fidelity(data).quality_params
    delta = delta_method_lambda_se(2.0 * np.array(cfg.depths), data.depth_means(), data.depth_ses())
    keep = (q["w_mask"] != 0) & ~q["flagged"]
    assert keep.sum() == 15
    assert 0.8 < np.median(q["se"][keep] / delta[keep]) < 1.25


@pytest.mark.parametrize("depths", [(0, 2), (0, 1, 2, 4)])
def test_sequence_replicate_is_the_estimate_without_that_sequence(depths):
    # the replicates and the value are one estimator: past two depths the
    # delete-one fits are weighted by their own depth SEs, as the full fit
    # is, and each mask's lambda SE is the jackknife of those fits
    dev = load_device("two_gate_4q")
    cfg = CabConfig(depths=depths, k_r=6, k_s=500, mode="traverse", seed=4, backend="dm")
    data = execute_cab_run(dev, GateBlock.parallel_cz(dev, (0, 1)), cfg, "dressed")
    est = estimate_fidelity(data)
    exponents = 2.0 * np.array(depths, dtype=float)
    weights = 3.0 ** np.bitwise_count(data.masks) / 4.0**4
    without = [
        _estimate_from_surv(np.delete(data.surv, k, axis=1), data.masks, exponents, weights, "dressed")
        for k in range(cfg.k_r)
    ]
    assert est.replicates["sequence"] == pytest.approx([e.value for e in without], rel=1e-12)
    q = est.quality_params
    lam_k = np.array([e.quality_params["lam"] for e in without])
    assert not q["flagged"].any() and np.isfinite(lam_k).all()
    g = cfg.k_r
    expected = np.sqrt((g - 1) / g * np.sum((lam_k - lam_k.mean(axis=0)) ** 2, axis=0))
    assert q["se"] == pytest.approx(expected, rel=1e-9, abs=1e-15)
    assert q["se"][0] == 0.0


def test_multidepth_se_matches_the_spread_over_seeds():
    # past two depths each delete-one fit is weighted by its own depth SEs,
    # as the full fit is; the range was fixed before the first run (the SD
    # of 40 values has a relative SE of about 0.11)
    dev = load_device("two_gate_4q")
    block = GateBlock.parallel_cz(dev, (0, 1))
    values, ses = [], []
    for seed in range(7000, 7040):
        cfg = CabConfig(depths=(0, 1, 2, 4), k_r=20, k_s=1000, mode="traverse", seed=seed, backend="dm")
        est = estimate_fidelity(execute_cab_run(dev, block, cfg, "dressed"))
        values.append(est.value)
        ses.append(est.se)
    ratio = np.mean(ses) / np.std(values, ddof=1)
    assert 0.75 < ratio < 1.35, ratio


@pytest.mark.parametrize("q", [1, 7, 8, 9, 16, 17, 130, 300, 4096])
def test_aggregate_rows_match_the_per_row_reference(q):
    # numpy sums pairwise in blocks of eight, and recursively past 128 terms:
    # every row must keep the grouping of its own 1-d sum
    rng = np.random.default_rng(q)
    kept = sorted({0, 1, q // 3, q // 2, q - 1, q, *rng.integers(0, q + 1, size=6).tolist()})
    flagged = np.ones((2 * len(kept), q), dtype=bool)
    for row, k in enumerate(kept * 2):
        flagged[row, rng.choice(q, size=k, replace=False)] = False
    flagged = flagged[rng.permutation(len(flagged))]
    lam = np.where(flagged, np.nan, rng.uniform(0.3, 1.0, size=flagged.shape))
    for weights in (np.full(q, 1.0 / q), 3.0 ** rng.integers(0, 7, size=q) / 4.0**6):
        expected = [aggregate_row(l, weights, f) for l, f in zip(lam, flagged)]
        assert np.array_equal(_aggregate(lam, weights, flagged), expected, equal_nan=True)


def test_estimate_refuses_when_only_the_identity_is_left():
    masks = np.arange(4, dtype=np.int64)
    surv = np.ones((2, 3, 4))
    surv[1, :, 1:] = -0.5  # every non-identity survival changes sign
    with pytest.raises(DegenerateFitError, match="identity"):
        _estimate_from_surv(surv, masks, np.array([0.0, 2.0]), np.full(4, 0.25), "dressed")
    surv[1, :, 3] = 0.5
    est = _estimate_from_surv(surv, masks, np.array([0.0, 2.0]), np.full(4, 0.25), "dressed")
    assert est.n_flagged == 2


def test_flagged_and_identity_masks_write_a_zero_lambda_se():
    # mask 2's full fit is flagged, yet two of its delete-one fits are not;
    # its lambda SE is still 0.0, as the identity's is
    masks = np.arange(4, dtype=np.int64)
    surv = np.ones((2, 5, 4))
    surv[1, :, 1] = [0.8, 0.82, 0.79, 0.81, 0.8]
    surv[1, :, 2] = [-0.5, -0.45, 0.3, 0.3, 0.3]
    surv[1, :, 3] = [0.6, 0.62, 0.58, 0.61, 0.6]
    est = _estimate_from_surv(surv, masks, np.array([0.0, 2.0]), np.full(4, 0.25), "dressed")
    q = est.quality_params
    assert q["flagged"].tolist() == [False, False, True, False]
    assert q["se"][0] == 0.0 and q["se"][2] == 0.0
    assert np.all(q["se"][[1, 3]] > 0)


# -- scalar formulas ----------------------------------------------------------


def test_kq_for_accuracy_values():
    assert kq_for_accuracy(0.1, 0.05) == 738
    assert kq_for_accuracy(1.0, 2 / math.e**2) == 4
    with pytest.raises(ValueError):
        kq_for_accuracy(0.0, 0.05)
    with pytest.raises(ValueError):
        kq_for_accuracy(0.5, 2.0)


def test_interleaved_formula_table_row():
    dress = FidelityEstimate(0.9548, 0.0, "dressed")
    twirl = FidelityEstimate(0.9897, 0.0, "twirl")
    pure = interleaved_pure_fidelity(dress, twirl, 4)
    assert pure.value == pytest.approx(0.9647, abs=3e-4)
    assert pure.se == 0.0


def test_interleaved_perfect_twirl():
    dress = FidelityEstimate(0.91, 0.002, "dressed")
    twirl = FidelityEstimate(1.0, 0.0, "twirl")
    pure = interleaved_pure_fidelity(dress, twirl, 3)
    assert pure.value == pytest.approx(0.91, abs=1e-12)


def test_jackknife_treats_an_estimate_without_replicates_as_a_constant():
    reps = np.array([0.90, 0.92, np.nan, 0.91])
    est = FidelityEstimate(0.91, 0.0, "dressed", replicates={"sequence": reps})
    const = FidelityEstimate(0.5, 0.0, "twirl")
    value, se, out = jackknife(lambda a, b: a * b, est, const)
    assert value == 0.91 * 0.5
    assert np.array_equal(out["sequence"], reps * 0.5, equal_nan=True)
    good = reps[np.isfinite(reps)] * 0.5
    assert se == pytest.approx(math.sqrt(2 / 3 * np.sum((good - good.mean()) ** 2)), rel=1e-15)
    # two groups add their variances
    both = FidelityEstimate(0.91, 0.0, "dressed", replicates={"sequence": reps, "observable": reps[::-1]})
    assert jackknife_se(both.replicates) == pytest.approx(math.sqrt(2) * jackknife_se(est.replicates), rel=1e-15)
    with pytest.raises(ValueError, match="broadcast"):
        jackknife(lambda a, b: a * b, est, FidelityEstimate(0.5, 0.0, "twirl", replicates={"sequence": reps[:3]}))


def sample_report(**over):
    dev = plain_device(p=0.97, gamma=0.05, single_qubit_depol=0.998, readout_e0=0.02, readout_e1=0.02)
    block = GateBlock.parallel_cz(dev, (0, 1))
    cfg = CabConfig(depths=(0, 2), k_r=12, k_s=2000, mode="sample", k_q=40, seed=3, subsets=((0,), (0, 1)))
    return run_cab_experiment(dev, block, cfg, **over)


def test_pure_replicates_are_the_interleaved_formula_of_the_run_replicates():
    rep = sample_report()
    d4 = 4.0**4
    assert set(rep.pure.replicates) == {"sequence", "observable"}
    for group, pure in rep.pure.replicates.items():
        dress, twirl = rep.dressed.replicates[group], rep.twirl.replicates[group]
        assert len(pure) == len(dress) == len(twirl) == {"sequence": 12, "observable": 40}[group]
        for k in range(len(pure)):
            fd, ft = float(dress[k]), float(twirl[k])
            assert pure[k] == (d4 * fd - 1.0) / (d4 * ft - 1.0) * (1.0 - 1.0 / d4) + 1.0 / d4
    assert rep.pure.se == jackknife_se(rep.pure.replicates)
    # a subset's runs are traversed: sequence replicates only
    res = rep.subsets[(0, 1)]
    assert set(res.pure.replicates) == {"sequence"}
    for k, p in enumerate(res.pure.replicates["sequence"]):
        fd, ft = float(res.dressed.replicates["sequence"][k]), float(res.twirl.replicates["sequence"][k])
        assert p == (d4 * fd - 1.0) / (d4 * ft - 1.0) * (1.0 - 1.0 / d4) + 1.0 / d4


def test_pure_equals_dressed_without_a_twirl_run():
    rep = sample_report(measure_twirl=False)
    assert rep.twirl.replicates == {}
    assert rep.pure.value == pytest.approx(rep.dressed.value, rel=1e-12)
    assert rep.pure.se == pytest.approx(rep.dressed.se, rel=1e-12)
    for key, res in rep.subsets.items():
        assert res.pure.value == pytest.approx(res.dressed.value, rel=1e-12)
        assert res.pure.se == pytest.approx(res.dressed.se, rel=1e-12)


def test_observable_replicates_match_the_variance_of_lambda():
    rep = sample_report()
    for est in (rep.dressed, rep.twirl):
        q = est.quality_params
        assert est.n_flagged == 0
        reference = observable_sampling_variance(q["lam"], q["flagged"])
        assert est.metadata["se_observable_sampling"] ** 2 == pytest.approx(reference, rel=1e-12)
        sequence = est.metadata["se_jackknife"]
        assert est.se**2 == pytest.approx(sequence**2 + reference, rel=1e-12)


def test_leaving_out_a_flagged_mask_gives_the_full_value():
    rng = np.random.default_rng(8)
    masks = np.array([0, 1, 2, 3, 5, 6], dtype=np.int64)
    surv = rng.uniform(0.5, 0.9, (2, 4, len(masks)))
    surv[1, :, [2, 4]] = -0.1  # two masks whose survival changes sign
    data = CabRunData(3, "dressed", (0, 2), 4, 100, "sample", masks, surv, [], "dm")
    est = estimate_fidelity(data)
    q = est.quality_params
    assert q["flagged"].tolist() == [False, False, True, False, True, False]
    weights = np.full(len(masks), 1 / len(masks))
    for k, r in enumerate(est.replicates["observable"]):
        drop = q["flagged"] | (np.arange(len(masks)) == k)
        assert r == (est.value if q["flagged"][k] else aggregate_row(q["lam"], weights, drop))


# -- end-to-end estimation ----------------------------------------------------


def test_perfect_device_all_ones():
    dev = plain_device()
    block = GateBlock.parallel_cz(dev, (0, 1))
    cfg = CabConfig(depths=(0, 2), k_r=5, k_s=200, mode="traverse", seed=0)
    rep = run_cab_experiment(dev, block, cfg)
    for est in (rep.dressed, rep.twirl, rep.pure):
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.se == pytest.approx(0.0, abs=1e-12)


def test_pure_depolarizing_traverse_value():
    p = 0.9
    dev = DeviceModel(n_qubits=2, gates=(GateSpec(pair=(0, 1), depol_p=p),))
    block = GateBlock.parallel_cz(dev, (0,))
    cfg = CabConfig(depths=(0, 2), k_r=40, k_s=20_000, mode="traverse", seed=5)
    data = execute_cab_run(dev, block, cfg, "dressed")
    est = estimate_fidelity(data)
    assert abs(est.value - (1 + 15 * p) / 16) < 3 * est.se
    # the twirl layers are noiseless here, so dressed equals pure
    nontrivial = est.quality_params["lam"][est.quality_params["w_mask"] != 0]
    assert np.allclose(nontrivial, p, atol=5 * est.se + 0.01)


def test_sample_mode_agrees_with_traverse():
    dev = plain_device(p=0.97, single_qubit_depol=0.998)
    block = GateBlock.parallel_cz(dev, (0, 1))
    base = dict(depths=(0, 2), k_r=30, k_s=5_000, seed=9)
    rep_t = run_cab_experiment(dev, block, CabConfig(mode="traverse", **base))
    rep_s = run_cab_experiment(dev, block, CabConfig(mode="sample", k_q=1000, **base))
    combined = math.hypot(rep_t.dressed.se, rep_s.dressed.se)
    assert abs(rep_t.dressed.value - rep_s.dressed.value) < 3 * combined


def test_subset_single_gate_perfect():
    dev = plain_device()
    block = GateBlock.parallel_cz(dev, (0, 1))
    cfg = CabConfig(depths=(0, 2), k_r=5, k_s=200, mode="traverse", seed=1, subsets=((0,),))
    rep = run_cab_experiment(dev, block, cfg)
    assert rep.subsets[(0,)].pure.value == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize(
    "n, gates, subset",
    [(4, (0, 1), (7,)), (6, (0,), (2,))],
    ids=["unknown_gate", "gate_outside_block"],
)
def test_subsets_outside_block_rejected_before_running(n, gates, subset, monkeypatch):
    import cabbench.cab as cab

    def no_run(*args, **kw):
        raise AssertionError("a sequence ran before the subsets were checked")

    monkeypatch.setattr(cab, "execute_cab_run", no_run)
    dev = plain_device(n=n, p=0.99)
    block = GateBlock.parallel_cz(dev, gates)
    cfg = CabConfig(depths=(0, 2), k_r=4, k_s=100, mode="traverse", subsets=(subset,))
    with pytest.raises(ValueError, match="subsets"):
        run_cab_experiment(dev, block, cfg)


def test_subset_product_law_uncorrelated():
    dev = plain_device(p=0.96, gamma=0.0)
    block = GateBlock.parallel_cz(dev, (0, 1))
    cfg = CabConfig(
        depths=(0, 2), k_r=40, k_s=10_000, mode="traverse", seed=2, subsets=((0,), (1,), (0, 1))
    )
    rep = run_cab_experiment(dev, block, cfg)
    f0 = rep.subsets[(0,)].pure
    f1 = rep.subsets[(1,)].pure
    f01 = rep.subsets[(0, 1)].pure
    prod = f0.value * f1.value
    se = math.hypot(f01.se, math.hypot(f0.se * f1.value, f1.se * f0.value))
    assert abs(f01.value - prod) < 3 * se


def test_subset_coupled_gate_matches_cos2():
    gamma = 0.1
    dev = plain_device(p=1.0, gamma=gamma)
    block = GateBlock.parallel_cz(dev, (0, 1))
    cfg = CabConfig(depths=(0, 2), k_r=40, k_s=10_000, mode="traverse", seed=3, subsets=((0,),))
    rep = run_cab_experiment(dev, block, cfg)
    est = rep.subsets[(0,)].pure
    assert abs(est.value - np.cos(gamma) ** 2) < 3 * max(est.se, 1e-4)


def test_spam_robustness():
    base = dict(p=0.97, gamma=0.05, single_qubit_depol=0.998)
    dev_clean = plain_device(**base)
    dev_spam = plain_device(**base, readout_e0=0.05, readout_e1=0.05)
    block = GateBlock.parallel_cz(dev_clean, (0, 1))
    cfg = CabConfig(depths=(0, 2), k_r=40, k_s=10_000, mode="traverse", seed=4)
    rep_clean = run_cab_experiment(dev_clean, block, cfg)
    rep_spam = run_cab_experiment(dev_spam, GateBlock.parallel_cz(dev_spam, (0, 1)), cfg)
    combined = math.hypot(rep_clean.dressed.se, rep_spam.dressed.se)
    assert abs(rep_clean.dressed.value - rep_spam.dressed.value) < 3 * combined


def test_estimator_consistency_in_shots():
    from cabbench.backends import choi_process_fidelity, dressed_cycle_channel

    dev = plain_device(p=0.95, gamma=0.08, single_qubit_depol=0.9968)
    block = GateBlock.parallel_cz(dev, (0, 1))
    truth = choi_process_fidelity(dressed_cycle_channel(dev, block), 4)
    errs = []
    for k_s in (1_000, 10_000, 100_000):
        cfg = CabConfig(depths=(0, 2), k_r=30, k_s=k_s, mode="traverse", seed=6)
        data = execute_cab_run(dev, block, cfg, "dressed")
        errs.append(abs(estimate_fidelity(data).value - truth))
    assert errs[2] < errs[0]
    assert errs[2] < 2e-3


def test_stab_understates_the_sequence_spread_of_a_coherent_device():
    # stab samples every coherent diagonal error's Pauli twirl: exact for the
    # mean over CAB's random Paulis, but each dm sequence sees the coherent
    # ZZ and control errors untwirled, so the exact runs spread more.  The
    # ratio range was fixed before the test first ran.
    dev = load_device("three_gate_6q")
    block = GateBlock.parallel_cz(dev, (0, 1, 2))
    means = {}
    for backend in ("dm", "stab"):
        means[backend] = np.array(
            [
                run_cab_experiment(
                    dev,
                    block,
                    CabConfig(depths=(0, 2), k_r=40, k_s=2_000, mode="traverse", seed=seed, backend=backend),
                    measure_twirl=False,
                ).dressed.value
                for seed in range(100, 130)
            ]
        )
    sd = {backend: float(np.std(v, ddof=1)) for backend, v in means.items()}
    se_diff = math.sqrt((sd["dm"] ** 2 + sd["stab"] ** 2) / 30)
    assert abs(means["dm"].mean() - means["stab"].mean()) < 3 * se_diff
    assert 1.5 <= sd["dm"] / sd["stab"] <= 4.5


def test_reports_are_deterministic():
    dev = plain_device(p=0.98, gamma=0.1, single_qubit_depol=0.999)
    block = GateBlock.parallel_cz(dev, (0, 1))
    cfg = CabConfig(depths=(0, 2), k_r=10, k_s=1_000, mode="traverse", seed=77)
    a = run_cab_experiment(dev, block, cfg)
    b = run_cab_experiment(dev, block, cfg)
    assert a.dressed.value == b.dressed.value
    assert a.twirl.se == b.twirl.se
    assert a.pure.value == b.pure.value


def test_config_validation():
    with pytest.raises(ValueError):
        CabConfig(depths=(1, 1))
    with pytest.raises(ValueError):
        CabConfig(depths=(0, -2))
    with pytest.raises(ValueError):
        CabConfig(k_r=0)
    with pytest.raises(ValueError, match="k_r"):
        CabConfig(k_r=1)
    with pytest.raises(ValueError):
        CabConfig(mode="sample", k_q=0)
    # one observable leaves no spread to take an observable-sampling SE from
    with pytest.raises(ConfigError, match="k_q"):
        CabConfig(mode="sample", k_q=1)
    CabConfig(mode="sample", k_q=2)
    CabConfig(mode="traverse", k_q=1)
    with pytest.raises(ConfigError, match="backend"):
        CabConfig(backend="gpu")


def test_execute_cab_run_takes_its_stream_tag_from_the_kind():
    dev = plain_device(p=0.95, gamma=0.08, single_qubit_depol=0.99)
    block = GateBlock.parallel_cz(dev, (0, 1))
    twirl_block = GateBlock.identity(block.n)
    cfg = CabConfig(depths=(0, 2), k_r=4, k_s=200, mode="sample", k_q=5, seed=3)
    rep = run_cab_experiment(dev, block, cfg)
    dressed = execute_cab_run(dev, block, cfg, "dressed")
    twirl = execute_cab_run(dev, twirl_block, cfg, "twirl")
    for got, want in ((dressed, rep.dressed_data), (twirl, rep.twirl_data)):
        assert got.kind == want.kind
        assert np.array_equal(got.masks, want.masks)
        assert np.array_equal(got.surv, want.surv)
    # the twirl stream is not the dressed one on the same block
    assert not np.array_equal(execute_cab_run(dev, twirl_block, cfg, "dressed").surv, twirl.surv)
    with pytest.raises(ValueError, match="kind"):
        execute_cab_run(dev, block, cfg, "pure")
