import math

import numpy as np
import pytest

from cabbench.backends import ShotCounts, pack_bits
from cabbench.cab import (
    CabConfig,
    ConfigError,
    DegenerateFitError,
    FidelityEstimate,
    _aggregate,
    _estimate_from_surv,
    build_cab_sequence,
    estimate_fidelity,
    execute_cab_run,
    interleaved_pure_fidelity,
    run_cab_experiment,
    sample_observables,
    subset_fidelity,
)
from cabbench.circuits import CircuitSequence, CliffordLayer, GateBlock, PauliLayer
from cabbench.device import ControlPhases, CouplingMap, DeviceModel, GateSpec
from cabbench.paulis import PauliString

from helpers import aggregate_row, closes_to_identity, fit_quality_parameter, kq_for_accuracy


def plain_device(n=4, p=1.0, gamma=0.0, **kw):
    gates = tuple(GateSpec(pair=(2 * i, 2 * i + 1), depol_p=p) for i in range(n // 2))
    couplings = CouplingMap({(0, 1): gamma}) if gamma and n >= 4 else CouplingMap()
    return DeviceModel(n_qubits=n, gates=gates, couplings=couplings, **kw)


# -- sequence generation ------------------------------------------------------


def test_sequence_depth_zero_structure():
    dev = plain_device()
    block = GateBlock.parallel_cz(dev, (0, 1))
    seq = build_cab_sequence(block, 0, np.random.default_rng(0))
    assert len(seq.layers) == 3
    assert isinstance(seq.layers[0], CliffordLayer)
    assert isinstance(seq.layers[1], PauliLayer) and seq.layers[1].closing
    assert seq.layers[1].pauli.is_identity(up_to_phase=True)
    assert isinstance(seq.layers[2], CliffordLayer)
    assert closes_to_identity(seq, dev)


def test_sequence_depth_one_layer_order():
    dev = plain_device()
    block = GateBlock.parallel_cz(dev, (0, 1))
    seq = build_cab_sequence(block, 1, np.random.default_rng(1))
    kinds = [type(l).__name__ for l in seq.layers]
    assert kinds == [
        "CliffordLayer",
        "PauliLayer",
        "GateLayer",
        "PauliLayer",
        "GateLayer",
        "PauliLayer",
        "CliffordLayer",
    ]
    assert closes_to_identity(seq, dev)


def test_sequence_closure_random():
    dev = plain_device()
    block = GateBlock.parallel_cz(dev, (0, 1))
    for seed in range(8):
        seq = build_cab_sequence(block, 2, np.random.default_rng(seed))
        assert closes_to_identity(seq, dev)


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
    assert qp.lam == pytest.approx(0.9, abs=1e-12)
    assert not qp.flagged


def test_two_point_fit_flat():
    qp = fit_quality_parameter([(0, 0.7, 0.001), (2, 0.7, 0.001)])
    assert qp.lam == pytest.approx(1.0, abs=1e-12)


def test_two_point_fit_flags_negative_ratio():
    qp = fit_quality_parameter([(0, 0.5, 0.01), (2, -0.02, 0.01)])
    assert qp.flagged


def test_multidepth_fit_recovers_synthetic():
    rng = np.random.default_rng(7)
    a, lam, sigma = 0.95, 0.97, 1e-4
    recovered = []
    for _ in range(30):
        points = [(m, a * lam ** (2 * m) + rng.normal(0, sigma), sigma) for m in (0, 1, 2)]
        qp = fit_quality_parameter(points)
        recovered.append((qp.lam, qp.se))
    lams = np.array([r[0] for r in recovered])
    ses = np.array([r[1] for r in recovered])
    assert abs(lams.mean() - lam) < 3 * ses.mean() / math.sqrt(len(lams))
    assert np.all(np.abs(lams - lam) < 5 * ses)


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


def test_interleaved_se_propagation():
    dress = FidelityEstimate(0.9548, 0.0002, "dressed")
    twirl = FidelityEstimate(0.9897, 0.0002, "twirl")
    pure = interleaved_pure_fidelity(dress, twirl, 4)
    inv = 4.0**-4
    expected = (pure.value - inv) * math.sqrt(
        (0.0002 / (0.9548 - inv)) ** 2 + (0.0002 / (0.9897 - inv)) ** 2
    )
    assert pure.se == pytest.approx(expected, rel=1e-12)


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
    data = execute_cab_run(dev, block, cfg, "dressed", tag=0)
    est = estimate_fidelity(data)
    assert abs(est.value - (1 + 15 * p) / 16) < 3 * est.se
    # the twirl layers are noiseless here, so dressed equals pure
    nontrivial = [qp.lam for qp in est.quality_params if qp.w_mask != 0]
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
        data = execute_cab_run(dev, block, cfg, "dressed", tag=0)
        errs.append(abs(estimate_fidelity(data).value - truth))
    assert errs[2] < errs[0]
    assert errs[2] < 2e-3


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
    with pytest.raises(ConfigError, match="backend"):
        CabConfig(backend="gpu")
