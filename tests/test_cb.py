import math

import numpy as np
import pytest

from cabbench import cab
from cabbench.cab import (
    CabConfig,
    UnsupportedGateError,
    _estimate_from_surv,
    build_cb_sequence,
    estimate_fidelity,
    execute_cab_run,
    run_cb_experiment,
)
from cabbench.circuits import GateBlock
from cabbench.device import ControlPhases, DeviceModel, GateSpec
from cabbench.experiments import fully_connected_gate, ring_device
from cabbench.paulis import random_pauli_bits
from cabbench.tableau import gate_order

from helpers import closes_to_identity, phase_gate, sequences_of


def cz_device(p=1.0, control=None, **kw):
    return DeviceModel(
        n_qubits=2,
        gates=(GateSpec(pair=(0, 1), depol_p=p, control=control or ControlPhases()),),
        **kw,
    )


def test_cb_perfect_device():
    dev = cz_device()
    block = GateBlock.parallel_cz(dev, (0,))
    cfg = CabConfig(depths=(5, 10), k_r=10, k_s=500, seed=0, backend="dm")
    est = run_cb_experiment(dev, block, cfg, cycles=(2, 4), n_chars=5)
    assert est.value == pytest.approx(1.0, abs=1e-9)


def test_cb_agrees_with_cab_on_noisy_cz():
    dev = cz_device(p=0.97, control=ControlPhases(0.05, 0.02, 0.0), single_qubit_depol=0.998)
    block = GateBlock.parallel_cz(dev, (0,))
    cfg = CabConfig(depths=(5, 10), k_r=25, k_s=20_000, mode="traverse", seed=3, backend="dm")
    cab = estimate_fidelity(execute_cab_run(dev, block, cfg, "dressed"))
    cb = run_cb_experiment(dev, block, cfg, cycles=(10, 20), n_chars=5)
    combined = math.hypot(cab.se, cb.se)
    assert abs(cab.value - cb.value) < 3 * combined + 3e-3


def test_cb_runs_one_stack_per_cycle_count(monkeypatch):
    # every character's sequences of a cycle count run as one stack, so one
    # backend call per cycle count (one stack per character would make 20)
    sizes = []
    run_counts = cab._run_counts

    def spy(stack, *args):
        sizes.append(stack.size)
        return run_counts(stack, *args)

    monkeypatch.setattr(cab, "_run_counts", spy)
    dev = cz_device(p=0.97)
    cfg = CabConfig(k_r=20, k_s=100, seed=0, backend="dm")
    run_cb_experiment(dev, GateBlock.parallel_cz(dev, (0,)), cfg, cycles=(2, 4), n_chars=10)
    assert sizes == [20, 20]


def test_cb_rejects_bad_cycle_counts():
    dev = cz_device()
    block = GateBlock.parallel_cz(dev, (0,))
    cfg = CabConfig(depths=(5, 10), k_r=10, k_s=100, seed=0)
    with pytest.raises(UnsupportedGateError):
        run_cb_experiment(dev, block, cfg, cycles=(3, 6), n_chars=5)


def test_cb_rejects_large_order(monkeypatch):
    dev = cz_device()
    # phase gate has order 4 > the cap set here
    monkeypatch.setattr(cab, "CB_ORDER_CAP", 2)
    t = phase_gate(2, 0)
    block = GateBlock(
        name="s0", n=2, tableau=t, layers=(), inverse_layers=()
    )
    cfg = CabConfig(depths=(5, 10), k_r=10, k_s=100, seed=0)
    with pytest.raises(UnsupportedGateError, match="exceeds 2"):
        run_cb_experiment(dev, block, cfg, cycles=(4, 8), n_chars=5)


@pytest.mark.parametrize("n", [2, 4, 6])
def test_cb_sequence_closes_to_identity(n):
    rng = np.random.default_rng(n)
    if n == 2:
        dev = cz_device()
        a_gates, b_gates = (0,), (0,)
    else:
        dev = ring_device(n)
        a_gates, b_gates = tuple(range(n // 2)), tuple(range(n // 2, n))
    blocks = (GateBlock.parallel_cz(dev, a_gates), fully_connected_gate(dev, a_gates, b_gates, rng))
    for block in blocks:
        order = gate_order(block.tableau)
        for cycles in (order, 2 * order):
            for _ in range(3):
                (seq,) = sequences_of(build_cb_sequence(block, random_pauli_bits(n, rng)[None], cycles, order, [rng]))
                assert closes_to_identity(seq, dev)


def test_cb_rejects_single_sequence_per_character():
    dev = cz_device()
    block = GateBlock.parallel_cz(dev, (0,))
    cfg = CabConfig(depths=(5, 10), k_r=5, k_s=100, seed=0)
    with pytest.raises(ValueError, match="k_r // n_chars"):
        run_cb_experiment(dev, block, cfg, cycles=(2, 4), n_chars=5)


def cb_oracle(surv, char_masks, cycles):
    """CB estimate written out: two-point fits, plain mean, jackknife over the group.

    ``surv`` has shape (cycles, characters, group).  Returns the value, its
    SE, and per-character lambda, SE and flags; a character's SE is the
    jackknife of its delete-one lambda over the group's finite ones, 0.0
    for a flagged character.
    """
    dx = cycles[1] - cycles[0]
    identity = char_masks == 0

    def lambdas(fbar):
        ratio = fbar[1] / fbar[0]
        flagged = ~identity & ~(ratio > 0)
        lam = np.where(identity, 1.0, np.where(flagged, np.nan, np.abs(ratio) ** (1.0 / dx)))
        return lam, flagged

    group = surv.shape[2]
    lam, flagged = lambdas(surv.mean(axis=2))
    jack, lk = [], []
    for k in range(group):
        lam_k, fk = lambdas(np.delete(surv, k, axis=2).mean(axis=2))
        jack.append(np.mean(lam_k[~fk]))
        lk.append(lam_k)
    lam_se = []
    for c, reps in enumerate(np.array(lk).T):
        good = reps[np.isfinite(reps)]
        g = len(good)
        lam_se.append(0.0 if flagged[c] or g < 2 else np.sqrt((g - 1) / g * np.sum((good - good.mean()) ** 2)))
    jack = np.array(jack)
    se = np.sqrt((group - 1) / group * np.sum((jack - jack.mean()) ** 2))
    return np.mean(lam[~flagged]), se, lam, np.array(lam_se), flagged


@pytest.mark.parametrize("case", ["flagged", "identity"])
def test_cb_estimator_matches_written_out_formulas(case):
    rng = np.random.default_rng(11)
    cycles = (4, 8)
    char_masks = np.array([3, 5, 6, 9, 12] if case == "flagged" else [0, 5, 6, 9, 12], dtype=np.int64)
    true_lam = np.array([0.99, 0.97, 0.95, 0.98, 0.96])
    group = 6
    surv = np.empty((len(cycles), len(char_masks), group))
    for d, c in enumerate(cycles):
        surv[d] = 0.9 * true_lam[:, None] ** c + 0.02 * rng.standard_normal((len(char_masks), group))
    if case == "flagged":
        surv[1, 2] = -0.05 + 0.01 * rng.standard_normal(group)
    else:
        surv[:, 0] = 1.0

    est = _estimate_from_surv(
        surv.transpose(0, 2, 1), char_masks, np.asarray(cycles, dtype=float), np.ones(len(char_masks)), "dressed"
    )
    value, se, lam, lam_se, flagged = cb_oracle(surv, char_masks, cycles)
    assert flagged.any() == (case == "flagged")
    assert est.value == pytest.approx(value, abs=1e-12)
    assert est.se == pytest.approx(se, abs=1e-12)
    assert est.n_flagged == int(flagged.sum())
    assert est.quality_params["w_mask"].tolist() == char_masks.tolist()
    assert est.quality_params["flagged"].tolist() == flagged.tolist()
    got_lam = est.quality_params["lam"]
    assert np.allclose(got_lam[~flagged], lam[~flagged], rtol=0, atol=1e-12)
    assert np.allclose(est.quality_params["se"], lam_se, rtol=0, atol=1e-12)
