import math
from types import SimpleNamespace

import numpy as np
import pytest

from cabbench.analysis import (
    CorrelationReport,
    FidelityDomainError,
    LANDSCAPE_GAMMA12_VALUES,
    analytic_fidelity,
    closed_form_r3,
    correlation,
    correlation_landscape,
    correlation_matrix,
    correlation_stats,
)
from cabbench.cab import CabConfig, FidelityEstimate, jackknife_se, run_cab_experiment
from cabbench.circuits import GateBlock
from cabbench.cli import load_device
from cabbench.device import CouplingMap

from helpers import closed_form_r2, pairwise_correlation_strong_depol_limit, small_coupling_correlation


def test_correlation_zero_when_product():
    assert correlation(0.81, [0.9, 0.9]) == pytest.approx(0.0, abs=1e-15)


def test_correlation_hand_value():
    c = correlation(0.88, [0.94, 0.94])
    assert c == pytest.approx(-0.004083, abs=2e-6)


def test_correlation_domain_error():
    for f_joint, f_parts in ((0.0, [0.9]), (0.9, [0.9, -0.1]), (0.9, [0.0, 0.9]), (-0.2, [0.9]), (math.nan, [0.9])):
        with pytest.raises(FidelityDomainError):
            correlation(f_joint, f_parts)


@pytest.mark.parametrize(
    "f_joint, f_parts",
    [(1.02, [1.01, 1.005]), (0.95, [1.0006, 0.97])],
    ids=["joint_above_1", "part_above_1"],
)
def test_correlation_takes_fidelities_above_one(f_joint, f_parts):
    # sampling noise can push an estimate past 1; the formula needs only f > 0
    prod = math.prod(f_parts)
    assert correlation(f_joint, f_parts) == (f_joint - prod) / math.sqrt(f_joint * prod)


def test_small_coupling_values_match_reported_magnitudes():
    assert small_coupling_correlation(0.1) == pytest.approx(0.010017, abs=1e-6)
    assert small_coupling_correlation(0.033) == pytest.approx(0.00109, abs=1e-5)


# -- closed forms r = 2 -------------------------------------------------------


def test_r2_decoupled_limit():
    forms = closed_form_r2(0.9, 0.95, 0.0, variant=2)
    assert forms.correlation == pytest.approx(0.0, abs=1e-15)
    assert forms.f1 == pytest.approx(0.9 + 0.1 / 4)
    forms4 = closed_form_r2(0.9, 0.95, 0.0, variant=4)
    assert forms4.f1 == pytest.approx(0.9 + 0.1 / 16)


def test_r2_perfect_depol_correlation_is_sin_tan():
    for gamma in (0.033, 0.1, 0.3):
        for variant in (2, 4):
            forms = closed_form_r2(1.0, 1.0, gamma, variant=variant)
            assert forms.correlation == pytest.approx(small_coupling_correlation(gamma), rel=1e-12)


def test_r2_correlation_always_positive():
    gammas = np.linspace(0.01, np.pi / 2 - 0.01, 40)
    rng = np.random.default_rng(0)
    for _ in range(20):
        p1, p2 = rng.uniform(0.5, 1.0, size=2)
        assert all(closed_form_r2(p1, p2, g).correlation > 0 for g in gammas)


def test_r2_correlation_monotone():
    # strictly increasing on the whole interval in the p -> 1 limit; for
    # p < 1 the correlation returns to zero at gamma = pi/2, so strict
    # growth is checked on the physical sub-quarter-pi range there
    gammas_full = np.linspace(0.01, np.pi / 2 - 0.01, 40)
    vals = [closed_form_r2(1.0, 1.0, g).correlation for g in gammas_full]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    gammas_phys = np.linspace(0.01, np.pi / 4, 25)
    rng = np.random.default_rng(1)
    for _ in range(20):
        p1, p2 = rng.uniform(0.5, 1.0, size=2)
        vals = [closed_form_r2(p1, p2, g).correlation for g in gammas_phys]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_r2_d4_matches_general_formula():
    rng = np.random.default_rng(1)
    for _ in range(50):
        p1, p2 = rng.uniform(0.7, 1.0, size=2)
        gamma = rng.uniform(0.0, 0.4)
        couplings = CouplingMap({(0, 1): gamma})
        forms = closed_form_r2(p1, p2, gamma, variant=4)
        assert forms.f1 == pytest.approx(analytic_fidelity((0,), [p1, p2], couplings), abs=1e-13)
        assert forms.f2 == pytest.approx(analytic_fidelity((1,), [p1, p2], couplings), abs=1e-13)
        assert forms.f_both == pytest.approx(analytic_fidelity((0, 1), [p1, p2], couplings), abs=1e-13)


def test_r2_d2_matches_general_formula_with_dim2():
    rng = np.random.default_rng(2)
    for _ in range(20):
        p1, p2 = rng.uniform(0.7, 1.0, size=2)
        gamma = rng.uniform(0.0, 0.4)
        couplings = CouplingMap({(0, 1): gamma})
        forms = closed_form_r2(p1, p2, gamma, variant=2)
        assert forms.f1 == pytest.approx(analytic_fidelity((0,), [p1, p2], couplings, dims=2), abs=1e-13)
        assert forms.f_both == pytest.approx(
            analytic_fidelity((0, 1), [p1, p2], couplings, dims=2), abs=1e-13
        )


# -- closed forms r = 3 -------------------------------------------------------


def test_r3_decoupled_limit():
    forms = closed_form_r3(0.9, 0.92, 0.94, 0.0, 0.0, 0.0)
    for c in (forms.corr12, forms.corr13, forms.corr23):
        assert c == pytest.approx(0.0, abs=1e-15)
    assert forms.f1 == pytest.approx(0.9 + 0.1 / 16)
    assert forms.f_all == pytest.approx(math.prod([0.9 + 0.1 / 16, 0.92 + 0.08 / 16, 0.94 + 0.06 / 16]), abs=1e-12)


def test_r3_negative_correlation_when_third_coupling_strong():
    forms = closed_form_r3(0.999, 0.999, 0.999, 0.05, math.pi / 4 + 0.3, math.pi / 8)
    assert forms.corr12 < 0


def test_r3_reduces_to_r2_when_third_gate_decoupled():
    gamma = math.pi / 16
    forms = closed_form_r3(1.0, 1.0, 1.0, gamma, 0.0, 0.0)
    two = closed_form_r2(1.0, 1.0, gamma, variant=4)
    assert forms.corr12 == pytest.approx(two.correlation, rel=1e-12)
    assert forms.f12 == pytest.approx(two.f_both, rel=1e-12)


def test_r3_matches_general_formula():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p = rng.uniform(0.7, 1.0, size=3)
        g12, g13, g23 = rng.uniform(0.0, 0.5, size=3)
        couplings = CouplingMap({(0, 1): g12, (0, 2): g13, (1, 2): g23})
        forms = closed_form_r3(*p, g12, g13, g23)
        pl = list(p)
        assert forms.f1 == pytest.approx(analytic_fidelity((0,), pl, couplings), abs=1e-12)
        assert forms.f2 == pytest.approx(analytic_fidelity((1,), pl, couplings), abs=1e-12)
        assert forms.f3 == pytest.approx(analytic_fidelity((2,), pl, couplings), abs=1e-12)
        assert forms.f12 == pytest.approx(analytic_fidelity((0, 1), pl, couplings), abs=1e-12)
        assert forms.f13 == pytest.approx(analytic_fidelity((0, 2), pl, couplings), abs=1e-12)
        assert forms.f23 == pytest.approx(analytic_fidelity((1, 2), pl, couplings), abs=1e-12)
        assert forms.f_all == pytest.approx(analytic_fidelity((0, 1, 2), pl, couplings), abs=1e-12)


def test_strong_depol_limit_matches_exact_at_p1():
    rng = np.random.default_rng(4)
    for _ in range(20):
        g12, g13, g23 = rng.uniform(0.0, 0.6, size=3)
        exact = closed_form_r3(1.0, 1.0, 1.0, g12, g13, g23).corr12
        approx = pairwise_correlation_strong_depol_limit(g12, g13, g23)
        assert exact == pytest.approx(approx, rel=1e-10)


# -- general formula ----------------------------------------------------------


def test_analytic_fidelity_no_noise():
    couplings = CouplingMap()
    assert analytic_fidelity((0, 1), [1.0, 1.0], couplings) == pytest.approx(1.0)


def test_analytic_fidelity_product_law_at_zero_coupling():
    rng = np.random.default_rng(5)
    p = rng.uniform(0.7, 1.0, size=4).tolist()
    couplings = CouplingMap()
    f_each = [(1 + 15 * pi) / 16 for pi in p]
    for subset in [(0,), (1, 2), (0, 1, 2, 3)]:
        expected = math.prod(f_each[i] for i in subset)
        assert analytic_fidelity(subset, p, couplings) == pytest.approx(expected, abs=1e-13)


def test_analytic_fidelity_of_the_whole_ring_is_the_per_gate_product():
    # 22 gates, each its own coupling component: the work is per component
    dev = load_device("ring_44q")
    p = [g.effective_depol_p() for g in dev.gates]
    whole = analytic_fidelity(tuple(range(22)), p, CouplingMap())
    assert whole == pytest.approx(math.prod(analytic_fidelity((g,), p, CouplingMap()) for g in range(22)), rel=1e-12)
    assert whole == pytest.approx(0.6325898, abs=1e-7)


def test_analytic_fidelity_matches_dm_oracle():
    from cabbench.backends import block_noise_channel, choi_process_fidelity
    from cabbench.circuits import GateBlock
    from cabbench.device import DeviceModel, GateSpec
    from helpers import coefficient_step, matrix_channel, restricted_channel

    rng = np.random.default_rng(6)
    for _ in range(5):
        p = rng.uniform(0.8, 1.0, size=2)
        gamma = rng.uniform(0.0, 0.3)
        couplings = CouplingMap({(0, 1): gamma})
        dev = DeviceModel(
            n_qubits=4,
            gates=(GateSpec(pair=(0, 1), depol_p=p[0]), GateSpec(pair=(2, 3), depol_p=p[1])),
            couplings=couplings,
        )
        block = GateBlock.parallel_cz(dev, (0, 1))
        noise = matrix_channel(block_noise_channel(dev, block), 4)
        for subset, qubits in (((0,), (0, 1)), ((1,), (2, 3)), ((0, 1), (0, 1, 2, 3))):
            f_formula = analytic_fidelity(subset, list(p), couplings)
            restricted = coefficient_step(restricted_channel(noise, 4, qubits), len(qubits))
            f_choi = choi_process_fidelity(restricted, len(qubits))
            assert f_formula == pytest.approx(f_choi, abs=1e-10)


# -- landscape ----------------------------------------------------------------


def test_landscape_zero_plane():
    grid = np.linspace(0, 5 * math.pi / 16, 9)
    out = correlation_landscape(0.0, grid, grid)
    assert np.allclose(out, 0.0, atol=1e-14)


def test_landscape_sign_flips_across_quarter_pi():
    grid = np.array([math.pi / 8, math.pi / 4 + 0.2])
    out = correlation_landscape(math.pi / 16, grid, grid)
    assert out[0, 0] > 0  # both below pi/4
    assert out[0, 1] < 0  # one factor flips
    assert out[1, 0] < 0
    assert out[1, 1] > 0  # both flipped: product positive again


def test_landscape_symmetric_under_swap():
    grid = np.linspace(0.0, 5 * math.pi / 16, 7)
    for g12 in LANDSCAPE_GAMMA12_VALUES[1:3]:
        out = correlation_landscape(g12, grid, grid)
        assert np.allclose(out, out.T, atol=1e-12)


def test_landscape_grid_validation():
    with pytest.raises(ValueError):
        correlation_landscape(0.1, np.array([0.0]), np.array([0.0, 0.1]))


# -- fluctuation report arithmetic -------------------------------------------


COMBOS = [(0, 1), (0, 2), (1, 2), (0, 1, 2)]


def random_subset_fidelities(rng):
    return {s: float(rng.uniform(0.7, 1.0)) for s in [(0,), (1,), (2,), *COMBOS]}


@pytest.mark.parametrize("runs", [1, 2, 9, 10])
def test_correlation_stats_match_each_subsets_own_mean_and_sd(runs):
    # more than eight runs: numpy sums eight at a time, so a sum in another
    # order than the 1-d one's would move the last bits
    rng = np.random.default_rng(runs)
    fidelities = [random_subset_fidelities(rng) for _ in range(runs)]
    means, sds = correlation_stats(fidelities, COMBOS)
    for combo, mean, sd in zip(COMBOS, means, sds):
        values = np.array([correlation(f[combo], [f[(g,)] for g in combo]) for f in fidelities])
        assert mean == float(np.mean(values))
        assert sd == (float(np.std(values, ddof=1)) if runs > 1 else 0.0)


def test_correlation_stats_refuse_a_non_positive_fidelity():
    rng = np.random.default_rng(0)
    fidelities = [random_subset_fidelities(rng) for _ in range(3)]
    fidelities[1][(0, 2)] = -0.01
    with pytest.raises(FidelityDomainError):
        correlation_stats(fidelities, COMBOS)


def report_of_pures(pures: dict) -> SimpleNamespace:
    """A benchmark report as ``correlation_matrix`` reads it: each subset's
    pure estimate, from its value and its sequence replicates."""
    return SimpleNamespace(
        subsets={
            key: SimpleNamespace(pure=FidelityEstimate(v, 0.0, "pure", replicates={"sequence": np.asarray(r)}))
            for key, (v, r) in pures.items()
        }
    )


def test_correlation_matrix_takes_each_se_from_the_subset_replicates():
    rng = np.random.default_rng(12)
    pures = {}
    for key in [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)]:
        v = float(rng.uniform(0.7, 0.95))
        pures[key] = (v, v + rng.normal(0.0, 0.01, 8))
    pures[(1,)][1][3] = np.nan  # a replicate without a fit drops out
    matrix = correlation_matrix(report_of_pures(pures), load_device("three_gate_6q"))
    assert matrix.subsets == [(0, 1), (0, 2), (1, 2)]
    for pair, value, se in zip(matrix.subsets, matrix.values, matrix.ses):
        (vj, rj), parts = pures[pair], [pures[(g,)] for g in pair]
        assert value == correlation(vj, [v for v, _ in parts])
        reps = np.array([
            correlation(rj[k], [r[k] for _, r in parts]) if np.isfinite([rj[k], *(r[k] for _, r in parts)]).all()
            else np.nan
            for k in range(8)
        ])
        assert se == jackknife_se({"sequence": reps})
        assert np.isfinite(se) and se > 0


def test_lower_bound_arithmetic():
    # pair (0, 1) is resolved at 3 SE, pair (0, 2) is not
    pures = {
        (0,): (0.9, np.array([0.9, 0.9, 0.9])),
        (1,): (0.9, np.array([0.9, 0.9, 0.9])),
        (2,): (0.9, np.array([0.9, 0.9, 0.9])),
        (0, 1): (0.85, np.array([0.849, 0.85, 0.851])),
        (0, 2): (0.815, np.array([0.80, 0.815, 0.83])),
    }
    matrix = correlation_matrix(report_of_pures(pures), load_device("three_gate_6q"))
    (c01, c02), (se01, se02) = matrix.values, matrix.ses
    assert abs(c01) > 3 * se01 and abs(c02) < 3 * se02
    assert matrix.lower_bounds == [abs(c01) - 3 * se01, 0.0]


def test_one_run_correlation_se_matches_the_spread_over_seeds():
    # the ratio range was fixed before the first run: the SD over 40 seeds
    # has a relative SE of about 0.11, and the jackknife variance errs high
    dev = load_device("three_gate_6q")
    gates = (0, 1, 2)
    block = GateBlock.parallel_cz(dev, gates)
    combos = [(0, 1), (0, 2), (1, 2)]
    subsets = ((0,), (1,), (2,), *combos)
    fidelities, ses = [], []
    for seed in range(9000, 9040):
        cfg = CabConfig(depths=(0, 2), k_r=20, k_s=2000, mode="traverse", seed=seed, backend="dm", subsets=subsets)
        rep = run_cab_experiment(dev, block, cfg)
        fidelities.append({key: res.pure.value for key, res in rep.subsets.items()})
        ses.append(correlation_matrix(rep, dev).ses)
    _, sds = correlation_stats(fidelities, combos)
    rms_se = np.sqrt(np.mean(np.square(ses), axis=0))
    ratios = rms_se / np.array(sds)
    assert np.all((0.65 <= ratios) & (ratios <= 1.45)), ratios
