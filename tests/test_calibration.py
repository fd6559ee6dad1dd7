import math

import numpy as np
import pytest

from cabbench.analysis import closed_form_r3
from cabbench.cab import CabConfig
from cabbench.calibration import (
    NelderMeadOptions,
    NoSignalError,
    back_probability,
    calibrate_dynamic_phase,
    measure_conditional_phase,
    nelder_mead,
    optimize_parallel_cz,
    parallel_back_probability,
    two_qubit_clifford_words,
)
from cabbench.device import ControlPhases, CouplingMap, DeviceModel, GateSpec


def cz_device(control=None, depol_p=1.0, n=2, **kw):
    gates = [GateSpec(pair=(0, 1), depol_p=depol_p, control=control or ControlPhases())]
    if n >= 4:
        gates.append(GateSpec(pair=(2, 3), depol_p=depol_p))
    return DeviceModel(n_qubits=n, gates=tuple(gates), **kw)


BETAS = np.linspace(0, 2 * np.pi, 24, endpoint=False)
PHASES = np.linspace(0, 2 * np.pi, 256, endpoint=False)


def circ_dist(a, b):
    return abs((a - b + np.pi) % (2 * np.pi) - np.pi)


# -- conditional phase --------------------------------------------------------


def test_conditional_phase_ideal_cz():
    dev = cz_device()
    _, _, phi = measure_conditional_phase(dev, 0, BETAS)
    assert abs(phi - np.pi) < 1e-6


def test_conditional_phase_offset_injected():
    dev = cz_device(control=ControlPhases(cond_phase=0.2))
    _, _, phi = measure_conditional_phase(dev, 0, BETAS)
    assert abs(phi - (np.pi + 0.2)) < 1e-6


def test_conditional_phase_identity_like_gate():
    # cond_phase = -pi turns the gate diagonal into the identity
    dev = cz_device(control=ControlPhases(cond_phase=-np.pi))
    _, _, phi = measure_conditional_phase(dev, 0, BETAS)
    assert abs(phi) < 1e-6


def test_conditional_phase_robust_to_depol_and_readout():
    dev = cz_device(
        control=ControlPhases(cond_phase=0.1),
        depol_p=0.95,
        single_qubit_depol=0.995,
        readout_e0=0.01,
        readout_e1=0.04,
    )
    _, _, phi = measure_conditional_phase(dev, 0, BETAS)
    assert abs(phi - (np.pi + 0.1)) < 1e-3


# -- dynamic phase ------------------------------------------------------------


def test_dynamic_phase_zero_correction():
    dev = cz_device()
    corr = calibrate_dynamic_phase(dev, 0, 0, PHASES)
    assert circ_dist(corr, 0.0) < 2 * np.pi / len(PHASES) + 1e-12


def test_dynamic_phase_injected_theta():
    dev = cz_device(control=ControlPhases(dyn_i=0.3))
    corr = calibrate_dynamic_phase(dev, 0, 0, PHASES)
    assert circ_dist(corr, -0.3) < 2 * np.pi / len(PHASES) + 1e-12


def test_dynamic_phase_independent_of_partner():
    grids = PHASES
    corr_a = calibrate_dynamic_phase(cz_device(control=ControlPhases(dyn_i=0.4, dyn_j=0.0)), 0, 0, grids)
    corr_b = calibrate_dynamic_phase(cz_device(control=ControlPhases(dyn_i=0.4, dyn_j=1.1)), 0, 0, grids)
    assert circ_dist(corr_a, corr_b) < 2 * np.pi / len(grids) + 1e-12


def test_dynamic_phase_no_signal():
    dev = cz_device(depol_p=0.0)  # fully depolarizing gate: flat response
    with pytest.raises(NoSignalError):
        calibrate_dynamic_phase(dev, 0, 0, PHASES)


def test_calibration_idempotent():
    dev = cz_device(control=ControlPhases(cond_phase=0.17, dyn_i=0.31, dyn_j=-0.22))
    # first round
    _, _, phi = measure_conditional_phase(dev, 0, BETAS)
    d_cond = -(phi - np.pi)
    d_i = calibrate_dynamic_phase(dev, 0, 0, PHASES)
    d_j = calibrate_dynamic_phase(dev, 0, 1, PHASES)
    dev2 = dev.with_control_offsets({0: (d_cond, d_i, d_j)})
    # second round: corrections collapse to the grid scale
    _, _, phi2 = measure_conditional_phase(dev2, 0, BETAS)
    step = 2 * np.pi / len(PHASES)
    assert abs(phi2 - np.pi) < step
    assert circ_dist(calibrate_dynamic_phase(dev2, 0, 0, PHASES), 0.0) <= step + 1e-12
    assert circ_dist(calibrate_dynamic_phase(dev2, 0, 1, PHASES), 0.0) <= step + 1e-12


# -- back probability ---------------------------------------------------------


def test_two_qubit_clifford_enumeration_size():
    words, index = two_qubit_clifford_words()
    assert len(words) == 11520
    assert len(index) == 11520


def test_back_probability_perfect_device():
    dev = cz_device()
    rng = np.random.default_rng(0)
    p = back_probability(dev, 0, 4, 2000, rng)
    assert p == pytest.approx(1.0, abs=1e-9)


def test_back_probability_decays_with_length():
    dev = cz_device(depol_p=0.9, single_qubit_depol=0.99)
    rng = np.random.default_rng(1)
    values = []
    for length in (2, 4, 8):
        reps = [back_probability(dev, 0, length, 4000, np.random.default_rng(100 + r)) for r in range(6)]
        values.append(np.mean(reps))
    assert values[0] > values[1] > values[2]


def test_back_probability_differencing_on_identical_parameters():
    # same circuits, independent shots, same device: difference is pure
    # shot noise around zero
    dev = cz_device(depol_p=0.95)
    k_s = 4000
    diffs = []
    for r in range(10):
        a = back_probability(dev, 0, 3, k_s, np.random.default_rng(r), np.random.default_rng(1000 + r))
        b = back_probability(dev, 0, 3, k_s, np.random.default_rng(r), np.random.default_rng(2000 + r))
        diffs.append(a - b)
    se = math.sqrt(2 * 0.25 / k_s)
    assert abs(np.mean(diffs)) < 3 * se / math.sqrt(len(diffs))
    assert np.all(np.abs(diffs) < 5 * se)


def test_parallel_back_probability_disjoint_gates():
    dev = cz_device(n=4, depol_p=0.97)
    rng = np.random.default_rng(5)
    out = parallel_back_probability(dev, (0, 1), 3, 3000, rng)
    assert set(out) == {0, 1}
    for v in out.values():
        assert 0.5 < v <= 1.0


# -- Nelder-Mead --------------------------------------------------------------


def test_nelder_mead_quadratic():
    res = nelder_mead(lambda x: float((x[0] - 1.0) ** 2), np.array([0.0]))
    assert res.converged
    assert abs(res.x[0] - 1.0) < 1e-4


def test_nelder_mead_rosenbrock():
    def rosen(x):
        return float(100.0 * (x[1] - x[0] ** 2) ** 2 + (1.0 - x[0]) ** 2)

    res = nelder_mead(
        rosen, np.array([-1.2, 1.0]), NelderMeadOptions(initial_step=0.5, x_tol=1e-8, max_evals=500)
    )
    assert res.fx < 1e-3


def test_nelder_mead_noisy_quadratic():
    rng = np.random.default_rng(3)
    sigma = 0.002

    def noisy(x):
        return float(np.sum((x - 0.5) ** 2) + rng.normal(0, sigma))

    res = nelder_mead(
        noisy, np.zeros(2), NelderMeadOptions(initial_step=0.3, x_tol=1e-6, max_evals=400)
    )
    # converges into the noise-induced basin around the optimum
    assert np.all(np.abs(res.x - 0.5) < 3 * math.sqrt(sigma))


def test_nelder_mead_aborts_on_nonfinite():
    calls = {"n": 0}

    def bad(x):
        calls["n"] += 1
        return float("nan") if calls["n"] > 3 else float(np.sum(x**2))

    res = nelder_mead(bad, np.zeros(2))
    assert res.aborted
    assert len(res.history) == 4


@pytest.mark.parametrize(
    "window", [(100, 180), (0, 3), (1, 1), (-1, 2)], ids=["default", "past_end", "empty", "negative"]
)
def test_optimize_rejects_window_outside_iterations(window, monkeypatch):
    import cabbench.calibration as calibration

    def no_run(*args, **kw):
        raise AssertionError("an iteration ran before the window was checked")

    monkeypatch.setattr(calibration, "run_cab_experiment", no_run)
    dev = cz_device(n=4)
    cfg = CabConfig(depths=(0, 2), k_r=4, k_s=100, mode="traverse", backend="dm")
    with pytest.raises(ValueError, match="window"):
        optimize_parallel_cz(dev, (0, 1), "global", cfg, 2, window=window)


# -- antagonism witness -------------------------------------------------------


def test_antagonism_of_local_fidelities():
    # with the third coupling strong, shrinking gamma12 raises F1 but lowers F2
    g13, g23 = 0.1, math.pi / 4 + 0.35
    p = (0.999, 0.999, 0.999)
    hi = closed_form_r3(*p, 0.30, g13, g23)
    lo = closed_form_r3(*p, 0.05, g13, g23)
    assert lo.f1 > hi.f1
    assert lo.f2 < hi.f2
