"""Exact infinite-shot survivals of the stochastic Pauli noise model.

This is the referee for the stabilizer sampler: ``stab_run_counts`` draws
shots from the model whose expectations ``exact_survivals`` computes with no
shot noise.  It walks the observable, not the faults.  Z_w is propagated
backwards through the ideal layers (Heisenberg picture, U^dagger O U with
the layers' 2x2 matrices and the CZ rule); at every noise location it
multiplies in that channel's eigenvalue on the propagated Pauli:

- d_q for single-qubit depolarizing when the Pauli acts on q;
- p_eff for gate depolarizing when it acts on the pair;
- sum_i weights[i] (-1)^popcount(i & x-bits on the support) for a twirled
  coupling channel;
- prod_{q in w} (1 - 2 e_q) for symmetric readout.

Because every sequence closes to the identity, the propagated observable is
Z_w again at the start, where its expectation on |0...0> is 1.

``assert_seed_ensemble`` referees an estimator and its SE over seeds
against an exact value.
"""

from functools import lru_cache

import numpy as np

from helpers import CliffordLayer, GateLayer, PauliLayer, clifford_matrices

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def _letter(p: np.ndarray) -> tuple[int, int]:
    """(x, z) bits of a 2x2 matrix that is +-X^x Z^z up to a phase."""
    if abs(p[0, 1]) > 0.5:
        return 1, int(abs(p[0, 1] - p[1, 0]) > 0.5)
    return 0, int(abs(p[0, 0] - p[1, 1]) > 0.5)


@lru_cache(maxsize=None)
def _heisenberg_images() -> np.ndarray:
    """(24, X|Z, (x, z)) bits of U^dagger X U and U^dagger Z U per Clifford."""
    out = np.zeros((24, 2, 2), dtype=bool)
    for e, u in enumerate(clifford_matrices()):
        for i, p in enumerate((_X, _Z)):
            out[e, i] = _letter(u.conj().T @ p @ u)
    return out


def exact_survivals(seq, device, masks) -> np.ndarray:
    """E[(-1)^(w.outcome)] for each mask w (qubit 0 = most significant bit)."""
    e0, e1 = np.asarray(device.readout_e0), np.asarray(device.readout_e1)
    if not np.array_equal(e0, e1):
        raise ValueError("the exact oracle needs symmetric readout (e0 == e1)")
    n = seq.n
    masks = np.asarray(masks, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1)
    w_bits = ((masks[:, None] >> shifts) & 1).astype(bool)
    x = np.zeros_like(w_bits)
    z = w_bits.copy()
    value = np.prod(np.where(z, 1.0 - 2.0 * e0, 1.0), axis=1)
    for layer in reversed(seq.layers):
        # the layer's noise acts just after it, on the observable as it is here
        if isinstance(layer, GateLayer):
            for g in layer.gates:
                spec = device.gates[g]
                acts = (x[:, list(spec.pair)] | z[:, list(spec.pair)]).any(axis=1)
                value = value * np.where(acts, spec.effective_depol_p(), 1.0)
            for ch in device.layer_twirl_channels(layer.gates):
                k = len(ch.support)
                xs = (x[:, list(ch.support)].astype(np.int64) << np.arange(k - 1, -1, -1)).sum(axis=1)
                parity = np.bitwise_count(np.arange(2**k)[None, :] & xs[:, None]) & 1
                signs = 1.0 - 2.0 * parity
                value = value * (signs * ch.weights[None, :]).sum(axis=1)
            for g in layer.gates:
                a, b = device.gates[g].pair
                # CZ^dagger X_a CZ = X_a Z_b
                z[:, a], z[:, b] = z[:, a] ^ x[:, b], z[:, b] ^ x[:, a]
        elif isinstance(layer, (CliffordLayer, PauliLayer)):
            value = value * np.prod(np.where(x | z, device.single_qubit_depol[:n], 1.0), axis=1)
            if isinstance(layer, CliffordLayer):
                img = _heisenberg_images()[layer.layer.elements]  # (n, X|Z, (x, z))
                x, z = (x & img[:, 0, 0]) ^ (z & img[:, 1, 0]), (x & img[:, 0, 1]) ^ (z & img[:, 1, 1])
        else:
            raise TypeError(f"the exact oracle cannot propagate through {type(layer).__name__}")
    if x.any() or not np.array_equal(z, w_bits):
        raise ValueError("sequence does not close to the identity")
    return value


def survival_z_scores(sampled, exact, k_s: int) -> np.ndarray:
    """(sampled - exact) / SE of a k_s-shot mean of +-1 outcomes.

    The SE is sqrt((1 - exact^2) / k_s).  Where it is 0 (exact = +-1) the
    sample must equal the exact value, and its z-score is 0.
    """
    sampled, exact = np.asarray(sampled, dtype=float), np.asarray(exact, dtype=float)
    var = np.clip(1.0 - exact**2, 0.0, None) / k_s
    certain = var == 0.0
    assert np.array_equal(sampled[certain], exact[certain]), "a certain survival was sampled wrong"
    return np.where(certain, 0.0, (sampled - exact) / np.sqrt(np.where(certain, 1.0, var)))


def assert_survivals_match(sampled, exact, k_s: int, z_bound: float = 5.0, std_range=(0.8, 1.2)) -> np.ndarray:
    """Sampled survivals are statistically equivalent to the exact ones.

    Every |z| <= ``z_bound``; with ``std_range`` set, the std of the z-scores
    also lies in it (a sampler with the wrong variance fails that even when
    no single z is large).  Returns the z-scores.
    """
    z = survival_z_scores(sampled, exact, k_s)
    worst = float(np.max(np.abs(z)))
    assert worst <= z_bound, f"max |z| = {worst:.2f} exceeds {z_bound}"
    if std_range is not None:
        std = float(np.std(z))
        assert std_range[0] <= std <= std_range[1], f"std of z = {std:.3f} is outside {std_range}"
    return z


def assert_seed_ensemble(estimates, ses, exact: float, c: float, std_range) -> np.ndarray:
    """Estimates over N seeds are unbiased and their SEs are calibrated.

    z = (estimate - exact) / SE per seed.  |mean z| <= c / sqrt(N) bounds the
    bias, and the std of z (ddof 1) must lie in ``std_range``: SEs that are
    too small or too large move it away from 1.  Returns the z-scores.
    """
    z = (np.asarray(estimates, dtype=float) - exact) / np.asarray(ses, dtype=float)
    assert np.all(np.isfinite(z)), "an estimate or SE is not finite"
    mean, std, bound = float(np.mean(z)), float(np.std(z, ddof=1)), c / np.sqrt(len(z))
    assert abs(mean) <= bound, f"mean z = {mean:+.3f} exceeds {bound:.3f} (N = {len(z)})"
    assert std_range[0] <= std <= std_range[1], f"std of z = {std:.3f} is outside {std_range}"
    return z
