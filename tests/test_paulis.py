import numpy as np
import pytest

from cabbench.paulis import (
    DimensionError,
    LocalCliffordLayer,
    PauliString,
    pauli_multiply,
    sample_local_clifford,
    sample_random_pauli,
    single_qubit_cliffords,
)

from helpers import pauli_from_label, pauli_matrix, pauli_to_matrix, to_label


def random_pauli_with_phase(n, rng):
    p = sample_random_pauli(n, rng)
    return PauliString(n, p.x, p.z, int(rng.integers(0, 4)))


def test_multiply_x_times_z_gives_minus_i_y():
    p = pauli_from_label("XI")
    q = pauli_from_label("ZI")
    r = pauli_multiply(p, q)
    assert r.phase_exp == 3
    assert to_label(r) == "-iYI"


def test_multiply_identity_is_neutral():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = random_pauli_with_phase(3, rng)
        assert pauli_multiply(p, PauliString.identity(3)) == p
        assert pauli_multiply(PauliString.identity(3), p) == p


def test_z_squared_is_identity():
    z = pauli_from_label("Z")
    assert pauli_multiply(z, z) == PauliString.identity(1)


def test_multiply_matches_matrix_oracle():
    rng = np.random.default_rng(7)
    for _ in range(60):
        p = random_pauli_with_phase(3, rng)
        q = random_pauli_with_phase(3, rng)
        r = pauli_multiply(p, q)
        expected = pauli_to_matrix(p) @ pauli_to_matrix(q)
        assert np.allclose(pauli_to_matrix(r), expected, atol=1e-12)


def test_multiply_dimension_mismatch():
    with pytest.raises(DimensionError):
        pauli_multiply(PauliString.identity(2), PauliString.identity(3))


def test_weight_and_support():
    p = pauli_from_label("IXYZI")
    assert p.weight == 3
    assert list(p.support) == [1, 2, 3]
    assert PauliString.identity(4).weight == 0


def test_inverse_matches_matrix_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p = random_pauli_with_phase(2, rng)
        assert np.allclose(pauli_to_matrix(p.inverse()), np.linalg.inv(pauli_to_matrix(p)), atol=1e-12)


def test_sample_random_pauli_uniform():
    rng = np.random.default_rng(42)
    counts = np.zeros(4)
    draws = 40_000
    for _ in range(draws):
        p = sample_random_pauli(1, rng)
        counts[int(p.x[0]) + 2 * int(p.z[0])] += 1
    freqs = counts / draws
    assert np.all(np.abs(freqs - 0.25) < 0.01)
    # chi-square against uniform at a generous threshold
    chi2 = np.sum((counts - draws / 4) ** 2 / (draws / 4))
    assert chi2 < 25.0


def test_sample_random_pauli_marginals_uniform_n2():
    rng = np.random.default_rng(5)
    counts = np.zeros((2, 4))
    draws = 40_000
    for _ in range(draws):
        p = sample_random_pauli(2, rng)
        for q in range(2):
            counts[q, int(p.x[q]) + 2 * int(p.z[q])] += 1
    assert np.all(np.abs(counts / draws - 0.25) < 0.01)


def test_sample_random_pauli_deterministic():
    a = [sample_random_pauli(4, np.random.default_rng(11)) for _ in range(10)]
    b = [sample_random_pauli(4, np.random.default_rng(11)) for _ in range(10)]
    assert a == b


def test_single_qubit_clifford_group_structure():
    table = single_qubit_cliffords()
    # closure and inverse checks run at construction; spot-check matrices
    for e in range(24):
        m = table.matrix(e)
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
        inv = table.inverse(e)
        prod = m @ table.matrix(inv)
        # equal to identity up to global phase
        phase = prod[0, 0] if abs(prod[0, 0]) > 0.5 else prod[0, 1]
        assert np.allclose(prod, phase * np.eye(2), atol=1e-12)


def test_single_qubit_clifford_action_matches_matrices():
    table = single_qubit_cliffords()
    x = pauli_matrix("X")
    z = pauli_matrix("Z")
    y = pauli_matrix("Y")
    basis = {1: x, 2: z, 3: y}
    mats = {1: x, 2: z, 3: y}
    for e in range(24):
        m = table.matrix(e)
        for code, letter in ((1, x), (2, z), (3, y)):
            bx, bz, sgn = table.action[e, code]
            expected = m @ letter @ m.conj().T
            got = (-1) ** int(sgn) * mats[int(bx) + 2 * int(bz)]
            assert np.allclose(expected, got, atol=1e-12)


def test_single_qubit_clifford_compose_matches_matrix_products():
    table = single_qubit_cliffords()
    for a in range(24):
        for b in range(24):
            prod = table.matrix(a) @ table.matrix(b)
            ref = table.matrix(table.compose(a, b))
            phase = np.vdot(ref, prod) / 2  # equal up to a global phase
            assert np.allclose(prod, phase * ref, atol=1e-12)


def test_sample_local_clifford_uniform():
    rng = np.random.default_rng(9)
    draws = 24_000
    counts = np.zeros(24)
    for _ in range(draws):
        layer = sample_local_clifford(1, rng)
        counts[layer.elements[0]] += 1
    assert np.all(np.abs(counts / draws - 1 / 24) < 0.005)


def test_local_layer_inverse_composes_to_identity():
    rng = np.random.default_rng(13)
    for _ in range(10):
        layer = sample_local_clifford(5, rng)
        assert layer.inverse().compose(layer) == LocalCliffordLayer.identity(5)
        assert layer.compose(layer.inverse()) == LocalCliffordLayer.identity(5)


def test_sample_local_clifford_deterministic():
    a = sample_local_clifford(6, np.random.default_rng(2))
    b = sample_local_clifford(6, np.random.default_rng(2))
    assert a == b
