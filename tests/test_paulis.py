import hashlib

import numpy as np
import pytest

from cabbench.paulis import local_clifford_elements, random_pauli_bits, single_qubit_cliffords

from helpers import (
    LETTERS,
    X2,
    Y2,
    Z2,
    PauliString,
    clifford_matrices,
    pauli_from_label,
    pauli_multiply,
    pauli_to_matrix,
    to_label,
)


def random_pauli_with_phase(n, rng):
    p = PauliString.draw(n, rng)
    return PauliString(n, p.x, p.z, int(rng.integers(0, 4)))


# pauli_multiply is the tests' product: XOR of the letters, and each qubit's
# phase from the package's letter product table


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


def test_sample_random_pauli_uniform():
    rng = np.random.default_rng(42)
    counts = np.zeros(4)
    draws = 40_000
    for _ in range(draws):
        x, z = random_pauli_bits(1, rng)
        counts[int(x[0]) + 2 * int(z[0])] += 1
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
        x, z = random_pauli_bits(2, rng)
        for q in range(2):
            counts[q, int(x[q]) + 2 * int(z[q])] += 1
    assert np.all(np.abs(counts / draws - 0.25) < 0.01)


def test_sample_random_pauli_deterministic():
    a = [random_pauli_bits(4, np.random.default_rng(11)) for _ in range(10)]
    b = [random_pauli_bits(4, np.random.default_rng(11)) for _ in range(10)]
    assert all(np.array_equal(x, y) for x, y in zip(a, b))


# the table's canonical order: sha256 over action, compose_table and
# inverse_table, as the sorted key list builds them
CLIFFORD_TABLE_DIGEST = "92ae510c27b664db583437df9982b6d0b219c434a29ecd2ffea96b4d31196260"


def test_single_qubit_clifford_table_is_pinned():
    table = single_qubit_cliffords()
    h = hashlib.sha256()
    for a in (table.action, table.compose_table, table.inverse_table):
        h.update(a.tobytes())
    assert h.hexdigest() == CLIFFORD_TABLE_DIGEST
    assert table.identity_index == 8
    assert (table.action.dtype, table.compose_table.dtype, table.inverse_table.dtype) == (np.uint8,) * 3


def test_each_anticommuting_signed_letter_pair_is_one_element():
    # the X and Z images of a Clifford anticommute, as X and Z do, and each
    # of the 24 such ordered pairs of signed letters (6 firsts, 4 seconds
    # each) is the image pair of exactly one element
    signed = [(x, z, s) for x, z in ((1, 0), (0, 1), (1, 1)) for s in (0, 1)]
    mats = {key: (-1) ** key[2] * LETTERS["IXZY"[key[0] + 2 * key[1]]] for key in signed}
    pairs = sorted(
        (p, q) for p in signed for q in signed if np.allclose(mats[p] @ mats[q], -mats[q] @ mats[p], atol=1e-12)
    )
    assert len(pairs) == 24
    action = single_qubit_cliffords().action
    images = sorted((tuple(action[e, 1].tolist()), tuple(action[e, 2].tolist())) for e in range(24))
    assert images == pairs


def test_single_qubit_clifford_action_matches_matrices():
    table = single_qubit_cliffords()
    for e, m in enumerate(clifford_matrices()):
        for code, letter in ((1, X2), (2, Z2), (3, Y2)):
            bx, bz, sgn = table.action[e, code]
            expected = m @ letter @ m.conj().T
            got = (-1) ** int(sgn) * LETTERS["IXZY"[int(bx) + 2 * int(bz)]]
            assert np.allclose(expected, got, atol=1e-12)
        assert table.action[e, 0].tolist() == [0, 0, 0]


def test_single_qubit_clifford_compose_matches_matrix_products():
    table = single_qubit_cliffords()
    mats = clifford_matrices()
    for a in range(24):
        for b in range(24):
            prod = mats[a] @ mats[b]
            ref = mats[table.compose_table[a, b]]
            phase = np.vdot(ref, prod) / 2  # equal up to a global phase
            assert np.allclose(prod, phase * ref, atol=1e-12)


def test_single_qubit_clifford_group_structure():
    table = single_qubit_cliffords()
    mats = clifford_matrices()
    # closure and inverse checks run at construction; spot-check matrices
    assert np.allclose(mats[table.identity_index], np.eye(2), atol=1e-12)
    for e in range(24):
        m = mats[e]
        assert np.allclose(m @ m.conj().T, np.eye(2), atol=1e-12)
        prod = m @ mats[table.inverse_table[e]]
        # equal to identity up to global phase
        phase = prod[0, 0] if abs(prod[0, 0]) > 0.5 else prod[0, 1]
        assert np.allclose(prod, phase * np.eye(2), atol=1e-12)


@pytest.mark.parametrize("letter", ["X", "Y", "Z"])
def test_find_z_preparation_is_the_first_element_mapping_z_to_the_letter(letter):
    x, z = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}[letter]
    mats = clifford_matrices()
    prepares = [np.allclose(m @ Z2 @ m.conj().T, LETTERS[letter], atol=1e-12) for m in mats]
    assert single_qubit_cliffords().z_preparation[x + 2 * z] == prepares.index(True)


def test_sample_local_clifford_uniform():
    rng = np.random.default_rng(9)
    draws = 24_000
    counts = np.zeros(24)
    for _ in range(draws):
        counts[local_clifford_elements(1, rng)[0]] += 1
    assert np.all(np.abs(counts / draws - 1 / 24) < 0.005)


def test_local_layer_inverse_composes_to_identity():
    table = single_qubit_cliffords()
    rng = np.random.default_rng(13)
    for _ in range(10):
        layer = local_clifford_elements(5, rng)
        inverse = table.inverse_table[layer]
        assert np.all(table.compose_table[inverse, layer] == table.identity_index)
        assert np.all(table.compose_table[layer, inverse] == table.identity_index)


def test_sample_local_clifford_deterministic():
    a = local_clifford_elements(6, np.random.default_rng(2))
    b = local_clifford_elements(6, np.random.default_rng(2))
    assert np.array_equal(a, b)
