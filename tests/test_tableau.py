import numpy as np
import pytest

from cabbench import tableau
from cabbench.experiments import ring_fully_connected
from cabbench.paulis import local_clifford_elements
from cabbench.tableau import CliffordTableau, NonCliffordError, compile_inverse_pauli, gate_order

from helpers import (
    H2,
    S2,
    PauliString,
    clifford_matrices,
    commutes_with,
    conjugate,
    cz,
    cz_matrix,
    embed_1q,
    gate_order_by_squaring,
    gate_order_loop,
    hadamard,
    inverse,
    local_layer_tableau,
    orbit_sign_loop,
    pauli_bits,
    pauli_conjugation_tableau,
    pauli_from_label,
    pauli_multiply,
    pauli_of_bits,
    pauli_to_matrix,
    phase_gate,
    symplectic_ok,
    x_image,
    z_image,
)


def random_tableau(n, rng, depth=12):
    """Random word over {H, S, CZ}."""
    t = CliffordTableau.identity(n)
    mat = np.eye(2**n, dtype=complex)
    for _ in range(depth):
        kind = rng.integers(0, 3 if n > 1 else 2)
        if kind == 0:
            q = int(rng.integers(0, n))
            t = hadamard(n, q).compose(t)
            mat = embed_1q(n, q, H2) @ mat
        elif kind == 1:
            q = int(rng.integers(0, n))
            t = phase_gate(n, q).compose(t)
            mat = embed_1q(n, q, S2) @ mat
        else:
            a, b = rng.choice(n, size=2, replace=False)
            t = cz(n, int(a), int(b)).compose(t)
            mat = cz_matrix(n, int(a), int(b)) @ mat
    return t, mat


def test_cz_conjugates_x_to_xz():
    t = cz(2, 0, 1)
    img = conjugate(t, pauli_from_label("XI"))
    assert img == pauli_from_label("XZ")


def test_hadamard_conjugates_x_to_z():
    t = hadamard(1, 0)
    assert conjugate(t, pauli_from_label("X")) == pauli_from_label("Z")


def test_conjugate_identity_is_identity():
    rng = np.random.default_rng(0)
    for _ in range(5):
        t, _ = random_tableau(3, rng)
        assert conjugate(t, PauliString.identity(3)) == PauliString.identity(3)


def test_conjugate_matches_matrix_oracle():
    rng = np.random.default_rng(1)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        t, mat = random_tableau(n, rng)
        p = PauliString.draw(n, rng)
        img = conjugate(t, p)
        expected = mat @ pauli_to_matrix(p) @ mat.conj().T
        assert np.allclose(pauli_to_matrix(img), expected, atol=1e-10)


def test_conjugation_is_multiplicative():
    rng = np.random.default_rng(2)
    for _ in range(40):
        n = int(rng.integers(1, 5))
        t, _ = random_tableau(n, rng)
        p = PauliString.draw(n, rng)
        q = PauliString.draw(n, rng)
        lhs = pauli_multiply(conjugate(t, p), conjugate(t, q))
        rhs = conjugate(t, pauli_multiply(p, q))
        assert lhs == rhs


def test_symplectic_preservation_random_words():
    rng = np.random.default_rng(3)
    for _ in range(20):
        t, _ = random_tableau(4, rng, depth=20)
        assert symplectic_ok(t)
        for i in range(4):
            xi, zi = x_image(t, i), z_image(t, i)
            assert not commutes_with(xi, zi)
            for j in range(4):
                if j != i:
                    assert commutes_with(xi, x_image(t, j))
                    assert commutes_with(xi, z_image(t, j))


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(4)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        t, _ = random_tableau(n, rng)
        assert t.compose(inverse(t)).is_identity()
        assert inverse(t).compose(t).is_identity()


def test_compose_matches_matrix_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = 3
        a, mat_a = random_tableau(n, rng, depth=6)
        b, mat_b = random_tableau(n, rng, depth=6)
        combined = a.compose(b)  # b first, then a
        mat = mat_a @ mat_b
        p = PauliString.draw(n, rng)
        expected = mat @ pauli_to_matrix(p) @ mat.conj().T
        assert np.allclose(pauli_to_matrix(conjugate(combined, p)), expected, atol=1e-10)


def test_local_layer_tableau_matches_matrices():
    rng = np.random.default_rng(6)
    layer = local_clifford_elements(3, rng)
    t = local_layer_tableau(layer)
    mat = np.array([[1.0 + 0j]])
    for e in layer:
        mat = np.kron(mat, clifford_matrices()[e])
    p = PauliString.draw(3, rng)
    expected = mat @ pauli_to_matrix(p) @ mat.conj().T
    assert np.allclose(pauli_to_matrix(conjugate(t, p)), expected, atol=1e-10)


def test_gate_order_examples():
    assert gate_order(cz(2, 0, 1)) == 2
    assert gate_order(CliffordTableau.identity(3)) == 1
    assert gate_order(phase_gate(1, 0)) == 4
    assert gate_order(hadamard(1, 0)) == 2
    assert gate_order(phase_gate(1, 0), cap=3) is None


def test_gate_order_s_matches_matrix_power():
    # matrix oracle: smallest p with S^p proportional to the identity
    acc = np.eye(2, dtype=complex)
    smallest = None
    for p in range(1, 9):
        acc = acc @ S2
        if np.allclose(acc, acc[0, 0] * np.eye(2), atol=1e-12):
            smallest = p
            break
    assert smallest == 4
    assert gate_order(phase_gate(1, 0)) == smallest


# indices of ring_fully_connected draws, seed [n, 1], whose bit orders k run
# over several of gate_order's sign chunks or end one exactly (k a multiple
# of the powers per chunk), with orders k and 2k among them
LARGE_ORDER_DRAWS = {8: (5, 27, 34), 10: (4, 14, 22, 30), 12: (0, 2, 8, 19)}


@pytest.mark.parametrize("n", sorted(LARGE_ORDER_DRAWS))
def test_gate_order_matches_squaring_on_large_orders(n):
    rng = np.random.default_rng([n, 1])
    draws = [ring_fully_connected(n, rng)[0].tableau for _ in range(max(LARGE_ORDER_DRAWS[n]) + 1)]
    per_chunk = tableau._SIGN_CHUNK_ROWS // (2 * n)
    bit_orders, doubled = [], []
    for i in LARGE_ORDER_DRAWS[n]:
        t = draws[i]
        order, k = gate_order_by_squaring(t)
        assert gate_order(t) == order
        # the orbit sum's sign bits against one _images sign per power
        bits_order, sign = tableau._orbit_sign(t, k)
        assert bits_order == k and sign.any() == (order == 2 * k)
        np.testing.assert_array_equal(sign, orbit_sign_loop(t, k))
        for cap in (order - 1, order, k):
            assert gate_order(t, cap=cap) == (order if order <= cap else None)
        bit_orders.append(k)
        doubled.append(order == 2 * k)
    # the draws still cover what they were picked for
    assert max(bit_orders) > 2 * per_chunk if n > 8 else max(bit_orders) > per_chunk
    assert any(doubled) and not all(doubled)
    if n > 8:
        assert any(k % per_chunk == 0 and k > per_chunk for k in bit_orders)


def test_gate_order_refuses_bits_that_are_not_symplectic():
    # random bits, mostly not symplectic: gate_order checks the bits once,
    # where the route before it (gate_order_loop) returned None or an order
    # on many such inputs and raised only when some power's parity changed
    rng = np.random.default_rng(0)
    seen = set()
    for n in (1, 2, 3):
        for _ in range(2000):
            bits = rng.integers(0, 2, size=(2 * n, 2 * n + 1), dtype=np.uint8)
            t = CliffordTableau(n, bits[:, :n].copy(), bits[:, n : 2 * n].copy(), bits[:, 2 * n].copy())
            ok = symplectic_ok(t)
            for cap in (7, 300):
                try:
                    before = gate_order_loop(t, cap)
                except NonCliffordError:
                    assert not ok
                    before = NonCliffordError
                if ok:
                    assert gate_order(t, cap) == before
                else:
                    with pytest.raises(NonCliffordError, match="not symplectic"):
                        gate_order(t, cap)
                seen.add((ok, before if before in (None, NonCliffordError) else "order"))
    # symplectic bits past and within the cap; other bits that the route
    # before refused, capped, or gave an order
    assert seen == {(True, None), (True, "order"), (False, NonCliffordError), (False, None), (False, "order")}


def test_pauli_conjugation_tableau():
    rng = np.random.default_rng(8)
    p = PauliString.draw(3, rng)
    t = pauli_conjugation_tableau(p)
    q = PauliString.draw(3, rng)
    expected = pauli_to_matrix(p) @ pauli_to_matrix(q) @ pauli_to_matrix(p).conj().T
    assert np.allclose(pauli_to_matrix(conjugate(t, q)), expected, atol=1e-12)


def test_compile_inverse_pauli_empty():
    u = cz(2, 0, 1)
    assert pauli_of_bits(compile_inverse_pauli(u, np.zeros((0, 4)), 0)) == PauliString.identity(2)


def test_compile_inverse_pauli_identity_layers():
    u = cz(2, 0, 1)
    layers = pauli_bits([PauliString.identity(2)] * 4)
    assert pauli_of_bits(compile_inverse_pauli(u, layers, 2)) == PauliString.identity(2)


def _block_tableau(case, rng):
    """A random {H, S, CZ} word on ``case`` qubits, or a 6-qubit fully connected block."""
    if case == "fully_connected":
        from cabbench.experiments import fully_connected_gate, ring_device

        block = fully_connected_gate(ring_device(6), (0, 1, 2), (3, 4, 5), rng)
        return block.tableau, block.n
    return random_tableau(case, rng, depth=8)[0], case


def test_compile_inverse_pauli_closes_sequence():
    rng = np.random.default_rng(9)
    for case in [1, 3, 6, "fully_connected"] * 10:
        u, n = _block_tableau(case, rng)
        m = int(rng.integers(1, 4))
        paulis = [PauliString.draw(n, rng) for _ in range(2 * m)]
        u_inv_gate = pauli_of_bits(compile_inverse_pauli(u, pauli_bits(paulis), m))
        # full sign-tracked composition: [(u^-1 P(2i) u P(2i-1)) for i] then the closer
        net = CliffordTableau.identity(n)
        uinv = inverse(u)
        for i in range(m):
            net = pauli_conjugation_tableau(paulis[2 * i]).compose(net)
            net = u.compose(net)
            net = pauli_conjugation_tableau(paulis[2 * i + 1]).compose(net)
            net = uinv.compose(net)
        net = pauli_conjugation_tableau(u_inv_gate).compose(net)
        assert net.is_identity(), case


def test_compile_inverse_pauli_wrong_layer_count():
    with pytest.raises(ValueError):
        compile_inverse_pauli(CliffordTableau.identity(2), pauli_bits([PauliString.identity(2)]), 1)
