"""Property tests of the GF(2) tableau algebra on random Clifford words.

A word is a short product of local Clifford layers, parallel CZ layers and
Pauli conjugations on 1 to 12 qubits.  ``compose`` and the stacked
``local_layer_lookup`` are checked bit for bit against the qubit-by-qubit
``compose_loop`` of ``helpers``, ``gate_order`` against plain repeated
composition (its sign bits against ``orbit_sign_loop``), and the GF(2)
closing Pauli against sign-tracked composition of the whole interleaved
sequence.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cabbench import tableau
from cabbench.tableau import CliffordTableau, compile_inverse_pauli, gate_order, local_layer_lookup

from helpers import (
    PauliString,
    compose_loop,
    inverse,
    local_layer_tableau,
    orbit_sign_loop,
    pauli_bits,
    pauli_conjugation_tableau,
    pauli_of_bits,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# the reference below composes up to this many times per example
ORDER_LIMIT = 150


@st.composite
def paulis(draw, n):
    bits = np.array(draw(st.lists(st.integers(0, 1), min_size=2 * n, max_size=2 * n)), dtype=np.uint8)
    return PauliString(n, bits[:n], bits[n:], 0)


@st.composite
def layers(draw, n):
    kinds = ["local", "pauli"] + (["cz"] if n > 1 else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "local":
        elements = draw(st.lists(st.integers(0, 23), min_size=n, max_size=n))
        return local_layer_tableau(np.array(elements, dtype=np.uint8))
    if kind == "pauli":
        return pauli_conjugation_tableau(draw(paulis(n)))
    order = draw(st.permutations(range(n)))
    n_pairs = draw(st.integers(1, n // 2))
    return CliffordTableau.from_cz_layer(n, [(order[2 * i], order[2 * i + 1]) for i in range(n_pairs)])


@st.composite
def words(draw, n, max_layers=6):
    ts = draw(st.lists(layers(n), min_size=1, max_size=max_layers))
    net = ts[0]
    for t in ts[1:]:
        net = t.compose(net)
    return net


@st.composite
def word_tuples(draw, count):
    n = draw(st.integers(1, 12))
    return tuple(draw(words(n)) for _ in range(count))


@PROPERTY_SETTINGS
@given(word_tuples(2))
def test_compose_equals_compose_loop(pair):
    a, b = pair
    fast, ref = a.compose(b), compose_loop(a, b)
    assert fast == ref
    for arr in (fast.xbits, fast.zbits, fast.signs):
        assert arr.dtype == np.uint8


@PROPERTY_SETTINGS
@given(word_tuples(3))
def test_compose_is_associative(triple):
    a, b, c = triple
    assert a.compose(b.compose(c)) == a.compose(b).compose(c)


@PROPERTY_SETTINGS
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.lists(
            st.tuples(words(n), st.lists(st.integers(0, 23), min_size=n, max_size=n)), min_size=1, max_size=5
        )
    ),
    st.booleans(),
)
def test_stacked_local_layer_lookup_equals_composition(cases, wide_bits):
    n = cases[0][0].n
    elements = np.array([e for _, e in cases], dtype=np.uint8)
    # the stacked builder feeds _images' int64 bits and signs
    dtype = np.int64 if wide_bits else np.uint8
    xb, zb, signs = local_layer_lookup(
        elements,
        np.stack([t.xbits for t, _ in cases]).astype(dtype),
        np.stack([t.zbits for t, _ in cases]).astype(dtype),
        np.stack([t.signs for t, _ in cases]).astype(dtype),
    )
    for arr in (xb, zb, signs):
        assert arr.dtype == np.uint8
    for i, (t, _) in enumerate(cases):
        assert CliffordTableau(n, xb[i], zb[i], signs[i]) == compose_loop(local_layer_tableau(elements[i]), t)


def _orders_by_composition(t, limit):
    """(smallest p with t^p = I, smallest k with t^k's bits = I), None past ``limit``."""
    ident = CliffordTableau.identity(t.n)
    acc, bits_order = t, None
    for p in range(1, limit + 1):
        if bits_order is None and np.array_equal(acc.xbits, ident.xbits) and np.array_equal(acc.zbits, ident.zbits):
            bits_order = p
        if acc.is_identity():
            return p, bits_order
        acc = t.compose(acc)
    return None, bits_order


@PROPERTY_SETTINGS
@given(st.integers(1, 12).flatmap(lambda n: words(n, max_layers=8)))
def test_gate_order_equals_repeated_composition(t):
    order, bits_order = _orders_by_composition(t, ORDER_LIMIT)
    assert gate_order(t, cap=ORDER_LIMIT) == order
    if bits_order is not None:
        # the orbit sum's sign bits against one _images sign per power
        k, sign = tableau._orbit_sign(t, ORDER_LIMIT)
        assert k == bits_order
        np.testing.assert_array_equal(sign, orbit_sign_loop(t, k))
    if order is None:
        return
    # the order sits at the cap edge
    assert gate_order(t, cap=order) == order
    assert order == 1 or gate_order(t, cap=order - 1) is None
    # the order is the bit order k or 2k; every cap with k <= cap < 2k is exceeded
    assert order in (bits_order, 2 * bits_order)
    if order == 2 * bits_order:
        assert gate_order(t, cap=bits_order) is None
        assert gate_order(t, cap=order - 1) is None



@PROPERTY_SETTINGS
@given(st.data())
def test_closing_pauli_closes_the_interleaved_sequence(data):
    n = data.draw(st.integers(1, 12))
    u = data.draw(words(n))
    m = data.draw(st.integers(0, 3))
    layer_paulis = [data.draw(paulis(n)) for _ in range(2 * m)]
    closing = pauli_of_bits(compile_inverse_pauli(u, pauli_bits(layer_paulis).reshape(2 * m, 2 * n), m))
    net, uinv = CliffordTableau.identity(n), inverse(u)
    for i in range(m):
        net = pauli_conjugation_tableau(layer_paulis[2 * i]).compose(net)
        net = u.compose(net)
        net = pauli_conjugation_tableau(layer_paulis[2 * i + 1]).compose(net)
        net = uinv.compose(net)
    assert pauli_conjugation_tableau(closing).compose(net).is_identity()
