"""The stacked fully connected tableaus against the one-draw-at-a-time reference.

``gate_order_samples`` builds its draws' tableaus in chunks; every tableau,
every order and the generator's state after the call must equal those of
``fully_connected_tableaus_loop``, on either side of a chunk edge.
"""

import numpy as np
import pytest

from cabbench import experiments, tableau
from cabbench.experiments import fully_connected_gate, gate_order_samples, ring_device
from cabbench.tableau import CliffordTableau, gate_order

from helpers import fully_connected_tableaus_loop

# (n, samples): one draw; at n = 4 (512 draws per chunk) both sides of the
# first and second chunk edges; at n = 12 (170 draws per chunk) one past it
STACKED_CASES = [(4, 1), (4, 511), (4, 512), (4, 513), (4, 1025), (6, 40), (8, 40), (12, 1), (12, 171)]


def assert_same_tableau(t, ref):
    assert t == ref
    for got, want in ((t.xbits, ref.xbits), (t.zbits, ref.zbits), (t.signs, ref.signs)):
        assert got.dtype == want.dtype == np.uint8
        assert got.shape == want.shape


def test_chunk_edges_are_where_the_cases_put_them():
    assert tableau._SIGN_CHUNK_ROWS // (2 * 4) == 512
    assert tableau._SIGN_CHUNK_ROWS // (2 * 12) == 170


@pytest.mark.parametrize("n, samples", STACKED_CASES)
def test_gate_order_samples_builds_the_reference_tableaus(n, samples, monkeypatch):
    seen, rows = [], []
    images = CliffordTableau._images

    def record(t, cap):
        assert cap == 777
        seen.append(t)
        return len(seen)

    def count_rows(self, v, signs):
        rows.append(len(v))
        return images(self, v, signs)

    # the tracing harness counts orders at this name: one call per draw
    monkeypatch.setattr(experiments, "gate_order", record)
    monkeypatch.setattr(CliffordTableau, "_images", count_rows)
    rng, ref_rng = np.random.default_rng([n, samples, 14]), np.random.default_rng([n, samples, 14])
    orders = gate_order_samples(n, samples, rng, cap=777)
    monkeypatch.undo()
    ref = fully_connected_tableaus_loop(n, samples, ref_rng)
    assert orders == list(range(1, samples + 1))
    assert len(seen) == len(ref) == samples
    for t, r in zip(seen, ref):
        assert_same_tableau(t, r)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # one composition per chunk, each of at most _SIGN_CHUNK_ROWS rows
    per_chunk = tableau._SIGN_CHUNK_ROWS // (2 * n)
    assert rows == [2 * n * min(per_chunk, samples - start) for start in range(0, samples, per_chunk)]


@pytest.mark.parametrize("n, samples", [(4, 1), (4, 513), (6, 40), (8, 40), (12, 3)])
def test_gate_order_samples_orders_match_the_reference(n, samples):
    rng, ref_rng = np.random.default_rng([n, samples, 15]), np.random.default_rng([n, samples, 15])
    orders = gate_order_samples(n, samples, rng, cap=20_000)
    assert orders == [gate_order(t, cap=20_000) for t in fully_connected_tableaus_loop(n, samples, ref_rng)]
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [4, 6, 8, 12])
def test_fully_connected_gate_is_the_one_draw_stack(n):
    rng, ref_rng = np.random.default_rng([n, 16]), np.random.default_rng([n, 16])
    half = n // 2
    block = fully_connected_gate(ring_device(n), tuple(range(half)), tuple(range(half, n)), rng)
    (ref,) = fully_connected_tableaus_loop(n, 1, ref_rng)
    assert_same_tableau(block.tableau, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
