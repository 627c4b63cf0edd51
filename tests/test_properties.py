"""Property tests over drawn graphs. Every test is derandomized, so a run
draws the same examples each time and Tier-1 stays deterministic."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fracmatch.fm import alpha2
from fracmatch.graph import Graph
from fracmatch.graph6 import emit_graph6
from fracmatch.harness import _batch_keys, _batch_rows, _sweep_task
from fracmatch.ngbounds import BOUND_NAMES, sweep_with_rows

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def graphs(draw, min_n=0, max_n=64):
    n = draw(st.integers(min_n, max_n))
    return Graph.from_mask(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))


def slot_bits(n, masks):
    """(len(masks), slots) edge bits: column j is slot j of each mask."""
    slots = n * (n - 1) // 2
    return np.array(
        [[m >> j & 1 for j in range(slots)] for m in masks], dtype=np.uint8
    ).reshape(len(masks), slots)


@PROPERTY
@given(graphs(max_n=24), st.randoms(use_true_random=False))
def test_relabelling_keeps_alpha2(g, rnd):
    perm = list(range(g.n))
    rnd.shuffle(perm)
    h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
    assert h.edge_count() == g.edge_count()
    assert alpha2(h) == alpha2(g)


@PROPERTY
@given(graphs(min_n=2, max_n=40), st.data())
def test_adding_an_edge_raises_alpha_prime_by_at_most_one(g, data):
    u = data.draw(st.integers(0, g.n - 1))
    v = data.draw(st.integers(0, g.n - 1).filter(lambda x: x != u))
    before, after = alpha2(g), alpha2(g.plus_edge(u, v))
    assert before <= after <= before + 2


@PROPERTY
@given(st.integers(0, 64).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, (1 << n * (n - 1) // 2) - 1), min_size=1, max_size=5),
    )
))
def test_batch_rows_and_keys_equal_the_scalar_builders(case):
    n, masks = case
    bits = slot_bits(n, masks)
    built = [Graph.from_mask(n, m) for m in masks]
    assert _batch_rows(n, bits).tolist() == [list(g.rows) for g in built]
    assert _batch_keys(n, bits) == [emit_graph6(g) for g in built]


@PROPERTY
@given(graphs(min_n=2), st.sampled_from(BOUND_NAMES))
def test_kernel_row_equals_the_ng_sum_row(g, which):
    bits = slot_bits(g.n, [g.to_mask()])
    kernel = _sweep_task((g.n, lambda lo, hi: bits[lo:hi], which, 0, 1))
    assert kernel == sweep_with_rows([g], which)
