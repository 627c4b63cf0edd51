"""Property tests over drawn graphs. Every test is derandomized, so a run
draws the same examples each time and Tier-1 stays deterministic."""

import contextlib
import io
import operator
import os

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fracmatch.bounds import BOUND_NAMES
from fracmatch.cli import main
from fracmatch.fm import alpha2
from fracmatch.graph import Graph, bits, mask_of
from fracmatch.graph6 import emit_edgelist, emit_graph6, parse_edgelist, parse_graph6
from fracmatch.harness import _batch_keys, _batch_rows, _sweep_task
from fracmatch.ngbounds import sweep_with_rows
from fracmatch.partition import good_partition

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


@st.composite
def graphs(draw, min_n=0, max_n=64):
    n = draw(st.integers(min_n, max_n))
    return Graph.from_mask(n, draw(st.integers(0, (1 << n * (n - 1) // 2) - 1)))


def slot_bits(n, masks):
    """(len(masks), slots + 1) edge bits: column j is slot j of each mask,
    and the last column is zero."""
    slots = n * (n - 1) // 2
    return np.array(
        [[m >> j & 1 for j in range(slots + 1)] for m in masks], dtype=np.uint8
    ).reshape(len(masks), slots + 1)


@settings(PROPERTY, max_examples=5)
@given(st.data())
def test_every_order_round_trips(data):
    # Each example draws one graph of every order 0..64.
    for n in range(65):
        g = data.draw(graphs(min_n=n, max_n=n))
        assert parse_graph6(emit_graph6(g)) == g
        assert parse_edgelist(emit_edgelist(g)) == g
        assert Graph.from_mask(n, g.to_mask()) == g
        gc = g.complement()
        assert g.complement() is gc and gc.complement() == g


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
    kernel = _sweep_task((g.n, lambda lo, hi: bits[lo:hi], which, False, 0, 1))
    assert kernel == sweep_with_rows([g], which)


@PROPERTY
@given(graphs(max_n=16))
def test_good_partition_parts_are_vertex_masks(g):
    p = good_partition(g)
    sides = (p.v11, p.v12, p.v21, p.v22)
    assert all(type(part) is int for part in (*sides, p.x))
    # v11, v12, v21 and v22 split the vertices; x lies inside v12
    assert sum(part.bit_count() for part in sides) == g.n
    assert p.v11 | p.v12 | p.v21 | p.v22 == (1 << g.n) - 1
    assert p.x & ~p.v12 == 0
    assert p.v11.bit_count() == p.v21.bit_count() == p.s
    assert (p.v11 | p.v12).bit_count() == p.t.units
    assert p.x == mask_of(p.fm.partners[u] for u in bits(p.v11))


G6_CHARS = "".join(map(chr, range(63, 127)))
EDGE_LIST_CHARS = "0123456789 \t\n-+_"

cli_texts = st.one_of(
    st.text(G6_CHARS, max_size=12),
    # a short-form header of order at most 12 makes well-formed graphs common
    st.builds(operator.add, st.sampled_from(G6_CHARS[:13]), st.text(G6_CHARS, max_size=12)),
    st.text(EDGE_LIST_CHARS, max_size=30),
    graphs(max_n=12).map(emit_graph6),
    graphs(max_n=12).map(emit_edgelist),
)


@settings(PROPERTY, max_examples=500)
@given(st.sampled_from(["alpha", "partition", "ngsum", "classify", "construct"]), cli_texts)
def test_cli_exits_cleanly_on_any_graph_text(cmd, text):
    """Any graph text, malformed or not, exits 0, 1 or 2 and never raises."""
    assume(not text.startswith("-") and not os.path.exists(text))
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main([cmd, text]) in (0, 1, 2)
