"""The sweep's batch solve: 2*alpha' from a numpy greedy, one length-3 pass
and one augmenting search per free vertex for the graphs they leave short,
equal to hopcroft_karp on every graph of order at most 6 and on sampled
batches of both sides, each path settling some graph; the cover check
behind every size the search leaves short, rejecting a matching that is
not maximum; and the primal check behind every result, in its pure-Python
reference and its batch form, rejecting tampered matchings and no real
one."""

from fractions import Fraction

import numpy as np
import pytest

from fracmatch import harness
from fracmatch.bipartite import hopcroft_karp
from fracmatch.errors import InternalInconsistencyError
from fracmatch.graph import Graph, check_matching
from fracmatch.graph6 import emit_graph6
from fracmatch.harness import (
    SampleSpec,
    _batch_alpha2,
    _batch_rows,
    _check_batch,
    _check_cover,
    _enumeration_bits,
    _sample_bits,
    enumeration_count,
)


def complement_rows(rows, n):
    return ~rows & np.array([(1 << n) - 1 ^ 1 << v for v in range(n)], dtype=np.uint64)


def sampled_sides(n, p, count=256, seed=5):
    spec = SampleSpec(n, p.numerator, p.denominator, count, seed)
    rows = _batch_rows(n, _sample_bits(spec, 0, count))
    return rows, complement_rows(rows, n)


def reference_sizes(rows, n):
    """hopcroft_karp's size of each row, each matching passing the reference
    check."""
    sizes = []
    for r in rows.tolist():
        m = hopcroft_karp(r, n)
        check_matching(r, m.pair_left, m.size)
        sizes.append(m.size)
    return sizes


@pytest.fixture
def checked(monkeypatch):
    """Runs every batch check of the test through the reference check too,
    on the final matching of each graph, and counts the graphs checked."""
    seen = []

    def both(rows, pair, size, n, check=_check_batch):
        check(rows, pair, size, n)
        for r, p, s in zip(rows.tolist(), pair.tolist(), size.tolist()):
            check_matching(r, p, s)
        seen.append(len(rows))

    monkeypatch.setattr(harness, "_check_batch", both)
    return seen


@pytest.mark.parametrize("n", range(2, 7))
def test_batch_solve_matches_hopcroft_karp_exhaustive(checked, n):
    # Every graph of order n, so every complement too.
    total = enumeration_count(n)
    for lo in range(0, total, 256):
        rows = _batch_rows(n, _enumeration_bits(n, lo, min(lo + 256, total)))
        assert _batch_alpha2(rows, n) == reference_sizes(rows, n)
    assert sum(checked) == total


@pytest.mark.parametrize("p", [Fraction(1, 20), Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)])
@pytest.mark.parametrize("n", [29, 30, 31, 64])
def test_batch_solve_matches_hopcroft_karp_sampled(checked, n, p):
    for rows in sampled_sides(n, p):
        assert _batch_alpha2(rows, n) == reference_sizes(rows, n)
    assert sum(checked) == 512


def settled_by_path(monkeypatch, rows, n):
    """How many graphs of the batch the greedy, the length-3 pass and the
    augmenting search each settle."""
    calls = {"_length3": 0, "_augment": 0}

    def counting(name):
        real = getattr(harness, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name))
    _batch_alpha2(rows, n)
    return {
        "greedy": len(rows) - calls["_length3"],
        "length3": calls["_length3"] - calls["_augment"],
        "search": calls["_augment"],
    }


def test_each_path_settles_some_graph(monkeypatch):
    # Dense sides end at the greedy; at odd n and p = 1/2 the greedy never
    # reaches k and the length-3 pass ends nearly every graph; sparse sides
    # need the search.
    dense, sparse = sampled_sides(30, Fraction(9, 10))
    odd, _ = sampled_sides(31, Fraction(1, 2))
    assert settled_by_path(monkeypatch, dense, 30)["greedy"] > 200
    assert settled_by_path(monkeypatch, sparse, 30)["search"] > 200
    odd_paths = settled_by_path(monkeypatch, odd, 31)
    assert odd_paths["greedy"] == 0
    assert odd_paths["length3"] > 200


def test_cover_check_rejects_a_matching_that_is_not_maximum(monkeypatch):
    # A search that accepts no root leaves the length-3 matching, which on
    # sparse sides is short of the maximum; its free vertices reach a free
    # right vertex, so the cover check must raise and name the graph.
    monkeypatch.setattr(harness, "_augment", lambda rows, pl, pr, fr, fl: (fr, fl))
    sparse = sampled_sides(30, Fraction(1, 10))[0]
    with pytest.raises(InternalInconsistencyError, match="has an augmenting path"):
        _batch_alpha2(sparse, 30)


def test_cover_check_names_the_graph():
    # P4 = 0-1-2-3 with only the middle edge paired: free 0 reaches free 0.
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    rows = list(g.rows)
    pair_r = [-1, 2, 1, -1]  # left 1 -> right 2, left 2 -> right 1
    with pytest.raises(InternalInconsistencyError) as exc:
        _check_cover(rows, pair_r, 0b1001, 0b1001)
    assert str(exc.value).startswith(emit_graph6(g) + ": ")
    # The maximum matching 0-1, 1-0, 2-3, 3-2 passes.
    _check_cover(rows, [1, 0, 3, 2], 0, 0)


def test_batch_solve_takes_a_batch_of_one_at_every_order():
    for n in (2, 63, 64):
        rows, rows_c = sampled_sides(n, Fraction(1, 2), count=1)
        both = np.concatenate([rows, rows_c])
        assert _batch_alpha2(both, n) == reference_sizes(both, n)


def test_batch_solve_needs_no_numpy_past_the_floor(monkeypatch):
    # pyproject promises numpy >= 1.24; np.bitwise_count came in 2.0.
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    rows, rows_c = sampled_sides(64, Fraction(1, 2), count=32)
    assert _batch_alpha2(rows_c, 64) == reference_sizes(rows_c, 64)


# ------------------------------------------------------------- primal check


def tampered(pair_left, rows, how):
    """(pair_left, size delta) of one tampering of a real matching."""
    pair = list(pair_left)
    u = next(u for u, v in enumerate(pair) if v != -1)
    if how == "non-edge":
        # an unpaired right vertex, so only the missing edge is wrong
        pair[u] = next(v for v in range(len(rows)) if not rows[u] >> v & 1 and v not in pair)
    elif how == "out-of-range":
        pair[u] = len(rows)
    elif how.startswith("repeat"):
        # w keeps an edge, so only the repeat (and the size) is wrong
        w = next(w for w, v in enumerate(pair) if v != -1 and w != u and rows[w] >> pair[u] & 1)
        pair[w] = pair[u]
    return pair, {"size+1": 1, "size-1": -1, "repeat, size-1": -1}.get(how, 0)


def tamper_batch():
    """A batch of 6-vertex graphs and a real matching of each, on which a
    repeated right vertex keeps every pair an edge."""
    n = 6
    g = Graph.from_edges(n, [(0, 1), (0, 2), (1, 2), (3, 4)])  # a triangle, K2 and K1
    other = Graph.from_edges(n, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    rows = np.array([list(g.rows), list(other.rows)], dtype=np.uint64)
    ms = [hopcroft_karp(list(r), n) for r in (g.rows, other.rows)]
    return n, g, rows, ms


# "repeat, size-1" reports the number of distinct right vertices.
KINDS = ["non-edge", "out-of-range", "repeat", "repeat, size-1", "size+1", "size-1"]


@pytest.mark.parametrize("how", KINDS)
def test_reference_check_rejects_tampering(how):
    n, g, _, ms = tamper_batch()
    m = ms[0]
    check_matching(g.rows, m.pair_left, m.size)
    pair, delta = tampered(m.pair_left, g.rows, how)
    with pytest.raises(InternalInconsistencyError):
        check_matching(g.rows, pair, m.size + delta)


@pytest.mark.parametrize("how", KINDS)
def test_batch_check_rejects_tampering_and_names_the_graph(how):
    n, g, rows, ms = tamper_batch()
    pair = np.array([m.pair_left for m in ms])
    size = np.array([m.size for m in ms])
    _check_batch(rows, pair, size, n)
    pair[0], delta = tampered(ms[0].pair_left, g.rows, how)
    size[0] += delta
    with pytest.raises(InternalInconsistencyError) as exc:
        _check_batch(rows, pair, size, n)
    assert str(exc.value).startswith(emit_graph6(g) + ": ")


def test_reference_check_rejects_a_short_pair_list():
    with pytest.raises(InternalInconsistencyError):
        check_matching([0b10, 0b01], [1], 1)
