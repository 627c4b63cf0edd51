"""The sweep's batch solve: 2*alpha' from a numpy greedy and, for the
graphs it leaves short, one of two finishes chosen by order. Up to the cut
harness._NUMPY_MAX_N the short graphs of a batch run Hopcroft-Karp phases
together in numpy, with one augmenting path per graph and phase; above it
each gets hopcroft_karp's finish in Python (one length-3 pass, then one
augmenting search per free vertex). The solve equals bulk_alpha2 on every
graph of order at most 6, and networkx and hopcroft_karp on sampled
batches of both sides on both sides of the cut, and each path settles
some graph. The cover check behind each finish rejects a matching that is
not maximum, naming the graph; the primal check behind every result, in
its pure-Python reference and its batch form, rejects tampered matchings
and no real one."""

from fractions import Fraction

import networkx as nx
import numpy as np
import pytest

from fracmatch import bipartite, harness
from fracmatch.bipartite import hopcroft_karp
from fracmatch.bulk import bulk_alpha2
from fracmatch.errors import InternalInconsistencyError
from fracmatch.graph import Graph, bits, check_matching
from fracmatch.graph6 import emit_graph6
from fracmatch.harness import (
    _NUMPY_MAX_N,
    SampleSpec,
    _batch_alpha2,
    _batch_greedy,
    _batch_rows,
    _check_batch,
    _check_reach,
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


def solver_sizes(rows, n):
    """hopcroft_karp's size of each row, each matching passing the reference
    check."""
    sizes = []
    for r in rows.tolist():
        m = hopcroft_karp(r, n)
        check_matching(r, m.pair_left, m.size)
        sizes.append(m.size)
    return sizes


def networkx_sizes(rows, n):
    """networkx's maximum matching size of each row's double cover."""
    sizes = []
    for r in rows.tolist():
        cover = nx.Graph()
        cover.add_nodes_from(range(2 * n))
        cover.add_edges_from((u, n + v) for u, row in enumerate(r) for v in bits(row))
        sizes.append(len(nx.bipartite.maximum_matching(cover, top_nodes=range(n))) // 2)
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
    total, table = enumeration_count(n), bulk_alpha2(n).tolist()
    for lo in range(0, total, 256):
        hi = min(lo + 256, total)
        rows = _batch_rows(n, _enumeration_bits(n, lo, hi))
        assert _batch_alpha2(rows, n) == table[lo:hi] == solver_sizes(rows, n)
    assert sum(checked) == total


@pytest.mark.parametrize("p", [Fraction(1, 20), Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)])
@pytest.mark.parametrize("n", [*sorted({7, 8, _NUMPY_MAX_N}), 29, 30, 31, 64])
def test_batch_solve_matches_hopcroft_karp_sampled(checked, n, p):
    # Orders up to _NUMPY_MAX_N run the numpy finish, the others Python's.
    for rows in sampled_sides(n, p):
        assert _batch_alpha2(rows, n) == networkx_sizes(rows, n) == solver_sizes(rows, n)
    assert sum(checked) == 512


def settled_by_path(monkeypatch, rows, n):
    """How many graphs of the batch the greedy, the length-3 pass and the
    augmenting search each settle."""
    calls = {"_length3": 0, "_augment": 0}

    def counting(name):
        real = getattr(bipartite, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(bipartite, name, counting(name))
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
    monkeypatch.setattr(bipartite, "_augment", lambda rows, pl, pr, fr, fl: (fr, fl))
    sparse = sampled_sides(30, Fraction(1, 10))[0]
    with pytest.raises(InternalInconsistencyError, match="has an augmenting path"):
        _batch_alpha2(sparse, 30)


def test_cover_check_names_the_graph(monkeypatch):
    # With no finish the greedy's matching of a triangle stands: 0 and 1
    # take each other, and 2 stays free next to them while right 2 is free.
    # The isolated vertices put it above the cut, in the Python finish.
    for name in ("_length3", "_augment"):
        monkeypatch.setattr(bipartite, name, lambda rows, pl, pr, fr, fl: (fr, fl))
    n = _NUMPY_MAX_N + 1
    g = Graph.from_edges(n, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(InternalInconsistencyError) as exc:
        _batch_alpha2(np.array([g.rows], dtype=np.uint64), n)
    assert str(exc.value) == f"{emit_graph6(g)}: matching of size 2 has an augmenting path"


def test_numpy_cover_check_names_the_graph(monkeypatch):
    # A phase that augments nothing but reports its search's reach leaves
    # the greedy's matching of a triangle, whose reach meets right 2.
    def idle(rows, pair_l, pair_r, free_l, free_r, place, phase=harness._phase):
        copies = [a.copy() for a in (pair_l, pair_r, free_l, free_r)]
        grew, reached_l, reached_r = phase(rows, *copies, place)
        return np.zeros_like(grew), reached_l, reached_r

    monkeypatch.setattr(harness, "_phase", idle)
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    with pytest.raises(InternalInconsistencyError) as exc:
        _batch_alpha2(np.array([g.rows], dtype=np.uint64), 3)
    assert str(exc.value) == f"{emit_graph6(g)}: matching of size 2 has an augmenting path"


def star_reach(reached_l, reached_r):
    """_check_reach on the star with centre 0 and leaves 1, 2, 3, under
    its greedy's matching (0 and 1 take each other; leaves 2 and 3 stay
    free on both sides), which is maximum, and the given reach. The free
    left vertices' whole reach is left {1, 2, 3} and right {0}."""
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    rows = np.array([g.rows], dtype=np.uint64)
    pair, free_r = _batch_greedy(rows, 4)
    assert pair.tolist() == [[1, 0, -1, -1]] and free_r.tolist() == [0b1100]
    reach = [np.array([m], dtype=np.uint64) for m in (reached_l, reached_r)]
    try:
        _check_reach(rows, free_r, *reach, np.array([2]), 4)
    except InternalInconsistencyError as e:
        assert str(e).startswith(emit_graph6(g) + ": ")
        return str(e)[len(emit_graph6(g)) + 2:]


def test_numpy_cover_check_passes_the_whole_reach_only():
    assert star_reach(0b1110, 0b0001) is None
    # Without right 0's partner, left 1, the cover takes both 1 and right 0.
    assert star_reach(0b1100, 0b0001) == "cover of size 3 does not certify matching size 2"
    # A reached left vertex whose neighbour is not reached.
    assert star_reach(0b1110, 0) == "cover of size 1 misses an edge"
    # A reach that meets free right 2.
    assert star_reach(0b1110, 0b0101) == "matching of size 2 has an augmenting path"


def test_batch_solve_takes_a_batch_of_one_at_every_order():
    for n in (*range(2, _NUMPY_MAX_N + 1), 63, 64):
        rows, rows_c = sampled_sides(n, Fraction(1, 2), count=1)
        both = np.concatenate([rows, rows_c])
        assert _batch_alpha2(both, n) == networkx_sizes(both, n)


def test_batch_solve_needs_no_numpy_past_the_floor(monkeypatch):
    # pyproject promises numpy >= 1.24; np.bitwise_count came in 2.0.
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    for n in (_NUMPY_MAX_N, 64):
        rows, rows_c = sampled_sides(n, Fraction(1, 2), count=32)
        assert _batch_alpha2(rows_c, n) == networkx_sizes(rows_c, n)


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
