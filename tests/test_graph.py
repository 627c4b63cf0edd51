"""Graph container, generators, and the graph6/edgelist codecs."""

import itertools

import networkx as nx
import pytest

from fracmatch.errors import GraphFormatError
from fracmatch.generators import (
    add_isolates,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    empty_graph,
    hgraph,
    k2pql,
    path,
    star,
)
from fracmatch.graph import Graph, bits, edge_slots
from fracmatch.graph6 import emit_edgelist, emit_graph6, parse_edgelist, parse_graph6


def all_graphs(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        yield Graph.from_mask(n, mask)


# ---------------------------------------------------------------- container


def test_from_edges_validation():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph.from_edges(-1, [])
    with pytest.raises(ValueError):
        Graph.from_edges(65, [])


def test_edges_in_slot_order():
    g = Graph.from_edges(4, [(2, 3), (0, 1), (0, 3)])
    assert list(g.edges()) == [(0, 1), (0, 3), (2, 3)]
    assert g.edge_count() == 3
    assert edge_slots(4) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def test_mask_roundtrip_small():
    for n in range(6):
        for mask in range(1 << (n * (n - 1) // 2)):
            assert Graph.from_mask(n, mask).to_mask() == mask


def test_adjacency_and_degree():
    g = cycle(5)
    for v in range(5):
        assert g.degree(v) == 2
        assert g.adj(v, (v + 1) % 5)
        assert not g.adj(v, v)


def test_complement_involution():
    for g in [cycle(5), star(6), complete(4), empty_graph(3), hgraph(7)]:
        assert g.complement().complement() == g
    assert complete(5).complement() == empty_graph(5)
    assert complete(1).complement() == empty_graph(1)


def test_isolated_vertices():
    g = add_isolates(complete(2), 3)
    assert g.isolated_vertices() == frozenset({2, 3, 4})


def test_plus_edge():
    g = path(4)
    h = g.plus_edge(0, 3)
    assert h.adj(0, 3) and not g.adj(0, 3)


def test_bits_helper():
    assert list(bits(0b101001)) == [0, 3, 5]
    assert list(bits(0)) == []


# --------------------------------------------------------------- generators


@pytest.mark.parametrize(
    "builder,params,n,m",
    [
        (empty_graph, (7,), 7, 0),
        (complete, (5,), 5, 10),
        (cycle, (6,), 6, 6),
        (path, (4,), 4, 3),
        (star, (8,), 8, 7),
        (complete_bipartite, (2, 3), 5, 6),
        (k2pql, (2, 3, 4), 11, 14),
        (hgraph, (9,), 9, 11),
    ],
    ids=lambda v: v.__name__.removesuffix("_graph") if callable(v) else None,
)
def test_generator_sizes(builder, params, n, m):
    g = builder(*params)
    assert g.n == n
    assert g.edge_count() == m


def test_star_shape():
    g = star(6)
    assert g.degree(0) == 5
    assert all(g.degree(v) == 1 for v in range(1, 6))


def test_k2pql_shape():
    # hubs 0,1 adjacent; hub 0 carries the larger pendant count after
    # normalization, then hub 1's pendants, then the shared degree-2 block.
    g = k2pql(2, 3, 4)
    assert g.adj(0, 1)
    assert g.degree(0) == 1 + 3 + 4
    assert g.degree(1) == 1 + 2 + 4
    for v in range(2, 5):
        assert g.degree(v) == 1 and g.adj(0, v)
    for v in range(5, 7):
        assert g.degree(v) == 1 and g.adj(1, v)
    for v in range(7, 11):
        assert g.adj(0, v) and g.adj(1, v) and g.degree(v) == 2
    # p > q swaps the pendant counts, nothing else.
    assert k2pql(3, 2, 4) == k2pql(2, 3, 4)
    with pytest.raises(ValueError):
        k2pql(-1, 0, 2)


def test_hgraph_shape():
    g = hgraph(6)
    for u, v in itertools.combinations(range(4), 2):
        assert g.adj(u, v)
    assert g.degree(0) == 5
    assert g.degree(4) == 1 and g.adj(0, 4)
    with pytest.raises(ValueError):
        hgraph(3)


def test_disjoint_union():
    g = disjoint_union(cycle(3), complete(2))
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 1), (0, 2), (1, 2), (3, 4)]


def test_cycle_rejects_short():
    with pytest.raises(ValueError):
        cycle(2)


# ------------------------------------------------------------------- graph6


def test_graph6_frozen_strings():
    assert emit_graph6(complete(2)) == "A_"
    assert emit_graph6(empty_graph(2)) == "A?"
    assert emit_graph6(empty_graph(5)) == "D??"
    assert emit_graph6(cycle(5)) == "Dhc"
    assert parse_graph6("A_") == complete(2)
    assert parse_graph6(">>graph6<<A_") == complete(2)


def test_graph6_roundtrip_exhaustive_n4():
    for g in all_graphs(4):
        assert parse_graph6(emit_graph6(g)) == g


@pytest.mark.parametrize("n", [0, 1, 62, 63, 64])
def test_graph6_roundtrip_boundary_orders(n):
    g = empty_graph(n)
    if n >= 2:
        g = g.plus_edge(0, n - 1).plus_edge(n - 2, n - 1)
    assert parse_graph6(emit_graph6(g)) == g


def test_graph6_matches_networkx():
    for g in [cycle(7), star(9), k2pql(1, 2, 3), hgraph(10), complete(6)]:
        ours = emit_graph6(g)
        g_nx = nx.empty_graph(g.n)
        g_nx.add_edges_from(g.edges())
        theirs = nx.to_graph6_bytes(g_nx, header=False).decode().strip()
        assert ours == theirs
        back = nx.from_graph6_bytes(ours.encode())
        assert back.number_of_nodes() == g.n
        assert sorted(tuple(sorted(e)) for e in back.edges()) == list(g.edges())


@pytest.mark.parametrize(
    "bad",
    [
        "",  # no header
        "A",  # missing data sextet
        "A_?",  # trailing garbage
        "A" + chr(62),  # character below the printable window
        "~~????",  # 36-bit order form is out of range here
        "D?",  # truncated body for n=5
    ],
)
def test_graph6_rejects_malformed(bad):
    with pytest.raises(GraphFormatError):
        parse_graph6(bad)


def test_graph6_rejects_nonzero_padding():
    # empty 3-vertex graph is "B?"; flip a padding bit.
    with pytest.raises(GraphFormatError):
        parse_graph6("B" + chr(63 + 1))


def test_edgelist_roundtrip():
    g = k2pql(2, 2, 1)
    assert parse_edgelist(emit_edgelist(g)) == g
    assert emit_edgelist(empty_graph(3)) == "3\n"
    with pytest.raises(GraphFormatError):
        parse_edgelist("3\n0 0\n")
    with pytest.raises(GraphFormatError):
        parse_edgelist("3\n0 1 2\n")
    with pytest.raises(GraphFormatError):
        parse_edgelist("")
