"""Fractional matching values, certificates, canonical shape."""

import random

import pytest

from fracmatch.errors import PreconditionError
from fracmatch.fm import (
    FractionalMatching,
    alpha2,
    alpha_prime,
    berge_deficiency,
    canonical_fm,
    canonicalize_fm,
    deficiency_of,
    extract_fm,
    oracle_alpha_exhaustive,
)
from fracmatch.generators import complete, cycle, disjoint_union, empty_graph, hgraph, path, star
from fracmatch.graph import Graph, bits
from fracmatch.halfint import HalfInt


def all_graphs(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        yield Graph.from_mask(n, mask)


def naive_alpha2(g):
    """Plain 3^|E| recursion over per-edge weights, kept independent of
    everything in the package except the Graph container."""
    edges = list(g.edges())

    def go(i, caps):
        if i == len(edges):
            return 0
        u, v = edges[i]
        best = go(i + 1, caps)
        for w in (1, 2):
            if caps[u] >= w and caps[v] >= w:
                nxt = list(caps)
                nxt[u] -= w
                nxt[v] -= w
                best = max(best, w + go(i + 1, tuple(nxt)))
        return best

    return go(0, (2,) * g.n)


# ------------------------------------------------------------ value checks


@pytest.mark.parametrize(
    "g,units",
    [
        (empty_graph(4), 0),
        (complete(2), 2),
        (cycle(3), 3),
        (cycle(5), 5),
        (cycle(7), 7),
        (star(9), 2),
        (path(6), 6),
        (complete(6), 6),
        (hgraph(8), 5),
        (disjoint_union(cycle(3), complete(2)), 5),
    ],
)
def test_known_values(g, units):
    assert alpha2(g) == units
    assert alpha_prime(g) == HalfInt(units)


def test_triple_agreement_exhaustive_to_n5():
    """Double-cover value, deficiency formula, and the assignment-space
    oracle all agree on every labeled graph with at most 5 vertices."""
    for n in range(6):
        for g in all_graphs(n):
            a2 = alpha2(g)
            w = berge_deficiency(g)
            assert w.deficiency == g.n - a2
            assert deficiency_of(g, w.s_set) == w.deficiency
            assert oracle_alpha_exhaustive(g).units == a2


def test_oracle_matches_naive_recursion():
    for g in all_graphs(4):
        assert oracle_alpha_exhaustive(g).units == naive_alpha2(g)
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(5, 7)
        mask = rng.getrandbits(n * (n - 1) // 2)
        g = Graph.from_mask(n, mask)
        if g.edge_count() > 8:
            continue
        assert oracle_alpha_exhaustive(g).units == naive_alpha2(g)


def test_oracle_wide_graphs_match_naive_recursion():
    """Seeded graphs touching 9 to 12 vertices with at most 10 edges, and an
    n = 64 graph whose vertex 63 sits above bit 64 of the packed state."""
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(9, 12)
        perm = rng.sample(range(n), n)
        cover = [(perm[i], perm[(i + 1) % n]) for i in range(0, n, 2)]
        extra = [rng.sample(range(n), 2) for _ in range(rng.randint(0, 10 - len(cover)))]
        g = Graph.from_edges(n, cover + extra)
        assert g.edge_count() <= 10 and all(g.row(v) for v in range(n))
        assert oracle_alpha_exhaustive(g).units == naive_alpha2(g)
    g = Graph.from_edges(64, [(0, 63), (5, 63), (1, 2), (2, 3), (1, 3), (40, 62)])
    assert oracle_alpha_exhaustive(g).units == naive_alpha2(g) == 7


def test_oracle_frontier_path():
    # long chains keep many vertices live in the packed state at once
    for g in [path(12), cycle(11), disjoint_union(path(6), cycle(5))]:
        assert len(list(g.edges())) <= 14
        assert oracle_alpha_exhaustive(g).units == alpha2(g)


def test_oracle_budget():
    with pytest.raises(PreconditionError):
        oracle_alpha_exhaustive(complete(6))  # 15 edges
    assert oracle_alpha_exhaustive(complete(6), max_edges=15).units == 6


def brute_max_deficiency(g):
    """max over all 2^n subsets S of i(G-S) - |S|, by plain scan."""
    full = (1 << g.n) - 1
    best = -(g.n + 1)
    for s_mask in range(1 << g.n):
        iso = sum(1 for v in bits(full & ~s_mask) if g.row(v) & ~s_mask == 0)
        best = max(best, iso - s_mask.bit_count())
    return best


def test_berge_cover_path_agrees_with_brute():
    rng = random.Random(612)
    pop = [g for n in range(1, 6) for g in all_graphs(n)]
    for n in range(6, 13):
        for p in (0.1, 0.2, 0.35, 0.6):
            pop.append(Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            ))
    for g in pop:
        w = berge_deficiency(g)
        assert w.deficiency == brute_max_deficiency(g)
        assert deficiency_of(g, w.s_set) == w.deficiency


# --------------------------------------------------------------- container


def test_fm_validation():
    g = cycle(4)
    with pytest.raises(ValueError):
        FractionalMatching(g, {(0, 2): 1})  # non-edge
    with pytest.raises(ValueError):
        FractionalMatching(g, {(0, 1): 3})
    with pytest.raises(ValueError):
        FractionalMatching(g, {(0, 1): 2, (1, 2): 1})  # load 3 at vertex 1
    f = FractionalMatching(g, {(1, 0): 2, (2, 3): 0})
    assert f.items() == [((0, 1), 2)]
    assert f.value == HalfInt(2)
    assert f.load_units(0) == 2 and f.load_units(2) == 0


def test_fm_masks_and_replace():
    g = disjoint_union(cycle(3), complete(2))
    f = FractionalMatching(g, {(0, 1): 1, (1, 2): 1, (0, 2): 1, (3, 4): 2})
    assert f.full_mask() == 0b11000
    assert f.half_mask() == 0b00111
    assert f.unweighted_mask() == 0
    f2 = f.replace({(3, 4): 0})
    assert f2.value == HalfInt(3)
    assert f2.unweighted_mask() == 0b11000


def test_half_support_components_orders():
    g = disjoint_union(cycle(5), path(3))
    f = FractionalMatching(
        g, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (0, 4): 1, (5, 6): 1, (6, 7): 1}
    )
    comps = f.half_support_components()
    assert comps == [("cycle", [0, 1, 2, 3, 4]), ("path", [5, 6, 7])]


# ----------------------------------------------------------- canonical form


def test_canonicalize_even_cycle():
    g = cycle(4)
    f = FractionalMatching(g, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})
    out = canonicalize_fm(g, f)
    assert out.items() == [((0, 1), 2), ((2, 3), 2)]


def test_canonicalize_even_path():
    g = path(3)
    f = FractionalMatching(g, {(0, 1): 1, (1, 2): 1})
    out = canonicalize_fm(g, f)
    assert out.items() == [((0, 1), 2)]


def test_canonicalize_keeps_odd_cycles():
    g = cycle(5)
    f = extract_fm(g)
    assert canonicalize_fm(g, f) == f


def test_canonicalize_rejects_suboptimal():
    g = path(3)
    with pytest.raises(ValueError):
        canonicalize_fm(g, FractionalMatching(g, {(0, 1): 1}))
    with pytest.raises(ValueError):
        canonicalize_fm(cycle(4), FractionalMatching(path(3), {(0, 1): 2}))


def test_canonical_shape_exhaustive_to_n5():
    for n in range(6):
        for g in all_graphs(n):
            f = canonical_fm(g)
            assert f.value.units == alpha2(g)
            for kind, order in f.half_support_components():
                assert kind == "cycle" and len(order) % 2 == 1
            unweighted = f.unweighted_mask()
            full = f.full_mask()
            for v in bits(unweighted):
                assert g.row(v) & unweighted == 0
                assert g.row(v) & ~full == 0


def test_extract_on_larger_random_graphs():
    rng = random.Random(424242)
    for _ in range(20):
        n = rng.randint(20, 40)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.15
        ]
        g = Graph.from_edges(n, edges)
        f = canonical_fm(g)
        w = berge_deficiency(g)
        assert f.value.units == n - w.deficiency
