"""Fractional matching values, certificates, canonical shape."""

import random

import pytest

from fracmatch import fm, ngbounds, partition
from fracmatch.errors import InternalInconsistencyError, PreconditionError
from fracmatch.fm import (
    FractionalMatching,
    alpha2,
    alpha_prime,
    berge_deficiency,
    _canonicalize,
    canonical_fm,
    deficiency_of,
    extract_fm,
    oracle_alpha_exhaustive,
)
from fracmatch.generators import complete, cycle, disjoint_union, empty_graph, hgraph, path, star
from fracmatch.graph import Graph, bits
from fracmatch.halfint import HalfInt
from fracmatch.selftest import branch_corpus


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


READERS = {
    "alpha2": alpha2,
    "alpha_prime": alpha_prime,
    "berge_deficiency": berge_deficiency,
    "canonical_fm": canonical_fm,
    "good_partition": partition.good_partition,
}


@pytest.mark.parametrize("order", [list(READERS), list(READERS)[::-1]], ids=["forward", "reverse"])
def test_one_double_cover_solve_per_graph(monkeypatch, order):
    solves = []

    def counting(rows, n_right, solve=fm.hopcroft_karp):
        solves.append(tuple(rows))
        return solve(rows, n_right)

    monkeypatch.setattr(fm, "hopcroft_karp", counting)
    monkeypatch.setattr(partition, "hopcroft_karp", counting)
    g = disjoint_union(cycle(5), star(3), path(2))
    seen = (hash(g), repr(g))
    for name in order:
        READERS[name](g)
    # the pairing in good_partition solves other rows: support onto unweighted
    assert solves.count(g.rows) == 1 and len(solves) == 2
    assert (hash(g), repr(g)) == seen and g == Graph(g.n, list(g.rows))

    twin = Graph(g.n, list(g.rows))
    assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)
    for name in order:
        READERS[name](twin)
    assert solves.count(g.rows) == 2


def test_one_complement_per_graph():
    g = dict(branch_corpus())["hub_m_open"]
    seen = (g, hash(g), repr(g))
    gc = g.complement()
    assert g.complement() is gc
    full = (1 << g.n) - 1
    assert gc.rows == tuple(full & ~r & ~(1 << v) for v, r in enumerate(g.rows))
    assert (g, hash(g), repr(g)) == seen and repr(g) == repr(Graph(g.n, list(g.rows)))
    # the complement keeps no link back, so no reference cycle forms
    assert gc._complement is None and gc.complement() is not g and gc.complement() == g

    twin = Graph(g.n, list(g.rows))
    assert twin == g and hash(twin) == hash(g)
    assert twin.complement() == gc and twin.complement() is not gc

    p = partition.good_partition(g)
    rules = ngbounds.applicable_rules(g, p)
    assert rules == ("base", "plus_half", "plus_one")
    for rule in rules:
        assert ngbounds.construct_complement_fm(g, p, rule)[0].host is gc
    # ng_sum solves the kept complement, so the solve stays on it
    assert gc._solve is None
    report = ngbounds.ng_sum(g)
    assert gc._solve is not None and report.alpha_gc.units == alpha2(gc)


@pytest.mark.parametrize("reader", [alpha2, ngbounds.ng_sum, berge_deficiency],
                         ids=["alpha2", "ng_sum", "berge_deficiency"])
def test_a_solve_that_pairs_a_non_edge_is_rejected(monkeypatch, reader):
    # The solver's pairing is checked when the solve is made, so every
    # reader of it sees the failure.
    def tampered(rows, n_right, solve=fm.hopcroft_karp):
        m = solve(rows, n_right)
        u = next(u for u, v in enumerate(m.pair_left) if v != -1)
        v = next(v for v in range(n_right) if not rows[u] >> v & 1 and v not in m.pair_left)
        return m._replace(pair_left=m.pair_left[:u] + (v,) + m.pair_left[u + 1:])

    monkeypatch.setattr(fm, "hopcroft_karp", tampered)
    g = disjoint_union(path(2), path(3))
    with pytest.raises(InternalInconsistencyError, match="not an edge"):
        reader(g)
    assert g._solve is None


# --------------------------------------------------------------- container


def test_fm_validation():
    g = cycle(4)
    with pytest.raises(ValueError):
        FractionalMatching(g, {(0, 2): 1})  # non-edge
    with pytest.raises(ValueError):
        FractionalMatching(g, {(0, 1): 3})
    with pytest.raises(ValueError, match=r"^vertex 1 overloaded: 3 half-units$"):
        FractionalMatching(g, {(0, 1): 2, (1, 2): 1})
    # the lowest overloaded vertex is named, not the most loaded one
    with pytest.raises(ValueError, match=r"^vertex 1 overloaded: 3 half-units$"):
        FractionalMatching(complete(4), {(2, 3): 2, (1, 3): 2, (0, 1): 1})
    with pytest.raises(ValueError, match=r"edge \(0,1\) given twice"):
        FractionalMatching(complete(2), {(0, 1): 1, (1, 0): 1})
    with pytest.raises(ValueError, match="given twice"):
        FractionalMatching(g, {(2, 3): 0, (3, 2): 2})
    f = FractionalMatching(g, {(1, 0): 2, (2, 3): 0})
    assert f.items() == [((0, 1), 2)]
    assert f.value == HalfInt(2)
    assert f.loads[0] == 2 and f.loads[2] == 0


@pytest.mark.parametrize("weights, message", [
    ({(5, 7): 2}, r"edge \(5,7\) does not join two vertices of 0\.\.2"),
    ({(-1, 1): 2}, r"edge \(-1,1\) does not join two vertices of 0\.\.2"),
    ({(1, 2): 2.0}, r"edge \(1,2\) has weight 2\.0 half-units"),
    ({(0.0, 1.0): 2}, r"edge \(0\.0,1\.0\) names a vertex that is not an int"),
    ({(True, 2): 2}, r"edge \(True,2\) names a vertex that is not an int"),
], ids=["vertex_beyond_host", "negative_vertex", "float_weight", "float_vertex", "bool_vertex"])
def test_fm_rejects_malformed_edge(weights, message):
    with pytest.raises(ValueError, match=message):
        FractionalMatching(path(3), weights)


def test_fm_derived_facts():
    g = disjoint_union(cycle(3), complete(2), complete(1))
    f = FractionalMatching(g, {(0, 1): 1, (1, 2): 1, (0, 2): 1, (4, 3): 2})
    assert f.value == HalfInt(5)
    assert f.full == 0b011000
    assert f.half == 0b000111
    assert f.support == 0b011111
    assert f.unweighted == 0b100000
    assert f.one_edges() == [(3, 4)]
    assert f.loads == (2, 2, 2, 2, 2, 0)
    assert f.partners == (-1, -1, -1, 4, 3, -1)
    assert f.half_rows == (0b110, 0b101, 0b011, 0, 0, 0)


def test_half_support_components_orders():
    g = disjoint_union(cycle(5), path(3))
    f = FractionalMatching(
        g, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (3, 4): 1, (0, 4): 1, (5, 6): 1, (6, 7): 1}
    )
    comps = f.half_support_components()
    assert comps == [("cycle", [0, 1, 2, 3, 4]), ("path", [5, 6, 7])]


def test_half_path_starts_at_its_smaller_end():
    # the smallest vertex 0 lies inside the path 3-1-2-0-4
    g = Graph.from_edges(5, [(0, 2), (0, 4), (1, 2), (1, 3)])
    f = FractionalMatching(g, {(0, 2): 1, (0, 4): 1, (1, 2): 1, (1, 3): 1})
    assert f.half_support_components() == [("path", [3, 1, 2, 0, 4])]


# ----------------------------------------------------------- canonical form


def test_canonicalize_even_cycle():
    g = cycle(4)
    f = FractionalMatching(g, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})
    out = _canonicalize(f)
    assert out.items() == [((0, 1), 2), ((2, 3), 2)]


def test_canonicalize_even_path():
    g = path(3)
    f = FractionalMatching(g, {(0, 1): 1, (1, 2): 1})
    out = _canonicalize(f)
    assert out.items() == [((0, 1), 2)]


def test_canonicalize_rejects_odd_path():
    g = path(4)
    f = FractionalMatching(g, {(0, 1): 1, (1, 2): 1, (2, 3): 1})
    with pytest.raises(InternalInconsistencyError, match="odd half-path"):
        _canonicalize(f)


@pytest.mark.parametrize(
    "edges,weights,message",
    [
        # an edge left unweighted
        ([(0, 1)], {}, "adjacent unweighted vertices at 0"),
        # a half-triangle with an unweighted pendant on vertex 0
        ([(0, 1), (0, 2), (1, 2), (0, 3)], {(0, 1): 1, (0, 2): 1, (1, 2): 1},
         "half-cycle vertex touches unweighted vertex 3"),
    ],
    ids=["unweighted-edge", "half-cycle-pendant"],
)
def test_canonicalize_rejects_an_unweighted_vertex_with_a_non_full_neighbour(
    edges, weights, message
):
    f = FractionalMatching(Graph.from_edges(4, edges), weights)
    with pytest.raises(InternalInconsistencyError, match=f"^{message}$"):
        _canonicalize(f)


def test_canonicalize_keeps_odd_cycles():
    g = cycle(5)
    f = extract_fm(g)
    assert _canonicalize(f) == f


def test_canonical_shape_exhaustive_to_n5():
    for n in range(6):
        for g in all_graphs(n):
            f = canonical_fm(g)
            assert f.value.units == alpha2(g)
            for kind, order in f.half_support_components():
                assert kind == "cycle" and len(order) % 2 == 1
            for v in bits(f.unweighted):
                assert g.row(v) & f.unweighted == 0
                assert g.row(v) & ~f.full == 0


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
