"""Family recognizers and the small-value sum clauses."""

import random

import pytest

from fracmatch.errors import PreconditionError
from fracmatch.families import (
    FamilyLabel,
    FamilyTag,
    classify_equality_family,
    classify_small_alpha,
    is_bistar_sandwich,
    is_full_star,
    is_k2_00_ell,
    is_k2pql_family,
    small_alpha_ng,
    universal_vertex_count,
)
from fracmatch.fm import alpha2
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
from fracmatch.graph import Graph, bits, mask_of
from fracmatch.halfint import HalfInt

TAG_TO_UNITS = {
    FamilyTag.StarUnion: 2,
    FamilyTag.TriangleUnion: 3,
    FamilyTag.Sandwich_2K2_K4: 4,
    FamilyTag.Sandwich_2K2_K2pq: 4,
    FamilyTag.C5Union_in_K5: 5,
    FamilyTag.C3K2Union_in_K5: 5,
    FamilyTag.C3K2Union_in_H: 5,
}


def all_graphs(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        yield Graph.from_mask(n, mask)


# -------------------------------------------------------------- classifier


@pytest.mark.parametrize(
    "g,tag",
    [
        (add_isolates(star(5), 3), FamilyTag.StarUnion),
        (complete(2), FamilyTag.StarUnion),
        (add_isolates(cycle(3), 5), FamilyTag.TriangleUnion),
        (add_isolates(disjoint_union(complete(2), complete(2)), 2), FamilyTag.Sandwich_2K2_K4),
        (complete(4), FamilyTag.Sandwich_2K2_K4),
        (k2pql(3, 1, 2), FamilyTag.Sandwich_2K2_K2pq),
        (complete_bipartite(2, 3), FamilyTag.Sandwich_2K2_K2pq),
        (k2pql(0, 0, 6), FamilyTag.Sandwich_2K2_K2pq),
        (add_isolates(cycle(5), 2), FamilyTag.C5Union_in_K5),
        (complete(5), FamilyTag.C5Union_in_K5),
        (disjoint_union(cycle(3), complete(2)), FamilyTag.C3K2Union_in_K5),
        (hgraph(7), FamilyTag.C3K2Union_in_H),
    ],
)
def test_classify_known_members(g, tag):
    label = classify_small_alpha(g)
    assert label is not None and label.tag == tag
    assert alpha2(g) == TAG_TO_UNITS[tag]


@pytest.mark.parametrize(
    "g",
    [empty_graph(6), complete(6), cycle(7), disjoint_union(cycle(3), cycle(3))],
)
def test_classify_non_members(g):
    assert classify_small_alpha(g) is None


def test_star_label_params():
    label = classify_small_alpha(add_isolates(star(5), 3))
    assert label == FamilyLabel(FamilyTag.StarUnion, k=4)


def test_classifier_agrees_with_values_up_to_n6():
    """Label presence must be equivalent to a matching number in
    {1, 3/2, 2, 5/2}, and each tag pins the exact value."""
    for n in range(7):
        for g in all_graphs(n):
            label = classify_small_alpha(g)
            units = alpha2(g)
            if units in (2, 3, 4, 5):
                assert label is not None, g
                assert TAG_TO_UNITS[label.tag] == units, g
            else:
                assert label is None, g


# -------------------------------------------------------- small recognizers


def test_k2_00_ell_recognizer():
    assert is_k2_00_ell(k2pql(0, 0, 5)) == 5
    assert is_k2_00_ell(k2pql(0, 0, 2)) == 2
    assert is_k2_00_ell(complete(4)) is None
    assert is_k2_00_ell(k2pql(1, 0, 4)) is None
    assert is_k2_00_ell(cycle(4)) is None


def test_k2pql_recognizer():
    assert is_k2pql_family(k2pql(3, 2, 4)) == (3, 2, 4)
    assert is_k2pql_family(k2pql(1, 1, 0)) == (1, 1, 0)
    assert is_k2pql_family(k2pql(5, 0, 3)) == (5, 0, 3)
    assert is_k2pql_family(cycle(5)) is None
    assert is_k2pql_family(complete_bipartite(2, 4)) is None  # hubs not adjacent


def test_bistar_recognizer():
    assert is_bistar_sandwich(disjoint_union(star(6), star(24))) == 5
    assert is_bistar_sandwich(complete_bipartite(2, 6)) == 5
    assert is_bistar_sandwich(disjoint_union(complete(2), complete(2))) == 1
    assert is_bistar_sandwich(k2pql(2, 2, 0)) is None  # hubs adjacent
    assert is_bistar_sandwich(star(8)) is None  # no second star
    assert is_bistar_sandwich(cycle(6)) is None


def test_full_star_recognizer():
    assert is_full_star(star(9)) == 8
    assert is_full_star(complete(2)) == 1
    assert is_full_star(add_isolates(star(5), 1)) is None
    assert is_full_star(complete(3)) is None
    assert universal_vertex_count(star(9)) == 1


# --------------------------------------------------------- equality families


def test_equality_family_basic():
    assert classify_equality_family(empty_graph(30), "basic").tag == FamilyTag.EmptyGraph
    assert classify_equality_family(complete(30), "basic").tag == FamilyTag.CompleteGraph
    assert classify_equality_family(star(5), "basic") is None


def test_equality_family_nonempty():
    label = classify_equality_family(star(29), "nonempty")
    assert label == FamilyLabel(FamilyTag.StarUnion, k=28)
    assert classify_equality_family(star(29).complement(), "nonempty") == label
    assert classify_equality_family(path(4), "nonempty") is None


def test_equality_family_isolate_free():
    label = classify_equality_family(k2pql(14, 13, 1), "isolate_free")
    assert label == FamilyLabel(FamilyTag.K2pql, p=14, q=13, ell=1)
    assert classify_equality_family(k2pql(14, 13, 1).complement(), "isolate_free") == label
    bistar = disjoint_union(star(6), star(24))
    blabel = classify_equality_family(bistar, "isolate_free")
    assert blabel == FamilyLabel(FamilyTag.BistarInK2n2, m=5)
    assert classify_equality_family(bistar.complement(), "isolate_free") == blabel
    # hub with no pendant on one side is not in the theorem family
    assert classify_equality_family(k2pql(5, 0, 3), "isolate_free") is None
    assert classify_equality_family(cycle(30), "isolate_free") is None
    with pytest.raises(ValueError):
        classify_equality_family(cycle(5), "unknown")


# ------------------------------------------- large orders against edge scans
#
# C4 checks the classifier only up to n = 7, but these recognisers decide C8
# and the sweep's family column at n >= 28. The references below are the
# edge-list cover scans that the degree-count recognisers replaced.


def _ref_full_star(g):
    if g.n < 2:
        return None
    for c in range(g.n):
        if g.degree(c) == g.n - 1 and all(g.degree(v) == 1 for v in range(g.n) if v != c):
            return g.n - 1
    return None


def _ref_k2pql(g):
    n = g.n
    if n < 3:
        return None
    for u, v in g.edges():
        p = q = ell = 0
        hub_mask = (1 << u) | (1 << v)
        for w in range(n):
            if w in (u, v):
                continue
            nb = g.row(w)
            if nb & ~hub_mask or nb == 0:
                break
            if nb == hub_mask:
                ell += 1
            elif nb == 1 << u:
                p += 1
            else:
                q += 1
        else:
            return (max(p, q), min(p, q), ell)
    return None


def _ref_bistar(g):
    n = g.n
    edges = list(g.edges())
    if n < 4 or not edges:
        return None
    for a in edges[0]:
        for b in range(n):
            if b == a or g.adj(a, b):
                continue
            cover = (1 << a) | (1 << b)
            if any(not cover & ((1 << c) | (1 << d)) for c, d in edges):
                continue
            if not all(g.row(w) & cover for w in range(n) if not cover & (1 << w)):
                continue
            na, nb = g.row(a), g.row(b)
            if na and nb and (na | nb).bit_count() >= 2:
                return min(na.bit_count(), nb.bit_count(), n - 3)
    return None


def _ref_equality_family(g, which):
    for h in (g, g.complement()):
        if which == "nonempty":
            k = _ref_full_star(h)
            if k is not None:
                return FamilyLabel(FamilyTag.StarUnion, k=k)
            continue
        pql = _ref_k2pql(h)
        if pql is not None and pql[1] >= 1:
            return FamilyLabel(FamilyTag.K2pql, p=pql[0], q=pql[1], ell=pql[2])
        bm = _ref_bistar(h)
        if bm is not None:
            return FamilyLabel(FamilyTag.BistarInK2n2, m=bm)
    return None


def _relabel(g, perm):
    rows = [0] * g.n
    for v in range(g.n):
        rows[perm[v]] = mask_of(perm[w] for w in bits(g.row(v)))
    return Graph(g.n, rows)


def _flip(g, u, v):
    rows = list(g.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph(g.n, rows)


def large_order_population(seed=20261018):
    """Family members at n = 28..40 (stars, K2(p,q,ell), complete bipartite
    graphs, two-star unions), a seeded relabeling of each, two seeded
    one-edge flips of both, and the complements of all of these."""
    rng = random.Random(seed)
    for n in range(28, 41):
        splits = [rng.randrange(n - 1) for _ in range(2)]
        members = [star(n), k2pql(n - 2, 0, 0), k2pql(n - 3, 1, 0), k2pql(0, 0, n - 2)]
        for r in splits:
            s = rng.randrange(n - 1 - r)
            members.append(k2pql(r, s, n - 2 - r - s))
        members += [complete_bipartite(a, n - a) for a in (1, 2, n // 2)]
        members += [disjoint_union(star(a), star(n - a)) for a in (2, 3, n // 2)]
        for h in members:
            perm = list(range(n))
            rng.shuffle(perm)
            for base in (h, _relabel(h, perm)):
                yield base
                yield base.complement()
                for _ in range(2):
                    u, v = rng.sample(range(n), 2)
                    flipped = _flip(base, u, v)
                    yield flipped
                    yield flipped.complement()


def test_recognisers_match_edge_scans_at_large_orders():
    seen = {"star": 0, "k2pql": 0, "bistar": 0, "nonempty": 0, "isolate_free": 0}
    checked = 0
    for g in large_order_population():
        checked += 1
        got = {
            "star": is_full_star(g),
            "k2pql": is_k2pql_family(g),
            "bistar": is_bistar_sandwich(g),
            "nonempty": classify_equality_family(g, "nonempty"),
            "isolate_free": classify_equality_family(g, "isolate_free"),
        }
        want = {
            "star": _ref_full_star(g),
            "k2pql": _ref_k2pql(g),
            "bistar": _ref_bistar(g),
            "nonempty": _ref_equality_family(g, "nonempty"),
            "isolate_free": _ref_equality_family(g, "isolate_free"),
        }
        assert got == want, g
        for key, value in got.items():
            seen[key] += value is not None
    assert checked == 13 * 12 * 2 * 6
    # every recogniser both accepts and rejects somewhere in the population
    assert all(0 < count < checked for count in seen.values()), seen


# -------------------------------------------------------- small-value sums


def test_small_alpha_ng_star():
    rep = small_alpha_ng(star(12))
    assert rep.clause == "one"
    assert rep.ng_sum == HalfInt(13)
    assert rep.bound == HalfInt(13)
    assert rep.is_equality and rep.unique_universal
    assert rep.equality_matches_criterion is True


def test_small_alpha_ng_star_with_isolates():
    g = add_isolates(star(4), 8)  # no universal vertex, no equality
    rep = small_alpha_ng(g)
    assert rep.clause == "one"
    assert not rep.is_equality and not rep.unique_universal
    assert rep.equality_matches_criterion is True


def test_small_alpha_ng_triangle():
    rep = small_alpha_ng(add_isolates(cycle(3), 9))
    assert rep.clause == "three_halves"
    assert rep.exact and rep.ng_sum == HalfInt(15)


def test_small_alpha_ng_hub_clique():
    rep = small_alpha_ng(k2pql(0, 0, 10))
    assert rep.clause == "two_hub_clique"
    assert rep.exact and rep.ng_sum == HalfInt(14)
    assert rep.ng_sum.as_fraction() == 7


def test_small_alpha_ng_two_general():
    rep = small_alpha_ng(k2pql(3, 1, 2))
    assert rep.clause == "two_general"
    assert rep.ng_sum >= rep.bound
    assert rep.equality_matches_criterion is True


def test_small_alpha_ng_five_halves():
    rep = small_alpha_ng(add_isolates(cycle(5), 2))
    assert rep.clause == "five_halves"
    assert rep.bound == HalfInt(11)
    assert rep.ng_sum >= rep.bound


def test_small_alpha_ng_lemma_2_12_scope():
    rep = small_alpha_ng(add_isolates(cycle(5), 5))
    assert rep.complement_alpha_is_half_n is True
    rep2 = small_alpha_ng(k2pql(0, 0, 10))  # complement has isolates
    assert rep2.complement_alpha_is_half_n is None


@pytest.mark.parametrize(
    "g",
    [
        complete(6),  # value 3, no clause
        star(3),  # value 1 but n < 4
        add_isolates(cycle(3), 2),  # value 3/2 but n < 6
        k2pql(1, 1, 1),  # value 2, not hub-clique, n < 8
        disjoint_union(cycle(3), complete(2)),  # value 5/2 but n < 7
        empty_graph(8),  # value 0
    ],
)
def test_small_alpha_ng_preconditions(g):
    with pytest.raises(PreconditionError):
        small_alpha_ng(g)


def test_small_alpha_ng_sweep_small_orders():
    """Every applicable graph up to n = 6 satisfies its clause bound; the
    report never raises an internal error."""
    checked = 0
    for n in range(4, 7):
        for g in all_graphs(n):
            units = alpha2(g)
            if units not in (2, 3, 4, 5):
                continue
            if units == 2 and n < 4:
                continue
            if units == 3 and n < 6:
                continue
            if units == 4 and is_k2_00_ell(g) is None and n < 8:
                continue
            if units == 5 and n < 7:
                continue
            rep = small_alpha_ng(g)
            assert rep.ng_sum >= rep.bound if not rep.exact else rep.ng_sum == rep.bound
            checked += 1
    assert checked > 100
