"""Good-partition construction and verification."""

import dataclasses
import hashlib
import json

import pytest

from fracmatch import partition
from fracmatch.bipartite import hopcroft_karp
from fracmatch.errors import InternalInconsistencyError
from fracmatch.fm import FractionalMatching, _canonicalize, alpha2, berge_deficiency, canonical_fm
from fracmatch.generators import add_isolates, complete, cycle, disjoint_union, k2pql, star
from fracmatch.graph import Graph, bits
from fracmatch.graph6 import parse_graph6
from fracmatch.halfint import HalfInt
from fracmatch.harness import SampleSpec, sample_graphs
from fracmatch.partition import (
    GoodPartition,
    PropertyReport,
    _build_partition,
    check_partition_structure,
    good_partition,
    partition_dump,
    verify_partition,
)
from fracmatch.selftest import branch_corpus, corpus_with_relabelings


def all_graphs(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        yield Graph.from_mask(n, mask)


# ------------------------------------------------------------- construction


def test_star_partition():
    g = star(8)
    p = good_partition(g)
    assert p.v11 == 0b1
    assert p.v12 == 0b10
    assert p.v21 == 0b100
    assert p.v22 == 0b11111000
    assert p.x == 0b10
    assert p.s == 1
    assert p.t == HalfInt(2)
    assert p.pairing == ((0, 2),)
    assert verify_partition(g, p).all_ok()


def test_c5_partition():
    g = cycle(5)
    p = good_partition(g)
    assert p.fm.unweighted == 0
    assert p.s == 0
    assert p.x == 0
    assert p.t == HalfInt(5)
    assert verify_partition(g, p).all_ok()


def test_two_k2_with_isolates():
    g = add_isolates(disjoint_union(complete(2), complete(2)), 4)
    p = good_partition(g)
    assert p.fm.support == 0b1111
    assert p.s == 0
    assert p.v22 == 0b11110000


def test_double_star_partition():
    g = k2pql(3, 3, 0)
    p = good_partition(g)
    assert p.s == 2
    assert p.v11 == 0b11
    assert p.x == p.v12
    assert verify_partition(g, p).all_ok()


def test_exhaustive_small_orders():
    for n in range(7):
        for g in all_graphs(n):
            p = good_partition(g)
            check_partition_structure(g, p)
            assert verify_partition(g, p).all_ok(), g
            assert p.v12.bit_count() == p.t.units - p.s
            assert p.v22.bit_count() == g.n - p.t.units - p.s
            # the unweighted side is independent
            v2 = p.v21 | p.v22
            for v in bits(v2):
                assert g.row(v) & v2 == 0
            # matching restricted to the support side is fractionally perfect
            for v in bits(p.v11 | p.v12):
                assert p.fm.loads[v] == 2


def test_dump_roundtrip():
    g = star(8)
    p = good_partition(g)
    doc = json.loads(partition_dump(g, p))
    assert doc["s"] == 1
    assert doc["t"] == "1"
    assert doc["v22"] == [3, 4, 5, 6, 7]
    assert doc["fm"] == [[0, 1, 2]]


# ------------------------------------------------------------ structure gate


def test_structure_check_rejects_bad_fields():
    """Hand-built (matching, pairing) pairs on star(8) that the structure
    check refuses, each with its own message."""
    g = star(8)
    f = good_partition(g).fm
    check_partition_structure(g, GoodPartition(f, ((0, 2),)))
    tampered = [
        (f, ((1, 2),), "not a support-unweighted edge"),  # a non-edge
        (f, ((0, 2), (0, 3)), "not independent"),  # a shared vertex
        (f, ((0, 1),), "not a support-unweighted edge"),  # right end in the support
        (FractionalMatching(star(9), {(0, 1): 2}), ((0, 2),), "different graph"),
        (FractionalMatching(g, {(0, 1): 1}), (), "not twice the matching value"),
    ]
    for matching, pairing, message in tampered:
        with pytest.raises(ValueError, match=message):
            check_partition_structure(g, GoodPartition(matching, pairing))


def test_parts_are_read_off_matching_and_pairing():
    g = star(8)
    p = GoodPartition(FractionalMatching(g, {(0, 1): 2}), ((0, 2),))
    assert [f.name for f in dataclasses.fields(p)] == ["fm", "pairing"]
    assert p == good_partition(g)
    assert (p.v11, p.v12, p.v21, p.v22, p.x) == (0b1, 0b10, 0b100, 0b11111000, 0b10)
    assert {type(part) for part in (p.v11, p.v12, p.v21, p.v22, p.x)} == {int}
    assert (p.s, p.t) == (1, HalfInt(2))


# ------------------------------------------------------------------ pairing


def reference_pairing(g, f):
    """The pairing solved over every support vertex, zero rows included."""
    v1 = list(bits(f.support))
    m = hopcroft_karp([g.rows[u] & f.unweighted for u in v1], g.n)
    return tuple((u, w) for u, w in zip(v1, m.pair_left) if w != -1)


def pairing_population():
    yield from (g for n in range(7) for g in all_graphs(n))
    yield from corpus_with_relabelings(2, 26)
    for n in range(28, 32):
        yield from sample_graphs(SampleSpec(n, 1, 2, 50, 26))


def test_pairing_skips_vertices_that_cannot_pair(monkeypatch):
    # A support vertex without an unweighted neighbour can neither pair nor
    # block another, so leaving it out keeps the pairing.
    handed = []

    def recording(rows, n_right):
        handed.append(list(rows))
        return hopcroft_karp(rows, n_right)

    monkeypatch.setattr(partition, "hopcroft_karp", recording)
    checked = 0
    for g in pairing_population():
        f = canonical_fm(g)
        del handed[:]
        assert _build_partition(g, f).pairing == reference_pairing(g, f), g
        assert len(handed) == 1 and all(handed[0]), g
        checked += 1
    assert checked == 33_868 + 75 + 200

    g = complete(4)
    f = canonical_fm(g)
    assert f.unweighted == 0
    assert _build_partition(g, f).pairing == reference_pairing(g, f) == ()
    assert handed[-1] == []


# ------------------------------------------------------- optimum invariants


def test_canonicalize_rebuilds_even_half_cycle():
    """An even half-cycle is a legal optimal matching on which a paired
    vertex is not full; canonicalising it and rebuilding the partition gives
    the same value with all five properties."""
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    f = FractionalMatching(g, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})
    assert f.value.units == alpha2(g)
    p = GoodPartition(f, ((0, 4),))
    check_partition_structure(g, p)
    # the paired vertex 0 has no 1-edge partner, so x is empty
    assert (p.v11, p.v12, p.x) == (0b1, 0b1110, 0)
    assert verify_partition(g, p).failures() == ["v11_all_full"]
    rebuilt = _build_partition(g, _canonicalize(f))
    check_partition_structure(g, rebuilt)
    assert rebuilt.t == f.value
    assert verify_partition(g, rebuilt).all_ok()


def test_property_b_sees_weight_inside_v11():
    """Property (b) fails exactly when an edge inside v11 carries weight,
    a 1-edge or a half-edge alike."""
    # K2 on 0, 1 and a triangle on 2, 3, 4; the unweighted 5 and 6 see all five
    edges = [(0, 1), (2, 3), (3, 4), (2, 4)] + [(u, w) for u in range(5) for w in (5, 6)]
    g = Graph.from_edges(7, edges)
    f = FractionalMatching(g, {(0, 1): 2, (2, 3): 1, (3, 4): 1, (2, 4): 1})
    for (a, b), ok in (((0, 1), False), ((2, 3), False), ((0, 2), True)):
        p = GoodPartition(f, ((a, 5), (b, 6)))
        check_partition_structure(g, p)
        assert p.v11 == 1 << a | 1 << b
        assert verify_partition(g, p).v11_internal_edges_unweighted is ok


def test_properties_d_and_e_see_edges_at_x():
    """Property (d) fails exactly when two vertices of x are adjacent, and
    (e) when a vertex of x sees the unweighted side."""
    # 1-edges 0-1 and 2-3; 0 and 2 are paired with the unweighted 4 and 5
    edges = [(0, 1), (2, 3), (0, 4), (2, 5)]
    cases = [([], []), ([(1, 3)], ["x_independent"]), ([(1, 5)], ["no_edge_x_to_v2"])]
    for extra, failures in cases:
        g = Graph.from_edges(6, edges + extra)
        p = GoodPartition(FractionalMatching(g, {(0, 1): 2, (2, 3): 2}), ((0, 4), (2, 5)))
        check_partition_structure(g, p)
        assert p.x == 0b1010
        assert verify_partition(g, p).failures() == failures


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(PropertyReport)])
def test_report_fails_on_each_property(name):
    report = PropertyReport(**{f.name: f.name != name for f in dataclasses.fields(PropertyReport)})
    assert report.failures() == [name]
    assert not report.all_ok()


def test_failed_property_is_an_internal_error(monkeypatch):
    failing = PropertyReport(
        one_edge_no_common_v2_neighbor=True,
        v11_internal_edges_unweighted=True,
        v11_all_full=False,
        x_independent=True,
        no_edge_x_to_v2=True,
    )
    monkeypatch.setattr(partition, "verify_partition", lambda g, p: failing)
    with pytest.raises(InternalInconsistencyError, match="v11_all_full"):
        good_partition(star(8))


# -------------------------------------------------------- chosen certificate
# The shape checks pass on any valid optimum, so only these pins notice
# when a different matching, pairing or witness is chosen. A change that
# picks another one on purpose updates them and says so.


def _doc(n, t, s, v11, v12, v21, v22, x, pairing, fm):
    return json.dumps(
        {"n": n, "t": t, "s": s, "v11": v11, "v12": v12, "v21": v21, "v22": v22,
         "x": x, "pairing": pairing, "fm": fm},
        indent=2,
    )


PARTITION_DOCS = [
    # the extracted matching is an even half-cycle 0-2-1-3
    pytest.param(
        parse_graph6("C}"),
        _doc(4, "2", 0, [], [0, 1, 2, 3], [], [], [], [], [[0, 2, 2], [1, 3, 2]]),
        id="C}",
    ),
    # the extracted matching is an even half-path 3-1-2-0-4
    pytest.param(
        parse_graph6("Dy_"),
        _doc(5, "2", 1, [0], [1, 2, 3], [4], [], [2], [[0, 4]], [[0, 2, 2], [1, 3, 2]]),
        id="Dy_",
    ),
    pytest.param(
        dict(branch_corpus())["nq_halfcycle_r1"],
        _doc(
            31, "17/2", 2, [5, 8],
            [0, 1, 2, 3, 4, 6, 9, 11, 12, 13, 14, 15, 16, 17, 18],
            [7, 10], list(range(19, 31)), [6, 9], [[5, 7], [8, 10]],
            [[0, 1, 1], [0, 4, 1], [1, 2, 1], [2, 3, 1], [3, 4, 1], [5, 6, 2],
             [8, 9, 2], [11, 12, 2], [13, 14, 2], [15, 16, 2], [17, 18, 2]],
        ),
        id="nq_halfcycle_r1",
    ),
]


@pytest.mark.parametrize("g,doc", PARTITION_DOCS)
def test_partition_dump_pinned(g, doc):
    assert partition_dump(g, good_partition(g)) == doc


CERTIFICATE_DIGEST = "791ccbcdfaadee9ec53c3293c9cb300c49966c60f57053f5b42520726ef62bd5"


def test_chosen_certificates_pinned():
    """The canonical matching, the pairing and the Berge witness S on every
    graph with n <= 5 and on the relabeled branch corpus."""
    graphs = [g for n in range(6) for g in all_graphs(n)] + corpus_with_relabelings(copies=1)
    digest = hashlib.sha256()
    for g in graphs:
        p = good_partition(g)
        line = (canonical_fm(g).items(), p.pairing, sorted(berge_deficiency(g).s_set))
        digest.update(repr(line).encode() + b"\n")
    assert digest.hexdigest() == CERTIFICATE_DIGEST
