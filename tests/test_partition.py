"""Good-partition construction and verification."""

import json

import pytest

from fracmatch import partition
from fracmatch.errors import InternalInconsistencyError
from fracmatch.fm import FractionalMatching, _canonicalize, alpha2
from fracmatch.generators import add_isolates, complete, cycle, disjoint_union, k2pql, star
from fracmatch.graph import Graph, bits
from fracmatch.halfint import HalfInt
from fracmatch.partition import (
    GoodPartition,
    PropertyReport,
    _build_partition,
    check_partition_structure,
    good_partition,
    partition_dump,
    verify_partition,
)


def all_graphs(n):
    for mask in range(1 << (n * (n - 1) // 2)):
        yield Graph.from_mask(n, mask)


# ------------------------------------------------------------- construction


def test_star_partition():
    g = star(8)
    p = good_partition(g)
    assert p.v11 == frozenset({0})
    assert p.v12 == frozenset({1})
    assert p.v21 == frozenset({2})
    assert p.v22 == frozenset({3, 4, 5, 6, 7})
    assert p.x == frozenset({1})
    assert p.s == 1
    assert p.t == HalfInt(2)
    assert p.pairing == ((0, 2),)
    assert verify_partition(g, p).all_ok()


def test_c5_partition():
    g = cycle(5)
    p = good_partition(g)
    assert p.unweighted_side == frozenset()
    assert p.s == 0
    assert p.x == frozenset()
    assert p.t == HalfInt(5)
    assert verify_partition(g, p).all_ok()


def test_two_k2_with_isolates():
    g = add_isolates(disjoint_union(complete(2), complete(2)), 4)
    p = good_partition(g)
    assert p.support_side == frozenset(range(4))
    assert p.s == 0
    assert p.v22 == frozenset(range(4, 8))


def test_double_star_partition():
    g = k2pql(3, 3, 0)
    p = good_partition(g)
    assert p.s == 2
    assert p.v11 == frozenset({0, 1})
    assert p.x == p.v12
    assert verify_partition(g, p).all_ok()


def test_exhaustive_small_orders():
    for n in range(7):
        for g in all_graphs(n):
            p = good_partition(g)
            check_partition_structure(g, p)
            assert verify_partition(g, p).all_ok(), g
            assert len(p.v12) == p.t.units - p.s
            assert len(p.v22) == g.n - p.t.units - p.s
            # the unweighted side is independent
            v2 = p.unweighted_side
            for v in v2:
                assert all(w not in v2 for w in bits(g.row(v)))
            # matching restricted to the support side is fractionally perfect
            for v in p.support_side:
                assert p.fm.load_units(v) == 2


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
    g = star(8)
    p = good_partition(g)
    bad_x = GoodPartition(
        v11=p.v11, v12=p.v12, v21=p.v21, v22=p.v22,
        x=frozenset({3}), s=p.s, t=p.t, fm=p.fm, pairing=p.pairing,
    )
    with pytest.raises(ValueError):
        check_partition_structure(g, bad_x)
    bad_t = GoodPartition(
        v11=p.v11, v12=p.v12, v21=p.v21, v22=p.v22,
        x=p.x, s=p.s, t=HalfInt(4), fm=p.fm, pairing=p.pairing,
    )
    with pytest.raises(ValueError):
        check_partition_structure(g, bad_t)
    overlapping = GoodPartition(
        v11=p.v11, v12=p.v12 | p.v11, v21=p.v21, v22=p.v22,
        x=p.x, s=p.s, t=p.t, fm=p.fm, pairing=p.pairing,
    )
    with pytest.raises(ValueError):
        check_partition_structure(g, overlapping)


# ------------------------------------------------------- optimum invariants


def test_canonicalize_rebuilds_even_half_cycle():
    """An even half-cycle is a legal optimal matching on which a paired
    vertex is not full; canonicalising it and rebuilding the partition gives
    the same value with all five properties."""
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4)])
    f = FractionalMatching(g, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})
    assert f.value.units == alpha2(g)
    p = GoodPartition(
        v11=frozenset({0}),
        v12=frozenset({1, 2, 3}),
        v21=frozenset({4}),
        v22=frozenset(),
        x=frozenset({2}),
        s=1,
        t=HalfInt(4),
        fm=f,
        pairing=((0, 4),),
    )
    check_partition_structure(g, p)
    assert not verify_partition(g, p).all_ok()
    rebuilt = _build_partition(g, _canonicalize(f))
    check_partition_structure(g, rebuilt)
    assert rebuilt.t == f.value
    assert verify_partition(g, rebuilt).all_ok()


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
