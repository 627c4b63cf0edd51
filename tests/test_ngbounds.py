import hashlib
import itertools
from fractions import Fraction
from functools import partial

import pytest

from fracmatch import (
    HalfInt,
    InternalInconsistencyError,
    PreconditionError,
    construct_complement_fm,
    construct_complement_fm_nearquarter,
    good_partition,
    ng_sum,
    sweep_with_rows,
)
from fracmatch.families import FamilyTag
from fracmatch.fm import alpha2
from fracmatch.generators import (
    add_isolates,
    complete,
    cycle,
    disjoint_union,
    empty_graph,
    k2pql,
    star,
)
from fracmatch.graph import Graph
from fracmatch.ngbounds import (
    BOUND_NAMES,
    CSV_HEADER,
    MIN_STATED_ORDER,
    Verdict,
    applicable_rules,
    bound_verdict,
    empty_stats,
    nearquarter_window,
    theorem_bound_value,
)
from fracmatch.selftest import branch_corpus, corpus_with_relabelings


def all_graphs(n):
    slots = n * (n - 1) // 2
    for mask in range(1 << slots):
        yield Graph.from_mask(n, mask)


# ---------------------------------------------------------------------------
# ng_sum reports


def test_ng_sum_rejects_tiny():
    with pytest.raises(PreconditionError):
        ng_sum(empty_graph(1))


def test_ng_sum_star_29():
    rep = ng_sum(star(29))
    assert rep.sum == HalfInt(30)
    assert rep.alpha_g == HalfInt(2)
    assert rep.alpha_gc == HalfInt(28)
    b = rep.bounds["nonempty"]
    assert b.applies and b.satisfied and b.equality
    assert rep.bounds["basic"].satisfied and not rep.bounds["basic"].equality
    assert not rep.bounds["isolate_free"].applies
    assert rep.equality_family is not None
    assert rep.equality_family.tag is FamilyTag.StarUnion
    assert rep.equality_family.k == 28


def test_ng_sum_empty_and_complete_30():
    for g in (empty_graph(30), complete(30)):
        rep = ng_sum(g)
        assert rep.sum == HalfInt(30)
        assert rep.bounds["basic"].equality
        assert not rep.bounds["nonempty"].applies
        assert rep.equality_family is not None
        assert rep.equality_family.tag in (FamilyTag.EmptyGraph, FamilyTag.CompleteGraph)


def test_ng_sum_hub_clique_equality():
    g = k2pql(14, 13, 1)
    assert g.n == 30
    rep = ng_sum(g)
    assert rep.sum == HalfInt(34)
    b = rep.bounds["isolate_free"]
    assert b.applies and b.satisfied and b.equality
    assert rep.equality_family is not None
    assert rep.equality_family.tag is FamilyTag.K2pql
    assert (rep.equality_family.p, rep.equality_family.q, rep.equality_family.ell) == (14, 13, 1)


def test_ng_sum_double_star_equality():
    g = disjoint_union(star(6), star(24))
    assert g.n == 30
    rep = ng_sum(g)
    assert rep.sum == HalfInt(34)
    assert rep.bounds["isolate_free"].equality
    assert rep.equality_family is not None
    assert rep.equality_family.tag is FamilyTag.BistarInK2n2
    assert rep.equality_family.m == 5


def test_ng_sum_hypothesis_flags():
    rep = ng_sum(add_isolates(star(4), 26))
    assert rep.n == 30
    assert rep.hypotheses.g_nonempty and not rep.hypotheses.g_isolate_free
    assert rep.hypotheses.n_at_least_28
    assert rep.bounds["nonempty"].applies
    assert not rep.bounds["isolate_free"].applies


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_basic_bound_exhaustive_small(n):
    for g in all_graphs(n):
        rep = ng_sum(g)
        assert rep.bounds["basic"].satisfied, f"basic bound broken on n={n} mask"
        is_trivial = g.edge_count() == 0 or g.edge_count() == n * (n - 1) // 2
        assert rep.bounds["basic"].equality == is_trivial


# ---------------------------------------------------------------------------
# base / plus_half / plus_one constructions


def check_build(g, fm, desc, exact=None):
    gc = g.complement()
    assert fm.host == gc
    assert Fraction(fm.value.units, 2) >= desc.claimed
    limit = alpha2(gc) if exact is None else exact
    assert fm.value.units <= limit


def test_base_star8():
    g = star(8)
    p = good_partition(g)
    fm, desc = construct_complement_fm(g, p, rule="base")
    assert desc.rule == "base" and desc.case == "r3plus"
    assert desc.claimed == Fraction(7, 2)
    assert fm.value == HalfInt(7)
    check_build(g, fm, desc, exact=alpha2(g.complement()))
    assert alpha2(g.complement()) == 7


def test_base_two_k2_with_isolates():
    g = add_isolates(disjoint_union(complete(2), complete(2)), 4)
    p = good_partition(g)
    fm, desc = construct_complement_fm(g, p, rule="base")
    assert desc.case == "r0"
    assert fm.value == HalfInt(8)
    check_build(g, fm, desc)


def test_base_leftover_one_no_pairing():
    # one triangle plus four isolates: d0 = 1 with s = 0
    g = add_isolates(cycle(3), 4)
    p = good_partition(g)
    assert p.s == 0
    fm, desc = construct_complement_fm(g, p, rule="base")
    assert desc.case == "r1_s0"
    assert fm.value.units == g.n - p.s
    check_build(g, fm, desc)


def test_base_leftover_one_with_pairing():
    # a path on three vertices plus one isolate: n = 4, 2t = 2, s = 1, d0 = 1
    g = add_isolates(star(3), 1)
    p = good_partition(g)
    assert p.s == 1
    fm, desc = construct_complement_fm(g, p, rule="base")
    assert desc.case == "r1_s1"
    assert fm.value.units == 3
    check_build(g, fm, desc)


def test_base_leftover_two():
    # single edge plus four isolates: d0 = 2
    g = add_isolates(complete(2), 4)
    p = good_partition(g)
    fm, desc = construct_complement_fm(g, p, rule="base")
    assert desc.case == "r2"
    assert fm.value.units == 6
    check_build(g, fm, desc)


def test_plus_half_double_star_no_commons():
    g = k2pql(3, 3, 0)
    p = good_partition(g)
    fm, desc = construct_complement_fm(g, p, rule="plus_half")
    assert desc.rule == "plus_half"
    assert desc.claimed == Fraction(7, 2)
    assert fm.value.units >= 7
    check_build(g, fm, desc)


def test_plus_half_requires_pairing():
    g = add_isolates(cycle(3), 4)
    p = good_partition(g)
    with pytest.raises(PreconditionError):
        construct_complement_fm(g, p, rule="plus_half")


def test_plus_half_requires_isolate_free():
    g = add_isolates(star(3), 1)
    p = good_partition(g)
    with pytest.raises(PreconditionError):
        construct_complement_fm(g, p, rule="plus_half")


def test_plus_one_three_stars():
    g = disjoint_union(star(4), star(4), star(4))
    assert g.n == 12
    p = good_partition(g)
    assert p.s == 3 and p.t == HalfInt(6)
    fm, desc = construct_complement_fm(g, p, rule="plus_one")
    assert desc.case == "v11_internal"
    assert desc.claimed == Fraction(11, 2)
    assert fm.value.units >= 11
    check_build(g, fm, desc)


def _pendant_triangle():
    # triangle {0,1,2}, three pendants per corner
    edges = [(0, 1), (0, 2), (1, 2)]
    nxt = 3
    for c in range(3):
        for _ in range(3):
            edges.append((c, nxt))
            nxt += 1
    return Graph.from_edges(12, edges)


def test_plus_one_pendant_triangle():
    g = _pendant_triangle()
    p = good_partition(g)
    assert p.s == 3 and p.t == HalfInt(6)
    fm, desc = construct_complement_fm(g, p, rule="plus_one")
    assert desc.case in ("v11_to_v2_then_v12", "v11_to_v2_then_v2", "v11_to_v12")
    assert fm.value.units >= 11
    check_build(g, fm, desc)


def test_plus_one_requires_tight_pairing():
    g = k2pql(3, 3, 0)
    p = good_partition(g)
    with pytest.raises(PreconditionError):
        construct_complement_fm(g, p, rule="plus_one")


def test_construct_rejects_large_value():
    g = complete(6)
    p = good_partition(g)
    with pytest.raises(PreconditionError):
        construct_complement_fm(g, p)


def test_auto_rule_selection():
    g = disjoint_union(star(4), star(4), star(4))
    _, desc = construct_complement_fm(g, good_partition(g))
    assert desc.rule == "plus_one"
    g = k2pql(3, 3, 0)
    _, desc = construct_complement_fm(g, good_partition(g))
    assert desc.rule == "plus_half"
    g = add_isolates(cycle(3), 4)
    _, desc = construct_complement_fm(g, good_partition(g))
    assert desc.rule == "base"


@pytest.mark.parametrize("rule", ["bogus", "near_quarter"])
def test_construct_rejects_unknown_rule(rule):
    # near_quarter has its own entry point, so the rule dispatcher refuses it
    g = disjoint_union(star(4), star(4), star(4))
    with pytest.raises(ValueError, match=f"unknown rule '{rule}'"):
        construct_complement_fm(g, good_partition(g), rule)


@pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in branch_corpus()])
def test_applicable_rules_match_the_dispatcher(g):
    p = good_partition(g)
    accepted = []
    for rule in ("base", "plus_half", "plus_one"):
        try:
            construct_complement_fm(g, p, rule)
        except PreconditionError:
            continue
        accepted.append(rule)
    assert applicable_rules(g, g.complement(), p) == tuple(accepted)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_constructions_exhaustive_small(n):
    seen = set()
    for g in all_graphs(n):
        p = good_partition(g)
        if 2 * p.t.units > n:
            continue
        gc = g.complement()
        cap = alpha2(gc)
        fm, desc = construct_complement_fm(g, p, rule="base")
        seen.add(("base", desc.case))
        assert Fraction(fm.value.units, 2) >= Fraction(n - p.s, 2)
        assert fm.value.units <= cap
        iso_free = not g.isolated_vertices() and not gc.isolated_vertices()
        if p.s >= 1 and iso_free:
            fm2, desc2 = construct_complement_fm(g, p, rule="plus_half")
            seen.add(("plus_half", desc2.case))
            assert Fraction(fm2.value.units, 2) >= Fraction(n - p.s + 1, 2)
            assert fm2.value.units <= cap
    if n >= 4 and n % 2 == 0:
        assert ("base", "r0") in seen
    assert ("base", "r3plus") in seen or n == 2


# ---------------------------------------------------------------------------
# near-quarter construction


def test_nearquarter_window_pins():
    assert [nearquarter_window(n) for n in (28, 29, 30, 31)] == [
        (15, 16), (15, 16), (16, 17), (16, 17)
    ]


def test_nearquarter_rejects_wrong_value():
    g = add_isolates(disjoint_union(*[cycle(3)] * 7), 7)
    assert g.n == 28
    p = good_partition(g)
    assert p.t == HalfInt(21)
    with pytest.raises(PreconditionError):
        construct_complement_fm_nearquarter(g, p)


def test_nearquarter_order_gate():
    # 2K2 plus 3 isolates: n = 7, 2t = 4 which is allowed for n % 4 == 3
    g = add_isolates(disjoint_union(complete(2), complete(2)), 3)
    p = good_partition(g)
    with pytest.raises(PreconditionError):
        construct_complement_fm_nearquarter(g, p)
    fm, desc = construct_complement_fm_nearquarter(g, p, require_order=False)
    assert desc.case == "s_small"
    assert Fraction(fm.value.units, 2) >= desc.claimed


def test_nearquarter_s_small():
    g = add_isolates(disjoint_union(cycle(3), *[complete(2)] * 6), 14)
    assert g.n == 29
    p = good_partition(g)
    assert p.t == HalfInt(15) and p.s == 0
    fm, desc = construct_complement_fm_nearquarter(g, p)
    assert desc.case == "s_small"
    assert fm.value == HalfInt(28)
    assert desc.claimed == Fraction(43, 4)
    assert fm.value.units <= alpha2(g.complement())


def test_nearquarter_s_equals_t():
    g = add_isolates(disjoint_union(*[star(3)] * 8), 4)
    assert g.n == 28
    p = good_partition(g)
    assert p.s == 8 and p.t == HalfInt(16)
    fm, desc = construct_complement_fm_nearquarter(g, p)
    assert desc.case == "s_equals_t"
    assert fm.value == HalfInt(20)
    assert desc.claimed == Fraction(10)
    assert fm.value.units <= alpha2(g.complement())


def test_nearquarter_halfcycle():
    g = add_isolates(
        disjoint_union(cycle(5), star(3), star(3), *[complete(2)] * 3),
        11,
    )
    assert g.n == 28
    p = good_partition(g)
    assert p.t == HalfInt(15) and p.s == 2
    fm, desc = construct_complement_fm_nearquarter(g, p)
    assert desc.case == "halfcycle_r2"
    assert fm.value == HalfInt(26)
    assert fm.value.units <= alpha2(g.complement())


def test_nearquarter_halfcycle_small_residuals():
    base = disjoint_union(
        cycle(5), star(3), star(3), *[complete(2)] * 3
    )
    for isolates, case in ((9, "halfcycle_r0"), (10, "halfcycle_r1")):
        g = add_isolates(base, isolates)
        p = good_partition(g)
        fm, desc = construct_complement_fm_nearquarter(g, p, require_order=False)
        assert desc.case == case
        assert Fraction(fm.value.units, 2) >= desc.claimed
        assert fm.value.units <= alpha2(g.complement())


def test_nearquarter_single_internal_edge():
    g = add_isolates(disjoint_union(*([star(3)] * 7 + [complete(2)])), 5)
    assert g.n == 28
    p = good_partition(g)
    assert p.s == 7 and p.t == HalfInt(16)
    fm, desc = construct_complement_fm_nearquarter(g, p)
    assert desc.case == "p1"
    assert fm.value == HalfInt(21)
    assert fm.value.units <= alpha2(g.complement())


def test_nearquarter_two_internal_edges():
    g = add_isolates(disjoint_union(*([star(3)] * 6 + [complete(2)] * 2)), 6)
    assert g.n == 28
    p = good_partition(g)
    assert p.s == 6 and p.t == HalfInt(16)
    fm, desc = construct_complement_fm_nearquarter(g, p)
    assert desc.case == "p2_r3plus"
    assert fm.value == HalfInt(22)
    assert fm.value.units <= alpha2(g.complement())
    assert not desc.fallback


def test_nearquarter_p2_guard_raises():
    # Give v21[0] G-edges to both ends of the first internal 1-edge: the
    # partition no longer has property (a), and the p2 recipe must refuse.
    g = dict(branch_corpus())["nq_p2_r0"]
    p = good_partition(g)
    assert construct_complement_fm_nearquarter(g, p)[1].case == "p2_r0"
    w, w1 = next(e for e in p.fm.one_edges() if e[0] in p.v12 and e[1] in p.v12)
    x = min(p.v21)
    bad = Graph.from_edges(g.n, list(g.edges()) + [(x, w), (x, w1)])
    with pytest.raises(InternalInconsistencyError, match="both ends"):
        construct_complement_fm_nearquarter(bad, p)


# Every construction result on the relabeled branch corpus, pinned: the
# rule, case, claim and exact weights, or the error type.
CONSTRUCTION_DIGEST = "be1e30b3667318e362ac7459a8693426f000cabbc2d57301069264447aae76af"


def test_construction_results_pinned():
    probes = [partial(construct_complement_fm, rule=rule)
              for rule in (None, "base", "plus_half", "plus_one")]
    probes.append(partial(construct_complement_fm_nearquarter, require_order=False))
    digest = hashlib.sha256()
    for g in corpus_with_relabelings(copies=1):
        p = good_partition(g)
        for probe in probes:
            try:
                f, case = probe(g, p)
                line = f"{case.rule} {case.case} {case.claimed} {f.items()}"
            except (PreconditionError, InternalInconsistencyError) as exc:
                line = type(exc).__name__
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == CONSTRUCTION_DIGEST


# ---------------------------------------------------------------------------
# sweep aggregation


def test_sweep_counts_and_rows():
    graphs = [star(4), empty_graph(4), complete(4), cycle(5)]
    stats, rows = sweep_with_rows(graphs, "basic")
    assert stats.total == 4
    assert stats.applies == 4
    assert stats.satisfied == 4
    assert stats.equality == 2
    assert stats.characterization_match == 2
    assert stats.violations == ()
    assert len(rows) == 4
    assert rows[0] == "Cs,4,1,3/2,5/2,2,1,0,"
    assert rows[1] == "C?,4,0,2,2,2,1,1,EmptyGraph"


def test_sweep_family_column_with_and_without_applicability():
    # n < 28: the nonempty bound does not apply, yet its equality is classified
    stats, rows = sweep_with_rows([star(4)], "nonempty")
    assert rows == ["Cs,4,1,3/2,5/2,5/2,1,1,StarUnion"]
    assert stats.applies == 0 and stats.equality == 0
    stats, rows = sweep_with_rows([star(28)], "nonempty")
    assert rows[0].endswith(",1,1,StarUnion")
    assert stats.equality == stats.characterization_match == 1


def test_sweep_merge_matches_single_pass():
    graphs = [star(k) for k in range(2, 9)] + [cycle(k) for k in range(3, 9)]
    whole = sweep_with_rows(graphs, "basic")[0]
    a = sweep_with_rows(graphs[:5], "basic")[0]
    b = sweep_with_rows(graphs[5:], "basic")[0]
    merged = empty_stats("basic").merge(a).merge(b)
    assert merged == whole


def test_sweep_json_and_header():
    stats = sweep_with_rows([empty_graph(5)], "basic")[0]
    d = stats.to_json()
    assert d["bound"] == "basic"
    assert d["total"] == 1 and d["equality"] == 1
    assert CSV_HEADER.split(",") == [
        "graph6", "n", "alpha_g", "alpha_gc", "sum", "bound",
        "satisfied", "equality", "family",
    ]


def test_sweep_rejects_unknown_bound():
    with pytest.raises(ValueError):
        sweep_with_rows([empty_graph(5)], "strong")


def test_bound_values():
    assert theorem_bound_value("basic", 30) == HalfInt(30)
    assert theorem_bound_value("nonempty", 30) == HalfInt(31)
    assert theorem_bound_value("isolate_free", 30) == HalfInt(34)


# ---------------------------------------------------------------------------
# the verdict of one bound


@pytest.mark.parametrize("n", [2, 5, 27, 28, 29, 64])
def test_verdict_applicability_truth_table(n):
    slots = n * (n - 1) // 2
    for m_g, g_free, gc_free in itertools.product(
        sorted({0, 1, slots - 1, slots}), (False, True), (False, True)
    ):
        args = (n, 0, 0, m_g, slots - m_g, g_free, gc_free)
        big = n >= 28
        assert bound_verdict("basic", *args).applies
        assert bound_verdict("nonempty", *args).applies == (big and 0 < m_g < slots)
        assert bound_verdict("isolate_free", *args).applies == (big and g_free and gc_free)


def test_verdict_order_boundary():
    assert MIN_STATED_ORDER == 28
    for which in ("nonempty", "isolate_free"):
        assert not bound_verdict(which, 27, 4, 26, 26, 325, True, True).applies
        assert bound_verdict(which, 28, 4, 26, 27, 351, True, True).applies


@pytest.mark.parametrize("which,offset", [("basic", 0), ("nonempty", 1), ("isolate_free", 4)])
def test_verdict_bound_satisfied_equality(which, offset):
    n, bound = 30, 30 + offset
    assert theorem_bound_value(which, n) == HalfInt(bound)
    for a_g, a_gc in ((bound - 1, 0), (3, bound - 3), (bound, 1)):
        total = a_g + a_gc
        v = bound_verdict(which, n, a_g, a_gc, 100, 335, True, True)
        assert v == Verdict(True, bound, total >= bound, total == bound)
    # the star K_{1,29}: alpha'(G) = 1 and alpha'(Gc) = alpha'(K_29) = 29/2
    assert bound_verdict(which, 30, 2, 29, 29, 406, False, False).equality == (which == "nonempty")


@pytest.mark.parametrize("n", [0, 1])
def test_verdict_rejects_tiny_orders(n):
    for which in BOUND_NAMES:
        with pytest.raises(PreconditionError, match=f"sum bounds need n >= 2, got {n}"):
            bound_verdict(which, n, 0, 0, 0, 0, True, True)


def test_verdict_rejects_unknown_bound():
    with pytest.raises(ValueError, match="unknown bound name"):
        bound_verdict("strong", 30, 0, 0, 1, 1, True, True)
    with pytest.raises(ValueError, match="unknown bound name"):
        theorem_bound_value("strong", 30)


def test_ng_sum_bounds_are_the_verdicts():
    for g in (star(29), add_isolates(cycle(28), 1), k2pql(20, 6, 2), complete(28)):
        rep = ng_sum(g)
        gc = g.complement()
        args = (g.n, rep.alpha_g.units, rep.alpha_gc.units, g.edge_count(), gc.edge_count(),
                not g.isolated_vertices(), not gc.isolated_vertices())
        for which in BOUND_NAMES:
            v = bound_verdict(which, *args)
            tb = rep.bounds[which]
            assert (tb.applies, tb.bound.units, tb.satisfied, tb.equality) == v
