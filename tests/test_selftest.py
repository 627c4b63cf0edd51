"""The consistency suites themselves, and the targeted branch corpus."""

import pytest

from fracmatch import selftest
from fracmatch.errors import InternalInconsistencyError
from fracmatch.fm import alpha2
from fracmatch.harness import SampleSpec, enumerate_graphs, sample_graphs
from fracmatch.ngbounds import (
    construct_complement_fm,
    construct_complement_fm_nearquarter,
)
from fracmatch.partition import good_partition
from fracmatch.selftest import (
    branch_corpus,
    corpus_with_relabelings,
    expected_cases,
    run_all,
    run_classifier_suite,
    run_construction_suite,
    run_determinism_suite,
    run_oracle_suite,
    run_partition_suite,
    run_structure_suite,
    shuffled,
    threshold_probe,
)


def test_run_all_quick_green():
    results = run_all(quick=True)
    assert [r.name for r in results] == [
        "oracle",
        "structure",
        "partition",
        "classifier",
        "determinism",
        "construction",
    ]
    for r in results:
        assert r.ok, r.failures
        assert r.checked > 0


def test_individual_suites_green():
    small = list(enumerate_graphs(4))
    assert run_oracle_suite(max_n=3).ok
    assert run_structure_suite(small).ok
    assert run_partition_suite(small).ok
    assert run_classifier_suite(max_n=4).ok
    assert run_determinism_suite().ok


def test_structure_suite_reports_failed_certificate(monkeypatch):
    def broken(g):
        raise InternalInconsistencyError("injected")

    monkeypatch.setattr(selftest, "canonical_fm", broken)
    result = run_structure_suite(list(enumerate_graphs(2)))
    assert result.checked == 2
    assert result.failures == (
        "A?: canonical matching failed: injected",
        "A_: canonical matching failed: injected",
    )


def test_shuffled_preserves_matching_number():
    spec = SampleSpec(n=11, p_num=2, p_den=5, count=8, seed=31)
    for idx, g in enumerate(sample_graphs(spec)):
        h = shuffled(g, idx)
        assert h.n == g.n
        assert h.edge_count() == g.edge_count()
        assert alpha2(h) == alpha2(g)


def test_expected_cases_enumerates_all_branches():
    cases = expected_cases()
    assert len(cases) == 25
    assert {rule for rule, _ in cases} == {
        "base",
        "plus_half",
        "plus_one",
        "near_quarter",
    }


# Which probe hits which branch, for every graph in the corpus. The corpus
# was designed so each case fires at order >= 28; this pins that down.
CORPUS_CASES = {
    "base_r0": [("base", "r0")],
    "base_r1_s0": [("base", "r1_s0")],
    "base_r1_s1": [("base", "r1_s1")],
    "base_r2": [("base", "r2")],
    "base_r3plus": [("base", "r3plus")],
    "base_r3plus_star": [("base", "r3plus")],
    "ph_v12_r2": [("plus_half", "v_in_v12_r2")],
    "ph_v12_r3plus": [
        ("plus_half", "v_in_v12_r3plus"),
        ("plus_one", "v11_internal"),
    ],
    "ph_v11": [("plus_half", "v_in_v11")],
    "hub_m_open": [
        ("plus_half", "v_in_v21"),
        ("plus_one", "v11_to_v2_then_v2"),
    ],
    "hub_private": [("plus_one", "v11_to_v2_then_v12")],
    "hub_free_open": [("plus_one", "v11_to_v12")],
    "hub_one_blind": [("plus_half", "v_in_v22")],
    "nq_s_small_s0": [("near_quarter", "s_small")],
    "nq_s_small_s1": [("near_quarter", "s_small")],
    "nq_halfcycle_r0": [("near_quarter", "halfcycle_r0")],
    "nq_halfcycle_r1": [("near_quarter", "halfcycle_r1")],
    "nq_halfcycle_r2": [("near_quarter", "halfcycle_r2")],
    "nq_halfcycle_r3plus": [("near_quarter", "halfcycle_r3plus")],
    "nq_s_equals_t": [("near_quarter", "s_equals_t")],
    "nq_p1": [("near_quarter", "p1")],
    "nq_p2_r0": [("near_quarter", "p2_r0")],
    "nq_p2_r1": [("near_quarter", "p2_r1")],
    "nq_p2_r2": [("near_quarter", "p2_r2")],
    "nq_p2_r3plus": [("near_quarter", "p2_r3plus")],
}


@pytest.mark.parametrize("name,g", branch_corpus(), ids=[n for n, _ in branch_corpus()])
def test_corpus_graph_hits_designed_case(name, g):
    assert g.n >= 28
    p = good_partition(g)
    cap = alpha2(g.complement())
    for rule, case in CORPUS_CASES[name]:
        if rule == "near_quarter":
            f, desc = construct_complement_fm_nearquarter(g, p)
        else:
            f, desc = construct_complement_fm(g, p, rule)
        assert (desc.rule, desc.case) == (rule, case)
        assert not desc.fallback
        assert f.value.units <= cap


def test_corpus_covers_every_case():
    suite, coverage = run_construction_suite(g for _, g in branch_corpus())
    assert suite.ok, suite.failures
    assert expected_cases() <= set(coverage)


def test_relabeled_corpus_constructs_cleanly():
    suite, coverage = run_construction_suite(corpus_with_relabelings(copies=2))
    assert suite.ok, suite.failures
    # Relabeling can move a graph between branches but never off the map.
    assert expected_cases() <= set(coverage)


def test_threshold_probe_data():
    rows = threshold_probe()
    assert len(rows) >= 120
    fails = {(n, fam) for fam, n, ok in rows if not ok}
    # The recipes really do need a minimum order: witness families miss
    # at these small orders (cycle too short, no spare unweighted vertex,
    # counting short by a half) and are clean from 17 up, so the stated
    # gate of 28 has margin.
    assert (8, "p1") in fails
    assert (9, "s_equals_t") in fails
    assert (10, "s_small") in fails
    assert max(n for n, _ in fails) == 16
    assert all(ok for fam, n, ok in rows if n >= 17)
