"""Enumeration, seeded sampling, bulk evaluation, and sweep determinism."""

import inspect
import itertools
import tracemalloc
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from fracmatch import families, harness, ngbounds
from fracmatch.bounds import BOUND_NAMES, empty_stats
from fracmatch.bulk import bulk_alpha2
from fracmatch.errors import PreconditionError
from fracmatch.fm import alpha2
from fracmatch.generators import complete, disjoint_union, empty_graph, k2pql, star
from fracmatch.graph import Graph
from fracmatch.graph6 import emit_graph6
from fracmatch.ngbounds import sweep_with_rows
from fracmatch.harness import (
    _BATCH,
    _BLOCK,
    _NUMPY_BATCH,
    _NUMPY_MAX_N,
    GOLDEN,
    SampleSpec,
    _batch_keys,
    _batch_rows,
    _bit_batches,
    _chunk_ranges,
    _enumeration_bits,
    _sample_bits,
    _sweep_task,
    enumerate_graphs,
    enumeration_count,
    plan_sweep,
    run_sweep,
    sample_graph,
    sample_graphs,
    sample_masks,
    splitmix64,
    usable_cpus,
)


# ---------------------------------------------------------------- enumeration


@pytest.mark.parametrize("n", range(6))
def test_enumeration_count(n):
    graphs = list(enumerate_graphs(n))
    assert len(graphs) == enumeration_count(n) == 1 << (n * (n - 1) // 2)
    assert graphs[0] == empty_graph(n)
    assert graphs[-1] == complete(n)
    masks = [g.to_mask() for g in graphs]
    assert masks == sorted(masks)


def test_enumeration_guard():
    with pytest.raises(PreconditionError):
        enumerate_graphs(8)
    with pytest.raises(PreconditionError):
        enumerate_graphs(9, allow_large=True)
    g = next(iter(enumerate_graphs(8, allow_large=True)))
    assert g.n == 8


@pytest.mark.parametrize(
    "n,allow_large,message",
    [(8, False, "exceeds the guard"), (9, True, "exceeds the guard"), (-1, False, "negative")],
)
def test_sweep_enumeration_guard(monkeypatch, n, allow_large, message):
    # The guard must fire before the population is even counted.
    monkeypatch.setattr(harness, "enumeration_count", None)
    with pytest.raises(PreconditionError, match=message):
        run_sweep("basic", enumerate_n=n, allow_large=allow_large, workers=1)


# ------------------------------------------------------------------- sampling


def test_splitmix64_reference_stream():
    # First output of the reference generator seeded at zero.
    assert splitmix64(GOLDEN) == 0xE220A8397B1DCDAF


def test_sample_determinism_frozen():
    spec = SampleSpec(n=30, p_num=1, p_den=2, count=3, seed=2026)
    assert [emit_graph6(g) for g in sample_graphs(spec)] == [
        "]t_YQ@ZRLRSWOK?TVGulzzpJTW\\aS~^VliVmCZ]TsNXOcbCcFABoK_itQ|KToTRjl^}AlbdYw_",
        "]UsC?wcqOymYbdouAphaEY[tt]^PPscFuxPosu{F{svOgbEp{eUwEb^|GYsrWtfLBiech}iAL_",
        "]DfGzktSLxDvcNF|d]_~?[cbCm]NEXW]MAgPK_g[vkiZ_]KZgqZ^pgNZltv[mu@T`fwA{PJsIo",
    ]


def test_scalar_matches_batch(monkeypatch):
    # Slot counts under one block (n = 9), one block and part of the next
    # (n = 17), and many blocks (n = 64: 15 whole and a partial one); then,
    # with the width patched, slots equal to it, one past it and three
    # times it. Each draw range crosses the first batch boundary.
    cases = [(9, _BLOCK), (17, _BLOCK), (24, _BLOCK), (45, _BLOCK), (64, _BLOCK),
             (17, 136), (17, 135), (30, 145)]
    lo, hi = _BATCH - 6, _BATCH + 6
    for n, block in cases:
        monkeypatch.setattr(harness, "_BLOCK", block)
        spec = SampleSpec(n=n, p_num=1, p_den=3, count=hi, seed=77 + n)
        scalar = [sample_graph(spec, k).to_mask() for k in range(lo, hi)]
        assert sample_masks(spec, lo, hi) == scalar, (n, block)


def test_sample_extreme_probabilities():
    for n in (6, 64):
        zero = SampleSpec(n=n, p_num=0, p_den=1, count=4, seed=5)
        assert all(g == empty_graph(n) for g in sample_graphs(zero))
        one = SampleSpec(n=n, p_num=1, p_den=1, count=4, seed=5)
        assert all(g == complete(n) for g in sample_graphs(one))


def test_sample_draws_one_block_at_a_time():
    # One n = 64 batch drawn as a whole (256 x 2,016) uint64 matrix, with
    # its scratch copy, peaks at 8.3 MB; its bool output alone takes 0.5 MB.
    spec = SampleSpec(n=64, p_num=1, p_den=2, count=_BATCH, seed=29)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        _sample_bits(spec, 0, _BATCH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_spec_parse():
    assert SampleSpec.parse("30,0.3,100,42") == SampleSpec(30, 3, 10, 100, 42)
    assert SampleSpec.parse("7,1/2,5,0") == SampleSpec(7, 1, 2, 5, 0)
    with pytest.raises(ValueError):
        SampleSpec.parse("30,0.3,100")
    with pytest.raises(ValueError):
        SampleSpec.parse("30,huh,100,42")


def test_spec_validation():
    with pytest.raises(PreconditionError):
        SampleSpec(n=1, p_num=1, p_den=2, count=1, seed=0)
    with pytest.raises(PreconditionError):
        SampleSpec(n=5, p_num=3, p_den=2, count=1, seed=0)
    with pytest.raises(PreconditionError):
        SampleSpec(n=5, p_num=1, p_den=2, count=-1, seed=0)
    with pytest.raises(PreconditionError):
        SampleSpec(n=5, p_num=1, p_den=2, count=1, seed=1 << 64)
    with pytest.raises(PreconditionError):
        sample_graph(SampleSpec(n=5, p_num=1, p_den=2, count=2, seed=0), 2)


def test_sample_batch_boundaries():
    spec = SampleSpec(n=12, p_num=2, p_den=3, count=10, seed=123)
    whole = sample_masks(spec, 0, 10)
    assert sample_masks(spec, 3, 7) == whole[3:7]
    assert sample_masks(spec, 5, 5) == []
    assert [g.to_mask() for g in sample_graphs(spec, batch=3)] == whole


# ------------------------------------------------------------ batch builder


def scalar_pairs(n, masks):
    graphs = [Graph.from_mask(n, m) for m in masks]
    return [(g, emit_graph6(g)) for g in graphs]


def batch_pairs(n, bits):
    rows = _batch_rows(n, bits)
    assert rows.shape == (len(bits), n) and rows.dtype == np.dtype("<u8")
    return [(Graph(n, r), key) for r, key in zip(rows.tolist(), _batch_keys(n, bits))]


@pytest.mark.parametrize("n", range(6))
def test_batch_pairs_match_scalar_exhaustive(n):
    count = enumeration_count(n)
    assert batch_pairs(n, _enumeration_bits(n, 0, count)) == scalar_pairs(n, range(count))


@pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 20), Fraction(1, 2), Fraction(1)])
@pytest.mark.parametrize("n", [2, 7, 30, 62, 63, 64])
def test_batch_pairs_match_scalar_sampled(n, p):
    spec = SampleSpec(n=n, p_num=p.numerator, p_den=p.denominator, count=40, seed=1000 + n)
    pairs = batch_pairs(n, _sample_bits(spec, 0, spec.count))
    assert pairs == scalar_pairs(n, sample_masks(spec, 0, spec.count))
    # graph6 switches to the 4-character long header form at n = 63
    head = {62: "}", 63: "~??~", 64: "~?@?"}.get(n, chr(n + 63))
    assert all(key.startswith(head) for _, key in pairs)


def test_batch_boundaries_keep_pairs():
    spec = SampleSpec(n=12, p_num=1, p_den=3, count=10, seed=8)
    whole = batch_pairs(12, _sample_bits(spec, 0, 10))
    split = [
        pair
        for bits in _bit_batches(partial(_sample_bits, spec), 2, 9, batch=3)
        for pair in batch_pairs(12, bits)
    ]
    assert split == whole[2:9]


def test_sweep_task_across_batches_matches_scalar_sweep():
    # lo..hi starts inside the first batch and crosses two boundaries
    lo, hi = _NUMPY_BATCH - 56, 2 * _NUMPY_BATCH + 88
    task = _sweep_task((6, partial(_enumeration_bits, 6), "nonempty", False, lo, hi))
    graphs = [g for g, _ in scalar_pairs(6, range(lo, hi))]
    assert task == sweep_with_rows(graphs, "nonempty")


@pytest.mark.parametrize("n", [7, _NUMPY_MAX_N])
def test_sampled_sweep_across_small_order_batches_matches_sample_graph(n):
    # draws lo..hi-1 cross two batch boundaries of the small orders; the
    # scalar path draws each graph alone with sample_graph
    spec = SampleSpec(n=n, p_num=1, p_den=3, count=3 * _NUMPY_BATCH, seed=2800 + n)
    lo, hi = _NUMPY_BATCH - 56, 2 * _NUMPY_BATCH + 88
    task = _sweep_task((n, partial(_sample_bits, spec), "nonempty", False, lo, hi))
    graphs = [sample_graph(spec, k) for k in range(lo, hi)]
    assert task == sweep_with_rows(graphs, "nonempty")


def test_sweep_with_rows_matches_pair_loop():
    spec = SampleSpec(n=30, p_num=1, p_den=10, count=40, seed=31)
    task = _sweep_task((30, partial(_sample_bits, spec), "nonempty", False, 0, spec.count))
    assert sweep_with_rows(sample_graphs(spec), "nonempty") == task


# ------------------------------------------------- sweep kernel = ng_sum path


def mask_bits(n, masks, lo, hi):
    """Edge bits of masks[lo:hi] and the zero column: a sweep bit source
    over a fixed list."""
    slots = n * (n - 1) // 2
    return np.array(
        [[m >> j & 1 for j in range(slots + 1)] for m in masks[lo:hi]], dtype=np.uint8
    ).reshape(hi - lo, slots + 1)


def kernel_and_scalar(n, source, count, which):
    """The sweep kernel's and sweep_with_rows' (stats, rows) on the graphs
    source gives for 0..count-1."""
    kernel = _sweep_task((n, source, which, False, 0, count))
    graphs = [g for bits in _bit_batches(source, 0, count) for g in harness._batch_graphs(n, bits)]
    return kernel, sweep_with_rows(graphs, which)


@pytest.mark.parametrize("which", BOUND_NAMES)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_kernel_matches_scalar_exhaustive(n, which):
    kernel, scalar = kernel_and_scalar(n, partial(_enumeration_bits, n), enumeration_count(n), which)
    assert kernel == scalar
    assert kernel[0].total == enumeration_count(n)


@pytest.mark.parametrize("which", BOUND_NAMES)
@pytest.mark.parametrize("p", [Fraction(0), Fraction(1, 20), Fraction(1, 2), Fraction(1)])
@pytest.mark.parametrize("n", [2, 27, 28, 30, 63, 64])
def test_kernel_matches_scalar_sampled(n, p, which):
    spec = SampleSpec(n=n, p_num=p.numerator, p_den=p.denominator, count=24, seed=2000 + n)
    kernel, scalar = kernel_and_scalar(n, partial(_sample_bits, spec), spec.count, which)
    assert kernel == scalar


def equality_rich_masks():
    """Graphs at n >= 28 on or near the equality families: the empty graph,
    stars, K2(p,q,l) and two-star unions, their complements, and one-edge
    flips of each."""
    graphs = [empty_graph(29), star(28), star(31), k2pql(20, 6, 2), k2pql(14, 13, 1), k2pql(1, 1, 26)]
    graphs += [disjoint_union(star(14), star(14)), disjoint_union(star(3), star(26))]
    graphs += [g.complement() for g in graphs]
    by_n = {}
    for g in graphs:
        mask, slots = g.to_mask(), g.n * (g.n - 1) // 2
        by_n.setdefault(g.n, []).extend(mask ^ f for f in (0, 1, 1 << (slots // 2), 1 << (slots - 1)))
    return sorted(by_n.items())


@pytest.mark.parametrize("which", BOUND_NAMES)
def test_kernel_matches_scalar_on_equalities(which):
    seen, rows = empty_stats(which), []
    for n, masks in equality_rich_masks():
        kernel, scalar = kernel_and_scalar(n, partial(mask_bits, n, masks), len(masks), which)
        assert kernel == scalar
        seen, rows = seen.merge(kernel[0]), rows + kernel[1]
    # the classify branch ran, and not every flip stayed an equality
    assert 0 < seen.characterization_match == seen.equality < seen.total
    assert any(row.split(",")[7] == "0" for row in rows)


def test_kernel_matches_scalar_on_unmatched(monkeypatch):
    # with no family recognised, every applicable equality is unmatched
    monkeypatch.setattr(families, "classify_equality_family", lambda g, which: None)
    monkeypatch.setattr(ngbounds, "classify_equality_family", lambda g, which: None)
    unmatched = 0
    for which in BOUND_NAMES:
        for n, masks in equality_rich_masks():
            kernel, scalar = kernel_and_scalar(n, partial(mask_bits, n, masks), len(masks), which)
            assert kernel == scalar
            assert len(kernel[0].unmatched_equalities) == kernel[0].equality
            unmatched += kernel[0].equality
    assert unmatched > 0


@pytest.mark.parametrize("n", [0, 1])
def test_kernel_rejects_tiny_orders_like_ng_sum(n):
    with pytest.raises(PreconditionError) as scalar:
        sweep_with_rows(enumerate_graphs(n), "basic")
    with pytest.raises(PreconditionError) as kernel:
        _sweep_task((n, partial(_enumeration_bits, n), "basic", False, 0, 1))
    assert str(kernel.value) == str(scalar.value) == f"sum bounds need n >= 2, got {n}"


# --------------------------------------- paired kernel: G and its complement


def paired_and_unpaired(n, masks, which):
    """The paired kernel over masks, and the unpaired kernel over masks
    followed by their complements; rows sorted as run_sweep sorts them."""
    full = (1 << n * (n - 1) // 2) - 1
    both = list(masks) + [full ^ m for m in masks]
    paired = _sweep_task((n, partial(mask_bits, n, masks), which, True, 0, len(masks)))
    unpaired = _sweep_task((n, partial(mask_bits, n, both), which, False, 0, len(both)))
    return (paired[0], sorted(paired[1])), (unpaired[0], sorted(unpaired[1]))


@pytest.mark.parametrize("which", BOUND_NAMES)
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_paired_kernel_matches_unpaired_exhaustive(n, which):
    # the masks with the top slot bit clear, each with its complement, are
    # every graph once
    count = enumeration_count(n)
    source = partial(_enumeration_bits, n)
    paired = _sweep_task((n, source, which, True, 0, count // 2))
    unpaired = _sweep_task((n, source, which, False, 0, count))
    assert (paired[0], sorted(paired[1])) == (unpaired[0], sorted(unpaired[1]))
    assert paired[0].total == count


@pytest.mark.parametrize("which", BOUND_NAMES)
def test_paired_kernel_matches_unpaired_on_equalities(which):
    seen = empty_stats(which)
    for n, masks in equality_rich_masks():
        paired, unpaired = paired_and_unpaired(n, masks, which)
        assert paired == unpaired
        seen = seen.merge(paired[0])
    # the complement's classify branch ran, and not every flip stayed an equality
    assert 0 < seen.characterization_match == seen.equality < seen.total


def test_paired_kernel_matches_unpaired_on_unmatched(monkeypatch):
    monkeypatch.setattr(families, "classify_equality_family", lambda g, which: None)
    unmatched = 0
    for which in BOUND_NAMES:
        for n, masks in equality_rich_masks():
            paired, unpaired = paired_and_unpaired(n, masks, which)
            assert paired == unpaired
            unmatched += len(paired[0].unmatched_equalities)
    assert unmatched > 0


def test_enumerated_sweep_solves_each_graph_once(monkeypatch):
    solved = []

    def counting(rows, n, solve=harness._batch_alpha2):
        solved.append(len(rows))
        return solve(rows, n)

    monkeypatch.setattr(harness, "_batch_alpha2", counting)
    stats, _ = run_sweep("basic", enumerate_n=5, workers=1)
    assert sum(solved) == stats.total == enumeration_count(5)


@pytest.mark.parametrize("n", [0, 1])
def test_enumerated_sweep_rejects_tiny_orders_before_planning(monkeypatch, n):
    # orders 0 and 1 have no graph-complement pair to plan over
    monkeypatch.setattr(harness, "plan_sweep", None)
    with pytest.raises(PreconditionError) as exc:
        run_sweep("basic", enumerate_n=n, workers=2)
    assert str(exc.value) == f"sum bounds need n >= 2, got {n}"


# --------------------------------------------------------------------- sweeps


def test_sweep_worker_independence_enumerated():
    base = run_sweep("basic", enumerate_n=4, workers=1)
    for workers in (2, 3):
        assert run_sweep("basic", enumerate_n=4, workers=workers) == base


def test_sweep_worker_independence_sampled():
    spec = SampleSpec(n=28, p_num=1, p_den=10, count=30, seed=9)
    base = run_sweep("isolate_free", spec=spec, workers=1)
    assert run_sweep("isolate_free", spec=spec, workers=2) == base


def test_sweep_requires_one_source():
    with pytest.raises(PreconditionError):
        run_sweep("basic")
    with pytest.raises(PreconditionError):
        run_sweep(
            "basic",
            enumerate_n=3,
            spec=SampleSpec(n=4, p_num=1, p_den=2, count=1, seed=0),
        )


def test_run_sweep_workers_default_and_validation():
    assert inspect.signature(run_sweep).parameters["workers"].default == 1
    for workers in (0, -1):
        with pytest.raises(PreconditionError, match="worker count must be positive"):
            run_sweep("basic", enumerate_n=3, workers=workers)


def test_plan_sweep_clamps_workers():
    # pure: starts no process
    assert plan_sweep(1500, 2, 2)[0] == 2
    assert plan_sweep(1500, 1000, 2)[0] == 2
    assert plan_sweep(1500, 1000, 2)[1] == _chunk_ranges(1500, 8)
    assert plan_sweep(1500, 3, 64)[0] == 3
    assert plan_sweep(3, 8, 16) == (3, [(0, 1), (1, 2), (2, 3)])
    assert plan_sweep(1, 8, 4) == (1, [(0, 1)])
    assert plan_sweep(0, 8, 4) == (1, [])
    assert plan_sweep(100, 1, 4) == (1, _chunk_ranges(100, 4))
    assert usable_cpus() >= 1


def test_chunk_ranges_cover():
    for total in (0, 1, 7, 64):
        for pieces in (1, 2, 5):
            ranges = _chunk_ranges(total, pieces)
            flat = list(
                itertools.chain.from_iterable(range(lo, hi) for lo, hi in ranges)
            )
            assert flat == list(range(total))


# ----------------------------------------------------------------------- bulk


@pytest.mark.parametrize("n", range(6))
def test_bulk_matches_solver_exhaustive(n):
    table = bulk_alpha2(n)
    assert len(table) == enumeration_count(n)
    for mask, g in enumerate(enumerate_graphs(n)):
        assert int(table[mask]) == alpha2(g)


def test_bulk_matches_solver_spot_n6():
    table = bulk_alpha2(6)
    spec = SampleSpec(n=6, p_num=1, p_den=2, count=200, seed=60)
    for mask in sample_masks(spec, 0, spec.count):
        assert int(table[mask]) == alpha2(Graph.from_mask(6, mask))


def test_bulk_guard():
    with pytest.raises(PreconditionError):
        bulk_alpha2(8)
