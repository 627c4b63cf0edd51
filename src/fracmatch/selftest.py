"""Built-in consistency suites.

Each suite cross-checks one layer of the package against an independent
formulation (the deficiency witness recount, the exhaustive weight-assignment
oracle, the vectorized whole-population evaluator) or against invariants
that must hold on every input (canonical matching shape, partition
properties, construction feasibility, seeded-stream determinism). The
command line's selftest subcommand runs every suite, keeps every failure
and exits 1 if any suite failed, so a broken build cannot quietly produce
sweep numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Tuple

from .bounds import MIN_STATED_ORDER
from .bulk import bulk_alpha2
from .errors import InternalInconsistencyError, PreconditionError
from .families import classify_small_alpha
from .fm import (
    alpha2,
    berge_deficiency,
    canonical_fm,
    oracle_alpha_exhaustive,
)
from .generators import add_isolates, complete, cycle, disjoint_union, star
from .graph import Graph, bits
from .graph6 import emit_graph6
from .harness import (
    GOLDEN,
    SampleSpec,
    enumerate_graphs,
    enumeration_count,
    run_sweep,
    sample_graph,
    sample_graphs,
    sample_masks,
    splitmix64,
)
from .ngbounds import (
    applicable_rules,
    construct_complement_fm,
    construct_complement_fm_nearquarter,
    nearquarter_window,
)
from .partition import good_partition


@dataclass(frozen=True)
class SuiteResult:
    name: str
    checked: int
    failures: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        state = "ok" if self.ok else f"FAILED ({len(self.failures)} failures)"
        return f"{self.name}: {self.checked} checks, {state}"


# ---------------------------------------------------------------------------
# Oracle equivalence.


def run_oracle_suite(max_n: int = 5, oracle_edge_cap: int = 10) -> SuiteResult:
    """The value certified by the deficiency witness (berge_deficiency
    recounts it against its solve) against the bulk array and (on sparse
    graphs) the exhaustive assignment oracle."""
    checked = 0
    failures: List[str] = []
    for n in range(max_n + 1):
        table = bulk_alpha2(n)
        for mask, g in enumerate(enumerate_graphs(n)):
            checked += 1
            w = berge_deficiency(g)
            a2 = n - w.deficiency
            if int(table[mask]) != a2:
                failures.append(
                    f"{emit_graph6(g)}: bulk table says {int(table[mask])}, not {a2}"
                )
            if g.edge_count() <= oracle_edge_cap:
                if oracle_alpha_exhaustive(g).units != a2:
                    failures.append(f"{emit_graph6(g)}: exhaustive oracle disagrees")
    return SuiteResult("oracle", checked, tuple(failures))


# ---------------------------------------------------------------------------
# Canonical matching shape.


def run_structure_suite(graphs: Iterable[Graph]) -> SuiteResult:
    """Re-check the canonical shape of canonical_fm's matching on each
    graph. Its value is certified by the solver's cover, so it is not
    solved again here."""
    checked = 0
    failures: List[str] = []
    for g in graphs:
        checked += 1
        try:
            f = canonical_fm(g)
        except InternalInconsistencyError as exc:
            failures.append(f"{emit_graph6(g)}: canonical matching failed: {exc}")
            continue
        if any(units not in (1, 2) for _, units in f.items()):
            failures.append(f"{emit_graph6(g)}: weight outside half/one")
        comps = f.half_support_components()
        if any(kind != "cycle" or len(vs) % 2 == 0 for kind, vs in comps):
            failures.append(f"{emit_graph6(g)}: half support is not disjoint odd cycles")
        for v in bits(f.support):
            if f.loads[v] != 2:
                failures.append(f"{emit_graph6(g)}: support vertex {v} not saturated")
                break
        for v in bits(f.unweighted):
            if g.row(v) & f.unweighted:
                failures.append(f"{emit_graph6(g)}: unweighted side not independent")
                break
            if g.row(v) & ~f.full:
                failures.append(
                    f"{emit_graph6(g)}: unweighted vertex {v} sees a non-full vertex"
                )
                break
    return SuiteResult("structure", checked, tuple(failures))


# ---------------------------------------------------------------------------
# Partition properties.


def run_partition_suite(graphs: Iterable[Graph]) -> SuiteResult:
    checked = 0
    failures: List[str] = []
    for g in graphs:
        checked += 1
        try:
            good_partition(g)
        except Exception as exc:
            failures.append(f"{emit_graph6(g)}: partition failed: {exc}")
    return SuiteResult("partition", checked, tuple(failures))


# ---------------------------------------------------------------------------
# Small-value classifier.


def run_classifier_suite(max_n: int = 5) -> SuiteResult:
    checked = 0
    failures: List[str] = []
    for n in range(2, max_n + 1):
        table = bulk_alpha2(n)
        for mask, g in enumerate(enumerate_graphs(n)):
            checked += 1
            label = classify_small_alpha(g)
            expected = 2 <= int(table[mask]) <= 5
            if (label is not None) != expected:
                failures.append(
                    f"{emit_graph6(g)}: label {label!r} vs 2a'={int(table[mask])}"
                )
    return SuiteResult("classifier", checked, tuple(failures))


# ---------------------------------------------------------------------------
# Complement constructions.

def run_construction_suite(
    graphs: Iterable[Graph],
) -> Tuple[SuiteResult, Dict[Tuple[str, str], int]]:
    """Probe every construction whose stated preconditions hold, through
    the public entry points and so through their gates. Below
    MIN_STATED_ORDER, errors count as probe misses (the recipes only promise
    themselves from that order up); at or above it they are failures.
    Returns the suite result and a (rule, case) coverage count."""
    checked = 0
    failures: List[str] = []
    coverage: Dict[Tuple[str, str], int] = {}
    for g in graphs:
        n = g.n
        try:
            p = good_partition(g)
        except Exception as exc:
            failures.append(f"{emit_graph6(g)}: partition failed: {exc}")
            continue
        probes = list(applicable_rules(g, p))
        if p.t.units in nearquarter_window(n):
            probes.append("near_quarter")
        for rule in probes:
            checked += 1
            try:
                if rule == "near_quarter":
                    f, case = construct_complement_fm_nearquarter(g, p, require_order=False)
                else:
                    f, case = construct_complement_fm(g, p, rule)
            except (PreconditionError, InternalInconsistencyError) as exc:
                if n >= MIN_STATED_ORDER:
                    failures.append(f"{emit_graph6(g)} {rule}: {exc}")
                continue
            if f.value.units > alpha2(f.host):
                failures.append(f"{emit_graph6(g)} {rule}: value {f.value} beats optimum")
            coverage[(case.rule, case.case)] = coverage.get((case.rule, case.case), 0) + 1
    return SuiteResult("construction", checked, tuple(failures)), coverage


# ---------------------------------------------------------------------------
# Targeted corpus hitting every construction branch at order >= 28.


def shuffled(g: Graph, seed: int) -> Graph:
    """Deterministic Fisher-Yates relabeling driven by the sweep PRNG."""
    perm = list(range(g.n))
    for i in range(g.n - 1, 0, -1):
        j = splitmix64(seed + (i + 1) * GOLDEN) % (i + 1)
        perm[i], perm[j] = perm[j], perm[i]
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _hub_clique(n_hubs: int, m_edges, extra_edges) -> Graph:
    """Seven-hub template: hubs form a clique, vertex 7+i is hub i's matched
    leaf, vertices 14.. are free leaves (two per hub). m_edges and
    extra_edges add adjacency beyond each leaf's own hub."""
    edges = [(i, j) for i in range(n_hubs) for j in range(i + 1, n_hubs)]
    edges += [(i, n_hubs + i) for i in range(n_hubs)]
    edges += [(i, 2 * n_hubs + 2 * i) for i in range(n_hubs)]
    edges += [(i, 2 * n_hubs + 2 * i + 1) for i in range(n_hubs)]
    edges += list(m_edges) + list(extra_edges)
    return Graph.from_edges(4 * n_hubs, edges)


def branch_corpus() -> List[Tuple[str, Graph]]:
    """Named graphs of order 28..31 that between them drive every case of
    every construction rule. Unions of stars, edges, and small cycles pin
    the counting cases; the hub-clique graphs pin the adjacency-scan cases
    by controlling exactly which pools the scan can hit."""
    k2 = complete(2)
    hubs = range(7)
    m = range(7, 14)
    free = range(14, 28)
    all_m_edges = [(i, v) for i in hubs for v in m if v != 7 + i]
    all_free_edges = [(i, v) for i in hubs for v in free]
    corpus: List[Tuple[str, Graph]] = [
        ("base_r0", add_isolates(disjoint_union(*[k2] * 7), 14)),
        ("base_r1_s0", add_isolates(disjoint_union(*[k2] * 7), 15)),
        ("base_r1_s1", add_isolates(disjoint_union(star(3), *[k2] * 6), 13)),
        ("base_r2", add_isolates(disjoint_union(*[k2] * 7), 16)),
        ("base_r3plus", add_isolates(disjoint_union(*[k2] * 7), 17)),
        ("base_r3plus_star", star(29)),
        ("ph_v12_r2", disjoint_union(star(16), *[k2] * 6)),
        ("ph_v12_r3plus", disjoint_union(*[star(4)] * 7)),
        (
            "ph_v11",
            Graph.from_edges(
                28, [(0, v) for v in range(1, 27)] + [(27, 1), (27, 2), (27, 3)]
            ),
        ),
        ("hub_m_open", _hub_clique(7, all_m_edges, [])),
        ("hub_private", _hub_clique(7, [], [])),
        ("hub_free_open", _hub_clique(7, [], all_free_edges)),
        (
            "hub_one_blind",
            _hub_clique(
                7,
                [(0, v) for v in m if v != 7],
                [(0, v) for v in free if v != 27],
            ),
        ),
        ("nq_s_small_s0", add_isolates(disjoint_union(cycle(3), *[k2] * 6), 14)),
        ("nq_s_small_s1", add_isolates(disjoint_union(star(3), *[k2] * 7), 11)),
        (
            "nq_halfcycle_r0",
            add_isolates(disjoint_union(cycle(5), star(3), star(3), *[k2] * 4), 11),
        ),
        (
            "nq_halfcycle_r1",
            add_isolates(disjoint_union(cycle(5), star(3), star(3), *[k2] * 4), 12),
        ),
        (
            "nq_halfcycle_r2",
            add_isolates(disjoint_union(cycle(5), star(3), star(3), *[k2] * 3), 11),
        ),
        (
            "nq_halfcycle_r3plus",
            add_isolates(disjoint_union(cycle(5), star(3), star(3), *[k2] * 3), 12),
        ),
        ("nq_s_equals_t", add_isolates(disjoint_union(*[star(3)] * 8), 4)),
        ("nq_p1", add_isolates(disjoint_union(*[star(3)] * 7, k2), 5)),
        ("nq_p2_r0", add_isolates(disjoint_union(star(3), star(3), *[k2] * 6), 10)),
        ("nq_p2_r1", add_isolates(disjoint_union(star(3), star(3), *[k2] * 6), 11)),
        ("nq_p2_r2", add_isolates(disjoint_union(star(3), star(3), *[k2] * 6), 12)),
        ("nq_p2_r3plus", add_isolates(disjoint_union(*[star(3)] * 6, k2, k2), 6)),
    ]
    return corpus


def corpus_with_relabelings(copies: int = 3, seed: int = 0xC0FFEE) -> List[Graph]:
    graphs: List[Graph] = []
    for idx, (_, g) in enumerate(branch_corpus()):
        graphs.append(g)
        for c in range(copies):
            graphs.append(shuffled(g, splitmix64(seed + idx * 131 + c)))
    return graphs


def _window_mixes(n: int, t2: int) -> List[Tuple[str, Graph]]:
    """Component mixes of order n realizing value t2/2 inside the
    just-above-quarter window, one per reachable recipe branch."""
    k2 = complete(2)
    mixes: List[Tuple[str, Graph]] = []
    if t2 % 2 == 0:
        k = t2 // 2
        if k >= 3 and n - 3 * k >= 0:
            mixes.append(
                ("s_equals_t", add_isolates(disjoint_union(*[star(3)] * k), n - 3 * k))
            )
        m = (t2 - 4) // 2
        if m >= 2 and n - 6 - 2 * m >= 0:
            mixes.append(
                ("p2", add_isolates(disjoint_union(star(3), star(3), *[k2] * m), n - 6 - 2 * m))
            )
        k = (t2 - 2) // 2
        if k >= 2 and n - 3 * k - 2 >= 0:
            mixes.append(
                ("p1", add_isolates(disjoint_union(*[star(3)] * k, k2), n - 3 * k - 2))
            )
    else:
        m = (t2 - 9) // 2
        if m >= 0 and n - 11 - 2 * m >= 0:
            mixes.append(
                (
                    "halfcycle",
                    add_isolates(
                        disjoint_union(cycle(5), star(3), star(3), *[k2] * m),
                        n - 11 - 2 * m,
                    ),
                )
            )
        m = (t2 - 3) // 2
        if m >= 0 and n - 3 - 2 * m >= 0:
            mixes.append(
                ("s_small", add_isolates(disjoint_union(cycle(3), *[k2] * m), n - 3 - 2 * m))
            )
    return mixes


def threshold_probe(lo: int = 8, hi: int = 35) -> List[Tuple[str, int, bool]]:
    """Where the just-above-quarter recipes actually start working,
    measured on witness families instead of assumed. For each order and
    each allowed value, build one graph per reachable recipe branch and
    attempt the construction with the order gate off. Returns (family,
    order, succeeded) rows; the stated gate of 28 can be compared against
    the largest failing order in the data."""
    rows: List[Tuple[str, int, bool]] = []
    for n in range(lo, hi + 1):
        for t2 in nearquarter_window(n):
            for family, g in _window_mixes(n, t2):
                p = good_partition(g)
                if p.t.units != t2:
                    continue
                try:
                    construct_complement_fm_nearquarter(g, p, require_order=False)
                    rows.append((family, n, True))
                except (PreconditionError, InternalInconsistencyError):
                    rows.append((family, n, False))
    return rows


# ---------------------------------------------------------------------------
# Stream determinism and enumeration counting.


def run_determinism_suite() -> SuiteResult:
    checked = 0
    failures: List[str] = []

    for n in range(6):
        checked += 1
        if sum(1 for _ in enumerate_graphs(n)) != enumeration_count(n):
            failures.append(f"enumeration count wrong at n={n}")

    spec = SampleSpec(n=17, p_num=2, p_den=5, count=40, seed=0xFEED)
    masks = sample_masks(spec, 0, spec.count)
    for k in (0, 1, 19, 39):
        checked += 1
        if sample_graph(spec, k).to_mask() != masks[k]:
            failures.append(f"scalar draw {k} disagrees with the batch path")
    checked += 1
    if masks != sample_masks(spec, 0, spec.count):
        failures.append("repeated sampling of one spec changed")
    checked += 1
    if [g.to_mask() for g in sample_graphs(spec, batch=7)] != masks:
        failures.append("batched iteration disagrees with sample_masks")

    for workers in (1, 2):
        checked += 1
        stats, rows = run_sweep("basic", enumerate_n=4, workers=workers)
        if workers == 1:
            base = (stats, rows)
        elif (stats, rows) != base:
            failures.append("sweep output depends on worker count")

    checked += 1
    sw1 = run_sweep("nonempty", spec=spec, workers=1)
    sw2 = run_sweep("nonempty", spec=spec, workers=2)
    if sw1 != sw2:
        failures.append("sampled sweep output depends on worker count")

    return SuiteResult("determinism", checked, tuple(failures))


# ---------------------------------------------------------------------------
# Entry point used by the CLI.


def run_all(quick: bool = True) -> List[SuiteResult]:
    max_n = 4 if quick else 5
    small: List[Graph] = []
    for n in range(2, max_n + 1):
        small.extend(enumerate_graphs(n))
    sampled = list(
        sample_graphs(SampleSpec(n=29, p_num=3, p_den=10, count=20 if quick else 100,
                                 seed=0xA5A5))
    )
    results = [
        run_oracle_suite(max_n=max_n, oracle_edge_cap=8 if quick else 10),
        run_structure_suite(small + sampled),
        run_partition_suite(small + sampled),
        run_classifier_suite(max_n=max_n + 1),
        run_determinism_suite(),
    ]
    construction, coverage = run_construction_suite(
        small + corpus_with_relabelings(copies=1 if quick else 3)
    )
    missing = sorted(expected_cases() - set(coverage))
    never_fired = tuple(f"case never fired: {r}/{c}" for r, c in missing)
    results.append(replace(construction, failures=construction.failures + never_fired))
    return results


def expected_cases() -> set:
    """Every (rule, case) pair the construction dispatcher can emit."""
    return {
        ("base", "r0"),
        ("base", "r1_s0"),
        ("base", "r1_s1"),
        ("base", "r2"),
        ("base", "r3plus"),
        ("plus_half", "v_in_v12_r2"),
        ("plus_half", "v_in_v12_r3plus"),
        ("plus_half", "v_in_v11"),
        ("plus_half", "v_in_v21"),
        ("plus_half", "v_in_v22"),
        ("plus_one", "v11_internal"),
        ("plus_one", "v11_to_v2_then_v12"),
        ("plus_one", "v11_to_v2_then_v2"),
        ("plus_one", "v11_to_v12"),
        ("near_quarter", "s_small"),
        ("near_quarter", "halfcycle_r0"),
        ("near_quarter", "halfcycle_r1"),
        ("near_quarter", "halfcycle_r2"),
        ("near_quarter", "halfcycle_r3plus"),
        ("near_quarter", "s_equals_t"),
        ("near_quarter", "p1"),
        ("near_quarter", "p2_r0"),
        ("near_quarter", "p2_r1"),
        ("near_quarter", "p2_r2"),
        ("near_quarter", "p2_r3plus"),
    }
