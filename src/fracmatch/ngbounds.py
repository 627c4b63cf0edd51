"""Complement-sum bounds: exact sums, per-theorem reports, constructive
complement matchings witnessing the lower bounds, and sweep aggregation.

The constructions never compute a matching on the complement, in any
branch; they place weights edge by edge using only facts guaranteed by the
good partition (the unweighted side is independent, so its complement is a
clique; the support-side leftovers are complement-complete to the
unweighted leftovers; the 1-edge partners of paired vertices form a
complement clique with no complement non-edges into the unweighted side).
A branch that meets a partition without these facts raises
InternalInconsistencyError. Feasibility of every placed edge is re-checked
by the matching container on the complement graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import InternalInconsistencyError, PreconditionError
from .families import FamilyLabel, classify_equality_family
from .fm import FractionalMatching, alpha2
from .graph import Graph, bits, mask_of
from .graph6 import emit_graph6
from .halfint import HalfInt, half_text
from .partition import GoodPartition

Edge = Tuple[int, int]

BOUND_NAMES = ("basic", "nonempty", "isolate_free")

# Smallest order at which the two stronger bounds and the near-quarter
# construction are stated to hold.
MIN_STATED_ORDER = 28


# Each bound's value in half-units is n plus this offset.
_BOUND_OFFSET = {"basic": 0, "nonempty": 1, "isolate_free": 4}


def theorem_bound_value(which: str, n: int) -> HalfInt:
    if which not in _BOUND_OFFSET:
        raise ValueError(f"unknown bound name {which!r}")
    return HalfInt(n + _BOUND_OFFSET[which])


@dataclass(frozen=True)
class Hypotheses:
    g_nonempty: bool
    gc_nonempty: bool
    g_isolate_free: bool
    gc_isolate_free: bool
    n_at_least_28: bool


@dataclass(frozen=True)
class TheoremBound:
    applies: bool
    bound: HalfInt
    satisfied: bool
    equality: bool


class Verdict(NamedTuple):
    """One bound on one graph; bound is in half-units."""

    applies: bool
    bound: int
    satisfied: bool
    equality: bool


def bound_verdict(
    which: str, n: int, a_g: int, a_gc: int, m_g: int, m_gc: int,
    g_isolate_free: bool, gc_isolate_free: bool,
) -> Verdict:
    """The named bound on a graph of order n whose graph and complement
    have doubled matching numbers a_g, a_gc and edge counts m_g, m_gc.
    The two stronger bounds apply only from MIN_STATED_ORDER on."""
    if n < 2:
        raise PreconditionError(f"sum bounds need n >= 2, got {n}")
    if which == "basic":
        applies = True
    elif which == "nonempty":
        applies = n >= MIN_STATED_ORDER and m_g > 0 and m_gc > 0
    elif which == "isolate_free":
        applies = n >= MIN_STATED_ORDER and g_isolate_free and gc_isolate_free
    else:
        raise ValueError(f"unknown bound name {which!r}")
    bound = n + _BOUND_OFFSET[which]
    total = a_g + a_gc
    return Verdict(applies, bound, total >= bound, total == bound)


@dataclass(frozen=True)
class BoundReport:
    n: int
    alpha_g: HalfInt
    alpha_gc: HalfInt
    sum: HalfInt
    hypotheses: Hypotheses
    bounds: Dict[str, TheoremBound]
    equality_family: Optional[FamilyLabel]


def ng_sum(g: Graph) -> BoundReport:
    """Exact matching-number sum of a graph and its complement with
    per-bound applicability, satisfaction, and equality flags."""
    n = g.n
    gc = g.complement()
    a_g = alpha2(g)
    a_gc = alpha2(gc)
    m_g, m_gc = g.edge_count(), gc.edge_count()
    g_free, gc_free = not g.isolated_vertices(), not gc.isolated_vertices()
    bounds = {}
    for which in BOUND_NAMES:
        v = bound_verdict(which, n, a_g, a_gc, m_g, m_gc, g_free, gc_free)
        bounds[which] = TheoremBound(v.applies, HalfInt(v.bound), v.satisfied, v.equality)
    family = None
    for which in ("isolate_free", "nonempty", "basic"):
        tb = bounds[which]
        if tb.applies and tb.equality:
            family = classify_equality_family(g, which)
            break
    return BoundReport(
        n=n,
        alpha_g=HalfInt(a_g),
        alpha_gc=HalfInt(a_gc),
        sum=HalfInt(a_g + a_gc),
        hypotheses=Hypotheses(
            g_nonempty=m_g > 0,
            gc_nonempty=m_gc > 0,
            g_isolate_free=g_free,
            gc_isolate_free=gc_free,
            n_at_least_28=n >= MIN_STATED_ORDER,
        ),
        bounds=bounds,
        equality_family=family,
    )


# ---------------------------------------------------------------------------
# Constructive complement matchings.


@dataclass(frozen=True)
class CaseDescriptor:
    rule: str
    case: str
    claimed: Fraction
    fallback: bool = False


def _e(a: int, b: int) -> Edge:
    return (a, b) if a < b else (b, a)


def _pairs(lefts: Sequence[int], rights: Sequence[int]) -> Dict[Edge, int]:
    if len(lefts) != len(rights):
        raise InternalInconsistencyError(
            f"pairing size mismatch: {len(lefts)} vs {len(rights)}"
        )
    return {_e(a, b): 2 for a, b in zip(lefts, rights)}


def _half_cycle(vertices: Sequence[int]) -> Dict[Edge, int]:
    if len(vertices) < 3:
        raise InternalInconsistencyError(f"cycle needs >= 3 vertices, got {list(vertices)}")
    w: Dict[Edge, int] = {}
    for i, a in enumerate(vertices):
        w[_e(a, vertices[(i + 1) % len(vertices)])] = 1
    return w


def _fill(
    lefts: Sequence[int], v21: List[int], v22: List[int]
) -> Tuple[Dict[Edge, int], List[int]]:
    """1-edges from lefts onto the last len(lefts) vertices of v22, and the
    sorted leftover: v21 plus the head of v22."""
    k = len(v22) - len(lefts)
    return _pairs(lefts, v22[k:]), sorted(v21 + v22[:k])


def _cover(
    leftover: List[int], spare: Optional[Edge] = None
) -> Tuple[Dict[Edge, int], str]:
    """Weights covering the leftover unweighted vertices (a complement
    clique) and the case suffix r0, r1, r2 or r3plus from their count. A
    spare 1-edge (a, b) is kept whole, except that one leftover vertex c
    turns it into the half triangle a, b, c; without a spare, one leftover
    vertex raises."""
    r = len(leftover)
    weights = {} if spare is None else {_e(*spare): 2}
    if r == 1 and spare is not None:
        (a, b), c = spare, leftover[0]
        weights = {_e(a, b): 1, _e(a, c): 1, _e(b, c): 1}
    elif r == 2:
        weights[_e(*leftover)] = 2
    elif r:
        weights.update(_half_cycle(leftover))
    return weights, ("r0", "r1", "r2")[r] if r < 3 else "r3plus"


def _open_end(gc: Graph, x: int, edge: Edge) -> Edge:
    """The internal 1-edge turned so that x is complement-adjacent to its
    first end. Partition property (a) keeps x off one end in G."""
    w, w1 = edge
    if gc.adj(x, w):
        return w, w1
    if gc.adj(x, w1):
        return w1, w
    raise InternalInconsistencyError(
        f"vertex {x} is adjacent to both ends of the internal 1-edge"
    )


def _finish(
    gc: Graph, weights: Dict[Edge, int], rule: str, case: str, claimed: Fraction
) -> Tuple[FractionalMatching, CaseDescriptor]:
    try:
        f = FractionalMatching(gc, weights)
    except ValueError as exc:
        raise InternalInconsistencyError(f"{rule}/{case}: infeasible placement: {exc}") from exc
    if Fraction(f.value.units, 2) < claimed:
        raise InternalInconsistencyError(
            f"{rule}/{case}: built value {f.value} below claimed {claimed}"
        )
    return f, CaseDescriptor(rule=rule, case=case, claimed=claimed)


def applicable_rules(g: Graph, gc: Graph, p: GoodPartition) -> Tuple[str, ...]:
    """The construction rules whose preconditions hold, weakest first.
    Every rule needs n >= 2 and a support side of at most n/2 vertices
    (value at most n/4); plus_half also needs s >= 1 and both graphs
    isolate-free; plus_one also needs s equal to the value with s >= 3."""
    T2, s = p.t.units, p.s
    if g.n < 2 or 2 * T2 > g.n:
        return ()
    if s < 1 or g.isolated_vertices() or gc.isolated_vertices():
        return ("base",)
    if T2 == 2 * s and s >= 3:
        return ("base", "plus_half", "plus_one")
    return ("base", "plus_half")


_UNMET = {
    "plus_half": "plus_half needs s >= 1 and both sides isolate-free",
    "plus_one": "plus_one needs s = value >= 3 and both sides isolate-free",
}


def construct_complement_fm(
    g: Graph, p: GoodPartition, rule: Optional[str] = None
) -> Tuple[FractionalMatching, CaseDescriptor]:
    """Complement matching with value at least (n-s)/2 (rule "base"),
    (n-s+1)/2 ("plus_half"), or (n-s+2)/2 ("plus_one"), built from the
    partition without computing any complement matching. rule=None picks
    the strongest rule in applicable_rules, which holds the preconditions.
    """
    gc = g.complement()
    rules = applicable_rules(g, gc, p)
    if not rules:
        if g.n < 2:
            raise PreconditionError("construction needs n >= 2")
        raise PreconditionError(
            f"value {p.t} exceeds n/4 = {Fraction(g.n, 4)}; leftover accounting fails"
        )
    if rule is None:
        rule = rules[-1]
    # near_quarter has its own entry point and gate
    if rule == "near_quarter" or rule not in _RULES:
        raise ValueError(f"unknown rule {rule!r}")
    if rule not in rules:
        raise PreconditionError(_UNMET[rule])
    return _RULES[rule](g, gc, p)


def _base_rule(g: Graph, gc: Graph, p: GoodPartition):
    n, s = g.n, p.s
    v12 = sorted(p.v12)
    spare_end = None
    if n - 2 * p.t.units + s == 1:
        # One vertex is left over, so s <= 1. A support vertex with no
        # neighbour on the unweighted side (x, or any v12 vertex when s = 0)
        # closes a half triangle with the two vertices the fill leaves.
        spare_end = min(p.x) if s else v12[0]
        v12.remove(spare_end)
    pairs, leftover = _fill(v12, sorted(p.v21), sorted(p.v22))
    spare = None if spare_end is None else (spare_end, leftover.pop())
    cover, suffix = _cover(leftover, spare)
    case = f"r1_s{s}" if suffix == "r1" else suffix
    return _finish(gc, {**pairs, **cover}, "base", case, Fraction(n - s, 2))


def _plus_half_rule(g: Graph, gc: Graph, p: GoodPartition):
    n, s = g.n, p.s
    v12 = sorted(p.v12)
    v21 = sorted(p.v21)
    v22 = sorted(p.v22)
    claimed = Fraction(n - s + 1, 2)
    u = min(p.v11)

    v = None
    location = None
    for name, pool in (("v12", v12), ("v11", sorted(p.v11)), ("v21", v21), ("v22", v22)):
        cands = [x for x in pool if x != u and gc.adj(u, x)]
        if cands:
            v, location = cands[0], name
            break
    if v is None:
        raise InternalInconsistencyError(
            f"vertex {u} has no complement neighbour despite an isolate-free complement"
        )
    uv = {_e(u, v): 2}

    if location == "v12":
        pairs, leftover = _fill([x for x in v12 if x != v], v21, v22)
        cover, suffix = _cover(leftover)
        return _finish(gc, {**uv, **pairs, **cover}, "plus_half", f"v_in_v12_{suffix}", claimed)

    if p.s < 2:
        raise InternalInconsistencyError(
            f"complement neighbour landed in {location} although s = {p.s}"
        )
    v1, v2 = sorted(p.x)[:2]
    # v lies in at most one of v21 and v22; drop it before placing the rest
    pairs, leftover = _fill(
        [x for x in v12 if x != v1 and x != v2],
        [x for x in v21 if x != v],
        [x for x in v22 if x != v],
    )
    weights = {**uv, _e(v1, v2): 2, **pairs, **_half_cycle(leftover)}
    return _finish(gc, weights, "plus_half", f"v_in_{location}", claimed)


def _plus_one_rule(g: Graph, gc: Graph, p: GoodPartition):
    n, s = g.n, p.s
    v11 = sorted(p.v11)
    v12 = sorted(p.v12)
    v21 = sorted(p.v21)
    v22 = sorted(p.v22)
    v2_mask = mask_of(p.unweighted_side)
    v11_mask = mask_of(v11)
    v12_mask = mask_of(v12)
    claimed = Fraction(n - s + 2, 2)

    # an internal complement edge on the paired support side
    for u in v11:
        cands = gc.row(u) & v11_mask
        if cands:
            pairs, leftover = _fill(v12, v21, v22)
            weights = {_e(u, next(bits(cands))): 2, **pairs, **_half_cycle(leftover)}
            return _finish(gc, weights, "plus_one", "v11_internal", claimed)

    # a complement edge from the paired support side into the unweighted side
    for u in v11:
        cands = gc.row(u) & v2_mask
        if not cands:
            continue
        v = next(bits(cands))
        if v in p.v21:
            w = next(a for a, b in p.pairing if b == v)
        else:
            w = next(bits(g.row(v) & v11_mask))
        if w == u:
            raise InternalInconsistencyError("complement neighbour shares its pairing origin")
        c12 = gc.row(w) & v12_mask
        if c12:
            wp = next(bits(c12))
            pairs, leftover = _fill(
                [x for x in v12 if x != wp],
                [y for y in v21 if y != v],
                [y for y in v22 if y != v],
            )
            weights = {_e(u, v): 2, _e(w, wp): 2, **pairs, **_half_cycle(leftover)}
            return _finish(gc, weights, "plus_one", "v11_to_v2_then_v12", claimed)
        c2 = gc.row(w) & v2_mask
        if not c2:
            raise InternalInconsistencyError(
                f"vertex {w} has no complement neighbour outside the paired side"
            )
        wp = next(bits(c2))
        x1, x2 = v12[0], v12[1]
        pairs, leftover = _fill(
            [x for x in v12 if x != x1 and x != x2],
            [y for y in v21 if y != v and y != wp],
            [y for y in v22 if y != v and y != wp],
        )
        weights = {
            _e(u, v): 2,
            _e(w, wp): 2,
            _e(x1, x2): 2,
            **pairs,
            **_half_cycle(leftover),
        }
        return _finish(gc, weights, "plus_one", "v11_to_v2_then_v2", claimed)

    # every complement neighbour of the paired side lies among the partners
    u = v11[0]
    cands = gc.row(u) & v12_mask
    if not cands:
        raise InternalInconsistencyError(
            f"vertex {u} has no complement neighbour despite an isolate-free complement"
        )
    v = next(bits(cands))
    partner = {}
    for a, b in p.fm.one_edges():
        partner[a] = b
        partner[b] = a
    vp = partner.get(v)
    if vp is None or vp not in p.v11 or vp == u:
        raise InternalInconsistencyError("partner bookkeeping broke in the partner branch")
    c = gc.row(vp) & v12_mask
    if not c:
        raise InternalInconsistencyError(
            f"vertex {vp} has no complement neighbour among the partners"
        )
    vpp = next(bits(c))
    if vpp == v:
        raise InternalInconsistencyError("partner branch picked the original vertex twice")
    pairs, leftover = _fill([x for x in v12 if x != v and x != vpp], v21, v22)
    weights = {_e(u, v): 2, _e(vp, vpp): 2, **pairs, **_half_cycle(leftover)}
    return _finish(gc, weights, "plus_one", "v11_to_v12", claimed)


def nearquarter_window(n: int) -> Tuple[int, int]:
    """The two values of 2t just above n/4 that the near-quarter
    construction covers: 2*floor(n/4) + (1, 2) for n % 4 in {0, 1} and
    2*floor(n/4) + (2, 3) for n % 4 in {2, 3}."""
    lo = 2 * (n // 4) + (1 if n % 4 < 2 else 2)
    return lo, lo + 1


def construct_complement_fm_nearquarter(
    g: Graph, p: GoodPartition, require_order: bool = True
) -> Tuple[FractionalMatching, CaseDescriptor]:
    """Complement matching with value at least (n - t)/2 when the value t
    sits just above n/4, that is 2t in nearquarter_window(n).
    The n >= 28 gate can be lifted with require_order=False to probe
    threshold tightness; the structural recipe is unchanged.
    """
    n = g.n
    allowed = nearquarter_window(n)
    if p.t.units not in allowed:
        raise PreconditionError(
            f"value {p.t} does not sit just above n/4 (allowed 2t in {list(allowed)})"
        )
    if require_order and n < MIN_STATED_ORDER:
        raise PreconditionError(
            f"near-quarter construction is stated for n >= {MIN_STATED_ORDER}, got {n}"
        )
    return _RULES["near_quarter"](g, g.complement(), p)


def _near_quarter_rule(g: Graph, gc: Graph, p: GoodPartition):
    n, T2, s = g.n, p.t.units, p.s
    claimed = Fraction(2 * n - T2, 4)
    rule = "near_quarter"
    v21 = sorted(p.v21)
    v22 = sorted(p.v22)

    if s <= 1:
        v12 = sorted(p.v12)
        k = len(v22)
        if k > len(v12):
            raise InternalInconsistencyError(
                "unweighted leftover exceeds the unpaired support side"
            )
        return _finish(gc, _pairs(v12[:k], v22), rule, "s_small", claimed)

    xs = sorted(p.x)
    v1, v2 = xs[0], xs[1]

    # Two 1-edges from v21[0] and v21[1] onto unpaired support vertices a
    # and b, found on a half cycle or on two internal 1-edges; the branches
    # without such a pair return on their own.
    cycles = [order for kind, order in p.fm.half_support_components() if kind == "cycle"]
    if cycles:
        a, b = sorted(cycles[0])[:2]
        case = "halfcycle"
    else:
        if T2 == 2 * s:
            weights = {_e(v1, v2): 2, **_pairs(xs[2:], v21[: s - 2])}
            weights.update(_half_cycle(sorted(v21[s - 2 :] + v22)))
            return _finish(gc, weights, rule, "s_equals_t", claimed)

        internal = [e for e in p.fm.one_edges() if e[0] in p.v12 and e[1] in p.v12]
        if len(internal) * 2 != T2 - 2 * s:
            raise InternalInconsistencyError(
                "unpaired support side is not covered by internal 1-edges"
            )
        if len(internal) == 1:
            x = v21[0]
            w, w1 = _open_end(gc, x, internal[0])
            if not v22:
                raise InternalInconsistencyError(
                    "no fully unweighted vertex left for the internal 1-edge swap"
                )
            rest21 = v21[1:]
            weights = {_e(v1, v2): 2, _e(x, w): 2, _e(v22[0], w1): 2}
            weights.update(_pairs(xs[2:], rest21[: s - 2]))
            weights.update(_half_cycle(sorted(rest21[s - 2 :] + v22[1:])))
            return _finish(gc, weights, rule, "p1", claimed)
        a = _open_end(gc, v21[0], internal[0])[0]
        b = _open_end(gc, v21[1], internal[1])[0]
        case = "p2"

    weights = {_e(a, v21[0]): 2, _e(b, v21[1]): 2, **_pairs(xs[2:], v21[2:])}
    pool = [z for z in sorted(p.v12 - p.x) if z not in (a, b)]
    pairs, leftover = _fill(pool, [], v22)
    cover, suffix = _cover(leftover, (v1, v2))
    return _finish(gc, {**weights, **pairs, **cover}, rule, f"{case}_{suffix}", claimed)


_RULES = {
    "base": _base_rule,
    "plus_half": _plus_half_rule,
    "plus_one": _plus_one_rule,
    "near_quarter": _near_quarter_rule,
}


# ---------------------------------------------------------------------------
# Sweep aggregation.


@dataclass(frozen=True)
class SweepStats:
    which: str
    total: int
    applies: int
    satisfied: int
    equality: int
    characterization_match: int
    violations: Tuple[str, ...]
    unmatched_equalities: Tuple[str, ...]

    def merge(self, other: "SweepStats") -> "SweepStats":
        if self.which != other.which:
            raise ValueError("cannot merge sweeps of different bounds")
        return SweepStats(
            which=self.which,
            total=self.total + other.total,
            applies=self.applies + other.applies,
            satisfied=self.satisfied + other.satisfied,
            equality=self.equality + other.equality,
            characterization_match=self.characterization_match + other.characterization_match,
            violations=tuple(sorted(set(self.violations) | set(other.violations))),
            unmatched_equalities=tuple(
                sorted(set(self.unmatched_equalities) | set(other.unmatched_equalities))
            ),
        )

    def to_json(self) -> Dict[str, object]:
        return {
            "bound": self.which,
            "total": self.total,
            "applies": self.applies,
            "satisfied": self.satisfied,
            "equality": self.equality,
            "characterization_match": self.characterization_match,
            "violations": list(self.violations),
            "unmatched_equalities": list(self.unmatched_equalities),
        }


CSV_HEADER = "graph6,n,alpha_g,alpha_gc,sum,bound,satisfied,equality,family"


def empty_stats(which: str) -> SweepStats:
    return SweepStats(which, 0, 0, 0, 0, 0, (), ())


# A solved sweep graph: graph6 key, n, alpha2(G), alpha2(Gc), the verdict
# of the swept bound, and the equality family label (None without one).
SweepRecord = Tuple[str, int, int, int, Verdict, Optional[FamilyLabel]]


def sweep_with_rows(
    graphs: Iterable[Graph], which: str
) -> Tuple[SweepStats, List[str]]:
    """Evaluate one bound over a graph stream; returns aggregate counts and
    one CSV row per graph (unsorted; callers sort after merging chunks)."""

    def records() -> Iterable[SweepRecord]:
        for g in graphs:
            rep = ng_sum(g)
            tb = rep.bounds[which]
            # The three bound values differ, so an applicable equality is the
            # one ng_sum already classified.
            if not tb.equality:
                label = None
            elif tb.applies:
                label = rep.equality_family
            else:
                label = classify_equality_family(g, which)
            verdict = Verdict(tb.applies, tb.bound.units, tb.satisfied, tb.equality)
            yield emit_graph6(g), g.n, rep.alpha_g.units, rep.alpha_gc.units, verdict, label

    return _sweep_pairs(records(), which)


def _sweep_pairs(
    records: Iterable[SweepRecord], which: str
) -> Tuple[SweepStats, List[str]]:
    """Counts, violations, unmatched equalities and CSV rows of a stream
    of solved graphs."""
    if which not in BOUND_NAMES:
        raise ValueError(f"unknown bound name {which!r}")
    total = applies = satisfied = equality = char_match = 0
    violations: List[str] = []
    unmatched: List[str] = []
    rows: List[str] = []
    for g6, n, a_g, a_gc, v, label in records:
        total += 1
        family = "" if label is None else label.tag.value
        if v.applies:
            applies += 1
            if v.satisfied:
                satisfied += 1
            else:
                violations.append(g6)
            if v.equality:
                equality += 1
                if family:
                    char_match += 1
                else:
                    unmatched.append(g6)
        rows.append(
            f"{g6},{n},{half_text(a_g)},{half_text(a_gc)},{half_text(a_g + a_gc)},"
            f"{half_text(v.bound)},{int(v.satisfied)},{int(v.equality)},{family}"
        )
    stats = SweepStats(
        which=which,
        total=total,
        applies=applies,
        satisfied=satisfied,
        equality=equality,
        characterization_match=char_match,
        violations=tuple(sorted(violations)),
        unmatched_equalities=tuple(sorted(unmatched)),
    )
    return stats, rows
