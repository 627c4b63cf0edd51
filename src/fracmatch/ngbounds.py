"""Complement-sum bounds on graphs: exact sums and per-theorem reports,
constructive complement matchings witnessing the lower bounds, and the
scalar reference sweep. The verdicts and the aggregation are in bounds.

The constructions never compute a matching on the complement. They place
weights from facts the good partition guarantees: the unweighted side is
a complement clique, the support leftovers are complement-complete to the
unweighted leftovers, and the 1-edge partners of paired vertices form a
complement clique with no complement non-edges into the unweighted side.
Each branch names only its own 1-edges; one completion step places the
rest, pairing the remaining support onto the unweighted side and closing
what is left in a half cycle or around a spare 1-edge. A branch that
meets a partition without these facts raises InternalInconsistencyError,
and the matching container re-checks every placed edge on the complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .bounds import (
    BOUND_NAMES, MIN_STATED_ORDER, SweepStats, Verdict, bound_verdict, empty_stats, tally,
)
from .errors import InternalInconsistencyError, PreconditionError
from .families import FamilyLabel, classify_equality_family
from .fm import FractionalMatching, alpha2
from .graph import Graph, bits, mask_of
from .graph6 import emit_graph6
from .halfint import HalfInt, half_text
from .partition import GoodPartition

Edge = Tuple[int, int]


@dataclass(frozen=True)
class Hypotheses:
    g_nonempty: bool
    gc_nonempty: bool
    g_isolate_free: bool
    gc_isolate_free: bool
    n_at_least_28: bool


@dataclass(frozen=True)
class BoundReport:
    n: int
    alpha_g: HalfInt
    alpha_gc: HalfInt
    sum: HalfInt
    hypotheses: Hypotheses
    bounds: Dict[str, Verdict]
    equality_family: Optional[FamilyLabel]


def ng_sum(g: Graph) -> BoundReport:
    """Exact matching-number sum of a graph and its complement with
    per-bound applicability, satisfaction, and equality flags."""
    n = g.n
    gc = g.complement()
    a_g = alpha2(g)
    a_gc = alpha2(gc)
    m_g = g.edge_count()
    m_gc = n * (n - 1) // 2 - m_g
    g_free, gc_free = not g.isolated_vertices(), not gc.isolated_vertices()
    bounds = {
        which: bound_verdict(which, n, a_g, a_gc, m_g, m_gc, g_free, gc_free)
        for which in BOUND_NAMES
    }
    family = None
    for which in ("isolate_free", "nonempty", "basic"):
        v = bounds[which]
        if v.applies and v.equality:
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
    return {_e(a, b): 1 for a, b in zip(vertices, [*vertices[1:], vertices[0]])}


def _fill(v12: int, v21: int, v22: int) -> Tuple[Dict[Edge, int], List[int]]:
    """1-edges from the vertices of v12 onto as many of the highest
    vertices of v22 (all three are vertex masks), and the ascending
    leftover: v21 plus the rest of v22."""
    lefts, rights = list(bits(v12)), list(bits(v22))
    k = len(rights) - len(lefts)
    return _pairs(lefts, rights[k:]), list(bits(v21 | mask_of(rights[:k])))


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
    if f.value.units * claimed.denominator < 2 * claimed.numerator:
        raise InternalInconsistencyError(
            f"{rule}/{case}: built value {f.value} below claimed {claimed}"
        )
    return f, CaseDescriptor(rule=rule, case=case, claimed=claimed)


def _complete(
    gc: Graph, p: GoodPartition, ones: Sequence[Edge], rule: str, case: str,
    claimed: Fraction, spare: Optional[Edge] = None,
) -> Tuple[FractionalMatching, CaseDescriptor]:
    """A branch's fixed 1-edges plus the rest of the matching: drop their
    endpoints and the spare's from v12, v21 and v22, fill v12 onto the
    tail of v22, and close the leftover in a half cycle, or, given a spare
    1-edge, with _cover, whose suffix ends the case name."""
    free = ~mask_of(v for e in (*ones, spare or ()) for v in e)
    pairs, leftover = _fill(p.v12 & free, p.v21 & free, p.v22 & free)
    if spare is None:
        close = _half_cycle(leftover)
    else:
        close, suffix = _cover(leftover, spare)
        case = f"{case}_{suffix}"
    weights = {**{_e(a, b): 2 for a, b in ones}, **pairs, **close}
    return _finish(gc, weights, rule, case, claimed)


def applicable_rules(g: Graph, p: GoodPartition) -> Tuple[str, ...]:
    """The construction rules whose preconditions hold, weakest first.
    Every rule needs n >= 2 and a support side of at most n/2 vertices
    (value at most n/4); plus_half also needs s >= 1 and both graphs
    isolate-free, read as no zero row in g or in its kept complement (whose
    zero rows are g's universal vertices); plus_one also needs s equal to
    the value with s >= 3."""
    T2, s = p.t.units, p.s
    if g.n < 2 or 2 * T2 > g.n:
        return ()
    if s < 1 or 0 in g.rows or 0 in g.complement().rows:
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
    rules = applicable_rules(g, p)
    if not rules:
        if g.n < 2:
            raise PreconditionError("construction needs n >= 2")
        quarter = half_text(g.n // 2) if g.n % 2 == 0 else f"{g.n}/4"
        raise PreconditionError(
            f"value {p.t} exceeds n/4 = {quarter}; leftover accounting fails"
        )
    if rule is None:
        rule = rules[-1]
    if rule not in _RULES:
        raise ValueError(f"unknown rule {rule!r}")
    if rule not in rules:
        raise PreconditionError(_UNMET[rule])
    return _RULES[rule](g, g.complement(), p)


def _base_rule(g: Graph, gc: Graph, p: GoodPartition):
    # Not _complete: the spare's second end is whatever the fill leaves.
    n, s = g.n, p.s
    v12 = p.v12
    spare_end = None
    if n - 2 * p.t.units + s == 1:
        # One vertex is left over, so s <= 1. A support vertex with no
        # neighbour on the unweighted side (x, or any v12 vertex when s = 0)
        # closes a half triangle with the two vertices the fill leaves.
        spare_end = min(bits(p.x if s else v12))
        v12 &= ~(1 << spare_end)
    pairs, leftover = _fill(v12, p.v21, p.v22)
    spare = None if spare_end is None else (spare_end, leftover.pop())
    cover, suffix = _cover(leftover, spare)
    case = f"r1_s{s}" if suffix == "r1" else suffix
    return _finish(gc, {**pairs, **cover}, "base", case, Fraction(n - s, 2))


def _plus_half_rule(g: Graph, gc: Graph, p: GoodPartition):
    n, s = g.n, p.s
    claimed = Fraction(n - s + 1, 2)
    u = min(bits(p.v11))

    for location, part in (("v12", p.v12), ("v11", p.v11), ("v21", p.v21), ("v22", p.v22)):
        cands = gc.row(u) & part
        if cands:
            v = next(bits(cands))
            break
    else:
        raise InternalInconsistencyError(
            f"vertex {u} has no complement neighbour despite an isolate-free complement"
        )

    if location == "v12":
        # Not _complete: the leftover may be just two vertices, which
        # _cover joins by a 1-edge; the case names the count.
        pairs, leftover = _fill(p.v12 & ~(1 << v), p.v21, p.v22)
        cover, suffix = _cover(leftover)
        weights = {_e(u, v): 2, **pairs, **cover}
        return _finish(gc, weights, "plus_half", f"v_in_v12_{suffix}", claimed)

    if s < 2:
        raise InternalInconsistencyError(
            f"complement neighbour landed in {location} although s = {s}"
        )
    ones = [(u, v), tuple(list(bits(p.x))[:2])]
    return _complete(gc, p, ones, "plus_half", f"v_in_{location}", claimed)


def _plus_one_rule(g: Graph, gc: Graph, p: GoodPartition):
    v2 = p.fm.unweighted
    claimed = Fraction(g.n - p.s + 2, 2)

    # an internal complement edge on the paired support side
    for u in bits(p.v11):
        cands = gc.row(u) & p.v11
        if cands:
            return _complete(gc, p, [(u, next(bits(cands)))], "plus_one", "v11_internal", claimed)

    # a complement edge from the paired support side into the unweighted side
    for u in bits(p.v11):
        cands = gc.row(u) & v2
        if not cands:
            continue
        v = next(bits(cands))
        if p.v21 >> v & 1:
            w = next(a for a, b in p.pairing if b == v)
        else:
            w = next(bits(g.row(v) & p.v11))
        if w == u:
            raise InternalInconsistencyError("complement neighbour shares its pairing origin")
        c12 = gc.row(w) & p.v12
        if c12:
            ones = [(u, v), (w, next(bits(c12)))]
            return _complete(gc, p, ones, "plus_one", "v11_to_v2_then_v12", claimed)
        c2 = gc.row(w) & v2
        if not c2:
            raise InternalInconsistencyError(
                f"vertex {w} has no complement neighbour outside the paired side"
            )
        ones = [(u, v), (w, next(bits(c2))), tuple(list(bits(p.v12))[:2])]
        return _complete(gc, p, ones, "plus_one", "v11_to_v2_then_v2", claimed)

    # every complement neighbour of the paired side lies among the partners
    u = min(bits(p.v11))
    cands = gc.row(u) & p.v12
    if not cands:
        raise InternalInconsistencyError(
            f"vertex {u} has no complement neighbour despite an isolate-free complement"
        )
    v = next(bits(cands))
    vp = p.fm.partners[v]
    # -1 (no partner) must raise here, not shift by a negative count.
    if vp < 0 or not p.v11 >> vp & 1 or vp == u:
        raise InternalInconsistencyError("partner bookkeeping broke in the partner branch")
    c = gc.row(vp) & p.v12
    if not c:
        raise InternalInconsistencyError(
            f"vertex {vp} has no complement neighbour among the partners"
        )
    vpp = next(bits(c))
    if vpp == v:
        raise InternalInconsistencyError("partner branch picked the original vertex twice")
    return _complete(gc, p, [(u, v), (vp, vpp)], "plus_one", "v11_to_v12", claimed)


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
    return _near_quarter_rule(g, g.complement(), p)


def _near_quarter_rule(g: Graph, gc: Graph, p: GoodPartition):
    n, T2, s = g.n, p.t.units, p.s
    claimed = Fraction(2 * n - T2, 4)
    rule = "near_quarter"
    v21 = list(bits(p.v21))
    v22 = list(bits(p.v22))

    if s <= 1:
        # Not _complete: pairing the head of v12 onto all of v22 already
        # meets the claim, and v21 stays unweighted.
        v12 = list(bits(p.v12))
        if len(v22) > len(v12):
            raise InternalInconsistencyError(
                "unweighted leftover exceeds the unpaired support side"
            )
        return _finish(gc, _pairs(v12[: len(v22)], v22), rule, "s_small", claimed)

    xs = list(bits(p.x))
    x_edge = (xs[0], xs[1])

    # Two 1-edges from v21[0] and v21[1] onto unpaired support vertices a
    # and b, found on a half cycle or on two internal 1-edges; the branches
    # without such a pair return on their own.
    cycles = [order for kind, order in p.fm.half_support_components() if kind == "cycle"]
    if cycles:
        a, b = sorted(cycles[0])[:2]
        case = "halfcycle"
    else:
        if T2 == 2 * s:
            ones = [x_edge, *zip(xs[2:], v21[: s - 2])]
            return _complete(gc, p, ones, rule, "s_equals_t", claimed)

        internal = [(a, b) for a, b in p.fm.one_edges() if p.v12 >> a & 1 and p.v12 >> b & 1]
        if len(internal) * 2 != T2 - 2 * s:
            raise InternalInconsistencyError(
                "unpaired support side is not covered by internal 1-edges"
            )
        if len(internal) == 1:
            w, w1 = _open_end(gc, v21[0], internal[0])
            if not v22:
                raise InternalInconsistencyError(
                    "no fully unweighted vertex left for the internal 1-edge swap"
                )
            ones = [x_edge, (v21[0], w), (v22[0], w1), *zip(xs[2:], v21[1 : s - 1])]
            return _complete(gc, p, ones, rule, "p1", claimed)
        a = _open_end(gc, v21[0], internal[0])[0]
        b = _open_end(gc, v21[1], internal[1])[0]
        case = "p2"

    ones = [(a, v21[0]), (b, v21[1]), *zip(xs[2:], v21[2:])]
    return _complete(gc, p, ones, rule, case, claimed, spare=x_edge)


_RULES = {
    "base": _base_rule,
    "plus_half": _plus_half_rule,
    "plus_one": _plus_one_rule,
}


# ---------------------------------------------------------------------------
# The scalar reference sweep.


def sweep_with_rows(
    graphs: Iterable[Graph], which: str
) -> Tuple[SweepStats, List[str]]:
    """Evaluate one bound over a graph stream, graph by graph through
    ng_sum, and tally each run of up to 256 graphs of one order as the
    sweep kernel tallies a batch; returns aggregate counts and one CSV row
    per graph (unsorted; callers sort after merging chunks)."""
    import numpy as np

    stats, rows = empty_stats(which), []
    for (n, _), run in groupby(enumerate(graphs), lambda ig: (ig[1].n, ig[0] // 256)):
        run = [g for _, g in run]
        reports = [ng_sum(g) for g in run]
        applies, bound, satisfied, equality = zip(*(rep.bounds[which] for rep in reports))

        def label_of(i: int) -> Optional[FamilyLabel]:
            # The three bound values differ, so an applicable equality is
            # the one ng_sum already classified.
            if applies[i]:
                return reports[i].equality_family
            return classify_equality_family(run[i], which)

        part, part_rows = tally(
            which, n, [emit_graph6(g) for g in run],
            [rep.alpha_g.units for rep in reports], [rep.alpha_gc.units for rep in reports],
            Verdict(np.array(applies), bound[0], np.array(satisfied), np.array(equality)),
            label_of, {},
        )
        stats = stats.merge(part)
        rows += part_rows
    return stats, rows
