"""Complement-sum bounds: exact sums, per-theorem reports, constructive
complement matchings witnessing the lower bounds, and sweep aggregation.

The constructions never compute a matching on the complement; they place
weights edge by edge using only facts guaranteed by the good partition
(the unweighted side is independent, so its complement is a clique; the
support-side leftovers are complement-complete to the unweighted leftovers;
the 1-edge partners of paired vertices form a complement clique with no
complement non-edges into the unweighted side). Feasibility of every placed
edge is re-checked by the matching container on the complement graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import InternalInconsistencyError, PreconditionError
from .families import FamilyLabel, classify_equality_family
from .fm import FractionalMatching, alpha2, extract_fm
from .graph import Graph, bits, mask_of
from .graph6 import emit_graph6
from .halfint import HalfInt
from .partition import GoodPartition

Edge = Tuple[int, int]

BOUND_NAMES = ("basic", "nonempty", "isolate_free")

# Smallest order at which the two stronger bounds and the near-quarter
# construction are stated to hold.
MIN_STATED_ORDER = 28


def theorem_bound_value(which: str, n: int) -> HalfInt:
    if which == "basic":
        return HalfInt(n)
    if which == "nonempty":
        return HalfInt(n + 1)
    if which == "isolate_free":
        return HalfInt(n + 4)
    raise ValueError(f"unknown bound name {which!r}")


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
    if g.n < 2:
        raise PreconditionError(f"sum bounds need n >= 2, got {g.n}")
    n = g.n
    gc = g.complement()
    a_g = alpha2(g)
    a_gc = alpha2(gc)
    total = HalfInt(a_g + a_gc)

    hyp = Hypotheses(
        g_nonempty=g.edge_count() > 0,
        gc_nonempty=gc.edge_count() > 0,
        g_isolate_free=not g.isolated_vertices(),
        gc_isolate_free=not gc.isolated_vertices(),
        n_at_least_28=n >= MIN_STATED_ORDER,
    )
    applicability = {
        "basic": True,
        "nonempty": hyp.g_nonempty and hyp.gc_nonempty and hyp.n_at_least_28,
        "isolate_free": hyp.g_isolate_free and hyp.gc_isolate_free and hyp.n_at_least_28,
    }
    bounds = {}
    for which in BOUND_NAMES:
        b = theorem_bound_value(which, n)
        bounds[which] = TheoremBound(
            applies=applicability[which],
            bound=b,
            satisfied=total >= b,
            equality=total == b,
        )
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
        sum=total,
        hypotheses=hyp,
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


def _pairs(lefts: Sequence[int], rights: Sequence[int]) -> Dict[Edge, int]:
    if len(lefts) != len(rights):
        raise InternalInconsistencyError(
            f"pairing size mismatch: {len(lefts)} vs {len(rights)}"
        )
    return {(min(a, b), max(a, b)): 2 for a, b in zip(lefts, rights)}


def _half_cycle(vertices: Sequence[int]) -> Dict[Edge, int]:
    if len(vertices) < 3:
        raise InternalInconsistencyError(f"cycle needs >= 3 vertices, got {list(vertices)}")
    w: Dict[Edge, int] = {}
    for i, a in enumerate(vertices):
        b = vertices[(i + 1) % len(vertices)]
        w[(min(a, b), max(a, b))] = 1
    return w


def _finish(
    gc: Graph, weights: Dict[Edge, int], rule: str, case: str, claimed: Fraction,
    fallback: bool = False,
) -> Tuple[FractionalMatching, CaseDescriptor]:
    try:
        f = FractionalMatching(gc, weights)
    except ValueError as exc:
        raise InternalInconsistencyError(f"{rule}/{case}: infeasible placement: {exc}") from exc
    if Fraction(f.value.units, 2) < claimed:
        raise InternalInconsistencyError(
            f"{rule}/{case}: built value {f.value} below claimed {claimed}"
        )
    return f, CaseDescriptor(rule=rule, case=case, claimed=claimed, fallback=fallback)


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
    return _construct(g, gc, p, applicable_rules(g, gc, p), rule)


def _construct(
    g: Graph, gc: Graph, p: GoodPartition, rules: Tuple[str, ...], rule: Optional[str]
) -> Tuple[FractionalMatching, CaseDescriptor]:
    """construct_complement_fm on a complement and rule tuple the caller
    already holds (rules = applicable_rules(g, gc, p))."""
    if not rules:
        if g.n < 2:
            raise PreconditionError("construction needs n >= 2")
        raise PreconditionError(
            f"value {p.t} exceeds n/4 = {Fraction(g.n, 4)}; leftover accounting fails"
        )
    if rule is None:
        rule = rules[-1]
    if rule not in _RULES:
        raise ValueError(f"unknown rule {rule!r}")
    if rule not in rules:
        raise PreconditionError(_UNMET[rule])
    return _RULES[rule](g, gc, p)


def _base_rule(g: Graph, gc: Graph, p: GoodPartition):
    n, T2, s = g.n, p.t.units, p.s
    v12 = sorted(p.v12)
    v21 = sorted(p.v21)
    v22 = sorted(p.v22)
    d0 = n - 2 * T2 + s
    claimed = Fraction(n - s, 2)
    tail = v22[d0 - s :]
    leftover = sorted(v21 + v22[: d0 - s])

    if d0 == 0:
        return _finish(gc, _pairs(v12, tail), "base", "r0", claimed)
    if d0 == 1:
        if s == 0:
            u = v12[0]
            w1, w2 = v22[0], v22[1]
            weights = _pairs(v12[1:], v22[2:])
            weights.update({(min(u, w1), max(u, w1)): 1,
                            (min(u, w2), max(u, w2)): 1,
                            (w1, w2): 1})
            return _finish(gc, weights, "base", "r1_s0", claimed)
        xv = min(p.x)
        z = v21[0]
        w1 = v22[0]
        weights = _pairs([v for v in v12 if v != xv], v22[1:])
        for a, b in ((xv, z), (xv, w1), (z, w1)):
            weights[(min(a, b), max(a, b))] = 1
        return _finish(gc, weights, "base", "r1_s1", claimed)
    weights = _pairs(v12, tail)
    if d0 == 2:
        a, b = leftover
        weights[(min(a, b), max(a, b))] = 2
        return _finish(gc, weights, "base", "r2", claimed)
    weights.update(_half_cycle(leftover))
    return _finish(gc, weights, "base", "r3plus", claimed)


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
    uv = {(min(u, v), max(u, v)): 2}

    if location == "v12":
        rest12 = [x for x in v12 if x != v]
        k = len(rest12)
        weights = dict(uv)
        weights.update(_pairs(rest12, v22[len(v22) - k :]))
        leftover = sorted(v21 + v22[: len(v22) - k])
        if len(leftover) == 2:
            a, b = leftover
            weights[(min(a, b), max(a, b))] = 2
            return _finish(gc, weights, "plus_half", "v_in_v12_r2", claimed)
        weights.update(_half_cycle(leftover))
        return _finish(gc, weights, "plus_half", "v_in_v12_r3plus", claimed)

    if p.s < 2:
        raise InternalInconsistencyError(
            f"complement neighbour landed in {location} although s = {p.s}"
        )
    v1, v2 = sorted(p.x)[:2]
    # v lies in at most one of v21 and v22; drop it before placing the rest
    v21 = [x for x in v21 if x != v]
    v22 = [x for x in v22 if x != v]
    rest12 = [x for x in v12 if x != v1 and x != v2]
    k = len(rest12)
    weights = {**uv, (min(v1, v2), max(v1, v2)): 2, **_pairs(rest12, v22[len(v22) - k :])}
    weights.update(_half_cycle(sorted(v21 + v22[: len(v22) - k])))
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
            v = next(bits(cands))
            weights = {(min(u, v), max(u, v)): 2}
            weights.update(_pairs(v12, v22[len(v22) - s :]))
            weights.update(_half_cycle(sorted(v21 + v22[: len(v22) - s])))
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
        uv = {(min(u, v), max(u, v)): 2}
        c12 = gc.row(w) & v12_mask
        if c12:
            wp = next(bits(c12))
            rest12 = [x for x in v12 if x != wp]
            targets = [y for y in v22 if y != v]
            targets = targets[len(targets) - len(rest12) :]
            weights = {**uv, (min(w, wp), max(w, wp)): 2, **_pairs(rest12, targets)}
            used = {v, wp} | set(targets)
            weights.update(_half_cycle(sorted(x for x in v21 + v22 if x not in used)))
            return _finish(gc, weights, "plus_one", "v11_to_v2_then_v12", claimed)
        c2 = gc.row(w) & v2_mask
        if not c2:
            raise InternalInconsistencyError(
                f"vertex {w} has no complement neighbour outside the paired side"
            )
        wp = next(bits(c2))
        x1, x2 = v12[0], v12[1]
        rest12 = [x for x in v12 if x != x1 and x != x2]
        targets = [y for y in v22 if y != v and y != wp]
        targets = targets[len(targets) - len(rest12) :]
        weights = {
            **uv,
            (min(w, wp), max(w, wp)): 2,
            (min(x1, x2), max(x1, x2)): 2,
            **_pairs(rest12, targets),
        }
        used = {v, wp} | set(targets)
        weights.update(_half_cycle(sorted(x for x in v21 + v22 if x not in used)))
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
    rest12 = [x for x in v12 if x != v and x != vpp]
    weights = {
        (min(u, v), max(u, v)): 2,
        (min(vp, vpp), max(vp, vpp)): 2,
        **_pairs(rest12, v22[len(v22) - len(rest12) :]),
    }
    weights.update(_half_cycle(sorted(v21 + v22[: len(v22) - len(rest12)])))
    return _finish(gc, weights, "plus_one", "v11_to_v12", claimed)


_RULES = {"base": _base_rule, "plus_half": _plus_half_rule, "plus_one": _plus_one_rule}


def _residual(v1: int, v2: int, reserved: Sequence[int]) -> Dict[Edge, int]:
    base: Dict[Edge, int] = {}
    r = len(reserved)
    if r == 0:
        base[(min(v1, v2), max(v1, v2))] = 2
    elif r == 1:
        w = reserved[0]
        for a, b in ((v1, v2), (v1, w), (v2, w)):
            base[(min(a, b), max(a, b))] = 1
    elif r == 2:
        base[(min(v1, v2), max(v1, v2))] = 2
        a, b = reserved
        base[(min(a, b), max(a, b))] = 2
    else:
        base[(min(v1, v2), max(v1, v2))] = 2
        base.update(_half_cycle(list(reserved)))
    return base


def _residual_case(r: int) -> str:
    return {0: "r0", 1: "r1", 2: "r2"}.get(r, "r3plus")


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
    n, T2, s = g.n, p.t.units, p.s
    allowed = nearquarter_window(n)
    if T2 not in allowed:
        raise PreconditionError(
            f"value {p.t} does not sit just above n/4 (allowed 2t in {list(allowed)})"
        )
    if require_order and n < MIN_STATED_ORDER:
        raise PreconditionError(
            f"near-quarter construction is stated for n >= {MIN_STATED_ORDER}, got {n}"
        )
    gc = g.complement()
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
    x_set = p.x
    v12nx = sorted(p.v12 - x_set)
    r = n - 2 * T2 + s + 2

    cycles = [order for kind, order in p.fm.half_support_components() if kind == "cycle"]
    if cycles:
        comp = cycles[0]
        vp, vpp = sorted(comp)[:2]
        xp, xpp = v21[0], v21[1]
        weights = {
            (min(vp, xp), max(vp, xp)): 2,
            (min(vpp, xpp), max(vpp, xpp)): 2,
        }
        weights.update(_pairs([x for x in xs if x not in (v1, v2)], v21[2:]))
        pool = [x for x in v12nx if x not in (vp, vpp)]
        reserved = v22[:r]
        weights.update(_pairs(pool, v22[r:]))
        weights.update(_residual(v1, v2, reserved))
        return _finish(gc, weights, rule, f"halfcycle_{_residual_case(r)}", claimed)

    if T2 == 2 * s:
        weights = {(min(v1, v2), max(v1, v2)): 2}
        weights.update(_pairs([x for x in xs if x not in (v1, v2)], v21[: s - 2]))
        weights.update(_half_cycle(sorted(v21[s - 2 :] + v22)))
        return _finish(gc, weights, rule, "s_equals_t", claimed)

    internal = [e for e in p.fm.one_edges() if e[0] in p.v12 and e[1] in p.v12]
    if len(internal) * 2 != T2 - 2 * s:
        raise InternalInconsistencyError(
            "unpaired support side is not covered by internal 1-edges"
        )
    if len(internal) == 1:
        w, w1 = internal[0]
        x = v21[0]
        if not gc.adj(x, w):
            if not gc.adj(x, w1):
                raise InternalInconsistencyError(
                    f"vertex {x} is adjacent to both ends of the internal 1-edge"
                )
            w, w1 = w1, w
        if not v22:
            raise InternalInconsistencyError(
                "no fully unweighted vertex left for the internal 1-edge swap"
            )
        y1 = v22[0]
        rest21 = [z for z in v21 if z != x]
        weights = {
            (min(v1, v2), max(v1, v2)): 2,
            (min(x, w), max(x, w)): 2,
            (min(y1, w1), max(y1, w1)): 2,
        }
        weights.update(_pairs([z for z in xs if z not in (v1, v2)], rest21[: s - 2]))
        weights.update(_half_cycle(sorted(rest21[s - 2 :] + v22[1:])))
        return _finish(gc, weights, rule, "p1", claimed)

    (w1, w2), (w3, w4) = internal[0], internal[1]
    x1, x2 = v21[0], v21[1]
    ok1 = gc.adj(x1, w1) or gc.adj(x1, w2)
    ok2 = gc.adj(x2, w3) or gc.adj(x2, w4)
    if not (ok1 and ok2):
        f = extract_fm(gc)
        if Fraction(f.value.units, 2) < claimed:
            raise InternalInconsistencyError(
                f"exact complement value {f.value} below claimed {claimed}"
            )
        return f, CaseDescriptor(rule, "exact_fallback", claimed, fallback=True)
    if not gc.adj(x1, w1):
        w1, w2 = w2, w1
    if not gc.adj(x2, w3):
        w3, w4 = w4, w3
    weights = {
        (min(x1, w1), max(x1, w1)): 2,
        (min(x2, w3), max(x2, w3)): 2,
    }
    weights.update(_pairs([z for z in xs if z not in (v1, v2)], v21[2:]))
    pool = [z for z in v12nx if z not in (w1, w3)]
    reserved = v22[:r]
    weights.update(_pairs(pool, v22[r:]))
    weights.update(_residual(v1, v2, reserved))
    return _finish(gc, weights, rule, f"p2_{_residual_case(r)}", claimed)


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


def sweep_with_rows(
    graphs: Iterable[Graph], which: str
) -> Tuple[SweepStats, List[str]]:
    """Evaluate one bound over a graph stream; returns aggregate counts and
    one CSV row per graph (unsorted; callers sort after merging chunks)."""
    if which not in BOUND_NAMES:
        raise ValueError(f"unknown bound name {which!r}")
    total = applies = satisfied = equality = char_match = 0
    violations: List[str] = []
    unmatched: List[str] = []
    rows: List[str] = []
    for g in graphs:
        rep = ng_sum(g)
        tb = rep.bounds[which]
        g6 = emit_graph6(g)
        total += 1
        family = ""
        if tb.equality:
            # The three bound values differ, so an applicable equality is the
            # one ng_sum already classified.
            label = rep.equality_family if tb.applies else classify_equality_family(g, which)
            if label is not None:
                family = label.tag.value
        if tb.applies:
            applies += 1
            if tb.satisfied:
                satisfied += 1
            else:
                violations.append(g6)
            if tb.equality:
                equality += 1
                if family:
                    char_match += 1
                else:
                    unmatched.append(g6)
        rows.append(
            f"{g6},{rep.n},{rep.alpha_g},{rep.alpha_gc},{rep.sum},"
            f"{tb.bound},{int(tb.satisfied)},{int(tb.equality)},{family}"
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

