"""Support/unweighted vertex partition induced by a canonical optimal
fractional matching, refined by a maximum matching between the two sides.

Parts: v11/v12 split the support side, v21/v22 the unweighted side;
v11 and v21 are the endpoints of a maximum set of independent edges
between the sides (the pairing), s its size, and x collects the 1-edge
partners of v11 vertices. Five structural properties are verified on
every constructed partition; their textbook exchange arguments all raise
the matching value, so on a certified optimum a violation is an internal
error, not a reachable state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Tuple

from .bipartite import hopcroft_karp
from .errors import InternalInconsistencyError
from .fm import FractionalMatching, alpha2, canonical_fm  # alpha2: fmbench smoke test checks it
from .graph import Graph, VertexSet, bits, mask_of
from .halfint import HalfInt

Pairing = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class GoodPartition:
    v11: VertexSet
    v12: VertexSet
    v21: VertexSet
    v22: VertexSet
    x: VertexSet
    s: int
    t: HalfInt
    fm: FractionalMatching
    pairing: Pairing

    @property
    def support_side(self) -> VertexSet:
        return self.v11 | self.v12

    @property
    def unweighted_side(self) -> VertexSet:
        return self.v21 | self.v22


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of the five structural checks; True means the property holds."""

    one_edge_no_common_v2_neighbor: bool
    v11_internal_edges_unweighted: bool
    v11_all_full: bool
    x_independent: bool
    no_edge_x_to_v2: bool

    def all_ok(self) -> bool:
        return (
            self.one_edge_no_common_v2_neighbor
            and self.v11_internal_edges_unweighted
            and self.v11_all_full
            and self.x_independent
            and self.no_edge_x_to_v2
        )

    def failures(self) -> List[str]:
        return [name for name, ok in self.__dict__.items() if not ok]


def check_partition_structure(g: Graph, p: GoodPartition) -> None:
    """Raise ValueError unless p is structurally consistent with g."""
    parts = [p.v11, p.v12, p.v21, p.v22]
    if sum(map(len, parts)) != g.n or mask_of(frozenset().union(*parts)) != (1 << g.n) - 1:
        raise ValueError("parts do not partition the vertex set")
    if p.fm.host != g:
        raise ValueError("matching belongs to a different graph")
    support = p.fm.support_mask()
    if mask_of(p.v11 | p.v12) != support or mask_of(p.v21 | p.v22) != support ^ ((1 << g.n) - 1):
        raise ValueError("sides do not match the matching's support")
    if p.t != p.fm.value:
        raise ValueError("t does not equal the matching value")
    if len(p.v11 | p.v12) != p.t.units:
        raise ValueError("support side is not twice the matching value")
    if not (len(p.v11) == len(p.v21) == len(p.x) == p.s == len(p.pairing)):
        raise ValueError("pairing sizes disagree with s")
    if not p.x <= p.v12:
        raise ValueError("x is not contained in v12")
    used = set()
    for u, w in p.pairing:
        if u not in p.v11 or w not in p.v21 or not g.adj(u, w):
            raise ValueError(f"pairing edge ({u},{w}) is not a v11-v21 edge")
        if u in used or w in used:
            raise ValueError("pairing edges are not independent")
        used.add(u)
        used.add(w)


def _build_partition(g: Graph, f: FractionalMatching) -> GoodPartition:
    v1 = sorted(bits(f.support_mask()))
    unweighted = f.unweighted_mask()
    # Right indices are vertex ids; their ascending order fixes the pairing.
    m = hopcroft_karp([g.row(u) & unweighted for u in v1], g.n)
    pairing = tuple(
        sorted((v1[i], m.pair_left[i]) for i in range(len(v1)) if m.pair_left[i] != -1)
    )
    v11 = frozenset(u for u, _ in pairing)
    v21 = frozenset(w for _, w in pairing)
    v12 = frozenset(v1) - v11
    v22 = frozenset(bits(unweighted)) - v21

    unfull = mask_of(v11) & ~f.full_mask()
    if unfull:
        raise InternalInconsistencyError(
            f"paired vertex {next(bits(unfull))} has no weight-1 edge"
        )
    x = frozenset(f.partner(u) for u in v11)
    if len(x) != m.size or not x <= v12:
        raise InternalInconsistencyError("weight-1 partners of v11 do not land in v12")

    return GoodPartition(
        v11=v11,
        v12=v12,
        v21=v21,
        v22=v22,
        x=x,
        s=m.size,
        t=f.value,
        fm=f,
        pairing=pairing,
    )


def verify_partition(g: Graph, p: GoodPartition) -> PropertyReport:
    """Check the five structural properties; returns a report, never raises."""
    v2_mask = mask_of(p.v21 | p.v22)
    x_mask = mask_of(p.x)
    v11_mask = mask_of(p.v11)
    f = p.fm

    prop_a = True
    for u, v in f.one_edges():
        if g.row(u) & g.row(v) & v2_mask:
            prop_a = False
            break

    prop_b = not any(f.half_row(u) & v11_mask or f.partner(u) in p.v11 for u in p.v11)

    prop_c = v11_mask & ~f.full_mask() == 0

    prop_d = all(g.row(v) & x_mask == 0 for v in p.x)

    prop_e = all(g.row(v) & v2_mask == 0 for v in p.x)

    return PropertyReport(
        one_edge_no_common_v2_neighbor=prop_a,
        v11_internal_edges_unweighted=prop_b,
        v11_all_full=prop_c,
        x_independent=prop_d,
        no_edge_x_to_v2=prop_e,
    )


def good_partition(g: Graph) -> GoodPartition:
    """Partition from the canonical optimal matching and a deterministic
    maximum pairing between the sides. The five properties hold on every
    optimum (each exchange argument would raise its value), so a failure is
    raised as an internal error naming the failing properties."""
    p = _build_partition(g, canonical_fm(g))
    report = verify_partition(g, p)
    if not report.all_ok():
        raise InternalInconsistencyError(
            f"partition properties {report.failures()} fail on the canonical optimum"
        )
    return p


def partition_dump(g: Graph, p: GoodPartition) -> str:
    """JSON debug dump of the parts, pairing, and matching weights."""
    return json.dumps(
        {
            "n": g.n,
            "t": str(p.t),
            "s": p.s,
            "v11": sorted(p.v11),
            "v12": sorted(p.v12),
            "v21": sorted(p.v21),
            "v22": sorted(p.v22),
            "x": sorted(p.x),
            "pairing": [list(e) for e in p.pairing],
            "fm": [[u, v, units] for (u, v), units in p.fm.items()],
        },
        indent=2,
    )
