"""The good partition: a canonical optimal fractional matching plus a
maximum pairing between its support and its unweighted vertices.

Every part is an int vertex mask read off those two. v11 and v21 are the
left and right ends of the pairing, v12 is the rest of the support and
v22 the rest of the unweighted side; s is the pairing's size, t the
matching's value, and x collects the 1-edge partners of v11. Five
structural properties are verified on every constructed partition; their
textbook exchange arguments all raise the matching value, so on a
certified optimum a violation is an internal error, not a reachable state.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Tuple

from .bipartite import hopcroft_karp
from .errors import InternalInconsistencyError
from .fm import FractionalMatching, alpha2, canonical_fm  # alpha2: fmbench smoke test checks it
from .graph import Graph, bits

Pairing = Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class GoodPartition:
    """A matching and a pairing of its support vertices with unweighted
    ones. The parts v11, v12, v21, v22 and x (int vertex masks), s (an
    int) and t (a HalfInt) are read off these two in one pass over the
    pairing, when the object is built."""

    fm: FractionalMatching
    pairing: Pairing

    def __post_init__(self) -> None:
        f = self.fm
        v11 = v21 = x = 0
        for u, w in self.pairing:
            v11 |= 1 << u
            v21 |= 1 << w
            # A vertex without a 1-edge partner adds nothing to x.
            if f.partners[u] != -1:
                x |= 1 << f.partners[u]
        self.__dict__.update(
            v11=v11,
            v12=f.support & ~v11,
            v21=v21,
            v22=f.unweighted & ~v21,
            x=x,
            s=len(self.pairing),
            t=f.value,
        )


@dataclass(frozen=True)
class PropertyReport:
    """Outcome of the five structural checks; True means the property holds."""

    one_edge_no_common_v2_neighbor: bool
    v11_internal_edges_unweighted: bool
    v11_all_full: bool
    x_independent: bool
    no_edge_x_to_v2: bool

    def all_ok(self) -> bool:
        return not self.failures()

    def failures(self) -> List[str]:
        return [name for name, ok in self.__dict__.items() if not ok]


def check_partition_structure(g: Graph, p: GoodPartition) -> None:
    """Raise ValueError unless p's matching lives on g with a saturated
    support and its pairing is a set of independent edges of g from the
    support to the unweighted side. The parts are read off these two, so
    they partition the vertex set by construction."""
    f = p.fm
    if f.host != g:
        raise ValueError("matching belongs to a different graph")
    support, unweighted = f.support, f.unweighted
    if support.bit_count() != p.t.units:
        raise ValueError("support side is not twice the matching value")
    used = 0
    for u, w in p.pairing:
        if not (support >> u & 1 and unweighted >> w & 1 and g.adj(u, w)):
            raise ValueError(f"pairing edge ({u},{w}) is not a support-unweighted edge")
        if used >> u & 1 or used >> w & 1:
            raise ValueError("pairing edges are not independent")
        used |= 1 << u | 1 << w


def _build_partition(g: Graph, f: FractionalMatching) -> GoodPartition:
    """f with a maximum pairing onto the unweighted side, whose left side is
    the support vertices with an unweighted neighbour, ascending (no other
    can pair or block one), and whose right indices are vertex ids."""
    un = f.unweighted
    v1 = [u for u, row in enumerate(g.rows) if row & un and f.support >> u & 1]
    m = hopcroft_karp([g.rows[u] & un for u in v1], g.n)
    return GoodPartition(f, tuple((u, w) for u, w in zip(v1, m.pair_left) if w != -1))


def verify_partition(g: Graph, p: GoodPartition) -> PropertyReport:
    """Check the five structural properties; returns a report, never raises."""
    f, rows = p.fm, g.rows
    prop_a = not any(rows[u] & rows[v] & f.unweighted for u, v in f.one_edges())

    # x is exactly the set of 1-edge partners of v11.
    prop_b = not (p.x & p.v11 or any(f.half_rows[u] & p.v11 for u in bits(p.v11)))

    prop_c = p.v11 & ~f.full == 0

    x_reach = 0
    for v in bits(p.x):
        x_reach |= rows[v]
    prop_d = x_reach & p.x == 0
    prop_e = x_reach & f.unweighted == 0

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
            "v11": list(bits(p.v11)),
            "v12": list(bits(p.v12)),
            "v21": list(bits(p.v21)),
            "v22": list(bits(p.v22)),
            "x": list(bits(p.x)),
            "pairing": [list(e) for e in p.pairing],
            "fm": [[u, v, units] for (u, v), units in p.fm.items()],
        },
        indent=2,
    )
