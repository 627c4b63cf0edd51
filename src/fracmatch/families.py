"""Structural recognizers for the graph families with small fractional
matching number and for the equality families of the sum bounds, plus the
exact sum facts for matching number 1, 3/2, 2, and 5/2.

Recognition is by degree counts. A pair {u, w} meets all m edges exactly
when deg u + deg w - [uw in E] = m, and a triangle uvw misses some edge
exactly when m > deg u + deg v + deg w - 3. No isomorphism search and no
matching computation happens inside the recognizers themselves.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple

from .errors import InternalInconsistencyError, PreconditionError
from .fm import alpha2
from .graph import Graph, bits
from .halfint import HalfInt


class FamilyTag(str, Enum):
    StarUnion = "StarUnion"
    TriangleUnion = "TriangleUnion"
    Sandwich_2K2_K4 = "Sandwich_2K2_K4"
    Sandwich_2K2_K2pq = "Sandwich_2K2_K2pq"
    C5Union_in_K5 = "C5Union_in_K5"
    C3K2Union_in_K5 = "C3K2Union_in_K5"
    C3K2Union_in_H = "C3K2Union_in_H"
    K2pql = "K2pql"
    BistarInK2n2 = "BistarInK2n2"
    EmptyGraph = "EmptyGraph"
    CompleteGraph = "CompleteGraph"


@dataclass(frozen=True)
class FamilyLabel:
    tag: FamilyTag
    k: Optional[int] = None
    p: Optional[int] = None
    q: Optional[int] = None
    ell: Optional[int] = None
    m: Optional[int] = None


# ----------------------------------------------------------- small helpers


def _pair_covers(rows, deg, m: int, u: int, w: int) -> bool:
    """{u, w} meets all m edges: deg u + deg w - [uw in E] = m."""
    return deg[u] + deg[w] - (rows[u] >> w & 1) == m


def _spanning_c5(g: Graph, verts) -> bool:
    v0, rest = verts[0], verts[1:]
    for perm in itertools.permutations(rest):
        ring = (v0,) + perm
        if all(g.adj(ring[i], ring[(i + 1) % 5]) for i in range(5)):
            return True
    return False


def universal_vertex_count(g: Graph) -> int:
    return [r.bit_count() for r in g.rows].count(g.n - 1)


def is_k2_00_ell(g: Graph) -> Optional[int]:
    """Two adjacent universal vertices, everything else of degree exactly 2
    (adjacent to both of them). Returns ell = n - 2, or None."""
    deg = [r.bit_count() for r in g.rows]
    if g.n < 4 or deg.count(g.n - 1) != 2 or deg.count(2) != g.n - 2:
        return None
    return g.n - 2


def is_k2pql_family(g: Graph) -> Optional[Tuple[int, int, int]]:
    """Adjacent hub pair covering every edge, every other vertex adjacent to
    a nonempty subset of the hubs and nothing else. Returns (p, q, ell) with
    p >= q, or None. Isolated vertices disqualify; the hubs are the first
    covering edge in g.edges() order."""
    rows = g.rows
    deg = [r.bit_count() for r in rows]
    if g.n < 3 or 0 in deg:
        return None
    m = sum(deg) // 2
    for u, v in g.edges():
        if _pair_covers(rows, deg, m, u, v):
            ell = (rows[u] & rows[v]).bit_count()
            p, q = deg[u] - 1 - ell, deg[v] - 1 - ell
            return (max(p, q), min(p, q), ell)
    return None


def is_bistar_sandwich(g: Graph) -> Optional[int]:
    """Non-adjacent pair {a, b} covering every edge, with no isolated
    vertex. Returns the reported star size m = min(deg a, deg b, n - 3), or
    None."""
    n = g.n
    rows = g.rows
    deg = [r.bit_count() for r in rows]
    if n < 4 or 0 in deg:
        return None
    m = sum(deg) // 2
    # No test for two independent edges: if N(a) | N(b) were one vertex x,
    # the n - 3 >= 1 vertices outside {a, b, x} would be isolated. A cover
    # pair must contain an endpoint of the first edge.
    for a in next(g.edges()):
        for b in range(n):
            if b != a and not rows[a] >> b & 1 and _pair_covers(rows, deg, m, a, b):
                return min(deg[a], deg[b], n - 3)
    return None


def is_full_star(g: Graph) -> Optional[int]:
    """K_{1,n-1} with no isolates: n - 1 edges, all at one center. Returns
    k = n - 1, or None."""
    n = g.n
    if n < 2:
        return None
    deg = [r.bit_count() for r in g.rows]
    if sum(deg) == 2 * (n - 1) and n - 1 in deg:
        return n - 1
    return None


# ------------------------------------------------------------- classifiers


def classify_small_alpha(g: Graph) -> Optional[FamilyLabel]:
    """Structural family label whenever the matching number is 1, 3/2, 2,
    or 5/2; None otherwise. Purely structural: never computes a matching."""
    n = g.n
    rows = g.rows
    # three disjoint edges, found greedily, give a matching number >= 3
    used = found = 0
    for u, r in enumerate(rows):
        free = r & ~used
        if free and not used >> u & 1:
            used |= 1 << u | free & -free
            found += 1
            if found == 3:
                return None
    deg = [r.bit_count() for r in rows]
    m = sum(deg) // 2
    if m == 0:
        return None

    # value 1: every edge at a single vertex
    if max(deg) == m:
        return FamilyLabel(FamilyTag.StarUnion, k=m)

    # value 3/2: a triangle and nothing else
    k_non = n - deg.count(0)
    if k_non == 3 and m == 3:
        return FamilyLabel(FamilyTag.TriangleUnion)

    # value 2. Edges that pairwise meet form a star or a triangle, both
    # returned above, so two independent edges exist from here on.
    if k_non == 4:
        return FamilyLabel(FamilyTag.Sandwich_2K2_K4)
    # a cover pair must contain an endpoint of the first edge
    if any(
        _pair_covers(rows, deg, m, u, w)
        for u in next(g.edges())
        for w in range(n)
        if w != u
    ):
        return FamilyLabel(FamilyTag.Sandwich_2K2_K2pq)

    # value 5/2
    if k_non == 5 and _spanning_c5(g, [v for v in range(n) if deg[v]]):
        return FamilyLabel(FamilyTag.C5Union_in_K5)
    # a triangle uvw touches deg u + deg v + deg w - 3 edges
    tri_k2 = any(
        deg[u] + deg[v] + deg[w] - 3 < m
        for u, v in g.edges()
        for w in bits(rows[u] & rows[v] >> (v + 1) << (v + 1))
    )
    if k_non == 5 and tri_k2:
        return FamilyLabel(FamilyTag.C3K2Union_in_K5)
    if tri_k2:
        # some vertex a whose removal leaves edges on at most 3 vertices
        for a, ra in enumerate(rows):
            if sum(1 for v in range(n) if v != a and deg[v] > (ra >> v & 1)) <= 3:
                return FamilyLabel(FamilyTag.C3K2Union_in_H)
    return None


def classify_equality_family(g: Graph, which: str) -> Optional[FamilyLabel]:
    """Membership test for the equality family of the named bound, checking
    both the graph and its complement. which: basic | nonempty | isolate_free."""
    if which == "basic":
        if g.edge_count() == 0:
            return FamilyLabel(FamilyTag.EmptyGraph)
        if g.edge_count() == g.n * (g.n - 1) // 2:
            return FamilyLabel(FamilyTag.CompleteGraph)
        return None
    if which == "nonempty":
        for h in (g, g.complement()):
            k = is_full_star(h)
            if k is not None:
                return FamilyLabel(FamilyTag.StarUnion, k=k)
        return None
    if which == "isolate_free":
        for h in (g, g.complement()):
            pql = is_k2pql_family(h)
            if pql is not None and pql[1] >= 1:
                return FamilyLabel(FamilyTag.K2pql, p=pql[0], q=pql[1], ell=pql[2])
            bm = is_bistar_sandwich(h)
            if bm is not None:
                return FamilyLabel(FamilyTag.BistarInK2n2, m=bm)
        return None
    raise ValueError(f"unknown bound name {which!r}")


# ------------------------------------------------------- small-value sums


@dataclass(frozen=True)
class SmallAlphaReport:
    clause: str
    ng_sum: HalfInt
    bound: HalfInt
    exact: bool
    is_equality: bool
    unique_universal: bool
    equality_matches_criterion: Optional[bool]
    complement_alpha_is_half_n: Optional[bool]


def small_alpha_ng(g: Graph) -> SmallAlphaReport:
    """Exact sum of the matching numbers of g and its complement for
    matching number 1, 3/2, 2, or 5/2, checked against the applicable
    clause bound. Clause thresholds: value 1 needs n >= 4, 3/2 needs
    n >= 6, 2 needs n >= 8 unless the graph is two adjacent universal hubs
    plus degree-2 vertices (no threshold), 5/2 needs n >= 7.
    """
    n = g.n
    gc = g.complement()
    a_g = alpha2(g)
    a_c = alpha2(gc)
    total = HalfInt(a_g + a_c)

    if a_g == 2:
        clause, need, bound, exact = "one", 4, HalfInt(n + 1), False
    elif a_g == 3:
        clause, need, bound, exact = "three_halves", 6, HalfInt(n + 3), True
    elif a_g == 4:
        if is_k2_00_ell(g) is not None:
            clause, need, bound, exact = "two_hub_clique", 0, HalfInt(n + 2), True
        else:
            clause, need, bound, exact = "two_general", 8, HalfInt(n + 3), False
    elif a_g == 5:
        clause, need, bound, exact = "five_halves", 7, HalfInt(n + 4), False
    else:
        raise PreconditionError(
            f"matching number {HalfInt(a_g)} is outside 1..5/2; no clause applies"
        )
    if n < need:
        raise PreconditionError(f"clause {clause} needs n >= {need}, got {n}")

    if (exact and total != bound) or (not exact and total < bound):
        raise InternalInconsistencyError(
            f"clause {clause}: sum {total} violates bound {bound} at n={n}"
        )

    unique_universal = universal_vertex_count(g) == 1
    criterion = None
    if not exact:
        criterion = (total == bound) == unique_universal

    complement_half = None
    if a_g in (4, 5) and n >= 10 and not gc.isolated_vertices():
        complement_half = a_c == n

    return SmallAlphaReport(
        clause=clause,
        ng_sum=total,
        bound=bound,
        exact=exact,
        is_equality=total == bound,
        unique_universal=unique_universal,
        equality_matches_criterion=criterion,
        complement_alpha_is_half_n=complement_half,
    )
