"""Structural recognizers for the graph families with small fractional
matching number and for the equality families of the sum bounds, plus the
exact sum facts for matching number 1, 3/2, 2, and 5/2.

All recognition is degree/structure based; no isomorphism search and no
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


def _cover_pair(g: Graph) -> Optional[Tuple[int, int]]:
    """Two vertices meeting every edge, or None. Any cover pair must contain
    an endpoint of the first edge, so only two candidates are scanned."""
    edges = list(g.edges())
    if not edges:
        return None
    for u in edges[0]:
        ubit = 1 << u
        rest = [(a, b) for a, b in edges if not ubit & ((1 << a) | (1 << b))]
        if not rest:
            return (u, (u + 1) % g.n)
        common = ((1 << rest[0][0]) | (1 << rest[0][1]))
        for a, b in rest[1:]:
            common &= (1 << a) | (1 << b)
            if not common:
                break
        if common:
            return (u, next(bits(common)))
    return None


def _triangle_plus_disjoint_edge(g: Graph) -> bool:
    edges = list(g.edges())
    for u, v in edges:
        for w in bits(g.row(u) & g.row(v)):
            excl = (1 << u) | (1 << v) | (1 << w)
            for a, b in edges:
                if not excl & ((1 << a) | (1 << b)):
                    return True
    return False


def _spanning_c5(g: Graph, verts) -> bool:
    v0, rest = verts[0], verts[1:]
    for perm in itertools.permutations(rest):
        ring = (v0,) + perm
        if all(g.adj(ring[i], ring[(i + 1) % 5]) for i in range(5)):
            return True
    return False


def universal_vertex_count(g: Graph) -> int:
    return sum(1 for v in range(g.n) if g.degree(v) == g.n - 1)


def is_k2_00_ell(g: Graph) -> Optional[int]:
    """Two adjacent universal vertices, everything else of degree exactly 2
    (adjacent to both of them). Returns ell = n - 2, or None."""
    if g.n < 4:
        return None
    hubs = [v for v in range(g.n) if g.degree(v) == g.n - 1]
    if len(hubs) != 2:
        return None
    if any(g.degree(v) != 2 for v in range(g.n) if v not in hubs):
        return None
    return g.n - 2


def is_k2pql_family(g: Graph) -> Optional[Tuple[int, int, int]]:
    """Adjacent hub pair covering every edge, every other vertex adjacent to
    a nonempty subset of the hubs and nothing else. Returns (p, q, ell) with
    p >= q, or None. Isolated non-hub vertices disqualify."""
    n = g.n
    if n < 3:
        return None
    for u in range(n):
        for v in bits(g.row(u) >> (u + 1) << (u + 1)):
            p = q = ell = 0
            ok = True
            hub_mask = (1 << u) | (1 << v)
            for w in range(n):
                if w == u or w == v:
                    continue
                nb = g.row(w)
                if nb & ~hub_mask or nb == 0:
                    ok = False
                    break
                if nb == hub_mask:
                    ell += 1
                elif nb == 1 << u:
                    p += 1
                else:
                    q += 1
            if ok:
                return (max(p, q), min(p, q), ell)
    return None


def is_bistar_sandwich(g: Graph) -> Optional[int]:
    """Non-adjacent pair {a, b} covering every edge, every other vertex
    adjacent to at least one of them, and two independent edges exist.
    Returns the reported star size m = min(deg a, deg b, n - 3), or None."""
    n = g.n
    if n < 4:
        return None
    edges = list(g.edges())
    if not edges:
        return None
    # a cover pair must contain an endpoint of the first edge
    for a in edges[0]:
        abit = 1 << a
        for b in range(n):
            if b == a or g.adj(a, b):
                continue
            cover = abit | (1 << b)
            if any(not cover & ((1 << c) | (1 << d)) for c, d in edges):
                continue
            if not all(g.row(w) & cover for w in range(n) if not cover & (1 << w)):
                continue
            na, nb = g.row(a), g.row(b)
            if na and nb and (na | nb).bit_count() >= 2:
                return min(na.bit_count(), nb.bit_count(), n - 3)
    return None


def is_full_star(g: Graph) -> Optional[int]:
    """K_{1,n-1} with no isolates: one center adjacent to all, others of
    degree 1. Returns k = n - 1, or None."""
    if g.n < 2:
        return None
    for c in range(g.n):
        if g.degree(c) == g.n - 1 and all(
            g.degree(v) == 1 for v in range(g.n) if v != c
        ):
            return g.n - 1
    return None


# ------------------------------------------------------------- classifiers


def classify_small_alpha(g: Graph) -> Optional[FamilyLabel]:
    """Structural family label whenever the matching number is 1, 3/2, 2,
    or 5/2; None otherwise. Purely structural: never computes a matching."""
    m = g.edge_count()
    if m == 0:
        return None
    noniso = g.nonisolated_mask()
    k_non = noniso.bit_count()

    # value 1: every edge at a single vertex
    for c in bits(noniso):
        if g.degree(c) == m:
            return FamilyLabel(FamilyTag.StarUnion, k=m)

    # value 3/2: a triangle and nothing else
    if k_non == 3 and m == 3:
        return FamilyLabel(FamilyTag.TriangleUnion)

    # value 2. Edges that pairwise meet form a star or a triangle, both
    # returned above, so two independent edges exist from here on.
    if k_non == 4:
        return FamilyLabel(FamilyTag.Sandwich_2K2_K4)
    if _cover_pair(g) is not None:
        return FamilyLabel(FamilyTag.Sandwich_2K2_K2pq)

    # value 5/2
    if k_non == 5 and _spanning_c5(g, sorted(bits(noniso))):
        return FamilyLabel(FamilyTag.C5Union_in_K5)
    tri_k2 = _triangle_plus_disjoint_edge(g)
    if k_non == 5 and tri_k2:
        return FamilyLabel(FamilyTag.C3K2Union_in_K5)
    if tri_k2:
        for a in range(g.n):
            abit = 1 << a
            b_set = 0
            for v in bits(noniso & ~abit):
                if g.row(v) & ~abit:
                    b_set |= 1 << v
            if b_set.bit_count() <= 3:
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
