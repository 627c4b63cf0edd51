"""Deterministic maximum bipartite matching on bit rows, with a certifying
König vertex cover.

The left side is 0..len(rows)-1 and rows[u] is the int mask of u's right
neighbours in 0..n_right-1. A graph's own adjacency rows are therefore its
bipartite double cover (left copy u, right copy v, joined iff uv is an
edge), whose maximum matching is twice the fractional matching number.
"""

from __future__ import annotations

from typing import List, NamedTuple, Sequence, Tuple

from .errors import InternalInconsistencyError


class BipartiteMatching(NamedTuple):
    """Maximum matching plus the equal-size vertex cover certifying it:
    pair_left[u] is u's right partner (-1 when u is free), and the cover
    sides are int masks."""

    size: int
    pair_left: Tuple[int, ...]
    cover_left: int
    cover_right: int


def hopcroft_karp(rows: Sequence[int], n_right: int) -> BipartiteMatching:
    """Maximum matching via Hopcroft-Karp with a fixed exploration order:
    free left vertices and candidate right vertices ascending.

    The first phase is a greedy pass (each left vertex takes its lowest free
    neighbour). Each later phase layers the left vertices by alternating
    distance from the free ones, one OR of rows per layer, then augments
    from each free left vertex in turn by depth-first search over
    rows[u] & (free right | right vertices whose partner sits one layer
    deeper). The cover is read off the last layering: the unreached left
    vertices and the reached right vertices. The phases and the cover live
    in _phases, which a caller that already holds a matching can call.
    """
    nl = len(rows)
    if rows and (min(rows) < 0 or max(rows) >> n_right):
        raise ValueError(f"a row has a right vertex outside 0..{n_right - 1}")
    pair_l = [-1] * nl
    pair_r = [-1] * n_right
    free_r = (1 << n_right) - 1
    free_l = 0
    for u, r in enumerate(rows):
        c = r & free_r
        if c:
            b = c & -c
            v = b.bit_length() - 1
            pair_l[u] = v
            pair_r[v] = u
            free_r ^= b
        else:
            free_l |= 1 << u
    return _phases(rows, n_right, pair_l, pair_r, free_r, free_l)


def _phases(
    rows: Sequence[int], n_right: int, pair_l: List[int], pair_r: List[int],
    free_r: int, free_l: int,
) -> BipartiteMatching:
    """Hopcroft-Karp's phases and certificate, continued from any matching:
    pair_l and pair_r (updated in place) pair left and right vertices, and
    free_r and free_l are the masks of the unpaired ones."""
    nl = len(rows)
    # layer_r[d]: matched right vertices whose partner sits at layer d, kept
    # current as the phase augments (partner moves) and dead-ends (drops).
    layer_r: List[int] = []

    def dfs(u: int, d: int) -> bool:
        nonlocal free_r
        cand = rows[u] & (free_r | layer_r[d + 1])
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            w = pair_r[v]
            if w == -1:
                free_r ^= b
            elif dfs(w, d + 1):
                layer_r[d + 1] ^= b
            else:
                layer_r[d + 1] &= ~b
                continue
            layer_r[d] |= b
            pair_l[u] = v
            pair_r[v] = u
            return True
        return False

    while True:
        layer_r[:] = [0]
        frontier = reached_l = free_l
        reached_r = 0
        found = False
        while frontier:
            reach = 0
            while frontier:
                b = frontier & -frontier
                reach |= rows[b.bit_length() - 1]
                frontier ^= b
            new = reach & ~reached_r
            reached_r |= new
            if new & free_r:
                found = True
            new &= ~free_r
            layer_r.append(new)
            while new:
                b = new & -new
                frontier |= 1 << pair_r[b.bit_length() - 1]
                new ^= b
            reached_l |= frontier
        if not found:
            break
        roots = free_l
        while roots:
            b = roots & -roots
            roots ^= b
            if dfs(b.bit_length() - 1, 0):
                free_l ^= b

    size = nl - free_l.bit_count()
    cover_left = ((1 << nl) - 1) & ~reached_l
    cover_right = reached_r
    if cover_left.bit_count() + cover_right.bit_count() != size:
        raise InternalInconsistencyError(
            f"cover size {cover_left.bit_count() + cover_right.bit_count()} "
            f"!= matching size {size}"
        )
    escape = 0
    while reached_l:
        b = reached_l & -reached_l
        escape |= rows[b.bit_length() - 1]
        reached_l ^= b
    if escape & ~cover_right:
        raise InternalInconsistencyError("an edge escapes the cover")

    return BipartiteMatching(size, tuple(pair_l), cover_left, cover_right)
