"""Deterministic maximum bipartite matching on bit rows, with a certifying
König vertex cover: the one solver of the certificate layer and the sweep.

The left side is 0..len(rows)-1 and rows[u] is the int mask of u's right
neighbours in 0..n_right-1. A graph's own adjacency rows are therefore its
bipartite double cover (left copy u, right copy v, joined iff uv is an
edge), whose maximum matching is twice the fractional matching number.
hopcroft_karp solves one row list; the sweep runs its greedy pass on a
whole batch in numpy, and the same finish and cover check on the graphs
the greedy leaves short.
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
    """Maximum matching with a fixed exploration order, and its König cover.

    A greedy pass (each left vertex, ascending, takes its lowest free
    neighbour) starts the matching, _finish completes it, and konig_cover
    reads and checks the cover.
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
            free_r ^= b
            v = b.bit_length() - 1
            pair_l[u], pair_r[v] = v, u
        else:
            free_l |= 1 << u
    free_r, free_l = _finish(rows, pair_l, pair_r, free_r, free_l)
    cover_left, cover_right = konig_cover(rows, pair_r, free_r, free_l)
    return BipartiteMatching(nl - free_l.bit_count(), tuple(pair_l), cover_left, cover_right)


def _finish(rows: Sequence[int], pair_l: List[int], pair_r: List[int],
            free_r: int, free_l: int) -> Tuple[int, int]:
    """Finish a greedy matching in place and return the new free masks:
    while left vertices with neighbours stay free, one _length3 pass, then
    one _augment search per free vertex, both taking free left vertices and
    right candidates ascending."""
    isolated = rows.count(0)
    if free_l.bit_count() > isolated:
        free_r, free_l = _length3(rows, pair_l, pair_r, free_r, free_l)
        if free_l.bit_count() > isolated:
            free_r, free_l = _augment(rows, pair_l, pair_r, free_r, free_l)
    return free_r, free_l


def _length3(rows: Sequence[int], pair_l: List[int], pair_r: List[int],
             free_r: int, free_l: int) -> Tuple[int, int]:
    """One pass of length-3 augmentations over the free left vertices, in
    place: u takes a neighbour v whose partner w moves to a free right
    neighbour x. Returns the new free masks. After the greedy pass every
    neighbour of a free left vertex is paired, so v needs no test."""
    roots = free_l
    while roots:
        a = roots & -roots
        roots ^= a
        u = a.bit_length() - 1
        cand = rows[u]
        while cand:
            b = cand & -cand
            cand ^= b
            v = b.bit_length() - 1
            w = pair_r[v]
            c = rows[w] & free_r
            if c:
                c &= -c
                free_r ^= c
                x = c.bit_length() - 1
                pair_l[w], pair_r[x] = x, w
                pair_l[u], pair_r[v] = v, u
                free_l ^= a
                break
    return free_r, free_l


def _augment(rows: Sequence[int], pair_l: List[int], pair_r: List[int],
             free_r: int, free_l: int) -> Tuple[int, int]:
    """One depth-first augmenting search per free left vertex, ascending,
    in place; returns the new free masks. At each left vertex the search
    first takes a free right neighbour (the lookahead), and it marks the
    right vertices it visits. The marks stay after a failed root, whose
    reach holds no free right vertex, and are cleared after a success. A
    failed root is not retried: a free vertex with no augmenting path never
    gains one."""
    seen = 0

    def dfs(u: int) -> bool:
        # u has no free right neighbour: a root's were all taken before the
        # search, and a partner's are looked at before the search enters it.
        nonlocal free_r, seen
        cand = rows[u] & ~seen
        seen |= cand
        while cand:
            b = cand & -cand
            cand ^= b
            w = pair_r[b.bit_length() - 1]
            c = rows[w] & free_r
            if c:
                c &= -c
                free_r ^= c
                x = c.bit_length() - 1
                pair_l[w], pair_r[x] = x, w
            elif not dfs(w):
                continue
            v = b.bit_length() - 1
            pair_l[u], pair_r[v] = v, u
            return True
        return False

    roots = free_l
    while roots:
        a = roots & -roots
        roots ^= a
        if dfs(a.bit_length() - 1):
            free_l ^= a
            seen = 0
    return free_r, free_l


def konig_cover(rows: Sequence[int], pair_r: Sequence[int], free_r: int,
                free_l: int) -> Tuple[int, int]:
    """The dual check of a matching, given by its right partners and free
    masks: (cover_left, cover_right), the unreached left vertices and the
    reached right vertices of the free left vertices' alternating reach.
    Every edge meets the cover by construction, since a reached left
    vertex's whole row is reached. Raises InternalInconsistencyError when
    the reach meets a free right vertex (an augmenting path) or when the
    cover does not number the matching's size (pair_r is not the inverse
    of the pairing). Passing proves the size maximum."""
    nl = len(rows)
    size = nl - free_l.bit_count()
    frontier = reached_l = free_l
    reached_r = 0
    while frontier:
        reach = 0
        while frontier:
            a = frontier & -frontier
            reach |= rows[a.bit_length() - 1]
            frontier ^= a
        new = reach & ~reached_r
        reached_r |= new
        if new & free_r:
            raise InternalInconsistencyError(f"matching of size {size} has an augmenting path")
        while new:
            a = new & -new
            frontier |= 1 << pair_r[a.bit_length() - 1]
            new ^= a
        reached_l |= frontier
    cover_left = ((1 << nl) - 1) & ~reached_l
    cover = cover_left.bit_count() + reached_r.bit_count()
    if cover != size:
        raise InternalInconsistencyError(
            f"cover of size {cover} does not certify matching size {size}"
        )
    return cover_left, reached_r
