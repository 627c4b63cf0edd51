"""The matching solver on bit rows with König certificates, checked against
brute force and networkx on randomized instances, and against the size and
the König cover of a textbook tuple-adjacency Hopcroft-Karp. The cover of
the free left vertices' alternating reach is the same for every maximum
matching, so it is pinned where the pairing is not; the cover check
rejects a matching that is not maximum and a partner list that is not
the pairing's inverse."""

import itertools
import random
from collections import deque

import networkx as nx
import pytest

from fracmatch.bipartite import hopcroft_karp, konig_cover
from fracmatch.errors import InternalInconsistencyError
from fracmatch.graph import Graph, bits


def brute_max_matching(rows):
    edges = [(u, v) for u, r in enumerate(rows) for v in bits(r)]

    def go(i, used_l, used_r):
        if i == len(edges):
            return 0
        best = go(i + 1, used_l, used_r)
        u, v = edges[i]
        if not (used_l >> u) & 1 and not (used_r >> v) & 1:
            best = max(best, 1 + go(i + 1, used_l | 1 << u, used_r | 1 << v))
        return best

    return go(0, 0, 0)


def check_certificate(rows, m):
    # the pairing is a matching of the reported size on edges of rows
    partners = [v for v in m.pair_left if v != -1]
    assert len(partners) == len(set(partners)) == m.size
    for u, v in enumerate(m.pair_left):
        if v != -1:
            assert rows[u] >> v & 1
    # König: |cover| == size and every edge is covered
    assert m.cover_left.bit_count() + m.cover_right.bit_count() == m.size
    for u, r in enumerate(rows):
        for v in bits(r):
            assert m.cover_left >> u & 1 or m.cover_right >> v & 1


def reference_hopcroft_karp(n_left, n_right, adj):
    """A tuple-adjacency Hopcroft-Karp, BFS phases and all, with the König
    cover of its final matching: (pair_left, cover_left, cover_right)."""
    pair_l = [-1] * n_left
    pair_r = [-1] * n_right
    dist = [-1] * n_left

    def bfs():
        q = deque()
        for u in range(n_left):
            dist[u] = 0 if pair_l[u] == -1 else -1
            if pair_l[u] == -1:
                q.append(u)
        found = False
        while q:
            u = q.popleft()
            for v in adj[u]:
                w = pair_r[v]
                if w == -1:
                    found = True
                elif dist[w] == -1:
                    dist[w] = dist[u] + 1
                    q.append(w)
        return found

    def dfs(u):
        for v in adj[u]:
            w = pair_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                pair_l[u] = v
                pair_r[v] = u
                return True
        dist[u] = -1
        return False

    while bfs():
        for u in range(n_left):
            if pair_l[u] == -1:
                dfs(u)

    seen_l = [pair_l[u] == -1 for u in range(n_left)]
    seen_r = [False] * n_right
    q = deque(u for u in range(n_left) if seen_l[u])
    while q:
        u = q.popleft()
        for v in adj[u]:
            if pair_l[u] == v or seen_r[v]:
                continue
            seen_r[v] = True
            w = pair_r[v]
            if w != -1 and not seen_l[w]:
                seen_l[w] = True
                q.append(w)
    cover_left = frozenset(u for u in range(n_left) if not seen_l[u])
    cover_right = frozenset(v for v in range(n_right) if seen_r[v])
    return tuple(pair_l), cover_left, cover_right


def assert_same_size_and_cover(rows, n_right):
    m = hopcroft_karp(rows, n_right)
    ref_pair, ref_left, ref_right = reference_hopcroft_karp(
        len(rows), n_right, [tuple(bits(r)) for r in rows]
    )
    got = (m.size, frozenset(bits(m.cover_left)), frozenset(bits(m.cover_right)))
    assert got == (sum(v != -1 for v in ref_pair), ref_left, ref_right), rows
    check_certificate(rows, m)


def test_small_known_sizes():
    assert hopcroft_karp([0b111, 0b111], 3).size == 2
    assert hopcroft_karp([0, 0, 0], 3).size == 0
    assert hopcroft_karp([0b001, 0b010, 0b100], 3).size == 3
    assert hopcroft_karp([], 0).size == 0


def test_deterministic_pairing():
    # two equivalent optima exist; ascending tie-breaks must pick (0,0),(1,1)
    m = hopcroft_karp([0b11, 0b11], 2)
    assert m.pair_left == (0, 1)


def test_augmenting_path_case():
    # greedy (0,0) must be undone via an augmenting path
    m = hopcroft_karp([0b11, 0b01], 2)
    assert m.size == 2
    assert m.pair_left == (1, 0)


def test_exhaustive_tiny():
    for nl, nr in [(2, 2), (3, 2), (3, 3)]:
        slots = list(itertools.product(range(nl), range(nr)))
        for mask in range(1 << len(slots)):
            rows = [0] * nl
            for i, (u, v) in enumerate(slots):
                if (mask >> i) & 1:
                    rows[u] |= 1 << v
            m = hopcroft_karp(rows, nr)
            assert m.size == brute_max_matching(rows)
            check_certificate(rows, m)


def test_random_against_networkx():
    rng = random.Random(20260821)
    for _ in range(60):
        nl = rng.randint(1, 12)
        nr = rng.randint(1, 12)
        p = rng.choice([0.1, 0.3, 0.6])
        rows = [sum(1 << v for v in range(nr) if rng.random() < p) for _ in range(nl)]
        m = hopcroft_karp(rows, nr)
        check_certificate(rows, m)
        g = nx.Graph()
        g.add_nodes_from(range(nl), bipartite=0)
        g.add_nodes_from(range(nl, nl + nr), bipartite=1)
        for u in range(nl):
            for v in bits(rows[u]):
                g.add_edge(u, nl + v)
        nx_m = nx.bipartite.maximum_matching(g, top_nodes=range(nl))
        assert m.size == len(nx_m) // 2


def test_adjacency_validation():
    with pytest.raises(ValueError):
        hopcroft_karp([0b01, 0b100], 2)
    with pytest.raises(ValueError):
        hopcroft_karp([1 << 64], 64)
    with pytest.raises(ValueError):
        hopcroft_karp([-1], 2)


def test_cover_check_rejects_a_short_matching_and_a_wrong_partner_list():
    # P4 = 0-1-2-3 with only the middle edge paired: free 0 reaches free 0.
    rows = list(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]).rows)
    with pytest.raises(InternalInconsistencyError, match="^matching of size 2 has an augmenting path$"):
        konig_cover(rows, [-1, 2, 1, -1], 0b1001, 0b1001)
    # The maximum matching 0-1, 1-0, 2-3, 3-2 leaves nothing free.
    assert konig_cover(rows, [1, 0, 3, 2], 0, 0) == (0b1111, 0)
    # Left 0 takes right 0 and left 1 is free, but right 1 names left 0 too.
    with pytest.raises(InternalInconsistencyError, match="^cover of size 2 does not certify matching size 1$"):
        konig_cover([0b01, 0b10], [0, 0], 0, 0b10)


def test_order_matches_reference_on_small_double_covers():
    for n in range(6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = Graph.from_mask(n, mask)
            assert_same_size_and_cover(g.rows, n)


def test_order_matches_reference_on_random_double_covers():
    rng = random.Random(6464)
    for n in [*range(2, 65), 63, 64, 64]:
        for p in (0.05, 0.15, 0.5, 0.9):
            g = Graph.from_edges(
                n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
            )
            assert_same_size_and_cover(g.rows, n)


def test_order_matches_reference_on_rectangular_rows():
    # the shape of the partition's cross matching: support-side rows masked
    # to the unweighted side, right indices are vertex ids
    rng = random.Random(3131)
    for _ in range(400):
        nr = rng.randint(1, 64)
        nl = rng.randint(0, 40)
        right = rng.getrandbits(nr)
        p = rng.choice([0.05, 0.2, 0.5])
        rows = [
            sum(1 << v for v in bits(right) if rng.random() < p) for _ in range(nl)
        ]
        assert_same_size_and_cover(rows, nr)
