"""Named-family graph generators with fixed, documented labelings."""

from __future__ import annotations

from .graph import Graph


def empty_graph(n: int) -> Graph:
    return Graph(n, [0] * n)


def complete(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, [full & ~(1 << v) for v in range(n)])


def cycle(n: int) -> Graph:
    """Cycle 0-1-...-(n-1)-0; rejects n < 3."""
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def star(n: int) -> Graph:
    """K_{1,n-1} with center 0."""
    if n < 1:
        raise ValueError(f"star needs at least 1 vertex, got {n}")
    return Graph.from_edges(n, [(0, v) for v in range(1, n)])


def path(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    """Sides {0..a-1} and {a..a+b-1}."""
    if a < 0 or b < 0:
        raise ValueError("negative side size")
    return Graph.from_edges(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def k2pql(p: int, q: int, ell: int) -> Graph:
    """Two adjacent hubs u=0, v=1 with p pendants at u, q pendants at v and
    ell common neighbours. Normalizes p < q by swapping the hubs' roles,
    so the returned graph always has p >= q. Labels: pendants of u are
    2..p+1, pendants of v next, commons last."""
    if p < 0 or q < 0 or ell < 0:
        raise ValueError("negative family parameter")
    if p < q:
        p, q = q, p
    edges = [(0, 1)]
    w = 2
    for _ in range(p):
        edges.append((0, w))
        w += 1
    for _ in range(q):
        edges.append((1, w))
        w += 1
    for _ in range(ell):
        edges.append((0, w))
        edges.append((1, w))
        w += 1
    return Graph.from_edges(p + q + ell + 2, edges)


def hgraph(n: int) -> Graph:
    """K4 on {0,1,2,3} plus n-4 pendant edges attached at vertex 0."""
    if n < 4:
        raise ValueError(f"hgraph needs at least 4 vertices, got {n}")
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(0, w) for w in range(4, n)]
    return Graph.from_edges(n, edges)


def disjoint_union(g1: Graph, *rest: Graph) -> Graph:
    rows = [g1.row(v) for v in range(g1.n)]
    shift = g1.n
    for g in rest:
        rows += [g.row(v) << shift for v in range(g.n)]
        shift += g.n
    return Graph(shift, rows)


def add_isolates(g: Graph, k: int) -> Graph:
    if k < 0:
        raise ValueError("negative isolate count")
    return Graph(g.n + k, [g.row(v) for v in range(g.n)] + [0] * k)
