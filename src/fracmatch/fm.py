"""Exact fractional matching engine.

Values are integer half-units throughout (edge weight 1/2 <-> 1 unit,
weight 1 <-> 2 units). The matching number is half the maximum matching of
the bipartite double cover, whose left rows are the graph's own adjacency
rows. One Hopcroft-Karp solve gives the value, the matching and a König
cover; the cover certifies the value inside the solver, and the vertices
covered on both sides are a Berge witness S for the isolated-vertex
deficiency formula max over S of i(G-S) - |S| = n - 2*alpha', checked by
recount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .bipartite import hopcroft_karp
from .errors import InternalInconsistencyError, PreconditionError
from .graph import Graph, VertexSet, bits, mask_of
from .halfint import HalfInt

Edge = Tuple[int, int]


class FractionalMatching:
    """Half-integral edge weights on a host graph.

    Weights are stored sparsely as {(u,v): units} with u < v and
    units in {1, 2}; absent edges carry 0. Construction validates that every
    weighted pair is a host edge and every vertex load is at most 2 units.
    """

    __slots__ = ("host", "_w", "_loads")

    def __init__(self, host: Graph, weights: Dict[Edge, int]):
        w: Dict[Edge, int] = {}
        loads = [0] * host.n
        for (u, v), units in weights.items():
            if u > v:
                u, v = v, u
            if units == 0:
                continue
            if units not in (1, 2):
                raise ValueError(f"edge ({u},{v}) has weight {units} half-units, want 0/1/2")
            if not host.adj(u, v):
                raise ValueError(f"weight on non-edge ({u},{v})")
            w[(u, v)] = units
            loads[u] += units
            loads[v] += units
        for v, load in enumerate(loads):
            if load > 2:
                raise ValueError(f"vertex {v} overloaded: {load} half-units")
        self.host = host
        self._w = w
        self._loads = tuple(loads)

    @property
    def value(self) -> HalfInt:
        return HalfInt(sum(self._w.values()))

    def weight_units(self, u: int, v: int) -> int:
        if u > v:
            u, v = v, u
        return self._w.get((u, v), 0)

    def load_units(self, v: int) -> int:
        return self._loads[v]

    def items(self) -> List[Tuple[Edge, int]]:
        return sorted(self._w.items())

    def one_edges(self) -> List[Edge]:
        return sorted(e for e, units in self._w.items() if units == 2)

    def half_edges(self) -> List[Edge]:
        return sorted(e for e, units in self._w.items() if units == 1)

    def support_mask(self) -> int:
        m = 0
        for v, load in enumerate(self._loads):
            if load:
                m |= 1 << v
        return m

    def full_mask(self) -> int:
        m = 0
        for u, v in self.one_edges():
            m |= 1 << u | 1 << v
        return m

    def half_mask(self) -> int:
        m = 0
        for u, v in self.half_edges():
            m |= 1 << u | 1 << v
        return m

    def unweighted_mask(self) -> int:
        return ((1 << self.host.n) - 1) & ~self.support_mask()

    def replace(self, changes: Dict[Edge, int]) -> "FractionalMatching":
        """New matching with the given edges reassigned (0 deletes)."""
        w = dict(self._w)
        for (u, v), units in changes.items():
            if u > v:
                u, v = v, u
            if units == 0:
                w.pop((u, v), None)
            else:
                w[(u, v)] = units
        return FractionalMatching(self.host, w)

    def half_support_components(self) -> List[Tuple[str, List[int]]]:
        """Connected components of the half-edge subgraph as
        ("cycle"|"path", vertices in deterministic traversal order).

        Cycles start at their smallest vertex and step toward its smaller
        half-neighbour; paths start at their smaller endpoint.
        """
        nbrs: Dict[int, List[int]] = {}
        for u, v in self.half_edges():
            nbrs.setdefault(u, []).append(v)
            nbrs.setdefault(v, []).append(u)
        for v in nbrs:
            nbrs[v].sort()
        out: List[Tuple[str, List[int]]] = []
        seen = set()
        for start in sorted(nbrs):
            if start in seen:
                continue
            comp = set()
            stack = [start]
            while stack:
                x = stack.pop()
                if x in comp:
                    continue
                comp.add(x)
                stack.extend(nbrs[x])
            seen |= comp
            ends = sorted(v for v in comp if len(nbrs[v]) == 1)
            if ends:
                if len(ends) != 2:
                    raise InternalInconsistencyError(f"half-path with {len(ends)} endpoints")
                order = [ends[0]]
            else:
                first = min(comp)
                order = [first, nbrs[first][0]]
            while True:
                cur = order[-1]
                prev = order[-2] if len(order) > 1 else None
                step = [x for x in nbrs[cur] if x != prev]
                if not step:
                    out.append(("path", order))
                    break
                nxt = step[0]
                if nxt == order[0]:
                    out.append(("cycle", order))
                    break
                order.append(nxt)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FractionalMatching):
            return NotImplemented
        return self.host == other.host and self._w == other._w

    def __hash__(self) -> int:
        return hash((self.host, tuple(sorted(self._w.items()))))

    def __repr__(self) -> str:
        return f"FractionalMatching(value={self.value}, weights={self.items()})"


@dataclass(frozen=True)
class BergeWitness:
    """Vertex set S with deficiency i(G-S) - |S| certifying the matching
    number via alpha' = (n - deficiency)/2."""

    s_set: VertexSet
    deficiency: int


def deficiency_of(g: Graph, s_set: Iterable[int]) -> int:
    s_mask = mask_of(s_set)
    iso = 0
    for v in bits(((1 << g.n) - 1) & ~s_mask):
        if g.row(v) & ~s_mask == 0:
            iso += 1
    return iso - s_mask.bit_count()


def alpha2(g: Graph) -> int:
    """2*alpha'(g) as a plain int (the double-cover matching size)."""
    return hopcroft_karp(g.rows, g.n).size


def alpha_prime(g: Graph) -> HalfInt:
    return HalfInt(alpha2(g))


def berge_deficiency(g: Graph) -> BergeWitness:
    """Maximizer of i(G-S) - |S|: S is the set of vertices covered on both
    sides of the double-cover König cover, revalidated by recount against
    n - 2*alpha'."""
    m = hopcroft_karp(g.rows, g.n)
    s_set = frozenset(bits(m.cover_left & m.cover_right))
    d = deficiency_of(g, s_set)
    if d != g.n - m.size:
        raise InternalInconsistencyError(
            f"cover-derived witness has deficiency {d}, expected {g.n - m.size}"
        )
    return BergeWitness(s_set, d)


def extract_fm(g: Graph) -> FractionalMatching:
    """An optimal-value half-integral matching read off the double cover:
    edge uv gets one half-unit per matched cover copy."""
    m = hopcroft_karp(g.rows, g.n)
    w: Dict[Edge, int] = {}
    for u in range(g.n):
        v = m.pair_left[u]
        if v != -1:
            e = (u, v) if u < v else (v, u)
            w[e] = w.get(e, 0) + 1
    f = FractionalMatching(g, w)
    if f.value.units != m.size:
        raise InternalInconsistencyError(
            f"extracted value {f.value.units} != matching size {m.size}"
        )
    return f


def canonicalize_fm(g: Graph, f: FractionalMatching) -> FractionalMatching:
    """Rewrite an optimal-value matching into the canonical shape: the
    half-edge subgraph a disjoint union of odd cycles, even cycles and
    even-length half-paths re-alternated into 1-edges.

    Raises ValueError when f is not optimal-value for g, and
    InternalInconsistencyError when a value-raising rewrite would apply
    (impossible for a certified optimum) or a structure fact fails after
    rewriting.
    """
    if f.host != g:
        raise ValueError("matching belongs to a different graph")
    if f.value.units != alpha2(g):
        raise ValueError(f"matching value {f.value} is not optimal ({alpha_prime(g)})")
    return _canonicalize(f)


def _canonicalize(f: FractionalMatching) -> FractionalMatching:
    changes: Dict[Edge, int] = {}
    for kind, order in f.half_support_components():
        if kind == "cycle":
            if len(order) % 2 == 1:
                continue
            for i in range(len(order)):
                u, v = order[i], order[(i + 1) % len(order)]
                changes[(min(u, v), max(u, v))] = 2 if i % 2 == 0 else 0
        else:
            k = len(order) - 1
            if k % 2 == 1:
                raise InternalInconsistencyError(
                    f"odd half-path {order} in a value-optimal matching"
                )
            for i in range(k):
                u, v = order[i], order[i + 1]
                changes[(min(u, v), max(u, v))] = 2 if i % 2 == 0 else 0
    out = f.replace(changes) if changes else f

    if out.value.units != f.value.units:
        raise InternalInconsistencyError("canonicalization changed the value")
    _assert_canonical_shape(out)
    return out


def _assert_canonical_shape(f: FractionalMatching) -> None:
    g = f.host
    for kind, order in f.half_support_components():
        if kind != "cycle" or len(order) % 2 == 0:
            raise InternalInconsistencyError(f"half-support {kind} {order} is not an odd cycle")
    unweighted = f.unweighted_mask()
    full = f.full_mask()
    half = f.half_mask()
    for v in bits(unweighted):
        nb = g.row(v)
        if nb & unweighted:
            raise InternalInconsistencyError(f"adjacent unweighted vertices at {v}")
        if nb & ~full:
            raise InternalInconsistencyError(f"unweighted vertex {v} has a non-full neighbour")
    for v in bits(half):
        if g.row(v) & unweighted:
            raise InternalInconsistencyError(f"half-cycle vertex {v} touches an unweighted vertex")


def canonical_fm(g: Graph) -> FractionalMatching:
    """extract_fm rewritten into the canonical shape. Its value is already
    certified by the solver's cover, so it is not solved again."""
    return _canonicalize(extract_fm(g))


# ---------------------------------------------------------------------------
# Independent exhaustive oracle over the {0, 1/2, 1} assignment space.

_MAX_ORACLE_EDGES = 14

_gather_cache: Dict[Tuple[int, int, int], Tuple[np.ndarray, ...]] = {}


def _gather_tables(m: int, iu: int, iv: int):
    key = (m, iu, iv)
    hit = _gather_cache.get(key)
    if hit is not None:
        return hit
    states = np.arange(3 ** m, dtype=np.int32)
    du = (states // 3 ** iu) % 3
    dv = (states // 3 ** iv) % 3
    ok1 = (du >= 1) & (dv >= 1)
    idx1 = np.where(ok1, states - 3 ** iu - 3 ** iv, 0)
    ok2 = (du == 2) & (dv == 2)
    idx2 = np.where(ok2, states - 2 * 3 ** iu - 2 * 3 ** iv, 0)
    tables = (ok1, idx1, ok2, idx2)
    _gather_cache[key] = tables
    return tables


def _oracle_dense(edges: List[Edge], touched: List[int]) -> int:
    m = len(touched)
    pos = {v: i for i, v in enumerate(touched)}
    f = np.zeros(3 ** m, dtype=np.int8)
    for u, v in edges:
        ok1, idx1, ok2, idx2 = _gather_tables(m, pos[u], pos[v])
        cand1 = np.where(ok1, f[idx1] + 1, -1)
        cand2 = np.where(ok2, f[idx2] + 2, -1)
        f = np.maximum(f, np.maximum(cand1, cand2)).astype(np.int8)
    return int(f[-1])


def _oracle_frontier(edges: List[Edge]) -> int:
    """Dict-frontier DP for edge sets touching more than 8 vertices: the
    state keeps remaining capacities only for vertices with future edges."""
    m = len(edges)
    future: List[Tuple[int, ...]] = [()] * (m + 1)
    seen: set = set()
    for i in range(m - 1, -1, -1):
        seen |= set(edges[i])
        future[i] = tuple(sorted(seen))
    frontier = {tuple(2 for _ in future[0]): 0}
    for i, (u, v) in enumerate(edges):
        cur = future[i]
        pos = {x: k for k, x in enumerate(cur)}
        keep = [pos[x] for x in future[i + 1]]
        nxt: Dict[Tuple[int, ...], int] = {}
        for caps, val in frontier.items():
            cu, cv = caps[pos[u]], caps[pos[v]]
            for wgt in (0, 1, 2):
                if cu < wgt or cv < wgt:
                    break
                lst = list(caps)
                lst[pos[u]] = cu - wgt
                lst[pos[v]] = cv - wgt
                key = tuple(lst[k] for k in keep)
                nv = val + wgt
                if nxt.get(key, -1) < nv:
                    nxt[key] = nv
        frontier = nxt
    return max(frontier.values())


def oracle_alpha_exhaustive(g: Graph, max_edges: int = _MAX_ORACLE_EDGES) -> HalfInt:
    """Maximum value over every feasible {0, 1/2, 1} assignment, computed by
    exact dynamic programming over per-vertex remaining capacities. Refuses
    edge sets above max_edges (the assignment space is 3^|E|)."""
    edges = list(g.edges())
    if len(edges) > max_edges:
        raise PreconditionError(f"{len(edges)} edges exceeds the oracle budget {max_edges}")
    if not edges:
        return HalfInt(0)
    touched = sorted({v for e in edges for v in e})
    if len(touched) <= 8:
        return HalfInt(_oracle_dense(edges, touched))
    return HalfInt(_oracle_frontier(edges))
