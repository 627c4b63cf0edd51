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
    a2 = alpha2(g)
    if f.value.units != a2:
        raise ValueError(f"matching value {f.value} is not optimal ({HalfInt(a2)})")
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


def oracle_alpha_exhaustive(g: Graph, max_edges: int = _MAX_ORACLE_EDGES) -> HalfInt:
    """Maximum value over every feasible {0, 1/2, 1} assignment, by exact
    dynamic programming over the edges in g.edges() order; it never calls
    the solver. A state packs each vertex's remaining capacity (0, 1 or 2
    half-units) into bits 2v and 2v+1 of one int, and maps to the best
    value reaching it. A vertex's bits are cleared after its last edge, so
    states that differ only on finished vertices merge. Refuses edge sets
    above max_edges (the assignment space is 3^|E|)."""
    edges = list(g.edges())
    if len(edges) > max_edges:
        raise PreconditionError(f"{len(edges)} edges exceeds the oracle budget {max_edges}")
    last: Dict[int, int] = {}
    for i, (u, v) in enumerate(edges):
        last[u] = last[v] = i
    states = {sum(2 << 2 * v for v in last): 0}
    for i, (u, v) in enumerate(edges):
        su, sv = 2 * u, 2 * v
        step = 1 << su | 1 << sv
        keep = ~sum(3 << 2 * x for x in (u, v) if last[x] == i)
        nxt: Dict[int, int] = {}
        for s, val in states.items():
            for w in range(min(s >> su & 3, s >> sv & 3) + 1):
                key = (s - w * step) & keep
                if nxt.get(key, -1) < val + w:
                    nxt[key] = val + w
        states = nxt
    return HalfInt(max(states.values()))
