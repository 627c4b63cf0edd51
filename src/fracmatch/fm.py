"""Exact fractional matching engine.

Values are integer half-units throughout (edge weight 1/2 <-> 1 unit,
weight 1 <-> 2 units). The matching number is half the maximum matching of
the bipartite double cover, whose left rows are the graph's own adjacency
rows. One hopcroft_karp solve per Graph, kept on it and read by alpha2,
berge_deficiency and extract_fm, gives the value, the matching and a König
cover. The cover bounds the value from above in the solver, the primal
check (graph.check_matching) bounds it from below when the solve is made,
and the vertices covered on both sides are a Berge witness S for the
isolated-vertex deficiency formula max over S of i(G-S) - |S| =
n - 2*alpha', checked by recount.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

from .bipartite import BipartiteMatching, hopcroft_karp
from .errors import InternalInconsistencyError, PreconditionError
from .graph import Graph, VertexSet, bits, check_matching, mask_of
from .halfint import HalfInt

Edge = Tuple[int, int]


def _walk(half_rows: Sequence[int], start: int, nxt: int) -> Tuple[List[int], bool]:
    """Vertices met walking the half-edge subgraph from start through its
    half-neighbour nxt, up to a path end or back at start; the flag says
    whether the walk closed a cycle."""
    order = [start]
    prev, cur = start, nxt
    while cur != start:
        order.append(cur)
        step = half_rows[cur] & ~(1 << prev)
        if not step:
            return order, False
        prev, cur = cur, step.bit_length() - 1
    return order, True


class FractionalMatching:
    """Half-integral edge weights on a host graph.

    Weights are stored sparsely as {(u,v): units} with u < v and
    units in {1, 2}; absent edges carry 0. Construction validates that every
    edge joins two host vertices named by ints and is given once (in either
    orientation) with an int weight of 0, 1 or 2 units, every weighted pair
    is a host edge and every vertex load is at most 2 units; a breach is a
    ValueError naming the edge or vertex.
    The same pass records every derived fact the certificate layer reads,
    as plain attributes: the value, each vertex's load and weight-1 partner
    (-1 when it has none) in loads and partners, the bit rows of the
    half-edge subgraph in half_rows, and the vertex masks full, half, their
    union support, and its complement unweighted.
    """

    __slots__ = (
        "host", "value", "_w", "loads", "partners", "half_rows",
        "full", "half", "support", "unweighted",
    )

    def __init__(self, host: Graph, weights: Dict[Edge, int]):
        n, rows = host.n, host.rows
        w: Dict[Edge, int] = {}
        loads = [0] * n
        partners = [-1] * n
        half_rows = [0] * n
        full = half = 0
        for e, units in weights.items():
            u, v = e
            if type(u) is not int or type(v) is not int:
                raise ValueError(f"edge ({u},{v}) names a vertex that is not an int")
            if not 0 <= u < v < n:
                if not 0 <= v < u < n:
                    raise ValueError(f"edge ({u},{v}) does not join two vertices of 0..{n - 1}")
                u, v = e = v, u
                # the only way to give an edge twice is in both orientations
                if e in weights:
                    raise ValueError(f"edge ({u},{v}) given twice")
            if type(units) is not int or units not in (0, 1, 2):
                raise ValueError(f"edge ({u},{v}) has weight {units!r} half-units, want 0/1/2")
            if units == 0:
                continue
            if not rows[u] >> v & 1:
                raise ValueError(f"weight on non-edge ({u},{v})")
            w[e] = units
            loads[u] += units
            loads[v] += units
            if units == 2:
                partners[u], partners[v] = v, u
                full |= 1 << u | 1 << v
            else:
                half_rows[u] |= 1 << v
                half_rows[v] |= 1 << u
                half |= 1 << u | 1 << v
        if max(loads, default=0) > 2:
            v = next(v for v, load in enumerate(loads) if load > 2)
            raise ValueError(f"vertex {v} overloaded: {loads[v]} half-units")
        self.host = host
        self.value = HalfInt(sum(w.values()))
        self._w = w
        self.loads = tuple(loads)
        self.partners = tuple(partners)
        self.half_rows = tuple(half_rows)
        self.full, self.half = full, half
        self.support = full | half
        self.unweighted = ((1 << n) - 1) & ~self.support

    def items(self) -> List[Tuple[Edge, int]]:
        return sorted(self._w.items())

    def one_edges(self) -> List[Edge]:
        return [(u, v) for u, v in enumerate(self.partners) if u < v]

    def half_support_components(self) -> List[Tuple[str, List[int]]]:
        """Connected components of the half-edge subgraph as
        ("cycle"|"path", vertices in deterministic traversal order), in
        order of their smallest vertex.

        Cycles start at their smallest vertex and step toward its smaller
        half-neighbour; paths start at their smaller endpoint. Every load is
        at most 2 units, so no vertex has more than two half-neighbours.
        """
        rows = self.half_rows
        out: List[Tuple[str, List[int]]] = []
        left = self.half
        while left:
            first = (left & -left).bit_length() - 1
            row = rows[first]
            low = (row & -row).bit_length() - 1
            order, closed = _walk(rows, first, low)
            if not closed and row != 1 << low:
                # first lies inside the path: prepend its other side.
                back, _ = _walk(rows, first, (row ^ 1 << low).bit_length() - 1)
                order = back[:0:-1] + order
                if order[-1] < order[0]:
                    order.reverse()
            left &= ~mask_of(order)
            out.append(("cycle" if closed else "path", order))
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
    """i(G-S) - |S| of a vertex set S."""
    return _deficiency(g, mask_of(s_set))


def _deficiency(g: Graph, s_mask: int) -> int:
    """i(G-S) - |S| of the mask of S: a vertex outside S is isolated in G-S
    when its row misses every vertex outside S."""
    rest = ((1 << g.n) - 1) & ~s_mask
    isolated = sum(1 for v, row in enumerate(g.rows) if rest >> v & 1 and not row & rest)
    return isolated - s_mask.bit_count()


def _solved(g: Graph) -> BipartiteMatching:
    """The double-cover solve of g, made on first use and kept on g. Its
    pairing passes the primal check when made, so with the solver's cover
    every reader gets a size proved from both sides."""
    if g._solve is None:
        m = hopcroft_karp(g.rows, g.n)
        check_matching(g.rows, m.pair_left, m.size)
        g._solve = m
    return g._solve


def alpha2(g: Graph) -> int:
    """2*alpha'(g) as a plain int (the double-cover matching size)."""
    return _solved(g).size


def alpha_prime(g: Graph) -> HalfInt:
    return HalfInt(alpha2(g))


def berge_deficiency(g: Graph) -> BergeWitness:
    """Maximizer of i(G-S) - |S|: S is the set of vertices covered on both
    sides of the double-cover König cover, revalidated by recount against
    n - 2*alpha'."""
    m = _solved(g)
    s_mask = m.cover_left & m.cover_right
    d = _deficiency(g, s_mask)
    if d != g.n - m.size:
        raise InternalInconsistencyError(
            f"cover-derived witness has deficiency {d}, expected {g.n - m.size}"
        )
    return BergeWitness(frozenset(bits(s_mask)), d)


def extract_fm(g: Graph) -> FractionalMatching:
    """An optimal-value half-integral matching read off the double cover:
    edge uv gets one half-unit per matched copy, so 2 when both copies match."""
    m = _solved(g)
    pair = m.pair_left
    w: Dict[Edge, int] = {}
    for u, v in enumerate(pair):
        if v > u:
            w[(u, v)] = 1 + (pair[v] == u)
        elif v != -1 and pair[v] != u:
            w[(v, u)] = 1
    f = FractionalMatching(g, w)
    if f.value.units != m.size:
        raise InternalInconsistencyError(
            f"extracted value {f.value.units} != matching size {m.size}"
        )
    return f


def _canonicalize(f: FractionalMatching) -> FractionalMatching:
    """Rewrite an optimal-value matching into the canonical shape: one scan
    of the half-edge components re-alternates even cycles and even-length
    half-paths into 1-edges and keeps the odd cycles, so the result's
    half-edge subgraph is a disjoint union of odd cycles. Raises
    InternalInconsistencyError when a value-raising rewrite would apply (an
    odd half-path, impossible for a certified optimum) or an adjacency fact
    fails after rewriting."""
    w = dict(f._w)
    for kind, order in f.half_support_components():
        if kind == "cycle":
            if len(order) % 2 == 1:
                continue
            order = order + order[:1]
        elif len(order) % 2 == 0:
            raise InternalInconsistencyError(
                f"odd half-path {order} in a value-optimal matching"
            )
        for i, (u, v) in enumerate(zip(order, order[1:])):
            e = (u, v) if u < v else (v, u)
            if i % 2 == 0:
                w[e] = 2
            else:
                del w[e]
    out = FractionalMatching(f.host, w) if w != f._w else f

    if out.value != f.value:
        raise InternalInconsistencyError("canonicalization changed the value")
    rows, unweighted = f.host.rows, out.unweighted
    for v in bits(unweighted):
        nb = rows[v]
        if nb & unweighted:
            raise InternalInconsistencyError(f"adjacent unweighted vertices at {v}")
        # A neighbour neither unweighted nor half is full.
        if nb & out.half:
            raise InternalInconsistencyError(f"half-cycle vertex touches unweighted vertex {v}")
    return out


def canonical_fm(g: Graph) -> FractionalMatching:
    """extract_fm rewritten into the canonical shape. Its value is already
    certified by the solver's cover, so it is not solved again."""
    return _canonicalize(extract_fm(g))


# ---------------------------------------------------------------------------
# Independent exhaustive oracle over the {0, 1/2, 1} assignment space.

_MAX_ORACLE_EDGES = 14


def oracle_alpha_exhaustive(g: Graph) -> HalfInt:
    """Maximum value over every feasible {0, 1/2, 1} assignment, by exact
    dynamic programming over the edges in g.edges() order; it never calls
    the solver. A state packs each vertex's remaining capacity (0, 1 or 2
    half-units) into bits 2v and 2v+1 of one int, and maps to the best
    value reaching it. A vertex's bits are cleared after its last edge, so
    states that differ only on finished vertices merge. Refuses edge sets
    above _MAX_ORACLE_EDGES (the assignment space is 3^|E|)."""
    edges = list(g.edges())
    if len(edges) > _MAX_ORACLE_EDGES:
        raise PreconditionError(
            f"{len(edges)} edges exceeds the oracle budget {_MAX_ORACLE_EDGES}"
        )
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
