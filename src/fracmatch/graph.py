"""Simple undirected graphs on at most 64 vertices, stored as bit rows."""

from __future__ import annotations

from functools import lru_cache
from typing import FrozenSet, Iterable, Iterator, List, Sequence, Tuple

from .errors import InternalInconsistencyError

MAX_VERTICES = 64

VertexSet = FrozenSet[int]


def bits(x: int) -> Iterator[int]:
    """Yield the indices of the set bits of x in ascending order."""
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def mask_of(vs: Iterable[int]) -> int:
    """The int mask with bit v set for each v in vs; the inverse of bits."""
    m = 0
    for v in vs:
        m |= 1 << v
    return m


def check_matching(rows: Sequence[int], pair_left: Sequence[int], size: int) -> None:
    """Check the primal side of a matching size: pair_left[u] is -1 or a
    right vertex v with rows[u] >> v & 1, no v is taken twice, and size
    left vertices are paired. Raises InternalInconsistencyError otherwise.
    The solver's cover proves the matching number is at most size; this
    proves it is at least size."""
    if len(pair_left) != len(rows):
        raise InternalInconsistencyError(
            f"{len(pair_left)} pairs for {len(rows)} left vertices"
        )
    taken = 0
    for u, v in enumerate(pair_left):
        if v == -1:
            continue
        if v < 0 or not rows[u] >> v & 1:
            raise InternalInconsistencyError(f"pair ({u}, {v}) is not an edge")
        if taken >> v & 1:
            raise InternalInconsistencyError(f"right vertex {v} is paired twice")
        taken |= 1 << v
    if taken.bit_count() != size:
        raise InternalInconsistencyError(f"{taken.bit_count()} pairs, but size {size}")


@lru_cache(maxsize=None)
def edge_slots(n: int) -> Tuple[Tuple[int, int], ...]:
    """Vertex pairs (u, v), u < v, in the lexicographic slot order used by
    edge masks: (0,1), (0,2), ..., (0,n-1), (1,2), ..."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


class Graph:
    """Immutable simple graph; adjacency row of vertex v is the int mask
    of its neighbours. 0 <= n <= 64. The hash, the complement and
    fracmatch.fm's solve of the double cover are kept once made, outside
    equality and repr."""

    __slots__ = ("n", "_rows", "_hash", "_solve", "_complement")

    def __init__(self, n: int, rows: List[int]):
        if not 0 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside supported range 0..{MAX_VERTICES}")
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        self.n = n
        self._rows = tuple(rows)
        self._hash = self._solve = self._complement = None

    @staticmethod
    def from_edges(n: int, edges: Iterable[Tuple[int, int]]) -> "Graph":
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of bounds for n={n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return Graph(n, rows)

    @staticmethod
    def from_mask(n: int, mask: int) -> "Graph":
        """Graph whose edge set is the set bits of mask in slot order."""
        slots = edge_slots(n)
        if not 0 <= mask < (1 << len(slots)):
            raise ValueError(f"edge mask {mask} out of range for n={n}")
        rows = [0] * n
        m = mask
        while m:
            b = m & -m
            u, v = slots[b.bit_length() - 1]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            m ^= b
        return Graph(n, rows)

    def to_mask(self) -> int:
        mask = 0
        for i, (u, v) in enumerate(edge_slots(self.n)):
            if self._rows[u] >> v & 1:
                mask |= 1 << i
        return mask

    @property
    def rows(self) -> Tuple[int, ...]:
        """All adjacency rows; as left rows over right copies of the same
        vertices they are the graph's bipartite double cover."""
        return self._rows

    def row(self, v: int) -> int:
        return self._rows[v]

    def adj(self, u: int, v: int) -> bool:
        return bool(self._rows[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self._rows[v].bit_count()

    def edges(self) -> Iterator[Tuple[int, int]]:
        for u in range(self.n):
            for v in bits(self._rows[u] >> (u + 1) << (u + 1)):
                yield (u, v)

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self._rows) // 2

    def complement(self) -> "Graph":
        """The complement, made on first use and kept. It keeps no link
        back, so no reference cycle forms."""
        if self._complement is None:
            full = (1 << self.n) - 1
            rows = [full & ~r & ~(1 << v) for v, r in enumerate(self._rows)]
            self._complement = Graph(self.n, rows)
        return self._complement

    def isolated_vertices(self) -> VertexSet:
        return frozenset(v for v in range(self.n) if not self._rows[v])

    def plus_edge(self, u: int, v: int) -> "Graph":
        if u == v or not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"bad edge ({u},{v}) for n={self.n}")
        rows = list(self._rows)
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        return Graph(self.n, rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self._rows == other._rows

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.n, self._rows))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={list(self.edges())})"
