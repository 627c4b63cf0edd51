"""Graph enumeration, seeded sampling, and sweep execution.

The random stream is counter-mode splitmix64: graph k of a spec draws its
per-graph seed from finalize(seed + (k+1)*GOLDEN), and edge slot j is
present iff finalize(graph_seed + (j+1)*GOLDEN) < floor(p * 2^64). Every
draw is therefore random-access (no sequential state), which is what lets
sweeps fan out over index ranges and still produce identical output for
any worker count.

Sampled and enumerated streams are built in batches of _BATCH graphs
(_NUMPY_BATCH for a sweep of order up to _NUMPY_MAX_N) from one
(batch x slots + 1) uint8 matrix of edge bits, its last column zero: numpy
gathers it, through one cached index map per order, into adjacency rows
and, for sweeps, into graph6 keys, so no stream calls Graph.from_mask or
emit_graph6 per graph, and the memory a batch takes is bounded by its
fixed size whatever the population. A sample draws its bits in blocks of
_BLOCK slot columns, so its uint64 draws never span the whole batch.

A sweep also takes each batch's complement rows, edge counts and
isolate-free flags from those arrays, and works per batch: one batch
solve per side (_batch_alpha2), then one verdict (bounds.bound_verdict)
and one tally of counts and CSV rows (bounds.tally) per batch, on
columns. The batch solve runs bipartite's greedy pass on all the side's
rows at once in numpy: a graph whose greedy matching pairs every
non-isolated vertex is done. The graphs left short get one of two
finishes, chosen by order alone. Up to _NUMPY_MAX_N they run
Hopcroft-Karp phases together in numpy, one augmenting path per graph and
phase, until a phase finds no path; that last search's reach is each
graph's König cover, checked in numpy. Above it each gets the solver's
own finish in Python, the length-3 pass and then, if still short, the
augmenting search, and a graph still short after that has its size
proved by the solver's König cover. Every matching the solve ends with
passes a primal check in numpy before its size is read. A
Graph is built only when an equality needs classifying. An enumeration
holds every complement too, so it runs over the masks whose top slot bit
is clear and reads two rows, the graph's and its complement's, off each
pair of solves: each enumerated graph costs one solve, shared with its
complement.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .bipartite import _finish, konig_cover
from .bounds import SweepStats, bound_verdict, check_sum_order, empty_stats, tally
from .errors import InternalInconsistencyError, PreconditionError
from .graph import Graph, edge_slots
from .graph6 import _header, emit_graph6

GOLDEN = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1

ENUM_DEFAULT_MAX_N = 7
ENUM_HARD_MAX_N = 8

# Graphs per batch. At n = 64 a batch's edge bits take about 0.5 MB.
_BATCH = 256
# Slot columns per block of a sampled draw: a 256-graph block's uint64
# draws and their scratch copy take 0.5 MB, against 8 MB for all 2,016
# columns at n = 64.
_BLOCK = 128
# Sweeps of order up to _NUMPY_MAX_N finish their short graphs in numpy,
# in batches of _NUMPY_BATCH graphs that spread numpy's per-call cost.
# The cut is measured by bench_cut.py: past it, numpy's finish stops
# winning at p = 1/4 (even at n = 15, slower from n = 16).
_NUMPY_MAX_N = 14
_NUMPY_BATCH = 2048


def splitmix64(z: int) -> int:
    z &= _M64
    z ^= z >> 30
    z = (z * 0xBF58476D1CE4E5B9) & _M64
    z ^= z >> 27
    z = (z * 0x94D049BB133111EB) & _M64
    z ^= z >> 31
    return z


def _splitmix64_np(z: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer on a fresh uint64 array, in place: each shift
    goes into one scratch array."""
    t = np.empty_like(z)
    z ^= np.right_shift(z, np.uint64(30), out=t)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, np.uint64(27), out=t)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, np.uint64(31), out=t)
    return z


# ---------------------------------------------------------------------------
# Batches of edge bits: row k, column j is 1 iff graph k has edge slot j.
# Each batch has one zero column after its slots; the index maps below send
# every position that holds no edge slot to that column.

def _bit_batches(
    source: Callable[[int, int], np.ndarray], lo: int, hi: int, batch: int = _BATCH
) -> Iterator[np.ndarray]:
    for start in range(lo, hi, batch):
        yield source(start, min(start + batch, hi))


@lru_cache(maxsize=None)
def _place(n: int) -> np.ndarray:
    """The bit of each vertex 0..n-1, as uint64; cached per order and
    read-only."""
    place = np.left_shift(np.uint64(1), np.arange(n, dtype=np.uint64))
    place.flags.writeable = False
    return place


@lru_cache(maxsize=None)
def _row_map(n: int) -> np.ndarray:
    """Slot index of each (u, v) position of n padded adjacency rows; the
    diagonal and the padding read the zero column. Rows are padded to a
    power of two bytes, so that each packs into one unsigned word. The map
    is cached per order, so it is read-only."""
    slots = n * (n - 1) // 2
    width = 8 << max(0, (n - 1).bit_length() - 3)
    u, v = np.triu_indices(n, 1)
    index = np.full((n, width), slots, dtype=np.intp)
    index[u, v] = index[v, u] = np.arange(slots)
    index.flags.writeable = False
    return index


def _batch_rows(n: int, bits: np.ndarray) -> np.ndarray:
    """(B, n) uint64 adjacency rows, as Graph.from_mask builds them, of each
    row of bits."""
    adj = np.take(bits, _row_map(n), axis=1)
    packed = np.packbits(adj, axis=2, bitorder="little")
    return packed.view(f"<u{packed.shape[2]}")[:, :, 0].astype("<u8", copy=False)


def _batch_graphs(n: int, bits: np.ndarray) -> List[Graph]:
    """The graphs Graph.from_mask builds from each row of bits."""
    return [Graph(n, rows) for rows in _batch_rows(n, bits).tolist()]


@lru_cache(maxsize=None)
def _key_map(n: int) -> np.ndarray:
    """Slot index of each graph6 data bit. The graph6 bit of slot (u, v) is
    bit 5 - p % 6 of character p // 6, where p = v(v-1)/2 + u; it sits at
    column 8 (p // 6) + 2 + p % 6, so packing each 8 columns big-endian
    gives the character's value with its top two bits clear. The two top
    columns of each character and the tail past the last slot read the
    zero column. Cached per order and read-only."""
    slots = n * (n - 1) // 2
    u, v = np.triu_indices(n, 1)
    slot_at = np.empty(slots, dtype=np.intp)
    slot_at[v * (v - 1) // 2 + u] = np.arange(slots)
    col = np.arange(8 * ((slots + 5) // 6))
    p = 6 * (col // 8) + col % 8 - 2
    holds = (col % 8 >= 2) & (p < slots)
    index = np.full(len(col), slots, dtype=np.intp)
    index[holds] = slot_at[p[holds]]
    index.flags.writeable = False
    return index


def _batch_keys(n: int, bits: np.ndarray) -> List[str]:
    """emit_graph6 of each row of bits."""
    b, index = len(bits), _key_map(n)
    width = len(index) // 8
    data = np.take(bits, index, axis=1)
    text = (np.packbits(data, axis=1) + 63).tobytes().decode("ascii")
    head = _header(n)
    return [head + text[i * width : (i + 1) * width] for i in range(b)]


# ---------------------------------------------------------------------------
# Enumeration.


def enumeration_count(n: int) -> int:
    return 1 << (n * (n - 1) // 2)


def _check_enumeration(n: int, allow_large: bool) -> None:
    """Enumeration is guarded at n <= 7 by default; n = 8 (2^28 graphs)
    needs allow_large."""
    limit = ENUM_HARD_MAX_N if allow_large else ENUM_DEFAULT_MAX_N
    if n > limit:
        raise PreconditionError(
            f"enumeration of n={n} exceeds the guard (limit {limit})"
        )
    if n < 0:
        raise PreconditionError("negative vertex count")


def _enumeration_bits(n: int, lo: int, hi: int) -> np.ndarray:
    """Edge bits of masks lo..hi-1: mask k has slot j iff bit j of k is set.
    The zero column reads bit slots of k, clear in every mask. The bits are
    unpacked from each mask's bytes, so no (batch x slots) uint64 array is
    made."""
    masks = np.arange(lo, hi, dtype="<u8")[:, None].view(np.uint8)
    return np.unpackbits(masks, axis=1, bitorder="little")[:, : n * (n - 1) // 2 + 1]


def enumerate_graphs(n: int, allow_large: bool = False) -> Iterator[Graph]:
    """All labeled graphs on n vertices in ascending edge-mask order."""
    _check_enumeration(n, allow_large)
    batches = _bit_batches(partial(_enumeration_bits, n), 0, enumeration_count(n))
    return (g for bits in batches for g in _batch_graphs(n, bits))


# ---------------------------------------------------------------------------
# Seeded sampling.


@dataclass(frozen=True)
class SampleSpec:
    n: int
    p_num: int
    p_den: int
    count: int
    seed: int

    def __post_init__(self) -> None:
        if not 2 <= self.n <= 64:
            raise PreconditionError(f"sample order {self.n} outside 2..64")
        if self.p_den <= 0 or not 0 <= self.p_num <= self.p_den:
            raise PreconditionError(
                f"edge probability {self.p_num}/{self.p_den} outside [0, 1]"
            )
        if self.count < 0:
            raise PreconditionError("negative sample count")
        if not 0 <= self.seed <= _M64:
            raise PreconditionError("seed must fit in 64 bits")

    @property
    def threshold(self) -> int:
        return (self.p_num << 64) // self.p_den

    @classmethod
    def parse(cls, text: str) -> "SampleSpec":
        """Parse "n,p,count,seed" with p a fraction or decimal string."""
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError(f"expected n,p,count,seed, got {text!r}")
        n, p, count, seed = parts
        p = p.strip()
        try:
            frac = Fraction(p)
        except ZeroDivisionError:
            raise ValueError(f"edge probability {p!r} has a zero denominator") from None
        if not 0 <= frac <= 1:
            raise ValueError(f"edge probability {p!r} outside [0, 1]")
        return cls(
            n=int(n), p_num=frac.numerator, p_den=frac.denominator,
            count=int(count), seed=int(seed, 0),
        )


def graph_seed(spec: SampleSpec, index: int) -> int:
    return splitmix64(spec.seed + (index + 1) * GOLDEN)


def sample_graph(spec: SampleSpec, index: int) -> Graph:
    """Scalar reference path for one draw; the batch path must agree."""
    if not 0 <= index < spec.count:
        raise PreconditionError(f"index {index} outside 0..{spec.count - 1}")
    gs = graph_seed(spec, index)
    thresh = spec.threshold
    mask = 0
    for j in range(len(edge_slots(spec.n))):
        if splitmix64(gs + (j + 1) * GOLDEN) < thresh:
            mask |= 1 << j
    return Graph.from_mask(spec.n, mask)


def _sample_bits(spec: SampleSpec, lo: int, hi: int) -> np.ndarray:
    """Vectorized edge bits for draws lo..hi-1, with the zero column. The
    draws of each block of _BLOCK slot columns are compared straight into
    the output."""
    if not 0 <= lo <= hi <= spec.count:
        raise PreconditionError(f"range {lo}..{hi} outside 0..{spec.count}")
    slots = len(edge_slots(spec.n))
    out = np.zeros((hi - lo, slots + 1), dtype=bool)
    bits, thresh = out[:, :slots], spec.threshold
    if thresh >= 1 << 64:
        bits[:] = True
        return out.view(np.uint8)
    idx = np.arange(lo, hi, dtype=np.uint64)
    gs = _splitmix64_np(np.uint64(spec.seed) + (idx + np.uint64(1)) * np.uint64(GOLDEN))
    j = (np.arange(slots, dtype=np.uint64) + np.uint64(1)) * np.uint64(GOLDEN)
    # No block's draws stay bound past its compare, so no two are alive.
    for c in range(0, slots, _BLOCK):
        np.less(_splitmix64_np(gs[:, None] + j[c : c + _BLOCK]), np.uint64(thresh),
                out=bits[:, c : c + _BLOCK])
    return out.view(np.uint8)


def sample_masks(spec: SampleSpec, lo: int, hi: int) -> List[int]:
    """Vectorized edge masks for draws lo..hi-1 (the zero column adds no
    bit)."""
    packed = np.packbits(_sample_bits(spec, lo, hi), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def sample_graphs(spec: SampleSpec, lo: int = 0, hi: Optional[int] = None,
                  batch: int = _BATCH) -> Iterator[Graph]:
    if hi is None:
        hi = spec.count
    for bits in _bit_batches(partial(_sample_bits, spec), lo, hi, batch):
        yield from _batch_graphs(spec.n, bits)


# ---------------------------------------------------------------------------
# Batch solves: 2*alpha' of each row of a (B, n) uint64 batch of graphs.


def _batch_greedy(rows: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """hopcroft_karp's greedy pass on every graph of the batch at once, in
    n vector steps: left vertex u, ascending, takes its lowest free right
    neighbour. Returns the (B, n) pair array (-1 for a free left vertex)
    and each graph's mask of free right vertices."""
    free_r = np.full(len(rows), (1 << n) - 1, dtype=np.uint64)
    taken = np.empty((n, len(rows)), dtype=np.uint64)
    for u, row in enumerate(rows.T):
        c = row & free_r
        np.bitwise_and(c, -c, out=taken[u])
        free_r ^= taken[u]
    # frexp reads a power of two's exponent exactly, and gives 0 for 0.
    return np.frexp(taken.T)[1] - 1, free_r


def _popcount(x: np.ndarray) -> np.ndarray:
    """The number of set bits of each uint64 of x (np.bitwise_count came in
    numpy 2.0)."""
    return np.unpackbits(x.view(np.uint8)).reshape(len(x), 64).sum(axis=1)


def _check_batch(rows: np.ndarray, pair: np.ndarray, size: np.ndarray, n: int) -> None:
    """The primal check of a batch solve, per graph: each pair is -1 or a
    right vertex adjacent to its left one, no right vertex is paired twice,
    and size left vertices are paired. With the solve's cover this proves
    every size exact. Raises InternalInconsistencyError naming the first
    graph that fails."""
    paired = pair >= 0
    ok = ((pair >= -1) & (pair < n)).all(axis=1)
    shift = np.clip(pair, 0, 63).astype(np.uint64)
    bit = np.where(paired, np.left_shift(np.uint64(1), shift), np.uint64(0))
    union = np.bitwise_or.reduce(bit, axis=1)
    ok &= ((rows & bit) == bit).all(axis=1)
    ok &= paired.sum(axis=1) == size
    # The union has one bit per distinct right vertex.
    ok &= _popcount(union) == size
    if not ok.all():
        i = int(np.argmin(ok))
        raise _named(n, rows[i].tolist(), f"matching of size {size[i]} fails its primal check")


def _named(n: int, row: List[int], message: str) -> InternalInconsistencyError:
    """An error of message, with the graph6 of the graph of rows row in
    front."""
    return InternalInconsistencyError(f"{emit_graph6(Graph(n, row))}: {message}")


def _inverse(pair: np.ndarray, place: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The right partners (-1 for a free right vertex) and the free left
    mask of each graph of a (B, n) pair array."""
    pair_r = np.full(pair.shape, -1, dtype=pair.dtype)
    gi, u = np.nonzero(pair >= 0)
    pair_r[gi, pair[gi, u]] = u
    return pair_r, np.bitwise_or.reduce(np.where(pair < 0, place, np.uint64(0)), axis=1)


def _scalar_finish(rows: np.ndarray, pair: np.ndarray, free_r: np.ndarray,
                   n: int) -> Tuple[List[List[int]], List[int]]:
    """hopcroft_karp's _finish on each graph in turn, in Python; a size
    still below k must pass konig_cover, whose error is raised again naming
    the graph. Returns the pair lists and the sizes."""
    pair_r, free_l = _inverse(pair, _place(n))
    pair_l, sizes = pair.tolist(), []
    for r, pl, pr, fr, fl in zip(rows.tolist(), pair_l, pair_r.tolist(), free_r.tolist(),
                                 free_l.tolist()):
        fr, fl = _finish(r, pl, pr, fr, fl)
        if fl.bit_count() > r.count(0):
            try:
                konig_cover(r, pr, fr, fl)
            except InternalInconsistencyError as e:
                raise _named(n, r, str(e)) from None
        sizes.append(n - fl.bit_count())
    return pair_l, sizes


def _lowest(x: np.ndarray) -> np.ndarray:
    """The index of each nonzero uint64's lowest set bit."""
    return np.frexp(x & -x)[1] - 1


def _phase(rows: np.ndarray, pair_l: np.ndarray, pair_r: np.ndarray, free_l: np.ndarray,
           free_r: np.ndarray, place: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Hopcroft-Karp phase on each graph, with one augmenting path, in
    place. A layered search on bit rows starts from the free left vertices;
    a graph stops at the first layer that meets a free right vertex x,
    the lowest of that layer. The traceback then takes, layer by layer
    back to a root, the lowest left vertex of the layer adjacent to x (as
    the rows are symmetric, x's left neighbours are rows[x]), pairs it with
    x, and moves x to its old partner. Returns which graphs augmented and
    the left and right masks each search reached."""
    mate = np.where(pair_r >= 0, place[pair_r], np.uint64(0))
    frontier, reached_l = free_l, free_l.copy()
    reached_r, hit = np.zeros_like(free_l), np.zeros_like(free_l)
    depth = np.zeros(len(rows), dtype=np.intp)
    layers = []
    while frontier.any():
        layers.append(frontier)
        on = (frontier[:, None] & place) != 0
        new = np.bitwise_or.reduce(np.where(on, rows, np.uint64(0)), axis=1) & ~reached_r
        reached_r |= new
        meet = new & free_r
        stop = np.flatnonzero(meet)
        hit[stop] = meet[stop] & -meet[stop]
        depth[stop] = len(layers) - 1
        new[stop] = 0
        on = (new[:, None] & place) != 0
        frontier = np.bitwise_or.reduce(np.where(on, mate, np.uint64(0)), axis=1)
        reached_l |= frontier
    found = np.flatnonzero(hit)
    if len(found):
        x, d = _lowest(hit[found]), depth[found]
        for k in range(int(d.max()), -1, -1):
            at = np.flatnonzero(d >= k)
            g, xs = found[at], x[at]
            u = _lowest(rows[g, xs] & layers[k][g])
            x[at] = pair_l[g, u]
            pair_l[g, u], pair_r[g, xs] = xs, u
        free_l[found] ^= place[u]
        free_r[found] ^= hit[found]
    return hit != 0, reached_l, reached_r


def _check_reach(rows: np.ndarray, free_r: np.ndarray, reached_l: np.ndarray,
                 reached_r: np.ndarray, size: np.ndarray, n: int) -> None:
    """The dual check of a batch finish, per graph: the cover of the
    unreached left and the reached right vertices of a search that found
    no augmenting path. It must reach no free right vertex, hold every
    edge of a reached left vertex on its right side, and number size
    vertices; then it is a vertex cover as large as the matching, which
    is therefore maximum. Raises InternalInconsistencyError naming the
    first graph that fails."""
    place = _place(n)
    meets = (reached_r & free_r) != 0
    open_ = (((rows & ~reached_r[:, None]) != 0) & ((reached_l[:, None] & place) != 0)).any(axis=1)
    cover = n - _popcount(reached_l) + _popcount(reached_r)
    bad = meets | open_ | (cover != size)
    if bad.any():
        i = int(np.argmax(bad))
        if meets[i]:
            message = f"matching of size {size[i]} has an augmenting path"
        elif open_[i]:
            message = f"cover of size {cover[i]} misses an edge"
        else:
            message = f"cover of size {cover[i]} does not certify matching size {size[i]}"
        raise _named(n, rows[i].tolist(), message)


def _numpy_finish(rows: np.ndarray, pair: np.ndarray, free_r: np.ndarray,
                  n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Finish the greedy matchings of a batch in numpy: _phase on every
    graph until its search finds no augmenting path, then _check_reach on
    that last search's reach. Returns the pair array and the sizes. The
    traceback reads a right vertex's left neighbours off its own row, so
    this serves the sweep's symmetric rows only."""
    place = _place(n)
    pair_r, free_l = _inverse(pair, place)
    reached_l, reached_r = np.empty_like(free_l), np.empty_like(free_l)
    todo = np.arange(len(rows))
    while len(todo):
        sub = [a[todo] for a in (pair, pair_r, free_l, free_r)]
        grew, reached_l[todo], reached_r[todo] = _phase(rows[todo], *sub, place)
        pair[todo], pair_r[todo], free_l[todo], free_r[todo] = sub
        todo = todo[grew]
    size = n - _popcount(free_l)
    _check_reach(rows, free_r, reached_l, reached_r, size, n)
    return pair, size


def _batch_alpha2(rows: np.ndarray, n: int) -> List[int]:
    """2*alpha' of each graph of a (B, n) uint64 batch of adjacency rows.
    A graph with k non-isolated vertices has 2*alpha' <= k, since their
    left copies cover the double cover; so a matching of k pairs settles
    it. The batch greedy settles most dense graphs. The graphs it leaves
    short get _numpy_finish up to order _NUMPY_MAX_N and _scalar_finish
    above it, where numpy's phases, one path per graph, cost more than
    Python's search on the sparse sides. Both prove every size short of k
    by a König cover, and every result passes _check_batch."""
    pair, free_r = _batch_greedy(rows, n)
    size = (pair >= 0).sum(axis=1)
    short = np.flatnonzero(size < (rows != 0).sum(axis=1))
    if len(short):
        finish = _numpy_finish if n <= _NUMPY_MAX_N else _scalar_finish
        pair[short], size[short] = finish(rows[short], pair[short], free_r[short], n)
    _check_batch(rows, pair, size, n)
    return size.tolist()


# ---------------------------------------------------------------------------
# Sweep execution with optional process fan-out.


def _chunk_ranges(total: int, pieces: int) -> List[Tuple[int, int]]:
    if total == 0:
        return []
    pieces = max(1, min(pieces, total))
    step = math.ceil(total / pieces)
    return [(lo, min(lo + step, total)) for lo in range(0, total, step)]


def usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def plan_sweep(total: int, requested: int, cpus: int) -> Tuple[int, List[Tuple[int, int]]]:
    """Chunk ranges for a sweep of total graphs and the number of worker
    processes to run them on: the requested count clamped to the usable CPUs
    and to the number of chunks. 1 means no pool, as for an empty population."""
    workers = min(requested, cpus)
    ranges = _chunk_ranges(total, workers * 4)
    return max(1, min(workers, len(ranges))), ranges


def _equality_label(n: int, rows: List[int], which: str):
    # Imported at the first equality, not at start-up: sampled sweeps almost
    # never meet one (0 of 18,000 sparse30 graphs did).
    from .families import classify_equality_family

    return classify_equality_family(Graph(n, rows), which)


def _sweep_task(args) -> Tuple[SweepStats, List[str]]:
    """The sweep kernel on graphs lo..hi-1 of source. Per batch, complement
    row v is the rows' complement masked to the other vertices, Gc has
    slots - m edges, and a graph is isolate-free iff no row is 0. Each
    side of a batch, with paired the complements (the row's slot bits
    flipped) a second one, gets one verdict and one tally on columns."""
    n, source, which, paired, lo, hi = args
    stats, rows, tails = empty_stats(which), [], {}
    batch = _NUMPY_BATCH if n <= _NUMPY_MAX_N else _BATCH
    slots = n * (n - 1) // 2
    # A complement's bits flip the slot columns, never the zero column.
    flip = (np.arange(slots + 1) < slots).view(np.uint8)
    for bits in _bit_batches(source, lo, hi, batch):
        g_rows = _batch_rows(n, bits)
        gc_rows = ~g_rows & np.array([(1 << n) - 1 ^ 1 << v for v in range(n)], dtype=np.uint64)
        m = bits.sum(axis=1)
        g_free, gc_free = (g_rows != 0).all(axis=1), (gc_rows != 0).all(axis=1)
        a_g, a_gc = _batch_alpha2(g_rows, n), _batch_alpha2(gc_rows, n)
        sides = [(_batch_keys(n, bits), a_g, a_gc, m, g_free, gc_free, g_rows)]
        if paired:
            sides.append((_batch_keys(n, bits ^ flip), a_gc, a_g, slots - m, gc_free, g_free, gc_rows))
        for keys, x, y, m_x, x_free, y_free, x_rows in sides:
            v = bound_verdict(which, n, np.array(x), np.array(y), m_x, slots - m_x, x_free, y_free)
            part, part_rows = tally(
                which, n, keys, x, y, v,
                lambda i: _equality_label(n, x_rows[i].tolist(), which), tails,
            )
            stats = stats.merge(part)
            rows += part_rows
    return stats, rows


def run_sweep(
    which: str,
    *,
    enumerate_n: Optional[int] = None,
    spec: Optional[SampleSpec] = None,
    allow_large: bool = False,
    workers: int = 1,
) -> Tuple[SweepStats, List[str]]:
    """Evaluate one bound over an enumerated or sampled stream. An
    enumeration runs over the masks whose top slot bit is clear, each
    paired with its complement, so every graph is solved once. Rows come
    back sorted by graph6 key, so output is identical for any worker count."""
    if (enumerate_n is None) == (spec is None):
        raise PreconditionError("exactly one of enumerate_n and spec is required")
    if workers < 1:
        raise PreconditionError(f"worker count must be positive, got {workers}")
    if enumerate_n is not None:
        _check_enumeration(enumerate_n, allow_large)
        check_sum_order(enumerate_n)
        total = enumeration_count(enumerate_n) // 2
        n, source, paired = enumerate_n, partial(_enumeration_bits, enumerate_n), True
    else:
        total = spec.count
        n, source, paired = spec.n, partial(_sample_bits, spec), False
    workers, ranges = plan_sweep(total, workers, usable_cpus())
    tasks = [(n, source, which, paired, lo, hi) for lo, hi in ranges]
    stats = empty_stats(which)
    rows: List[str] = []
    if workers == 1:
        results = map(_sweep_task, tasks)
    else:
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=workers)
        try:
            results = list(pool.map(_sweep_task, tasks))
        finally:
            pool.shutdown()
    for part_stats, part_rows in results:
        stats = stats.merge(part_stats)
        rows.extend(part_rows)
    rows.sort()
    return stats, rows
