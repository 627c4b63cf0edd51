"""Graph enumeration, seeded sampling, and sweep execution.

The random stream is counter-mode splitmix64: graph k of a spec draws its
per-graph seed from finalize(seed + (k+1)*GOLDEN), and edge slot j is
present iff finalize(graph_seed + (j+1)*GOLDEN) < floor(p * 2^64). Every
draw is therefore random-access (no sequential state), which is what lets
sweeps fan out over index ranges and still produce identical output for
any worker count.

Sampled and enumerated streams are built in batches of _BATCH graphs from
one (batch x slots) matrix of edge bits: numpy scatters it into adjacency
rows and, for sweeps, into graph6 keys, so no stream calls Graph.from_mask
or emit_graph6 per graph, and the memory a batch takes is bounded by its
fixed size whatever the population.

A sweep also takes each batch's complement rows, edge counts and
isolate-free flags from those arrays. Its per-graph loop is then two
hopcroft_karp solves on int rows, one verdict from ngbounds.bound_verdict
and one CSV row; a Graph is built only when an equality needs
classifying.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterator, List, Optional, Tuple

import numpy as np

from .bipartite import hopcroft_karp
from .errors import PreconditionError
from .families import classify_equality_family
from .graph import Graph, edge_slots
from .graph6 import _header
from .ngbounds import SweepRecord, SweepStats, _sweep_pairs, bound_verdict, empty_stats

GOLDEN = 0x9E3779B97F4A7C15
_M64 = (1 << 64) - 1

ENUM_DEFAULT_MAX_N = 7
ENUM_HARD_MAX_N = 8

# Graphs per batch. At n = 64 a batch's uint64 draw matrix is about 4 MB.
_BATCH = 256


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

def _bit_batches(
    source: Callable[[int, int], np.ndarray], lo: int, hi: int, batch: int = _BATCH
) -> Iterator[np.ndarray]:
    for start in range(lo, hi, batch):
        yield source(start, min(start + batch, hi))


def _batch_rows(n: int, bits: np.ndarray) -> np.ndarray:
    """(B, n) uint64 adjacency rows, as Graph.from_mask builds them, of each
    row of bits."""
    b = len(bits)
    u, v = np.triu_indices(n, 1)
    adj = np.zeros((b, n, n), dtype=np.uint8)
    adj[:, u, v] = bits
    adj[:, v, u] = bits
    packed = np.zeros((b, n, 8), dtype=np.uint8)
    packed[:, :, : (n + 7) // 8] = np.packbits(adj, axis=2, bitorder="little")
    return packed.view("<u8").reshape(b, n)


def _batch_graphs(n: int, bits: np.ndarray) -> List[Graph]:
    """The graphs Graph.from_mask builds from each row of bits."""
    return [Graph(n, rows) for rows in _batch_rows(n, bits).tolist()]


def _batch_keys(n: int, bits: np.ndarray) -> List[str]:
    """emit_graph6 of each row of bits. The graph6 bit of slot (u, v) is
    bit 5 - p % 6 of character p // 6, where p = v(v-1)/2 + u; it goes to
    column 8 (p // 6) + 2 + p % 6, so packing each 8 columns big-endian
    gives the character's value with its top two bits clear."""
    b = len(bits)
    u, v = np.triu_indices(n, 1)
    p = v * (v - 1) // 2 + u
    width = (len(p) + 5) // 6
    data = np.zeros((b, 8 * width), dtype=np.uint8)
    data[:, 8 * (p // 6) + 2 + p % 6] = bits
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
    """Edge bits of masks lo..hi-1: mask k has slot j iff bit j of k is set."""
    slots = np.arange(n * (n - 1) // 2, dtype=np.uint64)
    masks = np.arange(lo, hi, dtype=np.uint64)
    return (masks[:, None] >> slots & np.uint64(1)).astype(np.uint8)


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
        frac = Fraction(p.strip())
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
    """Vectorized edge bits for draws lo..hi-1."""
    if not 0 <= lo <= hi <= spec.count:
        raise PreconditionError(f"range {lo}..{hi} outside 0..{spec.count}")
    idx = np.arange(lo, hi, dtype=np.uint64)
    gs = _splitmix64_np(np.uint64(spec.seed) + (idx + np.uint64(1)) * np.uint64(GOLDEN))
    j = (np.arange(len(edge_slots(spec.n)), dtype=np.uint64) + np.uint64(1)) * np.uint64(GOLDEN)
    r = _splitmix64_np(gs[:, None] + j[None, :])
    thresh = spec.threshold
    if thresh >= 1 << 64:
        return np.ones(r.shape, dtype=np.uint8)
    return (r < np.uint64(thresh)).view(np.uint8)


def sample_masks(spec: SampleSpec, lo: int, hi: int) -> List[int]:
    """Vectorized edge masks for draws lo..hi-1."""
    packed = np.packbits(_sample_bits(spec, lo, hi), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def sample_graphs(spec: SampleSpec, lo: int = 0, hi: Optional[int] = None,
                  batch: int = _BATCH) -> Iterator[Graph]:
    if hi is None:
        hi = spec.count
    for bits in _bit_batches(partial(_sample_bits, spec), lo, hi, batch):
        yield from _batch_graphs(spec.n, bits)


# ---------------------------------------------------------------------------
# Sweep execution with optional process fan-out.


def resolve_workers(workers: Optional[int] = None) -> int:
    if workers is None:
        raw = os.environ.get("FRACMATCH_WORKERS", "1")
        try:
            workers = int(raw)
        except ValueError:
            raise PreconditionError(f"FRACMATCH_WORKERS={raw!r} is not an integer")
    if workers < 1:
        raise PreconditionError(f"worker count must be positive, got {workers}")
    return workers


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


def _sweep_records(n: int, bits: np.ndarray, which: str) -> Iterator[SweepRecord]:
    """The sweep kernel: one SweepRecord per row of bits. The batch's
    complement rows, edge counts and isolate-free flags come from its row
    and bit arrays at once: complement row v is the rows' complement masked
    to the other vertices, Gc has slots - m edges, and a graph is
    isolate-free iff no row is 0. Each graph then costs two solves on int
    rows, converted one row at a time, plus a Graph only when an equality
    is classified."""
    g_rows = _batch_rows(n, bits)
    full = (1 << n) - 1
    gc_rows = ~g_rows & np.array([full ^ 1 << v for v in range(n)], dtype=np.uint64)
    slots = bits.shape[1]
    edges = bits.sum(axis=1).tolist()
    g_free = (g_rows != 0).all(axis=1).tolist()
    gc_free = (gc_rows != 0).all(axis=1).tolist()
    for i, key in enumerate(_batch_keys(n, bits)):
        rows, m = g_rows[i].tolist(), edges[i]
        a_g = hopcroft_karp(rows, n).size
        a_gc = hopcroft_karp(gc_rows[i].tolist(), n).size
        v = bound_verdict(which, n, a_g, a_gc, m, slots - m, g_free[i], gc_free[i])
        label = classify_equality_family(Graph(n, rows), which) if v.equality else None
        yield key, n, a_g, a_gc, v, label


def _sweep_task(args) -> Tuple[SweepStats, List[str]]:
    n, source, which, lo, hi = args
    records = (
        record
        for bits in _bit_batches(source, lo, hi)
        for record in _sweep_records(n, bits, which)
    )
    return _sweep_pairs(records, which)


def run_sweep(
    which: str,
    *,
    enumerate_n: Optional[int] = None,
    spec: Optional[SampleSpec] = None,
    allow_large: bool = False,
    workers: Optional[int] = None,
) -> Tuple[SweepStats, List[str]]:
    """Evaluate one bound over an enumerated or sampled stream. Rows come
    back sorted by graph6 key, so output is identical for any worker count."""
    if (enumerate_n is None) == (spec is None):
        raise PreconditionError("exactly one of enumerate_n and spec is required")
    requested = resolve_workers(workers)
    if enumerate_n is not None:
        _check_enumeration(enumerate_n, allow_large)
        total = enumeration_count(enumerate_n)
        n, source = enumerate_n, partial(_enumeration_bits, enumerate_n)
    else:
        total = spec.count
        n, source = spec.n, partial(_sample_bits, spec)
    workers, ranges = plan_sweep(total, requested, usable_cpus())
    tasks = [(n, source, which, lo, hi) for lo, hi in ranges]
    stats = empty_stats(which)
    rows: List[str] = []
    if workers == 1:
        results = map(_sweep_task, tasks)
    else:
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
