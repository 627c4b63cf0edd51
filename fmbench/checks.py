"""Output checks for the sweep workloads, run outside the timed region.

    python3 fmbench/checks.py JOBS OUT

checks every sweep output listed in the JSON file JOBS and writes one
result per job to OUT. It runs as its own process after the timed
populations, so that the benchmark process stays small: a child starts as
a copy of its parent, and the kernel's peak RSS of the child counts that
copy.

Each check returns the set of graph6 keys whose rows are wrong, plus
messages. Rows are re-derived without the package's solver: graph6 is
decoded here or by networkx, and matching numbers come from networkx's
Hopcroft-Karp on the bipartite double cover, or from bulk_alpha2 (a
different algorithm: the deficiency formula over every vertex subset).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Set, Tuple

HEADER = "graph6,n,alpha_g,alpha_gc,sum,bound,satisfied,equality,family"
BOUND_OFFSET = {"basic": 0, "nonempty": 1, "isolate_free": 4}  # bound = (n + offset)/2


def half_units(text: str) -> int:
    """"7/2" -> 7, "3" -> 6."""
    if text.endswith("/2"):
        return int(text[:-2])
    return 2 * int(text)


def parse_rows(csv_text: str) -> List[List[str]]:
    lines = csv_text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("CSV header missing or changed")
    return [line.split(",") for line in lines[1:]]


def graph6_edges(text: str) -> Tuple[int, List[Tuple[int, int]]]:
    """Decode a short-form graph6 string (n <= 62): upper-triangle bits,
    column by column, six to a character."""
    n = ord(text[0]) - 63
    bits = []
    for ch in text[1:]:
        value = ord(ch) - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    pairs = [(u, v) for v in range(1, n) for u in range(v)]
    return n, [pair for pair, bit in zip(pairs, bits) if bit]


def check_stats(stats_text: str, total: int) -> Tuple[Set[str], List[str]]:
    stats = json.loads(stats_text)
    bad = set(stats["violations"]) | set(stats["unmatched_equalities"])
    messages = [f"violation {g6}" for g6 in stats["violations"]]
    messages += [f"unmatched equality {g6}" for g6 in stats["unmatched_equalities"]]
    if stats["total"] != total:
        messages.append(f"stats total {stats['total']} != {total}")
    return bad, messages


def _nx_alpha2(graph) -> int:
    """Twice the fractional matching number: the maximum matching of the
    bipartite double cover."""
    import networkx as nx

    cover = nx.Graph()
    left = [(v, 0) for v in graph.nodes]
    cover.add_nodes_from(left)
    cover.add_nodes_from((v, 1) for v in graph.nodes)
    for u, v in graph.edges:
        cover.add_edge((u, 0), (v, 1))
        cover.add_edge((v, 0), (u, 1))
    matching = nx.bipartite.hopcroft_karp_matching(cover, top_nodes=left)
    return len(matching) // 2


def check_rows_networkx(
    rows: Sequence[List[str]], bound: str, seed: int, sample: int
) -> Tuple[Set[str], List[str]]:
    """Re-derive a seeded subsample of rows with networkx."""
    import networkx as nx

    bad: Set[str] = set()
    messages: List[str] = []
    picked = random.Random(seed).sample(range(len(rows)), min(sample, len(rows)))
    for i in picked:
        g6, n, a_g, a_gc, total, b, satisfied, equality, _ = rows[i]
        graph = nx.from_graph6_bytes(g6.encode())
        want_g = _nx_alpha2(graph)
        want_gc = _nx_alpha2(nx.complement(graph))
        want_bound = graph.number_of_nodes() + BOUND_OFFSET[bound]
        want_sum = want_g + want_gc
        got = (int(n), half_units(a_g), half_units(a_gc), half_units(total), half_units(b),
               satisfied, equality)
        want = (graph.number_of_nodes(), want_g, want_gc, want_sum, want_bound,
                str(int(want_sum >= want_bound)), str(int(want_sum == want_bound)))
        if got != want:
            bad.add(g6)
            messages.append(f"networkx disagrees on {g6}: row {got}, expected {want}")
    return bad, messages


def check_enumeration(rows: Sequence[List[str]], n: int) -> Tuple[Set[str], List[str]]:
    """Every labeled graph on n vertices appears once, and its two matching
    numbers equal bulk_alpha2(n) at its mask and its complement's mask."""
    from fracmatch.bulk import bulk_alpha2

    table = bulk_alpha2(n)
    slot = {pair: j for j, pair in enumerate((u, v) for u in range(n) for v in range(u + 1, n))}
    full = (1 << len(slot)) - 1
    bad: Set[str] = set()
    messages: List[str] = []
    seen: Dict[int, str] = {}
    for g6, _, a_g, a_gc, *_ in rows:
        _, edges = graph6_edges(g6)
        mask = sum(1 << slot[e] for e in edges)
        if mask in seen:
            bad.add(g6)
            messages.append(f"{g6} listed twice")
        seen[mask] = g6
        if (half_units(a_g), half_units(a_gc)) != (int(table[mask]), int(table[full ^ mask])):
            bad.add(g6)
            messages.append(f"bulk_alpha2 disagrees on {g6}")
    if len(seen) != full + 1:
        messages.append(f"{full + 1 - len(seen)} graphs of order {n} missing")
    return bad, messages


def check_population(job: dict, verified: Set[bytes]) -> dict:
    """All checks of one sweep output: the job names its output directory,
    exit code, bound, seed, population size, and either the enumerated
    order or how many rows networkx re-derives. A CSV equal to one in
    verified (enum6 repeats its input) skips the re-derivation; a CSV that
    passes every check is added to it."""
    out, total = Path(job["out"]), job["total"]
    try:
        csv_bytes = (out / "rows.csv").read_bytes()
        rows = parse_rows(csv_bytes.decode("ascii"))
        bad, messages = check_stats((out / "stats.json").read_text(), total)
    except (OSError, ValueError, KeyError) as exc:
        return {"attempted": total, "failed": total,
                "messages": [f"unreadable sweep output (exit {job['rc']}): {exc}"]}
    if job["rc"] != 0:
        messages.append(f"sweep exited {job['rc']}")
    if len(rows) != total:
        messages.append(f"{len(rows)} rows, expected {total}")
    if csv_bytes in verified:
        more_bad, more = set(), []
    elif job.get("enumerate") is not None:
        more_bad, more = check_enumeration(rows, job["enumerate"])
    else:
        more_bad, more = check_rows_networkx(rows, job["bound"], job["seed"], job["rederive"])
    failed = len(bad | more_bad) + abs(total - len(rows))
    if job["rc"] != 0 and not failed:
        failed = total
    messages += more
    if not failed and not messages:
        verified.add(csv_bytes)
    return {"attempted": total, "failed": min(failed, total), "messages": messages}


def main(argv: List[str]) -> int:
    jobs = json.loads(Path(argv[0]).read_text())
    verified: Set[bytes] = set()
    results = [check_population(job, verified) for job in jobs]
    Path(argv[1]).write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
