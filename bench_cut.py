"""The measurement behind harness._NUMPY_MAX_N: both finishes of the
sweep's batch solve, side by side, at the small orders' batch size.

    PYTHONPATH=src python3 bench_cut.py BENCH_28.json --orders 4-30

For each order and edge probability it draws BATCHES batches of
harness._NUMPY_BATCH sampled graphs, times harness._batch_alpha2 on them
with the cut raised above the order (the numpy finish) and lowered below
it (the Python finish), best of REPEATS, and checks that both give the
same sizes. The table goes under "finish_cut" in the named JSON file,
which is created if missing; other keys are kept.
"""

import argparse
import json
import time
from fractions import Fraction
from pathlib import Path

from fracmatch import harness

PROBABILITIES = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(9, 10))
BATCHES = 4
REPEATS = 5
SEED = 11


def us_per_graph(batches: list, n: int, cut: int) -> tuple:
    """(best us per graph, sizes) of _batch_alpha2 over batches with the
    numpy finish's cut at cut."""
    harness._NUMPY_MAX_N = cut
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        sizes = [harness._batch_alpha2(rows, n) for rows in batches]
        best = min(best, time.perf_counter() - t0)
    return best / sum(map(len, batches)) * 1e6, sizes


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--orders", default="4-16", help="inclusive range, as 4-16")
    args = ap.parse_args()
    lo, hi = map(int, args.orders.split("-"))
    cut, b = harness._NUMPY_MAX_N, harness._NUMPY_BATCH
    rows_out = []
    for n in range(lo, hi + 1):
        for p in PROBABILITIES:
            spec = harness.SampleSpec(n, p.numerator, p.denominator, BATCHES * b, SEED)
            batches = [harness._batch_rows(n, harness._sample_bits(spec, i * b, (i + 1) * b))
                       for i in range(BATCHES)]
            short = 0  # graphs the greedy leaves short of k pairs
            for rows in batches:
                pair = harness._batch_greedy(rows, n)[0]
                short += int(((pair >= 0).sum(axis=1) < (rows != 0).sum(axis=1)).sum())
            python_us, python_sizes = us_per_graph(batches, n, 0)
            numpy_us, numpy_sizes = us_per_graph(batches, n, 64)
            if python_sizes != numpy_sizes:
                raise SystemExit(f"the finishes disagree at n = {n}, p = {p}")
            row = {"n": n, "p": str(p), "short_frac": round(short / (BATCHES * b), 3),
                   "python_us": round(python_us, 3), "numpy_us": round(numpy_us, 3),
                   "speedup": round(python_us / numpy_us, 3)}
            rows_out.append(row)
            print(row, flush=True)
    harness._NUMPY_MAX_N = cut
    doc = json.loads(args.out.read_text()) if args.out.exists() else {}
    doc["finish_cut"] = {
        "what": __doc__.split("\n\n")[0].replace("\n", " "),
        "batch": b, "batches": BATCHES, "repeats": REPEATS, "seed": SEED,
        "cut": cut, "unit": "us per graph side, best of repeats", "rows": rows_out,
    }
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
