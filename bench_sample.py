"""A long sampled n = 64 CLI sweep and the sampling stage alone, a parent
checkout against this tree, written under "sample64" in a JSON file
beside this script.

    git archive PARENT_REV | tar -x -C /path/to/parent
    python3 bench_sample.py /path/to/parent --out BENCH_29.json --seeds 2901-2910

Each seed runs `python3 -m fracmatch.cli sweep --sample 64,1/2,20000,SEED
--bound isolate_free --workers 1` once in each tree, from its own src/,
and takes the process's wall time and peak RSS (from os.wait4). The
pairs alternate and are summarised by bench_ab.py's code; both trees'
stdout must agree. The stage table times harness._sample_bits alone in
each tree, in a fresh interpreter: best of REPEATS over BATCHES batches of
256 graphs, at n = 30 and 64 for p = 1/10, 1/2 and 9/10, in microseconds
per graph. Other keys of the file are kept.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from bench_ab import HERE, check_trees, compare, machine, measure_pair, write

POPULATION = "64,1/2,20000"
BATCHES, REPEATS = 16, 7
STAGE = """
import json, sys, time
from fracmatch import harness
batches, repeats, rows = int(sys.argv[1]), int(sys.argv[2]), {}
for n in (30, 64):
    for num, den in ((1, 10), (1, 2), (9, 10)):
        spec = harness.SampleSpec(n, num, den, batches * 256, 2900 + n)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            for i in range(batches):
                harness._sample_bits(spec, 256 * i, 256 * (i + 1))
            best = min(best, time.perf_counter() - t0)
        rows[f"n={n} p={num}/{den}"] = round(best / (256 * batches) * 1e6, 2)
print(json.dumps(rows))
"""


def env(tree: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}


def sweep(tree: Path, seed: int) -> dict:
    """Wall time, peak RSS and stdout of one CLI sweep in tree."""
    cmd = [sys.executable, "-m", "fracmatch.cli", "sweep", "--sample", f"{POPULATION},{seed}",
           "--bound", "isolate_free", "--workers", "1"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=tree, env=env(tree), stdout=subprocess.PIPE)
    out = proc.stdout.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: {' '.join(cmd)} exited {proc.returncode}")
    return {"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024, "stdout": out.decode()}


def stage(tree: Path) -> dict:
    out = subprocess.run([sys.executable, "-c", STAGE, str(BATCHES), str(REPEATS)], cwd=tree,
                         env=env(tree), capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("--out", required=True, help="file name of the summary, beside this script")
    ap.add_argument("--seeds", required=True, help="inclusive range, as 1-10")
    args = ap.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    if hi <= lo:
        ap.error("quartiles need at least two seeds")
    trees = {"parent": args.parent.resolve(), "change": HERE}
    check_trees(list(trees.values()))
    pairs = []
    for seed in range(lo, hi + 1):
        pair = measure_pair(seed, lambda side, s: sweep(trees[side], s))
        if pair["parent"].pop("stdout") != pair["change"].pop("stdout"):
            raise SystemExit(f"seed {seed}: the trees' sweeps print different summaries")
        pairs.append(pair)
        print(seed, {s: round(pair[s]["wall_s"], 3) for s in ("parent", "change")}, flush=True)
    stages = {side: stage(tree) for side, tree in trees.items()}
    write(args.out, {"sample64": {
        "what": __doc__.split("\n\n")[0].replace("\n", " "),
        "command": f"fracmatch sweep --sample {POPULATION},SEED --bound isolate_free --workers 1",
        "machine": machine(),
        "cli": compare(pairs, {"wall_s": "lower", "peak_rss_mb": "lower"}),
        "stage_us_per_graph": {"batches": BATCHES, "repeats": REPEATS, **stages},
    }})


if __name__ == "__main__":
    main()
