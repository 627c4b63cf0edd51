"""Alternating A/B of fmbench workloads: a parent checkout against this
tree, writing a JSON summary beside this script.

    git archive PARENT_REV | tar -x -C /path/to/parent
    python3 bench_ab.py /path/to/parent --out BENCH_AB.json --seeds 1-10

With `--workloads certify --seeds 2601-2610` it reruns BENCH_26.json's
measurement, in this script's layout (claim, summary and pairs nested
under workloads.certify), so give it a new --out name.

Each seed runs `fmbench/run.py --workload W --seed N --trace 0` once in
each tree for every workload W, each from its own copy of src/ and
fmbench/; the parent goes first on odd seeds. Nothing under fmbench/ is
edited or patched.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy

HERE = Path(__file__).resolve().parent
NOTES = ("cert_ms_p50", "cert_ms_p99", "cert_samples")


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "fmbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    doc = json.loads(lines[-1])
    row = {k: v["value"] for k, v in doc["metrics"].items()}
    row.update(correct=doc["correct"], failed=doc["failed"], attempted=doc["attempted"])
    for line in lines[:-1]:  # "<workload> <name> <value> <unit>"
        parts = line.split()
        if len(parts) == 4 and parts[1] in NOTES:
            row[parts[1]] = float(parts[2])
    return row


def spread(xs: list) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": sorted(xs)}


def compare(pairs: list) -> dict:
    """Per-metric spreads of one workload's pairs, and the claim test."""
    summary = {
        metric: {side: spread([p[side][metric] for p in pairs]) for side in ("parent", "change")}
        for metric in ("graphs_per_s", "setup_s", "peak_rss_mb", *NOTES)
        if metric in pairs[0]["parent"]
    }
    rate = summary["graphs_per_s"]
    wins = sum(p["change"]["graphs_per_s"] > p["parent"]["graphs_per_s"] for p in pairs)
    claim = {
        "median_ratio": rate["change"]["median"] / rate["parent"]["median"],
        "median_gain": rate["change"]["median"] - rate["parent"]["median"],
        "parent_iqr": rate["parent"]["q3"] - rate["parent"]["q1"],
        "change_wins": f"{wins}/{len(pairs)}",
    }
    return {"claim": claim, "summary": summary, "pairs": pairs}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("--out", required=True, help="file name of the summary, beside this script")
    ap.add_argument("--workloads", default="sweep-sparse30,sweep-dense64,enum6,certify")
    ap.add_argument("--seeds", required=True, help="inclusive range, as 1-10")
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    if hi <= lo:
        ap.error("quartiles need at least two seeds")
    workloads = args.workloads.split(",")
    trees = {"parent": args.parent.resolve(), "change": HERE}
    pairs = {w: [] for w in workloads}
    for seed in range(lo, hi + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for w in workloads:
            pair = {"seed": seed, "first": order[0]}
            pair.update({side: run(trees[side], w, seed, args.seconds) for side in order})
            pairs[w].append(pair)
            print(seed, w, {s: round(pair[s]["graphs_per_s"]) for s in ("parent", "change")},
                  flush=True)
    machine = {"cpus": os.cpu_count(), "python": platform.python_version(),
               "numpy": numpy.__version__, "platform": f"{platform.system()} {platform.machine()}"}
    doc = {"what": __doc__.split("\n\n")[0].replace("\n", " "), "seconds": args.seconds,
           "machine": machine, "workloads": {w: compare(pairs[w]) for w in workloads}}
    (HERE / args.out).write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
