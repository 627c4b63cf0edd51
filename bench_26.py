"""Alternating A/B of fmbench's certify workload: a parent checkout against
this tree, writing BENCH_26.json beside this script.

    git archive PARENT_REV | tar -x -C /path/to/parent
    python3 bench_26.py /path/to/parent --seeds 2601-2610 --seconds 25

Each seed runs `fmbench/run.py --workload certify --trace 0` once in each
tree, each from its own copy of src/ and fmbench/; the parent goes first on
odd seeds. Nothing under fmbench/ is edited or patched.
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


def run(tree: Path, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "fmbench/run.py", "--workload", "certify", "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, check=True)
    lines = out.stdout.splitlines()
    doc = json.loads(lines[-1])
    row = {k: v["value"] for k, v in doc["metrics"].items()}
    row.update(correct=doc["correct"], failed=doc["failed"], attempted=doc["attempted"])
    for line in lines[:-1]:  # "certify <name> <value> <unit>"
        parts = line.split()
        if len(parts) == 4 and parts[1] in NOTES:
            row[parts[1]] = float(parts[2])
    return row


def spread(xs: list) -> dict:
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "runs": sorted(xs)}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("--seeds", default="2601-2610")
    ap.add_argument("--seconds", type=float, default=25)
    args = ap.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    pairs = []
    for seed in range(lo, hi + 1):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        trees = {"parent": args.parent.resolve(), "change": HERE}
        pair = {"seed": seed, "first": order[0]}
        pair.update({side: run(trees[side], seed, args.seconds) for side in order})
        pairs.append(pair)
        print(seed, {s: round(pair[s]["graphs_per_s"]) for s in ("parent", "change")}, flush=True)
    summary = {
        metric: {side: spread([p[side][metric] for p in pairs]) for side in ("parent", "change")}
        for metric in ("graphs_per_s", "setup_s", "peak_rss_mb", *NOTES)
    }
    rate = summary["graphs_per_s"]
    wins = sum(p["change"]["graphs_per_s"] > p["parent"]["graphs_per_s"] for p in pairs)
    claim = {
        "median_ratio": rate["change"]["median"] / rate["parent"]["median"],
        "median_gain": rate["change"]["median"] - rate["parent"]["median"],
        "parent_iqr": rate["parent"]["q3"] - rate["parent"]["q1"],
        "change_wins": f"{wins}/{len(pairs)}",
    }
    machine = {"cpus": os.cpu_count(), "python": platform.python_version(),
               "numpy": numpy.__version__, "platform": f"{platform.system()} {platform.machine()}"}
    doc = {"what": __doc__.split("\n\n")[0].replace("\n", " "), "seconds": args.seconds,
           "machine": machine, "claim": claim, "summary": summary, "pairs": pairs}
    (HERE / "BENCH_26.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
