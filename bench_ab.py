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
edited or patched. Both trees run from source: the script refuses to start
while either holds a __pycache__ under src/ or fmbench/, since bytecode
cached on one side alone skews setup_s and the sweeps' rates.

The claim block of each workload gives, for every end-to-end metric of
BENCHMARK.json (read, never edited) and in that metric's direction, the
pairs the change wins, the median change and the parent's interquartile
range. The summary goes under "workloads" in the named file; other keys
are kept.
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
# "higher" or "lower" is better, per end-to-end metric.
BETTER = {m["name"]: m["better"]
          for m in json.loads((HERE / "BENCHMARK.json").read_text())["end_to_end"]}


def check_trees(trees: list) -> None:
    """Exit if any tree holds cached bytecode under src/ or fmbench/."""
    cached = [str(p) for t in trees for d in ("src", "fmbench") for p in (t / d).rglob("__pycache__")]
    if cached:
        raise SystemExit("cached bytecode would skew the runs; remove " + " ".join(cached))


def measure_pair(seed: int, measure) -> dict:
    """measure(side, seed) on both sides, the parent first on odd seeds."""
    order = ("parent", "change") if seed % 2 else ("change", "parent")
    pair = {"seed": seed, "first": order[0]}
    pair.update({side: measure(side, seed) for side in order})
    return pair


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


def compare(pairs: list, better: dict = BETTER) -> dict:
    """Per-metric spreads of one workload's pairs, and the claim test of
    each metric in better, which maps it to "higher" or "lower"."""
    summary = {
        metric: {side: spread([p[side][metric] for p in pairs]) for side in ("parent", "change")}
        for metric in (*better, *NOTES)
        if metric in pairs[0]["parent"]
    }
    claim = {}
    for metric, way in better.items():
        if metric not in summary:
            continue
        sign = 1 if way == "higher" else -1
        wins = sum(sign * (p["change"][metric] - p["parent"][metric]) > 0 for p in pairs)
        parent, change = summary[metric]["parent"], summary[metric]["change"]
        claim[metric] = {
            "better": way,
            "change_wins": f"{wins}/{len(pairs)}",
            "median_ratio": change["median"] / parent["median"],
            "median_change": change["median"] - parent["median"],
            "parent_iqr": parent["q3"] - parent["q1"],
        }
    return {"claim": claim, "summary": summary, "pairs": pairs}


def machine() -> dict:
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": f"{platform.system()} {platform.machine()}"}


def write(out: str, updates: dict) -> None:
    """Set updates' keys in the JSON file out beside this script, keeping
    its other keys."""
    path = HERE / out
    doc = json.loads(path.read_text()) if path.exists() else {}
    doc.update(updates)
    path.write_text(json.dumps(doc, indent=1) + "\n")


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
    check_trees(list(trees.values()))
    pairs = {w: [] for w in workloads}
    for seed in range(lo, hi + 1):
        for w in workloads:
            pair = measure_pair(seed, lambda side, s: run(trees[side], w, s, args.seconds))
            pairs[w].append(pair)
            print(seed, w, {s: round(pair[s]["graphs_per_s"]) for s in ("parent", "change")},
                  flush=True)
    write(args.out, {"what": __doc__.split("\n\n")[0].replace("\n", " "), "seconds": args.seconds,
                     "machine": machine(), "workloads": {w: compare(pairs[w]) for w in workloads}})


if __name__ == "__main__":
    main()
