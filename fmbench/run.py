"""Benchmark of the fracmatch package, measured from outside the package.

    python3 fmbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of WORKLOADS, or "all" to run each in turn. Run from any
directory; the package is taken from src/ beside this directory.

The three sweep workloads run the `fracmatch sweep` command line as one
child process per population and time it from here. The certify workload
calls the package's certificate functions inside a child (fmbench/child.py)
and times each graph there. With --trace 1 every population is run twice
at one worker, untraced and then with the tracer of fmbench/tracer.py
installed, and the per-layer numbers come from the traced run.

Every output is checked outside the timed region (see checks.py and
child.py). The last line of stdout is one JSON object: correct, attempted,
failed and metrics (end-to-end with --trace 0, per-layer with --trace 1).
Lines before it are for people. Exit code 2, and no JSON, when the package
source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Tuple

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".fmbench"
CLI = "import sys; from fracmatch.cli import main; sys.exit(main())"
MASK64 = (1 << 64) - 1

# Sizes are the stated input sizes of each workload; a run repeats its
# population (a fresh draw each time, except enum6) until --seconds is spent.
SWEEPS: Dict[str, dict] = {
    "sweep-sparse30": {"sample": (30, "1/10", 6000), "bound": "nonempty", "workers": 1},
    "sweep-dense64": {"sample": (64, "1/2", 1500), "bound": "isolate_free", "workers": 2},
    "enum6": {"enumerate": 6, "bound": "basic", "workers": 1},
}
CERTIFY = {"copies": 7, "uniform": 50}
WORKLOADS = (*SWEEPS, "certify")

SETUP_REPEATS = 5
NETWORKX_ROWS = 20
CHILD_TIMEOUT_S = 60  # a population takes seconds; a hung child must not outlast the run
MAX_MESSAGES = 10

# Per-layer metrics taken straight from the span summary: span name, then
# which of calls / calls_per_graph / us_per_graph / self_us_per_graph.
LAYER_SPANS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    ("harness.sample_masks", ("calls_per_graph", "us_per_graph")),
    ("harness.run_sweep", ("calls", "self_us_per_graph")),
    ("graph.from_mask", ("calls_per_graph", "us_per_graph")),
    ("graph.complement", ("calls_per_graph", "us_per_graph")),
    ("graph6.emit_graph6", ("calls_per_graph", "us_per_graph")),
    ("fm.alpha2", ("calls_per_graph", "us_per_graph")),
    ("fm.double_cover", ("calls_per_graph", "us_per_graph")),
    ("bipartite.hopcroft_karp", ("calls_per_graph", "us_per_graph")),
    ("fm.extract_fm", ("calls_per_graph", "us_per_graph")),
    ("fm.canonical_fm", ("calls_per_graph", "self_us_per_graph")),
    ("fm.berge_deficiency", ("calls_per_graph", "us_per_graph")),
    ("partition.good_partition", ("calls_per_graph", "self_us_per_graph")),
    ("partition.verify_partition", ("calls_per_graph", "us_per_graph")),
    ("partition.repair", ("calls", "us_per_graph")),
    ("ngbounds.ng_sum", ("calls_per_graph", "self_us_per_graph")),
    ("ngbounds.sweep_with_rows", ("calls", "self_us_per_graph")),
    ("families.classify_equality_family", ("calls", "us_per_graph")),
    ("bulk.bulk_alpha2", ("calls",)),
    ("cli.main", ("calls", "self_us_per_graph")),
)
UNITS = {
    "calls": "count",
    "calls_per_graph": "calls/graph",
    "us_per_graph": "us/graph",
    "self_us_per_graph": "us/graph",
}
# The 25 (rule, case) branches of the constructions, as selftest.expected_cases().
CASES = (
    ("base", ("r0", "r1_s0", "r1_s1", "r2", "r3plus")),
    ("plus_half", ("v_in_v12_r2", "v_in_v12_r3plus", "v_in_v11", "v_in_v21", "v_in_v22")),
    ("plus_one", ("v11_internal", "v11_to_v2_then_v12", "v11_to_v2_then_v2", "v11_to_v12")),
    (
        "near_quarter",
        (
            "s_small", "halfcycle_r0", "halfcycle_r1", "halfcycle_r2", "halfcycle_r3plus",
            "s_equals_t", "p1", "p2_r0", "p2_r1", "p2_r2", "p2_r3plus",
        ),
    ),
)
CONSTRUCT_SPANS = (
    "ngbounds.construct_complement_fm",
    "ngbounds.construct_complement_fm_nearquarter",
)


# ---------------------------------------------------------------------------
# Child processes.


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def spawn(argv: List[str], log: Path) -> Tuple[float, float, int]:
    """Run one child to completion: (wall seconds, peak RSS in MB, exit code).
    The peak RSS is the kernel's for the child and any process it waited for;
    it also counts the copy of this process the child starts as, which is
    why the output checks run in a process of their own. The child leads its
    own process group, so a timeout or an interrupt of the benchmark stops
    its pool workers too."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
        )

        def stop() -> None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(CHILD_TIMEOUT_S, stop)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            stop()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def cli_argv(args: List[str]) -> List[str]:
    return [sys.executable, "-c", CLI, *args]


def child_argv(args: List[str]) -> List[str]:
    return [sys.executable, str(HERE / "child.py"), *args]


def rep_seed(seed: int, rep: int) -> int:
    return (seed * 1_000_003 + rep) & MASK64


def sweep_args(spec: dict, seed: int, out: Path, workers: int, empty: bool = False) -> List[str]:
    """The sweep command line; empty=True draws a population of 0 graphs of
    the same order, which is the set-up cost of the same command."""
    if empty:
        n = spec["enumerate"] if "enumerate" in spec else spec["sample"][0]
        source = ["--sample", f"{n},1/2,0,{seed}"]
    elif "enumerate" in spec:
        source = ["--enumerate", str(spec["enumerate"])]
    else:
        n, p, size = spec["sample"]
        source = ["--sample", f"{n},{p},{size},{seed}"]
    return [
        "sweep", *source, "--bound", spec["bound"], "--workers", str(workers),
        "--csv", str(out / "rows.csv"), "--json", str(out / "stats.json"),
    ]


def sweep_total(spec: dict) -> int:
    if "enumerate" in spec:
        return 1 << (spec["enumerate"] * (spec["enumerate"] - 1) // 2)
    return spec["sample"][2]


def certify_args(out: Path, seed: int, copies: int, uniform: int, trace: int, spans="-"):
    return ["certify", str(out), str(seed), str(copies), str(uniform), str(trace), str(spans)]


def measure_setup(argv_for) -> float:
    """Median wall time of the workload's command on an empty population,
    after one unmeasured run that fills the bytecode cache. argv_for(dir)
    gives the command, writing its outputs into dir."""
    times = []
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        out = Path(tmp)
        for _ in range(SETUP_REPEATS + 1):
            wall, _, rc = spawn(argv_for(out), out / "setup.err")
            if rc != 0:
                raise RuntimeError(f"set-up command failed: {(out / 'setup.err').read_text()}")
            times.append(wall)
    return statistics.median(times[1:])


class Budget:
    """Repeat populations while the next one is expected to end within the
    measured seconds; always at least one."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.spent: List[float] = []

    def more(self) -> bool:
        if not self.spent:
            return True
        return sum(self.spent) + statistics.mean(self.spent) <= self.seconds


# ---------------------------------------------------------------------------
# Workloads.


class Outcome:
    """Graphs attempted and failed in a run, and why they failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.charged = 0
        self.messages: List[str] = []

    def add(self, attempted: int, failed: int, messages: List[str]) -> None:
        self.attempted += attempted
        self.charged += min(failed, attempted)
        self.messages += messages

    def charge(self, failed: int, message: str) -> None:
        """Failures found by a cross-check between two runs of graphs that
        add() counts as attempted."""
        self.charged += failed
        self.messages.append(message)

    @property
    def failed(self) -> int:
        return min(self.charged, self.attempted)


def sweep_job(spec: dict, out: Path, rc: int, seed: int) -> dict:
    """One sweep output for checks.py to check after the timed populations."""
    return {
        "out": str(out), "rc": rc, "seed": seed, "total": sweep_total(spec),
        "bound": spec["bound"], "enumerate": spec.get("enumerate"), "rederive": NETWORKX_ROWS,
    }


def run_checks(jobs: List[dict], tmp: Path, outcome: Outcome) -> None:
    """Check every sweep output of a run in one checks.py process."""
    (tmp / "jobs.json").write_text(json.dumps(jobs))
    _, _, rc = spawn([sys.executable, str(HERE / "checks.py"), str(tmp / "jobs.json"),
                      str(tmp / "checked.json")], tmp / "checks.err")
    try:
        results = json.loads((tmp / "checked.json").read_text())
    except (OSError, ValueError) as exc:
        total = sum(job["total"] for job in jobs)
        outcome.add(total, total, [f"output checks exited {rc} without a result: {exc}"])
        return
    for result in results:
        outcome.add(result["attempted"], result["failed"], result["messages"])


def read_output(path: Path) -> bytes:
    return path.read_bytes() if path.exists() else b""


def compare_bytes(label: str, a: bytes, b: bytes, outcome: Outcome) -> None:
    """Charge every differing row of two outputs of the same population."""
    if a == b:
        return
    rows_a, rows_b = a.splitlines(), b.splitlines()
    differing = sum(1 for x, y in zip(rows_a, rows_b) if x != y)
    differing += abs(len(rows_a) - len(rows_b))
    outcome.charge(max(differing, 1), f"{label}: {differing} rows differ")


def run_sweep_untraced(name: str, seed: int, seconds: float) -> dict:
    spec = SWEEPS[name]
    workers = spec["workers"]
    setup = measure_setup(lambda out: cli_argv(sweep_args(spec, seed, out, workers, empty=True)))
    outcome, budget = Outcome(), Budget(seconds)
    rates, peaks, jobs = [], [], []
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        rep = 0
        while budget.more():
            out = Path(tmp) / f"rep{rep}"
            out.mkdir()
            pop = rep_seed(seed, rep)
            wall, peak, rc = spawn(cli_argv(sweep_args(spec, pop, out, workers)), out / "err")
            budget.spent.append(wall)
            rates.append(sweep_total(spec) / wall)
            peaks.append(peak)
            jobs.append(sweep_job(spec, out, rc, pop))
            rep += 1
        run_checks(jobs, Path(tmp), outcome)
        if workers > 1:
            one = Path(tmp) / "one-worker"
            one.mkdir()
            spawn(cli_argv(sweep_args(spec, rep_seed(seed, 0), one, 1)), one / "err")
            compare_bytes("CSV at one worker", read_output(Path(tmp) / "rep0" / "rows.csv"),
                          read_output(one / "rows.csv"), outcome)
    return {
        "outcome": outcome,
        "metrics": {
            "graphs_per_s": (statistics.median(rates), "graphs/s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (max(peaks), "MB"),
        },
        "notes": {"populations": len(rates)},
    }


def run_certify_untraced(seed: int, seconds: float) -> dict:
    setup = measure_setup(lambda out: child_argv(certify_args(out / "setup.json", seed, 0, 0, 0)))
    outcome, budget = Outcome(), Budget(seconds)
    rates, peaks, latency = [], [], []
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        rep = 0
        while budget.more():
            out = Path(tmp) / f"rep{rep}.json"
            args = certify_args(out, rep_seed(seed, rep), CERTIFY["copies"], CERTIFY["uniform"], 0)
            wall, peak, rc = spawn(child_argv(args), Path(tmp) / "err")
            budget.spent.append(wall)
            peaks.append(peak)
            result = read_certify(out, rc, outcome)
            if result:
                rates.append(result["graphs"] / (sum(result["latency_ns"]) / 1e9))
                latency += result["latency_ns"]
            rep += 1
    cuts = statistics.quantiles(latency, n=100, method="inclusive") if len(latency) > 1 else [0] * 99
    return {
        "outcome": outcome,
        "metrics": {
            "graphs_per_s": (statistics.median(rates) if rates else 0.0, "graphs/s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (max(peaks), "MB"),
        },
        "notes": {
            "populations": len(peaks),
            "cert_ms_p50": (statistics.median(latency) / 1e6 if latency else 0.0, "ms"),
            "cert_ms_p99": (cuts[98] / 1e6, "ms"),
            "cert_samples": len(latency),
        },
    }


def read_certify(path: Path, rc: int, outcome: Outcome):
    try:
        result = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        outcome.add(1, 1, [f"certify child exited {rc} without a result: {exc}"])
        return None
    messages = list(result["problems"])
    if result["missing_cases"]:
        messages.append(f"construction cases never fired: {result['missing_cases']}")
    failed = result["failed"] + (1 if result["missing_cases"] else 0)
    outcome.add(result["graphs"], failed, messages)
    return result


# ---------------------------------------------------------------------------
# Traced runs.


class LayerTotals:
    def __init__(self) -> None:
        self.summary: Dict[str, Dict[str, int]] = {}
        self.counts: Dict[str, int] = {}
        self.graphs = 0
        self.equalities = 0
        self.untraced_s = 0.0
        self.traced_s = 0.0

    def add(self, result: dict) -> None:
        for name, row in result["summary"].items():
            mine = self.summary.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            for key in mine:
                mine[key] += row[key]
        for key, value in result["counts"].items():
            self.counts[key] = self.counts.get(key, 0) + value

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        def per_graph(x: float) -> float:
            return x / self.graphs if self.graphs else 0.0

        def stat(name: str, key: str) -> int:
            return self.summary.get(name, {}).get(key, 0)

        out: Dict[str, Tuple[float, str]] = {}
        for name, kinds in LAYER_SPANS:
            for kind in kinds:
                value = {
                    "calls": stat(name, "calls"),
                    "calls_per_graph": per_graph(stat(name, "calls")),
                    "us_per_graph": per_graph(stat(name, "ns") / 1e3),
                    "self_us_per_graph": per_graph(stat(name, "self_ns") / 1e3),
                }[kind]
                out[f"{name}.{kind}"] = (value, UNITS[kind])
        hits = self.counts.get("fm.alpha2.cache_hits", 0)
        misses = self.counts.get("fm.alpha2.cache_misses", 0)
        out["fm.alpha2.cache_hits"] = (hits, "count")
        out["fm.alpha2.cache_misses"] = (misses, "count")
        out["fm.alpha2.cache_hit_ratio"] = (hits / (hits + misses) if hits + misses else 0.0, "ratio")
        classify = stat("families.classify_equality_family", "calls")
        out["families.classify_equality_family.calls_per_equality"] = (
            classify / self.equalities if self.equalities else 0.0, "calls/equality")
        probes = sum(stat(name, "calls") for name in CONSTRUCT_SPANS)
        probe_ns = sum(stat(name, "ns") for name in CONSTRUCT_SPANS)
        fallbacks = self.counts.get("ngbounds.construct.fallbacks", 0)
        out["ngbounds.construct.probes"] = (probes, "count")
        out["ngbounds.construct.us_per_probe"] = (probe_ns / 1e3 / probes if probes else 0.0, "us/probe")
        out["ngbounds.construct.fallbacks"] = (fallbacks, "count")
        out["ngbounds.construct.fallback_frac"] = (fallbacks / probes if probes else 0.0, "ratio")
        for rule, cases in CASES:
            for case in cases:
                key = f"ngbounds.case.{rule}.{case}"
                out[key] = (self.counts.get(key, 0), "count")
        out["trace.graphs"] = (self.graphs, "count")
        out["trace.equalities"] = (self.equalities, "count")
        out["trace.overhead_ratio"] = (
            self.traced_s / self.untraced_s if self.untraced_s else 0.0, "ratio")
        return out


def run_sweep_traced(name: str, seed: int, seconds: float) -> dict:
    """Untraced command line, then the traced in-process run, on the same
    population at one worker; the two outputs must be byte-identical."""
    spec = SWEEPS[name]
    total = sweep_total(spec)
    outcome, budget, layers, jobs = Outcome(), Budget(seconds), LayerTotals(), []
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        rep = 0
        while budget.more():
            pop = rep_seed(seed, rep)
            plain, traced = Path(tmp) / f"plain{rep}", Path(tmp) / f"traced{rep}"
            plain.mkdir()
            traced.mkdir()
            wall, _, rc = spawn(cli_argv(sweep_args(spec, pop, plain, 1)), plain / "err")
            jobs.append(sweep_job(spec, plain, rc, pop))
            spans = WORK / f"spans-{name}.tsv"
            args = ["sweep", str(traced / "trace.json"), str(spans), "--",
                    *sweep_args(spec, pop, traced, 1)]
            traced_wall, _, traced_rc = spawn(child_argv(args), traced / "err")
            try:
                result = json.loads((traced / "trace.json").read_text())
                traced_csv = (traced / "rows.csv").read_bytes()
                traced_stats = (traced / "stats.json").read_bytes()
            except (OSError, ValueError) as exc:
                outcome.charge(total, f"traced run exited {traced_rc}: {exc}")
                break
            compare_bytes("traced CSV", read_output(plain / "rows.csv"), traced_csv, outcome)
            compare_bytes("traced stats", read_output(plain / "stats.json"), traced_stats,
                          outcome)
            layers.add(result)
            layers.graphs += total
            layers.equalities += sum(
                1 for row in checks.parse_rows(traced_csv.decode("ascii")) if row[7] == "1")
            layers.untraced_s += wall
            layers.traced_s += traced_wall - result["post_s"]
            budget.spent.append(wall + traced_wall)
            rep += 1
        run_checks(jobs, Path(tmp), outcome)
    return {"outcome": outcome, "metrics": layers.metrics(), "notes": {"populations": rep}}


def run_certify_traced(seed: int, seconds: float) -> dict:
    outcome, budget, layers = Outcome(), Budget(seconds), LayerTotals()
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        rep = 0
        while budget.more():
            pop = rep_seed(seed, rep)
            results = []
            walls = 0.0
            for trace in (0, 1):
                out = Path(tmp) / f"rep{rep}-{trace}.json"
                spans = WORK / "spans-certify.tsv" if trace else "-"
                args = certify_args(out, pop, CERTIFY["copies"], CERTIFY["uniform"], trace, spans)
                wall, _, rc = spawn(child_argv(args), Path(tmp) / "err")
                walls += wall
                # only the untraced result is charged to attempted/failed
                results.append(read_certify(out, rc, outcome if trace == 0 else Outcome()))
            budget.spent.append(walls)
            rep += 1
            plain, traced = results
            if not (plain and traced):
                outcome.charge(outcome.attempted, "a certify child gave no result")
                break
            if plain["digest"] != traced["digest"]:
                outcome.charge(plain["graphs"], "traced certificates differ from untraced ones")
            layers.add(traced)
            layers.graphs += traced["graphs"]
            layers.untraced_s += sum(plain["latency_ns"]) / 1e9
            layers.traced_s += sum(traced["latency_ns"]) / 1e9
    return {"outcome": outcome, "metrics": layers.metrics(), "notes": {"populations": rep}}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    if name == "certify":
        return run_certify_traced(seed, seconds) if trace else run_certify_untraced(seed, seconds)
    if trace:
        return run_sweep_traced(name, seed, seconds)
    return run_sweep_untraced(name, seed, seconds)


# ---------------------------------------------------------------------------
# Reporting.


def result_json(run: dict) -> dict:
    outcome = run["outcome"]
    return {
        "correct": outcome.failed == 0 and not outcome.messages and outcome.attempted > 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed if outcome.attempted else 1,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in run["metrics"].items()},
    }


def report_rows(run: dict) -> Dict[str, Tuple[float, str]]:
    """The metrics plus fail_frac and the run's notes, for people."""
    outcome = run["outcome"]
    rows = dict(run["metrics"])
    rows["fail_frac"] = (outcome.failed / outcome.attempted if outcome.attempted else 1.0, "ratio")
    for key, value in run["notes"].items():
        rows[key] = value if isinstance(value, tuple) else (value, "count")
    return rows


def report_lines(name: str, run: dict) -> List[str]:
    lines = [f"{name:15s} {key:55s} {value:14.6g} {unit}"
             for key, (value, unit) in report_rows(run).items()]
    lines += [f"{name:15s} check failed: {msg}" for msg in run["outcome"].messages[:MAX_MESSAGES]]
    return lines


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": platform.processor() or platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "fracmatch" / "__init__.py").is_file():
        print(f"error: package source not found at {SRC / 'fracmatch'}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace))
            for line in report_lines(name, run):
                print(line, flush=True)
            results[name] = result_json(run)
            results[name]["report"] = {k: v for k, (v, _) in report_rows(run).items()}
    finally:
        for leftover in WORK.glob("tmp*"):
            shutil.rmtree(leftover, ignore_errors=True)
    if args.workload == "all":
        print(json.dumps({"machine": machine(), "trace": args.trace, "workloads": results}))
    else:
        results[args.workload].pop("report")
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
