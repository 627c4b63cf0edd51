"""Child processes of the benchmark. Each runs in a fresh interpreter, so
no cache of the package survives from one population to the next.

  python3 fmbench/child.py certify OUT SEED COPIES UNIFORM TRACE SPANS
      The certificate workload, calling the package in this process.
      COPIES relabelings of every branch-corpus graph (COPIES = 0 leaves
      the corpus out) plus UNIFORM graphs at each order 28..31, p = 1/2.
  python3 fmbench/child.py sweep OUT SPANS -- ARGS...
      fracmatch.cli.main(ARGS) in this process with the tracer installed.

OUT receives one JSON object. SPANS is where the tracer writes its spans,
or "-" for nowhere; TRACE is 0 or 1.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from fractions import Fraction
from typing import List, Optional

from fracmatch import cli, fm, graph6, harness, ngbounds, partition, selftest
from fracmatch.errors import PreconditionError
from tracer import Tracer

# Package functions are reached through their modules, so that the calls
# go through the tracer's wrappers while it is installed.

UNIFORM_ORDERS = (28, 29, 30, 31)


def population(seed: int, copies: int, uniform: int) -> list:
    graphs = selftest.corpus_with_relabelings(copies, seed) if copies else []
    for n in UNIFORM_ORDERS:
        graphs.extend(harness.sample_graphs(harness.SampleSpec(n, 1, 2, uniform, seed)))
    return graphs


def certify_graph(g):
    """Good partition, Berge deficiency witness, and every construction
    whose stated preconditions hold (the probes of run_construction_suite;
    the package's own PreconditionError decides which apply)."""
    p = partition.good_partition(g)
    witness = fm.berge_deficiency(g)
    built = []
    for rule in ("base", "plus_half", "plus_one"):
        try:
            built.append(ngbounds.construct_complement_fm(g, p, rule))
        except PreconditionError:
            pass
    try:
        built.append(ngbounds.construct_complement_fm_nearquarter(g, p, require_order=False))
    except PreconditionError:
        pass
    return p, witness, built


def _deficiency(g, s_set) -> int:
    s_mask = sum(1 << v for v in s_set)
    isolated = sum(
        1 for v in range(g.n) if not s_mask >> v & 1 and g.row(v) & ~s_mask == 0
    )
    return isolated - len(s_set)


def check_certificate(g, p, witness, built) -> List[str]:
    """Every claim the certificate makes, re-checked outside the timed loop."""
    problems = []
    a2 = fm.alpha2(g)
    if p.t.units != a2:
        problems.append(f"partition value {p.t.units} != 2a' {a2}")
    failing = partition.verify_partition(g, p).failures()
    if failing:
        problems.append(f"verify_partition: {failing}")
    if witness.deficiency != g.n - a2:
        problems.append(f"deficiency {witness.deficiency} != n - 2a' = {g.n - a2}")
    if _deficiency(g, witness.s_set) != witness.deficiency:
        problems.append("deficiency witness does not recount")
    gc = g.complement()
    cap = fm.alpha2(gc)
    for f, case in built:
        value = Fraction(f.value.units, 2)
        if f.host != gc:
            problems.append(f"{case.rule}/{case.case}: matching not on the complement")
        if not case.claimed <= value <= Fraction(cap, 2):
            problems.append(
                f"{case.rule}/{case.case}: claimed {case.claimed} <= {value} <= {cap}/2 fails"
            )
    return problems


def record(g, p, witness, built) -> str:
    parts = [
        graph6.emit_graph6(g),
        f"t={p.t.units}",
        f"pairing={list(p.pairing)}",
        f"fm={p.fm.items()}",
        f"S={sorted(witness.s_set)}",
        f"d={witness.deficiency}",
    ]
    parts += [f"{c.rule}/{c.case}:{c.claimed}:{f.items()}" for f, c in built]
    return " ".join(parts)


def run_certify(seed: int, copies: int, uniform: int, trace: bool, spans: str) -> dict:
    graphs = population(seed, copies, uniform)
    tracer = Tracer() if trace else None
    results: List[Optional[tuple]] = []
    latency_ns: List[int] = []
    problems: List[str] = []
    clock = time.perf_counter_ns
    if tracer:
        tracer.install()
    try:
        for g in graphs:
            start = clock()
            try:
                results.append(certify_graph(g))
            except Exception as exc:  # a failed certificate is a result, not a crash
                results.append(None)
                problems.append(f"{type(exc).__name__}: {exc}")
            latency_ns.append(clock() - start)
    finally:
        if tracer:
            tracer.uninstall()

    digest = hashlib.sha256()
    failed = 0
    seen = set()
    for g, result in zip(graphs, results):
        if result is None:
            failed += 1
            continue
        bad = check_certificate(g, *result)
        if bad:
            failed += 1
            problems += [f"{graph6.emit_graph6(g)}: {msg}" for msg in bad]
        digest.update(record(g, *result).encode() + b"\n")
        seen.update((c.rule, c.case) for _, c in result[2])
    missing = sorted(selftest.expected_cases() - seen) if copies else []
    out = {
        "graphs": len(graphs),
        "failed": failed,
        "problems": problems[:20],
        "missing_cases": [f"{r}/{c}" for r, c in missing],
        "digest": digest.hexdigest(),
        "latency_ns": latency_ns,
    }
    if tracer:
        out["summary"] = tracer.summary()
        out["counts"] = dict(tracer.counts)
        if spans != "-":
            tracer.write_spans(spans)
    return out


def run_traced_sweep(args: List[str], spans: str) -> dict:
    tracer = Tracer()
    tracer.install()
    try:
        rc = cli.main(args)
    finally:
        tracer.uninstall()
    post = time.perf_counter()
    out = {"rc": rc, "summary": tracer.summary(), "counts": dict(tracer.counts)}
    if spans != "-":
        tracer.write_spans(spans)
    out["post_s"] = time.perf_counter() - post
    return out


def main(argv: List[str]) -> int:
    command, out_path = argv[0], argv[1]
    if command == "certify":
        seed, copies, uniform, trace = (int(x) for x in argv[2:6])
        result = run_certify(seed, copies, uniform, bool(trace), argv[6])
    elif command == "sweep" and argv[3] == "--":
        result = run_traced_sweep(argv[4:], argv[2])
    else:
        print(f"usage: see {__file__}", file=sys.stderr)
        return 2
    with open(out_path, "w", encoding="ascii") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
