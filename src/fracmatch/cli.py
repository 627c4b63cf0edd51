"""Command line interface.

Graph arguments accept a literal graph6 string, a path to a file, or "-"
for stdin. File and stdin content may be graph6 (first nonblank line) or
an edge list (vertex count on the first line, one "u v" pair per line);
the two are told apart by the first character, since graph6 never starts
with a digit. Exit status is 0 on success, 1 when a violation or selftest
failure was found, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .errors import GraphFormatError, InternalInconsistencyError, PreconditionError
from .families import FamilyLabel, classify_small_alpha, small_alpha_ng
from .fm import alpha2, alpha_prime
from .graph import Graph
from .graph6 import emit_graph6, parse_edgelist, parse_graph6
from .harness import SampleSpec, run_sweep
from .ngbounds import (
    BOUND_NAMES,
    CSV_HEADER,
    MIN_STATED_ORDER,
    construct_complement_fm,
    construct_complement_fm_nearquarter,
    ng_sum,
)
from .partition import good_partition, partition_dump
from .selftest import run_all


def _read_graph_text(arg: str) -> str:
    if arg == "-":
        return sys.stdin.read()
    if os.path.exists(arg):
        try:
            with open(arg, "r", encoding="ascii") as fh:
                return fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise GraphFormatError(f"cannot read {arg}: {exc}")
    return arg


def load_graph(arg: str) -> Graph:
    text = _read_graph_text(arg)
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise GraphFormatError("empty graph input")
    first = lines[0].strip()
    if first[0].isdigit():
        return parse_edgelist(text)
    return parse_graph6(first)


def _label_json(label: Optional[FamilyLabel]):
    if label is None:
        return None
    out = {"tag": label.tag.value}
    for field in ("k", "p", "q", "ell", "m"):
        value = getattr(label, field)
        if value is not None:
            out[field] = value
    return out


def _emit(obj) -> None:
    print(json.dumps(obj, indent=2))


def cmd_alpha(args) -> int:
    g = load_graph(args.graph)
    a2 = alpha2(g)
    print(f"2a'={a2} ({a2 / 2:g})")
    return 0


def cmd_partition(args) -> int:
    g = load_graph(args.graph)
    print(partition_dump(g, good_partition(g)))
    return 0


def cmd_classify(args) -> int:
    g = load_graph(args.graph)
    label = classify_small_alpha(g)
    out = {
        "graph6": emit_graph6(g),
        "n": g.n,
        "alpha": str(alpha_prime(g)),
        "label": _label_json(label),
    }
    try:
        report = small_alpha_ng(g)
        out["sum"] = str(report.ng_sum)
        out["bound"] = str(report.bound)
        out["clause"] = report.clause
        out["exact"] = report.exact
        out["is_equality"] = report.is_equality
    except PreconditionError:
        pass
    _emit(out)
    return 0


def cmd_ngsum(args) -> int:
    g = load_graph(args.graph)
    report = ng_sum(g)
    hyp = report.hypotheses
    out = {
        "graph6": emit_graph6(g),
        "n": report.n,
        "alpha_g": str(report.alpha_g),
        "alpha_gc": str(report.alpha_gc),
        "sum": str(report.sum),
        "hypotheses": {
            "g_nonempty": hyp.g_nonempty,
            "gc_nonempty": hyp.gc_nonempty,
            "g_isolate_free": hyp.g_isolate_free,
            "gc_isolate_free": hyp.gc_isolate_free,
            "n_at_least_28": hyp.n_at_least_28,
        },
        "bounds": {
            which: {
                "applies": b.applies,
                "bound": str(b.bound),
                "satisfied": b.satisfied,
                "equality": b.equality,
            }
            for which, b in report.bounds.items()
        },
        "equality_family": _label_json(report.equality_family),
    }
    _emit(out)
    violated = any(b.applies and not b.satisfied for b in report.bounds.values())
    return 1 if violated else 0


def cmd_construct(args) -> int:
    g = load_graph(args.graph)
    p = good_partition(g)
    try:
        if args.rule == "near_quarter":
            f, case = construct_complement_fm_nearquarter(
                g, p, require_order=not args.any_order
            )
        else:
            f, case = construct_complement_fm(g, p, rule=args.rule)
    except InternalInconsistencyError as exc:
        # Below the stated order gate the recipes can legitimately come up
        # short; with the gate lifted that is a probe result, not a bug.
        if args.any_order and g.n < MIN_STATED_ORDER:
            raise SystemExit2(f"construction fails at this order (n={g.n}): {exc}")
        raise
    _emit(
        {
            "graph6": emit_graph6(g),
            "complement6": emit_graph6(g.complement()),
            "rule": case.rule,
            "case": case.case,
            "claimed": str(case.claimed),
            "value": str(f.value),
            "fallback": case.fallback,
            "weights": sorted([u, v, units] for (u, v), units in f.items()),
        }
    )
    return 0


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    try:
        return open(path, "w", encoding="ascii"), True
    except OSError as exc:
        raise SystemExit2(f"cannot write {path}: {exc}")


def cmd_sweep(args) -> int:
    if (args.enumerate is None) == (args.sample is None):
        raise SystemExit2("exactly one of --enumerate and --sample is required")
    if args.sample is not None:
        try:
            spec = SampleSpec.parse(args.sample)
        except (ValueError, PreconditionError) as exc:
            raise SystemExit2(f"bad --sample: {exc}")
        stats, rows = run_sweep(args.bound, spec=spec, workers=args.workers)
    else:
        stats, rows = run_sweep(
            args.bound,
            enumerate_n=args.enumerate,
            allow_large=args.allow_large,
            workers=args.workers,
        )
    wrote = False
    if args.csv is not None:
        out, close = _open_out(args.csv)
        print(CSV_HEADER, file=out)
        for row in rows:
            print(row, file=out)
        if close:
            out.close()
        wrote = True
    if args.json is not None:
        out, close = _open_out(args.json)
        print(json.dumps(stats.to_json(), indent=2), file=out)
        if close:
            out.close()
        wrote = True
    if not wrote:
        print(json.dumps(stats.to_json(), indent=2))
    return 1 if stats.violations or stats.unmatched_equalities else 0


def cmd_selftest(args) -> int:
    results = run_all(quick=not args.full)
    bad = False
    for result in results:
        print(result.describe())
        for failure in result.failures:
            print(f"  {failure}")
            bad = True
    return 1 if bad else 0


class SystemExit2(Exception):
    """Usage error raised after argparse is done; mapped to exit code 2."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracmatch",
        description="Fractional matchings, their partitions, and the "
        "complement-sum bounds, exactly in half-integers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    graph_help = "graph6 string, file path, or - for stdin (graph6 or edge list)"

    p = sub.add_parser("alpha", help="fractional matching number")
    p.add_argument("graph", help=graph_help)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("partition", help="canonical partition dump")
    p.add_argument("graph", help=graph_help)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("classify", help="small matching number family label")
    p.add_argument("graph", help=graph_help)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("ngsum", help="matching number sum of graph and complement")
    p.add_argument("graph", help=graph_help)
    p.set_defaults(func=cmd_ngsum)

    p = sub.add_parser("construct", help="complement matching from the partition")
    p.add_argument("graph", help=graph_help)
    p.add_argument(
        "--rule",
        choices=["base", "plus_half", "plus_one", "near_quarter"],
        default=None,
        help="force one rule (default: strongest applicable)",
    )
    p.add_argument(
        "--any-order",
        action="store_true",
        help="with --rule near_quarter, skip the minimum-order gate",
    )
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("sweep", help="evaluate one bound over a graph stream")
    p.add_argument("--enumerate", type=int, metavar="N", default=None,
                   help="all labeled graphs on N vertices")
    p.add_argument("--sample", metavar="N,P,COUNT,SEED", default=None,
                   help="seeded uniform stream, e.g. 30,0.3,1000,42")
    p.add_argument("--bound", choices=list(BOUND_NAMES), default="basic")
    p.add_argument("--csv", metavar="PATH", default=None, help="rows to PATH or -")
    p.add_argument("--json", metavar="PATH", default=None, help="stats to PATH or -")
    p.add_argument("--workers", type=int, default=None,
                   help="process count (default: FRACMATCH_WORKERS or 1)")
    p.add_argument("--allow-large", action="store_true",
                   help="permit --enumerate 8")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("selftest", help="run the built-in consistency suites")
    p.add_argument("--full", action="store_true", help="larger populations")
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GraphFormatError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
