"""In-memory spans and counts around the public functions of fracmatch.

Tracer.install() replaces each traced function by a wrapper in every
fracmatch module that bound it (alpha2 lives in fm, ngbounds, cli, families,
partition and selftest; hopcroft_karp in bipartite, fm and partition), so
calls between modules are seen too. A wrapper records one span per call:
name, start, end and the index of the span that was open when it started.
uninstall() puts every original binding back. Nothing inside the package
is edited; a target the package no longer has is skipped, and its
metrics read 0.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

# (span name, defining module, attribute). "Class.method" targets are
# rebound on the class, since callers reach them through the class.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("harness.sample_masks", "fracmatch.harness", "sample_masks"),
    ("harness.run_sweep", "fracmatch.harness", "run_sweep"),
    ("graph.from_mask", "fracmatch.graph", "Graph.from_mask"),
    ("graph.complement", "fracmatch.graph", "Graph.complement"),
    ("graph6.emit_graph6", "fracmatch.graph6", "emit_graph6"),
    ("fm.alpha2", "fracmatch.fm", "alpha2"),
    ("fm.double_cover", "fracmatch.fm", "double_cover"),
    ("fm.extract_fm", "fracmatch.fm", "extract_fm"),
    ("fm.canonical_fm", "fracmatch.fm", "canonical_fm"),
    ("fm.berge_deficiency", "fracmatch.fm", "berge_deficiency"),
    ("bipartite.hopcroft_karp", "fracmatch.bipartite", "hopcroft_karp"),
    ("partition.good_partition", "fracmatch.partition", "good_partition"),
    ("partition.verify_partition", "fracmatch.partition", "verify_partition"),
    ("partition.repair", "fracmatch.partition", "repair"),
    ("families.classify_equality_family", "fracmatch.families", "classify_equality_family"),
    ("ngbounds.ng_sum", "fracmatch.ngbounds", "ng_sum"),
    ("ngbounds.sweep_with_rows", "fracmatch.ngbounds", "sweep_with_rows"),
    ("ngbounds.construct_complement_fm", "fracmatch.ngbounds", "construct_complement_fm"),
    (
        "ngbounds.construct_complement_fm_nearquarter",
        "fracmatch.ngbounds",
        "construct_complement_fm_nearquarter",
    ),
    ("bulk.bulk_alpha2", "fracmatch.bulk", "bulk_alpha2"),
    ("cli.main", "fracmatch.cli", "main"),
)

CONSTRUCT_SPANS = (
    "ngbounds.construct_complement_fm",
    "ngbounds.construct_complement_fm_nearquarter",
)

Span = Tuple[str, int, int, int]


def _fracmatch_modules() -> List[object]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if name == "fracmatch" or name.startswith("fracmatch.")
    ]


class Tracer:
    """Spans (name, start_ns, end_ns, parent index; -1 for a root) and
    counts, kept in memory until summary() or write_spans()."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._saved: List[Tuple[object, str, object]] = []
        self._alpha2_cache = None
        self._alpha2_start = (0, 0)

    def _wrap(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _count_case(self, result) -> None:
        _, case = result
        self.counts[f"ngbounds.case.{case.rule}.{case.case}"] += 1
        if case.fallback:
            self.counts["ngbounds.construct.fallbacks"] += 1

    def install(self) -> None:
        import fracmatch  # noqa: F401  (loads every module before the scan)

        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = _fracmatch_modules()
        for name, module_name, attr in TARGETS:
            owner = sys.modules.get(module_name)
            if owner is None:
                continue
            hook = self._count_case if name in CONSTRUCT_SPANS else None
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(method)
                if raw is None:
                    continue
                if isinstance(raw, staticmethod):
                    replacement = staticmethod(self._wrap(name, raw.__func__, hook))
                else:
                    replacement = self._wrap(name, raw, hook)
                setattr(cls, method, replacement)
                self._saved.append((cls, method, raw))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            if attr == "alpha2" and hasattr(original, "cache_info"):
                info = original.cache_info()
                self._alpha2_cache = original
                self._alpha2_start = (info.hits, info.misses)
            wrapped = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._saved.append((module, key, original))

    def uninstall(self) -> None:
        if self._alpha2_cache is not None:
            info = self._alpha2_cache.cache_info()
            hits0, misses0 = self._alpha2_start
            self.counts["fm.alpha2.cache_hits"] += info.hits - hits0
            self.counts["fm.alpha2.cache_misses"] += info.misses - misses0
            self._alpha2_cache = None
        while self._saved:
            owner, key, original = self._saved.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per span name: calls, inclusive ns, and self ns (the span's
        duration minus the durations of its direct children)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, Dict[str, int]] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
            row["calls"] += 1
            row["ns"] += end - start
            row["self_ns"] += end - start - child_ns[i]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            fh.write("index\tname\tstart_ns\tend_ns\tparent\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\n")


def bindings_snapshot() -> Dict[Tuple[str, str], int]:
    """id() of every module-level and class-level binding in fracmatch, to
    show that uninstall() left nothing rebound."""
    snap: Dict[Tuple[str, str], int] = {}
    for module in _fracmatch_modules():
        for key, value in vars(module).items():
            snap[(module.__name__, key)] = id(value)
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, raw in vars(value).items():
                    snap[(f"{module.__name__}.{key}", attr)] = id(raw)
    return snap
