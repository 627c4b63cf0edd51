"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest fmbench/test_smoke.py

It runs every workload traced and untraced, checks that the metric names
match BENCHMARK.json, that the tracer puts every binding back, and that a
wrong output is counted as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import child  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setitem(run.SWEEPS, "sweep-sparse30",
                        {"sample": (30, "1/10", 40), "bound": "nonempty", "workers": 1})
    monkeypatch.setitem(run.SWEEPS, "sweep-dense64",
                        {"sample": (64, "1/2", 12), "bound": "isolate_free", "workers": 2})
    monkeypatch.setitem(run.SWEEPS, "enum6", {"enumerate": 4, "bound": "basic", "workers": 1})
    monkeypatch.setattr(run, "CERTIFY", {"copies": 1, "uniform": 2})
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", run.WORKLOADS)
def test_workload_runs_clean(tiny, name, trace):
    result = run.result_json(run.run_workload(name, seed=3, seconds=0.01, trace=bool(trace)))
    assert result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    assert [v["unit"] for v in result["metrics"].values()] == [m["unit"] for m in listed]
    if trace and name == "certify":
        for rule, cases in run.CASES:
            for case in cases:
                assert result["metrics"][f"ngbounds.case.{rule}.{case}"]["value"] > 0
    if trace and name != "certify":
        assert result["metrics"]["partition.good_partition.calls_per_graph"]["value"] == 0
        assert result["metrics"]["ngbounds.construct.probes"]["value"] == 0


def test_cases_match_the_package():
    from fracmatch.selftest import expected_cases

    listed = {(rule, case) for rule, cases in run.CASES for case in cases}
    assert listed == expected_cases()


def test_tracer_restores_every_binding():
    from fracmatch import fm, graph, ngbounds, partition
    from fracmatch.harness import SampleSpec, sample_graphs

    before = tracer.bindings_snapshot()
    t = tracer.Tracer()
    with t:
        assert fm.alpha2 is ngbounds.alpha2 is partition.alpha2
        assert fm.alpha2.__wrapped__ is not None
        assert fm.hopcroft_karp is partition.hopcroft_karp
        assert hasattr(graph.Graph.from_mask, "__wrapped__")
        ngbounds.sweep_with_rows(sample_graphs(SampleSpec(30, 1, 10, 5, 1)), "nonempty")
        for g in sample_graphs(SampleSpec(28, 1, 2, 2, 1)):
            partition.good_partition(g)
    assert tracer.bindings_snapshot() == before
    summary = t.summary()
    assert summary["ngbounds.ng_sum"]["calls"] == 5
    assert summary["bipartite.hopcroft_karp"]["calls"] >= 10
    for name, row in summary.items():
        assert 0 <= row["self_ns"] <= row["ns"], name
    roots = [s for s in t.spans if s[3] == -1]
    assert {s[0] for s in roots} <= {"ngbounds.sweep_with_rows", "partition.good_partition",
                                     "graph.from_mask", "harness.sample_masks"}


def test_wrong_sweep_row_is_a_failure(tiny, monkeypatch):
    real_spawn = run.spawn

    def corrupting_spawn(argv, log):
        out = real_spawn(argv, log)
        csv = log.parent / "rows.csv"
        lines = csv.read_text().splitlines() if csv.exists() else []
        if len(lines) > 1:
            fields = lines[1].split(",")
            fields[2] = str(run.checks.half_units(fields[2]) + 1) + "/2"
            lines[1] = ",".join(fields)
            csv.write_text("\n".join(lines) + "\n")
        return out

    monkeypatch.setattr(run, "spawn", corrupting_spawn)
    monkeypatch.setattr(run, "NETWORKX_ROWS", 1000)
    result = run.result_json(run.run_workload("sweep-sparse30", 3, 0.01, False))
    assert not result["correct"]
    assert result["failed"] >= 1


def test_wrong_certificate_is_a_failure():
    from fracmatch.selftest import branch_corpus

    g = dict(branch_corpus())["nq_p2_r1"]
    p, witness, built = child.certify_graph(g)
    assert child.check_certificate(g, p, witness, built) == []
    off = type(witness)(witness.s_set, witness.deficiency + 2)
    assert child.check_certificate(g, p, off, built)


def test_without_the_package_it_exits_nonzero(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "enum6", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
