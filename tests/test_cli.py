"""Command line behavior: formats, exit codes, input modes, round-trips."""

import hashlib
import io
import json

import pytest

from fracmatch import families, harness, ngbounds
from fracmatch.cli import build_parser, load_graph, main
from fracmatch.fm import alpha2
from fracmatch.generators import add_isolates, complete, disjoint_union, empty_graph, k2pql, star
from fracmatch.graph import Graph
from fracmatch.graph6 import emit_edgelist, emit_graph6, parse_graph6
from fracmatch.halfint import HalfInt
from fracmatch.bounds import CSV_HEADER


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------- graph input


def test_load_graph_literal():
    assert load_graph("A_") == complete(2)


def test_load_graph_file(tmp_path):
    path = tmp_path / "g.g6"
    path.write_text(emit_graph6(star(5)) + "\n")
    assert load_graph(str(path)) == star(5)


def test_load_graph_edgelist_file(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text(emit_edgelist(star(5)))
    assert load_graph(str(path)) == star(5)


def test_load_graph_stdin(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("4\n0 1\n2 3\n"))
    g = load_graph("-")
    assert g == Graph.from_edges(4, [(0, 1), (2, 3)])


# --------------------------------------------------------------------- alpha


def test_alpha_single_edge(capsys):
    code, out, _ = run(capsys, "alpha", "A_")
    assert code == 0
    assert out == "2a'=2 (1)\n"


def test_alpha_half_integral(capsys):
    code, out, _ = run(capsys, "alpha", emit_graph6(complete(5)))
    assert code == 0
    assert out == "2a'=5 (2.5)\n"


def test_alpha_stdin_edgelist(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("4\n0 1\n0 2\n0 3\n"))
    code, out, _ = run(capsys, "alpha", "-")
    assert code == 0
    assert out == "2a'=2 (1)\n"


# ------------------------------------------------------------------ classify


def test_classify_star(capsys):
    code, out, _ = run(capsys, "classify", emit_graph6(star(4)))
    assert code == 0
    doc = json.loads(out)
    assert doc["alpha"] == "1"
    assert doc["label"] == {"tag": "StarUnion", "k": 3}
    assert doc["is_equality"] is True


def test_classify_out_of_range(capsys):
    code, out, _ = run(capsys, "classify", emit_graph6(complete(8)))
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] is None
    assert "sum" not in doc


# --------------------------------------------------------------------- ngsum


def test_ngsum_star_equality(capsys, tmp_path):
    path = tmp_path / "star.edges"
    path.write_text(emit_edgelist(star(29)))
    code, out, _ = run(capsys, "ngsum", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["sum"] == "15"
    assert doc["bounds"]["nonempty"] == {
        "applies": True,
        "bound": "15",
        "satisfied": True,
        "equality": True,
    }
    assert doc["equality_family"] == {"tag": "StarUnion", "k": 28}


def _verdict(applies, bound, satisfied, equality):
    return {"applies": applies, "bound": bound, "satisfied": satisfied, "equality": equality}


NGSUM_DOCS = [
    (
        star(29),
        {
            "n": 29,
            "alpha_g": "1",
            "alpha_gc": "14",
            "sum": "15",
            "hypotheses": {
                "g_nonempty": True,
                "gc_nonempty": True,
                "g_isolate_free": True,
                "gc_isolate_free": False,
                "n_at_least_28": True,
            },
            "bounds": {
                "basic": _verdict(True, "29/2", True, False),
                "nonempty": _verdict(True, "15", True, True),
                "isolate_free": _verdict(False, "33/2", False, False),
            },
            "equality_family": {"tag": "StarUnion", "k": 28},
        },
    ),
    (
        k2pql(14, 13, 1),
        {
            "n": 30,
            "alpha_g": "2",
            "alpha_gc": "15",
            "sum": "17",
            "hypotheses": {
                "g_nonempty": True,
                "gc_nonempty": True,
                "g_isolate_free": True,
                "gc_isolate_free": True,
                "n_at_least_28": True,
            },
            "bounds": {
                "basic": _verdict(True, "15", True, False),
                "nonempty": _verdict(True, "31/2", True, False),
                "isolate_free": _verdict(True, "17", True, True),
            },
            "equality_family": {"tag": "K2pql", "p": 14, "q": 13, "ell": 1},
        },
    ),
]


@pytest.mark.parametrize("g,doc", NGSUM_DOCS, ids=["star29", "k2pql_14_13_1"])
def test_ngsum_whole_document(capsys, g, doc):
    """Every field, in order and byte for byte, including the bounds that
    do not apply and the equality family."""
    g6 = emit_graph6(g)
    code, out, _ = run(capsys, "ngsum", g6)
    assert code == 0
    assert out == json.dumps({"graph6": g6, **doc}, indent=2) + "\n"


def test_ngsum_tiny_rejected(capsys):
    code, _, err = run(capsys, "ngsum", "@")
    assert code == 2
    assert "error" in err


# ----------------------------------------------------------------- partition


def test_partition_dump_is_json(capsys):
    code, out, _ = run(capsys, "partition", emit_graph6(star(6)))
    assert code == 0
    doc = json.loads(out)
    assert doc["n"] == 6


# ----------------------------------------------------------------- construct


def test_construct_auto_rule(capsys):
    g = disjoint_union(star(4), star(4), star(4))
    code, out, _ = run(capsys, "construct", emit_graph6(g))
    assert code == 0
    doc = json.loads(out)
    assert doc["rule"] == "plus_one"
    assert doc["case"] == "v11_internal"
    assert doc["complement6"] == emit_graph6(g.complement())
    assert doc["claimed"] == "11/2"
    units = sum(units for _, _, units in doc["weights"])
    assert units >= 11
    assert units <= alpha2(parse_graph6(doc["complement6"]))


def test_construct_forced_base(capsys):
    code, out, _ = run(capsys, "construct", "--rule", "base", emit_graph6(star(8)))
    assert code == 0
    doc = json.loads(out)
    assert doc["rule"] == "base"
    assert doc["case"] == "r3plus"


def test_construct_near_quarter_gate(capsys):
    g = add_isolates(disjoint_union(complete(2), complete(2)), 3)
    code, _, err = run(capsys, "construct", "--rule", "near_quarter", emit_graph6(g))
    assert code == 2
    assert "error" in err
    code, out, _ = run(
        capsys, "construct", "--rule", "near_quarter", "--any-order", emit_graph6(g)
    )
    assert code == 0
    assert json.loads(out)["case"] == "s_small"


def test_construct_rejects_dense(capsys):
    code, _, err = run(capsys, "construct", emit_graph6(complete(6)))
    assert code == 2
    assert "error" in err


def test_construct_any_order_probe_miss_is_clean(capsys):
    # Two stars plus an edge at n=8: in the near-quarter window, but the
    # recipe genuinely comes up short this far below the order gate. The
    # probe should report that as a usage-level failure, not a traceback.
    g = disjoint_union(star(3), star(3), complete(2))
    code, _, err = run(
        capsys, "construct", "--rule", "near_quarter", "--any-order", emit_graph6(g)
    )
    assert code == 2
    assert "fails at this order" in err


# --------------------------------------------------------------------- sweep


def test_sweep_workers_default_is_one():
    assert build_parser().parse_args(["sweep", "--enumerate", "3"]).workers == 1


def test_sweep_enumerate_csv(capsys, tmp_path):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "stats.json"
    code, out, _ = run(
        capsys,
        "sweep",
        "--enumerate",
        "5",
        "--csv",
        str(csv_path),
        "--json",
        str(json_path),
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 1024
    stats = json.loads(json_path.read_text())
    assert stats["total"] == 1024
    assert stats["satisfied"] == 1024
    assert stats["violations"] == []
    # Round-trip: each row's graph6 reloads to a graph matching its columns.
    for line in lines[1:32]:
        g6, n, a_g, a_gc, total, *_ = line.split(",")
        g = parse_graph6(g6)
        assert g.n == int(n)
        assert str(HalfInt(alpha2(g))) == a_g
        assert str(HalfInt(alpha2(g.complement()))) == a_gc


def test_sweep_sample_stdout(capsys):
    code, out, _ = run(capsys, "sweep", "--sample", "28,0.5,10,3", "--csv", "-")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 11
    assert lines[1:] == sorted(lines[1:])


def test_sweep_default_prints_stats(capsys):
    code, out, _ = run(capsys, "sweep", "--enumerate", "3", "--bound", "nonempty")
    assert code == 0
    stats = json.loads(out)
    assert stats["bound"] == "nonempty"
    assert stats["total"] == 8


def test_sweep_usage_errors(capsys):
    code, _, err = run(capsys, "sweep")
    assert code == 2
    code, _, err = run(
        capsys, "sweep", "--enumerate", "3", "--sample", "4,0.5,1,1"
    )
    assert code == 2
    code, _, err = run(capsys, "sweep", "--sample", "4,2.5,1,1")
    assert code == 2
    code, _, err = run(capsys, "sweep", "--enumerate", "9")
    assert code == 2


@pytest.mark.parametrize("flag", ["--csv", "--json"])
def test_sweep_unwritable_output_is_usage_error(capsys, tmp_path, monkeypatch, flag):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before its output path was checked")

    monkeypatch.setattr("fracmatch.harness.run_sweep", no_sweep)
    target = tmp_path / "missing" / "out"
    code, _, err = run(capsys, "sweep", "--enumerate", "3", flag, str(target))
    assert code == 2
    assert err.startswith(f"error: cannot write {target}")


@pytest.mark.parametrize(
    "p, message",
    [
        ("1/0", "edge probability '1/0' has a zero denominator"),
        ("1e400", "edge probability '1e400' outside [0, 1]"),
        ("-1/2", "edge probability '-1/2' outside [0, 1]"),
    ],
)
def test_sweep_bad_probability_is_usage_error(capsys, p, message):
    code, out, err = run(capsys, "sweep", "--sample", f"30,{p},3,1")
    assert (code, out, err) == (2, "", f"error: bad --sample: {message}\n")


@pytest.mark.parametrize("spelling", ["out", "sub/../out"])
def test_sweep_csv_and_json_on_one_file_is_usage_error(capsys, tmp_path, monkeypatch, spelling):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before its outputs were checked")

    monkeypatch.setattr("fracmatch.harness.run_sweep", no_sweep)
    (tmp_path / "sub").mkdir()
    csv_path, json_path = tmp_path / "out", tmp_path / spelling
    code, _, err = run(
        capsys, "sweep", "--enumerate", "3", "--csv", str(csv_path), "--json", str(json_path)
    )
    assert code == 2
    assert err == f"error: --csv and --json both name {json_path}\n"
    assert not csv_path.exists()


def test_sweep_csv_and_json_may_both_go_to_stdout(capsys):
    code, out, _ = run(capsys, "sweep", "--enumerate", "3", "--csv", "-", "--json", "-")
    assert code == 0
    assert out.startswith(CSV_HEADER + "\n")
    assert json.loads(out[out.index("{"):])["total"] == 8


def _sweep_outputs(capsys, tmp_path, *argv):
    csv_path, json_path = tmp_path / "rows.csv", tmp_path / "stats.json"
    code, _, _ = run(
        capsys, "sweep", *argv, "--workers", "1", "--csv", str(csv_path), "--json", str(json_path)
    )
    rows = {line.split(",")[0]: line.split(",") for line in csv_path.read_text().splitlines()[1:]}
    return code, rows, json.loads(json_path.read_text())


# sha256 of the CSV and of the JSON each sweep writes.
SWEEP_DIGESTS = [
    (("--enumerate", "5", "--bound", "basic"),
     "9cd5bf4ffb3435142bfc4df278156dffbdd6d6b711c47a544bae5188b44ccf3d",
     "4943c4e018a3ec231bc20e5cc085b113ae3ab9e150fa1e8f0b64864fe8597752"),
    (("--enumerate", "5", "--bound", "nonempty"),
     "fb6e1fd7ef505a077ec3e6d2f69b0b2c33b6d598b0038888d222a6944ddd9f60",
     "87b22bb5d76fe0492ab6912b3b0ca7e889b162027e07e887afefc0a9fd98810f"),
    (("--enumerate", "5", "--bound", "isolate_free"),
     "4f0720ca2f8b8da4559473e1b73091fceda2949d58ecf08ab86f29bc607ab9de",
     "5d593564ba1b87d98355874bb9c392a842288ac891ad9102d19cf9acd8f8c6a5"),
    (("--enumerate", "6", "--bound", "basic"),
     "d41e63408fe2f98b826304cbfc042be3d99d128d6803295168fe528efc91f4bf",
     "888ec4e3f138ae0cc5c79e163d60e511b87002597dccdf7b4d2915194f00bd40"),
    (("--sample", "30,1/10,400,7", "--bound", "nonempty"),
     "35375fc71e517fc780db19bbd0397581186e9e35a256517575bf9699b739ba4c",
     "df55d97cc3d26cf3f61148f963df270a5c7307f4f3efa94c175c783f84ae7a11"),
    (("--sample", "29,1/2,400,3", "--bound", "nonempty"),
     "3701a3aeb038ccd85578e26e444c3eb0389bb0034f223aae77bd37f1d2c5d912",
     "df55d97cc3d26cf3f61148f963df270a5c7307f4f3efa94c175c783f84ae7a11"),
    (("--sample", "64,1/2,100,7", "--bound", "isolate_free"),
     "c369733314e15a8c45190d4e8710b7ee94811b3f82ae47d8690dfadd84c30108",
     "23234f9d40dd3129717d5bb73c5fb4fa71db59d4e0aeec7fb3c9b46d36aa7ec6"),
]


@pytest.mark.parametrize("argv,csv_sha,json_sha", SWEEP_DIGESTS)
def test_sweep_output_bytes_are_pinned(capsys, tmp_path, argv, csv_sha, json_sha):
    csv_path, json_path = tmp_path / "rows.csv", tmp_path / "stats.json"
    code, _, _ = run(capsys, "sweep", *argv, "--csv", str(csv_path), "--json", str(json_path))
    assert code == 0
    assert hashlib.sha256(csv_path.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(json_path.read_bytes()).hexdigest() == json_sha


def test_sweep_violation_exits_1(capsys, tmp_path, monkeypatch):
    real = harness.bound_verdict

    def violated_on_empty(which, n, a_g, a_gc, m_g, *rest):
        v = real(which, n, a_g, a_gc, m_g, *rest)
        return v._replace(satisfied=v.satisfied & (m_g != 0))

    monkeypatch.setattr(harness, "bound_verdict", violated_on_empty)
    code, rows, stats = _sweep_outputs(capsys, tmp_path, "--enumerate", "3")
    key = emit_graph6(empty_graph(3))
    assert code == 1
    assert stats["violations"] == [key]
    assert rows[key][6] == "0"
    assert all(row[6] == "1" for g6, row in rows.items() if g6 != key)


def test_sweep_unmatched_equality_exits_1(capsys, tmp_path, monkeypatch):
    code, rows, stats = _sweep_outputs(capsys, tmp_path, "--enumerate", "3")
    assert code == 0
    equalities = sorted(g6 for g6, row in rows.items() if row[7] == "1")
    assert equalities == [emit_graph6(empty_graph(3)), emit_graph6(complete(3))]
    assert stats["characterization_match"] == 2

    monkeypatch.setattr(families, "classify_equality_family", lambda g, which: None)
    code, rows, stats = _sweep_outputs(capsys, tmp_path, "--enumerate", "3")
    assert code == 1
    assert stats["unmatched_equalities"] == equalities
    assert stats["violations"] == []
    assert all(rows[g6][8] == "" for g6 in equalities)


def test_ngsum_violation_exits_1(capsys, monkeypatch):
    real = ngbounds.bound_verdict
    monkeypatch.setattr(
        ngbounds, "bound_verdict", lambda *args: real(*args)._replace(satisfied=False)
    )
    code, out, _ = run(capsys, "ngsum", emit_graph6(star(29)))
    assert code == 1
    assert json.loads(out)["bounds"]["basic"]["satisfied"] is False


def test_argparse_usage_exit():
    with pytest.raises(SystemExit) as exc:
        main(["not-a-command"])
    assert exc.value.code == 2


def test_bad_graph_input(capsys):
    code, _, err = run(capsys, "alpha", "A")
    assert code == 2
    assert "error" in err


def test_directory_graph_input(capsys, tmp_path):
    code, _, err = run(capsys, "alpha", str(tmp_path))
    assert code == 2
    assert err.startswith("error: cannot read")


def test_undecodable_graph_file(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_bytes(b"\xff\n")
    code, _, err = run(capsys, "alpha", str(path))
    assert code == 2
    assert err.startswith("error: cannot read")


# ------------------------------------------------------------------ selftest


def test_selftest_quick(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "oracle:" in out
    assert "construction:" in out
    assert "FAILED" not in out
