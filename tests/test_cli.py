"""Command line behavior: formats, exit codes, input modes, round-trips."""

import io
import json

import pytest

from fracmatch.cli import load_graph, main
from fracmatch.fm import alpha2
from fracmatch.generators import add_isolates, complete, disjoint_union, star
from fracmatch.graph import Graph
from fracmatch.graph6 import emit_edgelist, emit_graph6, parse_graph6
from fracmatch.halfint import HalfInt
from fracmatch.ngbounds import CSV_HEADER


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
def test_sweep_unwritable_output_is_usage_error(capsys, tmp_path, flag):
    target = tmp_path / "missing" / "out"
    code, _, err = run(capsys, "sweep", "--enumerate", "3", flag, str(target))
    assert code == 2
    assert err.startswith("error: cannot write")


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
