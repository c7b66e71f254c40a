import json
import math

import pytest

from graphdirac import cli, connes, parse_graph
from graphdirac.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_and_connes_square(tmp_path, capsys):
    path = tmp_path / "square.edges"
    code, _, _ = run(capsys, "gen", "--family", "cycle", "--n", "4", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "connes", "--graph", str(path), "--from", "0", "--to", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    assert abs(doc["distance"] - math.sqrt(2.0)) < 1e-6
    assert len(doc["f"]) == 4


def test_gen_formats_and_determinism(tmp_path, capsys):
    a, b = tmp_path / "a.edges", tmp_path / "b.edges"
    for path in (a, b):
        code, _, _ = run(capsys, "gen", "--family", "random", "--n", "10", "--p", "0.4",
                         "--seed", "7", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    j = tmp_path / "g.json"
    run(capsys, "gen", "--family", "tree", "--depth", "2", "--format", "json",
        "--out", str(j))
    assert parse_graph(j.read_bytes()).node_count == 7


def test_out_overwrites_longer_file_exactly(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_bytes(b"9 9 9\n" * 2000)
    code, _, _ = run(capsys, "gen", "--family", "path", "--n", "3", "--out", str(path))
    assert code == 0
    assert path.read_bytes() == b"# nodes: 3\n0 1\n1 2\n"


def test_out_writes_through_symlink(tmp_path, capsys):
    target, link = tmp_path / "target.csv", tmp_path / "link.csv"
    target.write_text("stale\n" * 100)
    link.symlink_to(target)
    argv = ("truncation", "--family", "path", "--max-depth", "4")
    _, expected, _ = run(capsys, *argv)
    code, _, _ = run(capsys, *argv, "--out", str(link))
    assert code == 0
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_text() == expected


def test_gen_missing_parameter(capsys):
    code, _, err = run(capsys, "gen", "--family", "path")
    assert code == 2
    assert "--n" in err


def test_gen_negative_seed_names_the_seed(capsys):
    code, _, err = run(capsys, "gen", "--family", "random", "--n", "5", "--p", "0.5",
                       "--seed", "-1")
    assert code == 2
    assert "seed must be nonnegative, got -1" in err


def test_gen_exhausted_retries_is_usage_error(capsys):
    # p = 0.001 on 50 nodes draws no connected graph in MAX_RANDOM_RETRIES attempts
    code, out, err = run(capsys, "gen", "--family", "random", "--n", "50", "--p", "0.001")
    assert code == 2
    assert err.startswith("error: no connected graph") and out == ""


def test_gen_unwritable_out_is_usage_error(tmp_path, capsys):
    out_path = tmp_path / "missing" / "x"
    code, out, err = run(capsys, "gen", "--family", "path", "--n", "3", "--out", str(out_path))
    assert code == 2
    assert err.startswith("error: cannot write") and out == ""
    assert "Traceback" not in err


def test_spectral_tree(tmp_path, capsys):
    path = tmp_path / "tree.edges"
    run(capsys, "gen", "--family", "tree", "--depth", "8", "--out", str(path))
    code, out, _ = run(capsys, "spectral", "--graph", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["upper"] == 3.0
    assert doc["lower"] <= doc["estimate"] <= doc["upper"] + 1e-8


def test_check_passes_on_random_graph(tmp_path, capsys):
    path = tmp_path / "g.edges"
    run(capsys, "gen", "--family", "random", "--n", "12", "--p", "0.5",
        "--seed", "3", "--out", str(path))
    code, out, _ = run(capsys, "check", "--graph", str(path))
    assert code == 0
    assert "d*d = -2Δ: PASS" in out
    assert "FAIL" not in out


def test_connes_matrix_csv(tmp_path, capsys):
    graph_path = tmp_path / "p.edges"
    csv_path = tmp_path / "m.csv"
    run(capsys, "gen", "--family", "path", "--n", "3", "--out", str(graph_path))
    code, _, _ = run(capsys, "connes-matrix", "--graph", str(graph_path),
                     "--out", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "i,j,distance"
    table = {(int(i), int(j)): float(v)
             for i, j, v in (line.split(",") for line in lines[1:])}
    assert table[(0, 1)] == pytest.approx(1.0, abs=1e-6)
    assert table[(0, 2)] == pytest.approx(math.sqrt(2.0), abs=1e-6)


def test_connes_matrix_uncertified_pair_is_nan(tmp_path, capsys, monkeypatch):
    graph_path = tmp_path / "p.edges"
    # a cycle: a tree's entries are the closed form and never NaN
    run(capsys, "gen", "--family", "cycle", "--n", "4", "--out", str(graph_path))
    certify = connes._certificate

    def one_pair_uncertified(newton, f, multipliers, gauges, targets, tol):
        *fields, certified = certify(newton, f, multipliers, gauges, targets, tol)
        return (*fields, certified & ~((gauges == 0) & (targets == 2)))

    monkeypatch.setattr(connes, "_certificate", one_pair_uncertified)
    code, out, _ = run(capsys, "connes-matrix", "--graph", str(graph_path))
    assert code == 1
    rows = out.strip().splitlines()
    assert rows[0] == "i,j,distance"
    assert "0,2,nan" in rows
    assert all(math.isfinite(float(row.split(",")[2])) for row in rows[1:] if row != "0,2,nan")
    assert len(rows) == 7


def test_connes_matrix_disconnected_graph_is_usage_error(tmp_path, capsys):
    graph_path = tmp_path / "two.edges"
    graph_path.write_text("# nodes: 3\n0 1\n")
    code, _, err = run(capsys, "connes-matrix", "--graph", str(graph_path))
    assert code == 2
    assert "connected" in err


def test_truncation_csv(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code, _, _ = run(capsys, "truncation", "--family", "tree", "--max-depth", "5",
                     "--out", str(out))
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "depth,nodes,norm"
    assert len(lines) == 6
    norms = [float(line.split(",")[2]) for line in lines[1:]]
    assert norms == sorted(norms)
    assert all(x <= 2.0 * math.sqrt(2.0) + 1e-9 for x in norms)


def test_missing_file(capsys):
    code, _, err = run(capsys, "spectral", "--graph", "/nonexistent/graph.edges")
    assert code == 2
    assert "error" in err


def test_parse_error_reported(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 0\n")
    code, _, err = run(capsys, "check", "--graph", str(bad))
    assert code == 2
    assert "line 1" in err


def test_file_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.edges"
    bad.write_bytes(b"0 1\n\xff\xfe 2\n")
    code, out, err = run(capsys, "check", "--graph", str(bad))
    assert code == 2 and not out
    assert err == f"error: {bad}: line 2: not UTF-8 text\n"


def test_oversized_graph_file_rejected(tmp_path, capsys):
    big = tmp_path / "big.edges"
    big.write_text("# nodes: 10000000000\n0 1\n")
    code, _, err = run(capsys, "spectral", "--graph", str(big))
    assert code == 2
    assert "line 1" in err and "cap" in err


def test_unknown_verb_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2
    # a verb with no work to do is a usage error too
    code, out, err = run(capsys, "truncation", "--max-depth", "0")
    assert code == 2
    assert out == "" and "at least one depth" in err


def test_main_builds_no_parser_per_call(tmp_path, capsys, monkeypatch):
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", None)
    path = tmp_path / "p.edges"
    for n in ("3", "4"):
        code, _, _ = run(capsys, "gen", "--family", "path", "--n", n, "--out", str(path))
        assert code == 0 and parse_graph(path.read_bytes()).node_count == int(n)
    # the public builder still returns a new parser on every call
    assert build() is not build()


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "0"])
def test_bad_tolerance_is_usage_error(tmp_path, capsys, tol):
    path = tmp_path / "p.edges"
    run(capsys, "gen", "--family", "path", "--n", "4", "--out", str(path))
    for verb in (["connes", "--from", "0", "--to", "3"], ["connes-matrix"]):
        code, out, err = run(capsys, verb[0], "--graph", str(path), *verb[1:], "--tol", tol)
        assert code == 2
        assert out == "" and "tol" in err


def test_noncertified_solve_is_nonzero_exit(tmp_path, capsys):
    path = tmp_path / "p.edges"
    run(capsys, "gen", "--family", "path", "--n", "4", "--out", str(path))
    code, out, err = run(capsys, "connes", "--graph", str(path),
                         "--from", "0", "--to", "3", "--tol", "1e-15")
    assert code == 1
    assert json.loads(out)["certified"] is False
    assert "not certified" in err
