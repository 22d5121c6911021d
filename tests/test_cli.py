"""Command line surface, exercised in-process through main()."""
import json

import pytest

import ftoracle.cli as cli
from ftoracle.graph import parse_graph
from ftoracle.reference import VerifyReport

from conftest import G1_TEXT, G6_TEXT


@pytest.fixture()
def g1_path(tmp_path):
    path = tmp_path / "g1.graph"
    path.write_text(G1_TEXT)
    return str(path)


@pytest.fixture()
def g6_path(tmp_path):
    path = tmp_path / "g6.graph"
    path.write_text(G6_TEXT)
    return str(path)


def build(g1_path, tmp_path, d, name="a.oracle"):
    out = str(tmp_path / name)
    rc = cli.main(["build", "-g", g1_path, "-d", str(d), "-o", out])
    assert rc == 0
    return out


def test_build_reports_entry_count(g1_path, tmp_path, capsys):
    build(g1_path, tmp_path, 1)
    out = capsys.readouterr()
    assert "entries 1024" in out.out
    assert "build time" in out.err


def test_build_g6_entry_count(g6_path, tmp_path, capsys):
    out = str(tmp_path / "g6.oracle")
    assert cli.main(["build", "-g", g6_path, "-d", "1", "-o", out]) == 0
    assert "entries 9604" in capsys.readouterr().out


def test_build_degenerate_budget(g1_path, tmp_path, capsys):
    # budget above m just means the enumeration covers every subset
    build(g1_path, tmp_path, 5)
    assert "entries 1024" in capsys.readouterr().out


def test_build_outputs_identical_files(g1_path, tmp_path):
    a = build(g1_path, tmp_path, 2, "a.oracle")
    b = build(g1_path, tmp_path, 2, "b.oracle")
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_build_rejects_missing_graph(tmp_path, capsys):
    rc = cli.main(["build", "-g", str(tmp_path / "nope"), "-d", "1",
                   "-o", str(tmp_path / "x")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_query_with_failure(g1_path, tmp_path, capsys):
    oracle = build(g1_path, tmp_path, 1)
    capsys.readouterr()
    assert cli.main(["query", "-o", oracle, "-s", "0", "-t", "2",
                     "--fail", "1-2"]) == 0
    assert capsys.readouterr().out == "6\n"


def test_query_without_failures(g1_path, tmp_path, capsys):
    oracle = build(g1_path, tmp_path, 1)
    capsys.readouterr()
    assert cli.main(["query", "-o", oracle, "-s", "0", "-t", "2"]) == 0
    assert capsys.readouterr().out == "3\n"


def test_query_unreachable(g1_path, tmp_path, capsys):
    oracle = build(g1_path, tmp_path, 2)
    capsys.readouterr()
    assert cli.main(["query", "-o", oracle, "-s", "0", "-t", "2",
                     "--fail", "1-2", "--fail", "2-3"]) == 0
    assert capsys.readouterr().out == "UNREACHABLE\n"


def test_query_json(g1_path, tmp_path, capsys):
    oracle = build(g1_path, tmp_path, 1)
    capsys.readouterr()
    assert cli.main(["query", "-o", oracle, "-s", "0", "-t", "2",
                     "--fail", "1-2", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["source"] == 0
    assert payload["target"] == 2
    assert payload["failed_edges"] == [1]
    assert payload["distance"] == 6
    assert payload["unreachable"] is False
    assert payload["lookups"] >= 1
    assert payload["case_three_calls"] >= 1
    assert payload["recursion_depth"] >= 1


def test_query_stdout_deterministic(g1_path, tmp_path, capsys):
    oracle = build(g1_path, tmp_path, 1)
    capsys.readouterr()
    cli.main(["query", "-o", oracle, "-s", "0", "-t", "2", "--fail", "1-2"])
    first = capsys.readouterr().out
    cli.main(["query", "-o", oracle, "-s", "0", "-t", "2", "--fail", "1-2"])
    assert capsys.readouterr().out == first


def test_query_rejects_unknown_edge(g1_path, tmp_path, capsys):
    oracle = build(g1_path, tmp_path, 1)
    rc = cli.main(["query", "-o", oracle, "-s", "0", "-t", "2",
                   "--fail", "0-2"])
    assert rc == 2
    assert "no edge" in capsys.readouterr().err


def test_query_rejects_malformed_fail(g1_path, tmp_path, capsys):
    oracle = build(g1_path, tmp_path, 1)
    rc = cli.main(["query", "-o", oracle, "-s", "0", "-t", "2",
                   "--fail", "one"])
    assert rc == 2
    assert "--fail" in capsys.readouterr().err


def test_query_rejects_bad_vertex(g1_path, tmp_path, capsys):
    oracle = build(g1_path, tmp_path, 1)
    rc = cli.main(["query", "-o", oracle, "-s", "0", "-t", "9"])
    assert rc == 2
    assert "vertex" in capsys.readouterr().err


def test_query_rejects_corrupt_oracle(g1_path, tmp_path, capsys):
    oracle = build(g1_path, tmp_path, 1)
    with open(oracle, "r+b") as fh:
        fh.seek(-100, 2)  # inside the table arrays
        byte = fh.read(1)[0]
        fh.seek(-100, 2)
        fh.write(bytes([byte ^ 1]))
    capsys.readouterr()
    rc = cli.main(["query", "-o", oracle, "-s", "0", "-t", "2"])
    assert rc == 2
    assert "sha256" in capsys.readouterr().err


def test_verify_exhaustive_passes(g1_path, capsys):
    assert cli.main(["verify", "-g", g1_path, "-d", "2"]) == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    assert "instances checked: 132" in out


def test_verify_g6(g6_path, capsys):
    assert cli.main(["verify", "-g", g6_path, "-d", "1"]) == 0
    assert "result: PASS" in capsys.readouterr().out


def test_verify_sampled(g6_path, capsys):
    assert cli.main(["verify", "-g", g6_path, "-d", "2",
                     "--samples", "40"]) == 0
    assert "mode=sampled" in capsys.readouterr().out


def test_verify_failure_exits_one(g1_path, capsys, monkeypatch):
    bad = VerifyReport("x" * 64, 2, "exhaustive", mismatches=1)
    monkeypatch.setattr(cli, "verify_instance", lambda *a, **k: bad)
    assert cli.main(["verify", "-g", g1_path, "-d", "2"]) == 1
    assert "result: FAIL" in capsys.readouterr().out


def test_gen_writes_parseable_graph(tmp_path, capsys):
    out = str(tmp_path / "r.graph")
    rc = cli.main(["gen", "--model", "gnm", "-n", "8", "-m", "12",
                   "--wmax", "32", "--seed", "7", "-o", out])
    assert rc == 0
    assert capsys.readouterr().out == f"wrote {out}: n=8 m=12\n"
    with open(out, encoding="ascii") as fh:
        text = fh.read()
    assert text.startswith("# gen model=gnm n=8 m=12 wmax=32 seed=7\n")
    g = parse_graph(text)
    assert (g.n, g.m) == (8, 12)


def test_gen_deterministic_files(tmp_path):
    paths = []
    for name in ("a", "b"):
        out = str(tmp_path / name)
        cli.main(["gen", "-n", "8", "-m", "12", "--wmax", "32",
                  "--seed", "7", "-o", out])
        paths.append(out)
    with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
        assert fa.read() == fb.read()


def test_gen_tree(tmp_path, capsys):
    out = str(tmp_path / "t.graph")
    assert cli.main(["gen", "-n", "5", "-m", "4", "--wmax", "10",
                     "--seed", "1", "-o", out]) == 0
    g = parse_graph(open(out).read())
    assert g.m == g.n - 1


def test_gen_rejects_infeasible(tmp_path, capsys):
    rc = cli.main(["gen", "-n", "4", "-m", "7", "--wmax", "10",
                   "--seed", "1", "-o", str(tmp_path / "x")])
    assert rc == 2
    assert "infeasible" in capsys.readouterr().err


def test_bench_prints_table(g1_path, capsys):
    assert cli.main(["bench", "-g", g1_path, "--dmin", "1", "--dmax", "1",
                     "--queries", "3", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "subsets" in out
    assert " 1024" in out


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
