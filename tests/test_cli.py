"""Command line surface, exercised in-process through main()."""
import hashlib
import json

import pytest

import ftoracle.cli as cli
from ftoracle import reference
from ftoracle.generate import gen_gnm
from ftoracle.graph import parse_graph
from ftoracle.oraclefile import _HEADER, load_oracle
from ftoracle.query import build_oracle
from ftoracle.reference import VerifyReport

from conftest import G1_TEXT, G6_TEXT, swap_parents


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


def test_build_reports_progress_per_root(g6_path, tmp_path, capsys):
    build(g6_path, tmp_path, 1)
    lines = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("progress:")]
    assert lines == [f"progress: {k}/7 roots" for k in range(1, 8)]


def test_build_degenerate_budget(g1_path, tmp_path, capsys):
    # budget above m just means the enumeration covers every subset
    build(g1_path, tmp_path, 5)
    assert "entries 1024" in capsys.readouterr().out


def test_build_outputs_identical_files(g1_path, tmp_path):
    a = build(g1_path, tmp_path, 2, "a.oracle")
    b = build(g1_path, tmp_path, 2, "b.oracle")
    with open(a, "rb") as fa, open(b, "rb") as fb:
        assert fa.read() == fb.read()


def test_build_beyond_physical_memory_exits_2(tmp_path, capsys):
    # a 2000-vertex path would need 48 * 2000**4 bytes of tables
    path = tmp_path / "path2000.graph"
    path.write_text("2000 1999\n" + "".join(f"{i} {i + 1} 1\n" for i in range(1999)))
    out = tmp_path / "x.oracle"
    assert cli.main(["build", "-g", str(path), "-d", "1", "-o", str(out)]) == 2
    assert "physical memory" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize("text, message", [
    (b"3 2\n0 1 5\n1 2 \xff\n", "not UTF-8"),
    (b"10000000 0\n", "disconnected"),
])
def test_malformed_graph_exits_2(tmp_path, capsys, command, text, message):
    # a usage error, not verify's exit 1 for a violation, and no traceback
    path = tmp_path / "bad.graph"
    path.write_bytes(text)
    argv = [command, "-g", str(path), "-d", "1"]
    if command == "build":
        argv += ["-o", str(tmp_path / "x.oracle")]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize("command", ["build", "verify"])
@pytest.mark.parametrize("flag, value, message", [
    ("--seed", str(2 ** 63), "tie seed"),
    ("--seed", str(2 ** 63 - 63), "tie seed"),  # its last retry passes int64
    ("--seed", str(-2 ** 63 - 1), "tie seed"),
    ("-d", str(2 ** 64), "failure budget"),
])
def test_values_the_header_cannot_hold_exit_2(g1_path, tmp_path, capsys, command, flag,
                                              value, message):
    # refused before any work, with one error line: no file is made at -o,
    # and an oracle already there keeps its bytes
    args = {"-d": "1", "--seed": "1", flag: value}
    argv = [command, "-g", g1_path, "-d", args["-d"], "--seed", args["--seed"]]
    out = tmp_path / "x.oracle"
    if command == "build":
        argv += ["-o", str(out)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and message in err[0]
    assert not out.exists()
    if command == "build":
        build(g1_path, tmp_path, 1, "x.oracle")
        before = out.read_bytes()
        assert cli.main(argv) == 2
        assert out.read_bytes() == before


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
    # (0, 2) under (1,) is one case_three call, with key trees at 0 and 2
    assert payload["max_hits"] == 0
    assert payload["memo_hits"] == 0
    assert payload["key_trees"] == 2


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


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_verify_rejects_sample_count_below_one(g6_path, samples, capsys):
    # zero samples would check nothing and still report PASS
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "-g", g6_path, "-d", "2", "--samples", samples])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "must be at least 1" in captured.err
    assert "PASS" not in captured.out


def test_verify_failure_exits_one(g1_path, capsys, monkeypatch):
    bad = VerifyReport("x" * 64, 2, "exhaustive", mismatches=1)
    monkeypatch.setattr(cli, "verify_instance", lambda *a, **k: bad)
    assert cli.main(["verify", "-g", g1_path, "-d", "2"]) == 1
    assert "result: FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("fault, counters", [
    ("hit budget", ("hit_budget_violations", "lookup_budget_violations")),
    ("rank", ("rank_violations", "rank_drop_violations")),
], ids=["hit-budget", "rank"])
def test_verify_counts_seeded_violations(g6_path, capsys, monkeypatch, fault, counters):
    # a hit and lookup budget of 0, or every replacement path at rank 5,
    # past d = 2: exhaustive verify counts the fault in its two counters
    # and in no other, fails, and exits 1
    if fault == "hit budget":
        monkeypatch.setattr(reference, "hit_budget", lambda d: 0)
    else:
        monkeypatch.setattr(reference.ReferenceOracle, "rank_of_path", lambda self, path: 5)
    graph = parse_graph(G6_TEXT)
    report = reference.verify_instance(build_oracle(graph, 2, seed=1))
    every = ("mismatches", "rank_violations", "rank_drop_violations", "bound_violations",
             "hit_check_violations", "hit_budget_violations", "lookup_budget_violations")
    assert {name for name in every if getattr(report, name)} == set(counters)
    assert not report.ok
    assert cli.main(["verify", "-g", g6_path, "-d", "2"]) == 1
    assert "result: FAIL" in capsys.readouterr().out


def test_verify_guard_error_exits_one(tmp_path, capsys, monkeypatch):
    # verify runs on a loaded oracle whose root 0 derives a wrong tree: the
    # guard's GuardError becomes one error line and exit 1, no traceback.
    # Its tables derive their slots on an intact load's index, as a pair's
    # first read would refuse a palette that misses the swapped tree path
    graph_path = tmp_path / "g.graph"
    graph_path.write_text(gen_gnm(8, 12, 32, 0).to_text())
    saved = str(tmp_path / "g.oracle")
    assert cli.main(["build", "-g", str(graph_path), "-d", "2", "-o", saved]) == 0
    capsys.readouterr()
    intact = load_oracle(saved).index
    swap_parents(monkeypatch, 0)

    def swapped(graph, d, seed):
        oracle = load_oracle(saved, graph)
        oracle.tables.index = intact
        return oracle
    monkeypatch.setattr(cli, "build_oracle", swapped)
    assert cli.main(["verify", "-g", str(graph_path), "-d", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: unguarded lookup ")


def test_verify_palette_error_exits_one(tmp_path, capsys, monkeypatch):
    # verify runs on a loaded oracle whose root 0 derives a wrong tree, so
    # the first read of a pair whose palette sets miss the swapped tree path
    # refuses it.  The tables are verify's own build, so that refusal is a
    # violation: one error line and exit 1, no traceback
    graph_path = tmp_path / "g.graph"
    graph_path.write_text(gen_gnm(8, 12, 32, 0).to_text())
    saved = str(tmp_path / "g.oracle")
    assert cli.main(["build", "-g", str(graph_path), "-d", "2", "-o", saved]) == 0
    capsys.readouterr()
    swap_parents(monkeypatch, 0)
    monkeypatch.setattr(cli, "build_oracle", lambda graph, d, seed: load_oracle(saved, graph))
    assert cli.main(["verify", "-g", str(graph_path), "-d", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ")
    assert "a palette set misses the base path" in captured.err


@pytest.mark.parametrize("sample", [[], ["--samples", "5"]], ids=["exhaustive", "sampled"])
def test_verify_one_vertex_graph(tmp_path, capsys, sample):
    # the one-vertex graph has no pair u != v: exhaustive and sampled
    # verify both check 0 instances and pass
    graph_path = tmp_path / "one.graph"
    graph_path.write_text("1 0\n")
    assert cli.main(["verify", "-g", str(graph_path), "-d", "1"] + sample) == 0
    out = capsys.readouterr().out
    assert "instances checked: 0" in out and "result: PASS" in out


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
    with open(out, encoding="ascii") as fh:
        g = parse_graph(fh.read())
    assert g.m == g.n - 1


def test_gen_rejects_infeasible(tmp_path, capsys):
    rc = cli.main(["gen", "-n", "4", "-m", "7", "--wmax", "10",
                   "--seed", "1", "-o", str(tmp_path / "x")])
    assert rc == 2
    assert "infeasible" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_query_rejects_out_of_range_tie_value(g1_path, tmp_path, capsys):
    # a crafted file: the first edge's tie value zeroed, the trailer re-sealed
    oracle = build(g1_path, tmp_path, 1)
    with open(oracle, "rb") as fh:
        blob = bytearray(fh.read())
    off = _HEADER.size + 16  # header, then the first edge record's tie field
    blob[off:off + 8] = bytes(8)
    body = bytes(blob[:-32])
    with open(oracle, "wb") as fh:
        fh.write(body + hashlib.sha256(body).digest())
    capsys.readouterr()
    assert cli.main(["query", "-o", oracle, "-s", "0", "-t", "2"]) == 2
    assert "tie value" in capsys.readouterr().err
