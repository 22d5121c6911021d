"""Tests of the benchmark itself, on a tiny workload.

    python3 -m pytest perfbench/tests
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (str(ROOT), str(ROOT / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import ftoracle  # noqa: E402
from ftoracle import CompositeLength, Oracle  # noqa: E402
from perfbench import harness, run, tracing  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload  # noqa: E402

TINY = Workload("tiny", n=5, m=7, d=2, graphs=2, stream="uniform", stream_len=60)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setitem(WORKLOADS, "tiny", TINY)
    monkeypatch.setattr(run, "HERE", tmp_path)


def bench(capsys, trace: int):
    argv = ["--workload", "tiny", "--seed", "3", "--seconds", "0.05",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def declared(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def hook_targets():
    return [tracing._resolve(h) for h in tracing.HOOKS]


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_its_unit(tiny, capsys, trace, kind):
    lines, result = bench(capsys, trace)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    want = declared(kind)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float))
        assert f"{name} {value} {unit}" in lines


def test_wrappers_restored_after_traced_run(tiny, capsys):
    before = hook_targets()
    assert all(t is not None for t in before)
    bench(capsys, 1)
    assert hook_targets() == before
    with pytest.raises(RuntimeError):
        with tracing.Tracer().installed():
            assert ftoracle.query.build_tables is not before[3][1]
            raise RuntimeError("fail inside the traced block")
    assert hook_targets() == before


def test_missing_layer_is_reported_absent(tiny, capsys, monkeypatch):
    hooks = tuple(h._replace(attr="_merged_away") if h.name == "tables.masks" else h
                  for h in tracing.HOOKS)
    monkeypatch.setattr(tracing, "HOOKS", hooks)
    lines, result = bench(capsys, 1)
    assert result["correct"] is True
    assert "tables.masks_s" not in result["metrics"]
    assert "tables.update_s" not in result["metrics"]
    assert "tables.sweep_s" in result["metrics"]
    assert any(line.startswith("absent layers:") and "tables.masks_s" in line
               for line in lines)


def test_wrong_answer_trips_query_errors(tiny, capsys, monkeypatch):
    real = Oracle.query_composite

    def off_by_one(self, u, v, failures=(), **kwargs):
        answer = real(self, u, v, failures, **kwargs)
        return answer + CompositeLength(1, 0) if u == 0 else answer

    monkeypatch.setattr(Oracle, "query_composite", off_by_one)
    lines, result = bench(capsys, 0)
    assert result["failed"] > 0
    assert result["correct"] is False
    assert any(line.startswith("CHECK FAILED") for line in lines)


def test_recorded_digest_mismatch_fails_the_run(tiny, capsys, monkeypatch):
    monkeypatch.setattr(harness, "recorded_digests",
                        lambda workload, seed: {"tables": "0" * 64, "answers": "0" * 64})
    _, result = bench(capsys, 0)
    assert result["failed"] == 0
    assert result["correct"] is False


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "build-n16-d2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
