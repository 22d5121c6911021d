"""Measurement and correctness gate for one workload run.

End-to-end run (tracing off):

* setup: ``build_oracle`` plus ``save_oracle`` to an in-memory buffer, once
  per graph; ``setup_s`` is the median.
* ``build_peak_bytes``: tracemalloc peak of one more, untimed build.
* ``load_s``: median of ``load_oracle`` from the saved bytes, every graph
  loaded ``LOADS_PER_GRAPH`` times.
* query stream on the loaded oracles: a warm-up on a prefix, then passes
  until the time is up (at least ``MIN_PASSES``).  Latency percentiles and
  throughput are taken per pass and the median over passes is reported.

Traced run: the builds, saves and loads run under ``Tracer``, then the
stream runs untraced for half the time and once more traced, which gives
``trace.overhead``.

Every build, load and chunk of queries is timed between two samples of a
``speed.SpeedProbe``, and times and rates are reported at the probes'
reference speed; the unscaled medians are printed in the notes.

Every answer is compared with ``ReferenceOracle`` outside the timed code.
Tables are checked by a digest of their contents (lengths and the sorted
D* of every entry, independent of the file layout), built against loaded,
and against the digests recorded in ``digests.json`` for that seed, and by
recomputing sampled entries of the first graph by brute force over all
failure sets.
"""
from __future__ import annotations

import gc
import hashlib
import io
import json
import math
import random
import statistics
import tracemalloc
from dataclasses import dataclass, field
from itertools import chain, combinations
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from ftoracle import QueryStats, ReferenceOracle, constraint_holds, oraclefile, query

from .speed import SpeedProbe
from .tracing import PER_LAYER, Tracer, layer_metrics
from .workloads import TIE_SEED, Workload, graph_seeds, make_graphs, make_stream

END_TO_END = {
    "setup_s": "s",
    "build_peak_bytes": "B",
    "file_bytes": "B",
    "load_s": "s",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "damaged_p50_us": "us",
    "damaged_p99_us": "us",
    "queries_per_s": "1/s",
}

LOADS_PER_GRAPH = 3
MIN_PASSES = 3
WARMUP_QUERIES = 2000
CHUNK = 2000          # queries timed between two speed probes
TRACED_QUERIES = 8000
# per-layer times measured during queries, scaled by the python probe
QUERY_LAYERS = {"hitset.case_three.self_s", "hitset.case_two.self_s",
                "hitset.case_one.self_s", "hitset.key_tree_s", "tables.lookup_s"}
SPOT_KEYS = 64        # table keys of the first graph recomputed by brute force
DIGESTS = Path(__file__).with_name("digests.json")
RAISED = "raised"


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str] = field(default_factory=list)


class Gate:
    """Collects correctness problems and query errors of one run."""

    def __init__(self):
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, problem: str) -> None:
        if not ok:
            self.problems.append(problem)

    def answers(self, answers: list, truth: list) -> None:
        self.attempted += len(answers)
        if answers != truth:
            self.failed += sum(a != t for a, t in zip(answers, truth))


# -- digests -------------------------------------------------------------

def tables_digest(tables) -> str:
    """sha256 of every entry's (true length, tie key) and sorted D*."""
    codec = tables.codec
    values = tables.values.reshape(-1)
    unreach = values >= codec.unreachable_code
    lengths = np.stack([np.where(unreach, -1, values >> codec.shift),
                        np.where(unreach, -1, values & codec.mask)], axis=1)
    ids = np.full((len(tables.subsets), max(1, tables.d)), -1, dtype=np.int64)
    for i, sub in enumerate(tables.subsets):
        ids[i, :len(sub)] = sorted(sub)
    h = hashlib.sha256(lengths.astype("<i8").tobytes())
    h.update(ids[tables.dstar_idx.reshape(-1)].astype("<i8").tobytes())
    return h.hexdigest()


def _plain(answer):
    if answer is RAISED:
        return RAISED
    if answer.is_unreachable:
        return "unreachable"
    return (answer.true_len, answer.tie_key)


def answers_digest(stream: list, answers: list) -> str:
    h = hashlib.sha256()
    for q, a in zip(stream, answers):
        h.update(repr((q, _plain(a))).encode())
    return h.hexdigest()


def recorded_digests(workload: str, seed: int) -> dict | None:
    try:
        record = json.loads(DIGESTS.read_text())
    except FileNotFoundError:
        return None
    return record.get(workload, {}).get(str(seed))


def spot_check(oracle, ref: ReferenceOracle, rng: random.Random, keys: int) -> int:
    """Recompute sampled table entries by brute force; returns mismatches."""
    graph = oracle.graph
    d = oracle.d
    sets = sorted(chain.from_iterable(
        combinations(range(graph.m), k) for k in range(min(d, graph.m) + 1)))
    bad = 0
    for _ in range(keys):
        key = tuple(rng.randrange(graph.n) for _ in range(4)) + \
            (rng.randrange(2), rng.randrange(2))
        best = arg = None
        for failed in sets:
            if constraint_holds(oracle.index, failed, key):
                dist = ref.dist_avoiding(failed, key[0], key[1])
                if best is None or dist > best:
                    best, arg = dist, failed
        entry = oracle.tables.lookup(*key)
        bad += entry.l_star != best or tuple(sorted(entry.d_star)) != arg
    return bad


# -- set-up, load, stream ---------------------------------------------------

def build_and_save(w: Workload, graphs: list, probe: SpeedProbe):
    """Oracles, file bytes and (raw, reference) seconds per graph."""
    built, blobs, times = [], [], []
    probe.sample()
    for g in graphs:
        start = perf_counter()
        oracle = query.build_oracle(g, w.d, seed=TIE_SEED)
        buf = io.BytesIO()
        oraclefile.save_oracle(oracle, buf)
        took = perf_counter() - start
        probe.sample()
        times.append((took, took * probe.factor()))
        built.append(oracle)
        blobs.append(buf.getvalue())
    return built, blobs, times


def load_all(blobs: list[bytes], repeats: int, probe: SpeedProbe):
    """Loaded oracles and (raw, reference) seconds per load."""
    loaded, times = [], []
    probe.sample()
    for _ in range(repeats):
        loaded = []
        for blob in blobs:
            start = perf_counter()
            loaded.append(oraclefile.load_oracle(io.BytesIO(blob)))
            took = perf_counter() - start
            probe.sample()
            times.append((took, took * probe.factor()))
    return loaded, times


def build_peak_bytes(w: Workload, graph) -> int:
    tracemalloc.start()
    try:
        query.build_oracle(graph, w.d, seed=TIE_SEED)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _bind(loaded: list, stream: list) -> list:
    # bound after any patching of Oracle, so wrappers and fakes are seen
    return [(loaded[gi].query_composite, u, v, f) for gi, u, v, f in stream]


def timed_pass(calls: list, answers: list, lat: list, probe: SpeedProbe):
    """One closed-loop pass in chunks of ``CHUNK`` queries with a speed probe
    between chunks; fills answers and per-call ns.  Returns the wall ns and
    the raw-to-reference factor of every chunk."""
    clock = perf_counter_ns
    walls, factors = [], []
    probe.sample()
    for lo in range(0, len(calls), CHUNK):
        begin = clock()
        for i in range(lo, min(lo + CHUNK, len(calls))):
            ask, u, v, f = calls[i]
            start = clock()
            try:
                answers[i] = ask(u, v, f)
            except Exception:  # a raising query is a failed query
                answers[i] = RAISED
            lat[i] = clock() - start
        walls.append(clock() - begin)
        probe.sample()
        factors.append(probe.factor())
    return walls, factors


def _pass_stats(lat: list, damaged_idx: list, q_dam: float, wall_ns: float) -> dict:
    everything = sorted(lat)
    dam = sorted(lat[i] for i in damaged_idx)
    return {
        "query_p50_us": percentile(everything, 0.5) / 1e3,
        "query_p99_us": percentile(everything, 0.99) / 1e3,
        "damaged_p50_us": percentile(dam, 0.5) / 1e3,
        "damaged_p99_us": percentile(dam, q_dam) / 1e3,
        "queries_per_s": len(lat) / wall_ns * 1e9,
    }


def percentile(ordered: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def tail_quantile(samples: int) -> float:
    """p99, or the highest quantile that still leaves 10 samples above it."""
    return min(0.99, (samples - 10) / samples) if samples > 10 else 1.0


def run_passes(loaded, stream, truth, damaged_idx, seconds, gate, probe):
    """Warm-up on a prefix, then timed passes.  Returns (raw, reference)
    stats per pass, the answers of the first pass and the tail quantile."""
    calls = _bind(loaded, stream)
    warm = min(WARMUP_QUERIES, len(calls))
    answers = [None] * warm
    timed_pass(calls[:warm], answers, [0] * warm, probe)
    gate.answers(answers, truth[:warm])
    first = None
    passes = []
    q_dam = tail_quantile(len(damaged_idx))
    # the reference caches hold millions of objects; frozen, they stay out
    # of the collections that the queries' own garbage triggers
    gc.collect()
    gc.freeze()
    try:
        deadline = perf_counter() + seconds
        while perf_counter() < deadline or len(passes) < MIN_PASSES:
            answers = [None] * len(calls)
            lat = [0] * len(calls)
            walls, factors = timed_pass(calls, answers, lat, probe)
            gate.answers(answers, truth)
            if first is None:
                first = answers
            ref_lat = [t * factors[i // CHUNK] for i, t in enumerate(lat)]
            ref_wall = sum(w * f for w, f in zip(walls, factors))
            passes.append((_pass_stats(lat, damaged_idx, q_dam, sum(walls)),
                           _pass_stats(ref_lat, damaged_idx, q_dam, ref_wall)))
    finally:
        gc.unfreeze()
    return passes, first, q_dam


# -- one run ----------------------------------------------------------------

def _prepare_checks(w, seed, graphs, built, loaded, stream, gate, notes):
    """Reference answers, damaged flags, table digests and spot checks."""
    refs = [ReferenceOracle(g, o.index.tie) for g, o in zip(graphs, loaded)]
    truth = [refs[gi].dist_avoiding(f, u, v) for gi, u, v, f in stream]
    damaged_idx = [i for i, (gi, u, v, f) in enumerate(stream)
                   if built[gi].index.path_intersects(u, v, f)]
    gate.check(len(damaged_idx) > 0, "the stream has no damaged query")
    digests = [tables_digest(o.tables) for o in built]
    for gi, o in enumerate(loaded):
        gate.check(tables_digest(o.tables) == digests[gi],
                   f"graph {gi}: loaded tables differ from built tables")
    bad = spot_check(loaded[0], refs[0], random.Random(seed), SPOT_KEYS)
    gate.check(bad == 0, f"{bad} sampled table entries differ from brute force")
    notes.append(f"tables: loaded compared with built for {len(built)} graphs; {SPOT_KEYS} "
                 f"sampled entries of graph 0 recomputed by brute force, {bad} differ")
    return truth, damaged_idx, hashlib.sha256("".join(digests).encode()).hexdigest()


def _compare_record(w, seed, tables_sha, answers_sha, gate, notes):
    record = recorded_digests(w.name, seed)
    if record is None:
        notes.append(f"digests: none recorded for seed {seed}; "
                     f"tables {tables_sha[:12]} answers {answers_sha[:12]}")
        return
    verdicts = []
    for kind, sha in (("tables", tables_sha), ("answers", answers_sha)):
        gate.check(record[kind] == sha, f"{kind} digest differs from the record")
        verdicts.append(f"{kind} {'ok' if record[kind] == sha else 'MISMATCH'}")
    notes.append(f"digests against the record for seed {seed}: " + ", ".join(verdicts))


def _describe(w: Workload, seed: int) -> str:
    seeds = graph_seeds(w, seed)
    return (f"workload {w.name} seed {seed}: {w.graphs} graphs gen_gnm({w.n}, {w.m}, 32, "
            f"{seeds[0]}..{seeds[-1]}), d={w.d}, tie seed {TIE_SEED}; {w.stream} stream "
            f"of {w.stream_len} queries per pass, closed loop, one caller")


def run_end_to_end(w: Workload, seed: int, seconds: float) -> Result:
    gate = Gate()
    notes = [_describe(w, seed)]
    graphs = make_graphs(w, seed)
    mixed, python = SpeedProbe("mixed"), SpeedProbe("python")
    built, blobs, setup_times = build_and_save(w, graphs, mixed)
    peak = build_peak_bytes(w, graphs[0])
    loaded, load_times = load_all(blobs, LOADS_PER_GRAPH, mixed)
    stream = make_stream(w, graphs, seed)
    truth, damaged_idx, tables_sha = _prepare_checks(
        w, seed, graphs, built, loaded, stream, gate, notes)

    passes, first, q_dam = run_passes(
        loaded, stream, truth, damaged_idx, seconds, gate, python)
    _compare_record(w, seed, tables_sha, answers_digest(stream, first), gate, notes)

    units = {"setup_s": setup_times, "load_s": load_times}
    for name in END_TO_END:
        if END_TO_END[name] in ("us", "1/s"):
            units[name] = [(raw[name], ref[name]) for raw, ref in passes]
    raw = {name: statistics.median(r for r, _ in pairs) for name, pairs in units.items()}
    values = {name: statistics.median(s for _, s in pairs) for name, pairs in units.items()}
    values["build_peak_bytes"] = peak
    values["file_bytes"] = statistics.median(len(b) for b in blobs)
    notes.append(f"times at reference speed ({len(mixed.times)} mixed and "
                 f"{len(python.times)} python speed probes); unscaled "
                 "medians: " + ", ".join(f"{name} {raw[name]:.6g}" for name in raw))
    notes.append(f"setup_s: median of {len(setup_times)} builds; load_s: median of "
                 f"{len(load_times)} loads; query figures: median of {len(passes)} passes "
                 f"after a warm-up on the first {WARMUP_QUERIES} queries")
    notes.append(f"per pass: {len(stream)} queries, {len(damaged_idx)} damaged; "
                 f"damaged_p99_us is p{100 * q_dam:g} of the damaged queries")
    return _result(gate, notes, {k: (values[k], END_TO_END[k]) for k in END_TO_END})


def damaged_row_count(built: list) -> tuple[int, int]:
    """(rows whose failure set hits the base u-v path, all rows), u != v."""
    rows = damaged = 0
    for o in built:
        n = o.graph.n
        for failed in o.tables.subsets:
            for u in range(n):
                for v in range(n):
                    if u != v:
                        rows += 1
                        damaged += o.index.path_intersects(u, v, failed)
    return damaged, rows


def traced_pass(tracer: Tracer, calls: list, answers: list, stats: list) -> int:
    begin = perf_counter_ns()
    for i, (ask, u, v, f) in enumerate(calls):
        tracer.qid = i
        try:
            answers[i] = ask(u, v, f, stats=stats[i])
        except Exception:  # a raising query is a failed query
            answers[i] = RAISED
    tracer.qid = -1
    return perf_counter_ns() - begin


def run_traced(w: Workload, seed: int, seconds: float, trace_path: Path | None) -> Result:
    gate = Gate()
    notes = [_describe(w, seed) + "; traced"]
    graphs = make_graphs(w, seed)
    tracer = Tracer()
    mixed, python = SpeedProbe("mixed"), SpeedProbe("python")
    with tracer.installed():
        built, blobs, _ = build_and_save(w, graphs, mixed)
        loaded, _ = load_all(blobs, 1, mixed)
    stream = make_stream(w, graphs, seed)
    truth, damaged_idx, tables_sha = _prepare_checks(
        w, seed, graphs, built, loaded, stream, gate, notes)
    damaged_rows, rows = damaged_row_count(built)

    answers = [None] * len(stream)
    timed_pass(_bind(loaded, stream), answers, [0] * len(stream), python)
    gate.answers(answers, truth)
    _compare_record(w, seed, tables_sha, answers_digest(stream, answers), gate, notes)

    # the traced pass covers a prefix, which keeps the spans in memory small
    prefix = stream[:TRACED_QUERIES]
    truth = truth[:len(prefix)]
    damaged_idx = [i for i in damaged_idx if i < len(prefix)]
    untraced = []
    deadline = perf_counter() + seconds / 2
    while perf_counter() < deadline or len(untraced) < MIN_PASSES:
        answers = [None] * len(prefix)
        walls, factors = timed_pass(_bind(loaded, prefix), answers, [0] * len(prefix), python)
        gate.answers(answers, truth)
        untraced.append(sum(wall * f for wall, f in zip(walls, factors)))
    answers = [None] * len(prefix)
    stats = [QueryStats() for _ in prefix]
    python.sample()
    with tracer.installed():
        traced_ns = traced_pass(tracer, _bind(loaded, prefix), answers, stats)
    python.sample()
    gate.answers(answers, truth)

    damaged_stats = [stats[i] for i in damaged_idx]
    extra = {
        "tables.failure_sets": len(built[0].tables.subsets),
        "tables.damaged_row_share": damaged_rows / rows,
        "spindex.tie_retries": sum(o.tables.tie_seed - TIE_SEED for o in built),
        "hitset.lookups_per_damaged":
            sum(s.lookups for s in damaged_stats) / max(1, len(damaged_stats)),
        "hitset.max_hits": max((s.max_hits for s in stats), default=0),
        "trace.overhead": traced_ns * python.factor() / statistics.median(untraced),
    }
    values, absent = layer_metrics(tracer, len(built), set(damaged_idx), extra)
    for k, v in values.items():
        if PER_LAYER[k][0] == "s":
            values[k] = v * (python if k in QUERY_LAYERS else mixed).scale()
    notes.append(f"build and file times scaled by {mixed.scale():.4f}, query times by "
                 f"{python.scale():.4f}")
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        tracer.write_spans(trace_path)
        notes.append(f"spans: {len(tracer.spans)} written to {trace_path}")
    notes.append(f"build and file figures: mean per graph over {len(built)} graphs; "
                 f"query figures: one traced pass of the first {len(prefix)} queries, "
                 f"{len(damaged_idx)} damaged; trace.overhead against the median of "
                 f"{len(untraced)} untraced passes over them")
    notes.append(f"tables.damaged_row_share: {damaged_rows} of {rows} (failure set, u, v) "
                 f"rows with u != v, empty set included; hitset.key_tree.repeat_share: "
                 f"base is every key-tree build of the traced pass; "
                 f"query.recurse.calls_per_damaged counts _query_r calls below the top one")
    if absent:
        notes.append("absent layers: " + ", ".join(absent))
    return _result(gate, notes, {k: (values[k], PER_LAYER[k][0])
                                 for k in PER_LAYER if k in values})


def _result(gate: Gate, notes: list[str], metrics: dict) -> Result:
    if gate.failed:
        gate.problems.append(f"{gate.failed} of {gate.attempted} answers differ "
                             f"from ReferenceOracle or raised")
    notes.append(f"queries {gate.attempted} count, query_errors {gate.failed} count")
    notes.extend("CHECK FAILED: " + p for p in gate.problems)
    return Result(not gate.problems, gate.attempted, gate.failed, metrics, notes)
