"""Acceptance sweep: one test per shipped guarantee, one PASS line each.

The sweep fixture builds oracles for twenty seeded random graphs
(n in 5..9, m up to 14, weights up to 32) and verifies them exhaustively
for budgets 1, 2 and 3.  Every later test reads the collected reports, so
the expensive part runs once; run with -s to see the per-guarantee summary
lines.  One more graph is verified exhaustively at budget 4.
"""
import io
import random
import statistics
import time
from dataclasses import dataclass
from itertools import product

import numpy as np
import pytest

from ftoracle import tables as tables_module
from ftoracle.generate import gen_gnm
from ftoracle.graph import Graph, parse_graph
from ftoracle.hitset import hit_budget
from ftoracle.oraclefile import load_oracle, oracle_file_bytes
from ftoracle.query import Oracle, build_oracle
from ftoracle.reference import (ReferenceOracle, VerifyReport, dijkstra_composite,
                                enumerate_instances, verify_instance)
from ftoracle.spindex import build_index_auto
from ftoracle.tables import build_tables, enumerate_failure_sets

from conftest import G1_TEXT, G3_TEXT, G6_TEXT, TableKey, tree_path_edges

GRAPHS = 20
SAMPLES = 10000  # the sweep checks at least GRAPHS * SAMPLES instances


def sweep_graph(i: int) -> Graph:
    n = 5 + i % 5
    m = random.Random(7000 + i).randint(n - 1, min(14, n * (n - 1) // 2))
    return gen_gnm(n, m, 32, seed=9000 + i)


@dataclass
class SweepRun:
    graph: Graph
    d: int
    oracle: Oracle
    report: VerifyReport


@pytest.fixture(scope="module")
def sweep():
    runs = []
    for i in range(GRAPHS):
        graph = sweep_graph(i)
        for d in (1, 2, 3):
            oracle = build_oracle(graph, d, seed=1)
            report = verify_instance(oracle)
            runs.append(SweepRun(graph, d, oracle, report))
    return runs


def test_exact_answers_on_random_graphs(sweep):
    instances = sum(r.report.instances for r in sweep)
    mismatches = sum(r.report.mismatches for r in sweep)
    for run in sweep:
        assert run.report.mismatches == 0, run.report.summary()
    assert instances >= GRAPHS * SAMPLES
    print(f"exact answers vs brute force: PASS "
          f"({GRAPHS} graphs, {instances} instances, {mismatches} mismatches)")


def test_replacement_path_rank_within_failure_count(sweep):
    for run in sweep:
        assert run.report.rank_violations == 0, run.report.summary()
    worst = max(r.report.max_rank for r in sweep)
    assert worst <= 3
    print(f"replacement-path rank <= |failures|: PASS (max rank {worst})")


def test_pivot_ranks_strictly_decrease(sweep):
    for run in sweep:
        assert run.report.rank_drop_violations == 0, run.report.summary()
    print("pivot vertices drop the rank on both sides: PASS")


def test_hitting_set_contract(sweep):
    for run in sweep:
        rep = run.report
        assert rep.bound_violations == 0, rep.summary()
        assert rep.hit_check_violations == 0, rep.summary()
        assert rep.hit_budget_violations == 0, rep.summary()
        assert rep.max_hits <= hit_budget(run.d)
    by_d = {d: max(r.report.max_hits for r in sweep if r.d == d)
            for d in (1, 2, 3)}
    print(f"hitting-set contract: PASS "
          f"(max hits by budget {by_d}, caps "
          f"{ {d: hit_budget(d) for d in (1, 2, 3)} })")


def test_exact_at_budget_four():
    # four failures reach recursion depth 5; every contract field is gated
    oracle = build_oracle(gen_gnm(6, 9, 32, 1), 4, seed=1)
    report = verify_instance(oracle)
    assert report.ok, report.summary()
    assert report.max_hits <= hit_budget(4)
    assert report.max_lookups <= hit_budget(4)
    print(f"exact answers at budget 4: PASS ({report.instances} instances, "
          f"max depth {report.max_depth}, max lookups {report.max_lookups})")


def test_table_dominance_and_tightness():
    checked = 0
    for text, d in product((G1_TEXT, G3_TEXT, G6_TEXT), (1, 2)):
        graph = parse_graph(text)
        oracle = build_oracle(graph, d, seed=1)
        ref = ReferenceOracle(graph, oracle.index.tie)
        n = graph.n
        sets = enumerate_failure_sets(graph.m, d)
        for u, v, up, vp, b1, b2 in product(range(n), range(n), range(n),
                                            range(n), (0, 1), (0, 1)):
            key = TableKey(u, v, up, vp, b1, b2)
            entry = oracle.tables.lookup(*key)
            assert entry.l_star == ref.dist_avoiding(entry.d_star, u, v), key
            for failed in sets:
                if ref.constraint_holds(failed, key):
                    assert entry.l_star >= ref.dist_avoiding(failed, u, v), \
                        (key, failed)
                    checked += 1
    print(f"stored entries dominate every admissible failure set: PASS "
          f"({checked} guarded comparisons)")


def test_structural_size_and_lookup_bounds(sweep):
    for run in sweep:
        n = run.graph.n
        assert run.oracle.tables.entry_count == 4 * n ** 4
        assert run.report.lookup_budget_violations == 0, run.report.summary()
        assert run.report.max_lookups <= hit_budget(run.d)
    by_d = {d: max(r.report.max_lookups for r in sweep if r.d == d)
            for d in (1, 2, 3)}
    print(f"4n^4 entries and bounded lookups per query: PASS "
          f"(max lookups by budget {by_d})")


def test_preprocessing_scales_with_enumeration(monkeypatch):
    # phase 1 sweeps only the sets a replacement-path branching reaches, but
    # ranking the candidates (phase 2, _build_roots: the layout and
    # _fill_rows) still takes every set's code at every row, and ranks the
    # damaging sets off their prefix's code, so its time tracks the
    # enumeration both ways; the whole build's only from above
    graph = gen_gnm(8, 14, 32, seed=42)
    index, _, used = build_index_auto(graph, 1)
    counts = {d: len(enumerate_failure_sets(graph.m, d)) for d in (1, 2, 3)}
    times = {d: [] for d in counts}
    ranking = {d: [] for d in counts}
    spent = []
    build_roots = tables_module._build_roots

    def timed(*args):
        t0 = time.process_time()
        try:
            return build_roots(*args)
        finally:
            spent.append(time.process_time() - t0)

    monkeypatch.setattr(tables_module, "_build_roots", timed)
    # the process's CPU time, which other work on the machine does not
    # count, in 40 interleaved rounds; a round's builds run back to back,
    # so their ratio, taken per round, sees one state of the machine
    for _ in range(40):
        for d in counts:
            spent.clear()
            t0 = time.process_time()
            build_tables(index, d, used)
            times[d].append(time.process_time() - t0)
            ranking[d].append(sum(spent))
    ratios = []
    for lo, hi in ((1, 2), (2, 3)):
        rank_ratio = statistics.median(b / a for a, b in zip(ranking[lo], ranking[hi]))
        time_ratio = statistics.median(b / a for a, b in zip(times[lo], times[hi]))
        set_ratio = counts[hi] / counts[lo]
        assert set_ratio / 3 <= rank_ratio <= 3 * set_ratio, (lo, hi, rank_ratio, set_ratio)
        assert time_ratio <= 3 * set_ratio, (lo, hi, time_ratio, set_ratio)
        ratios.append(f"d={lo}->{hi} ranking x{rank_ratio:.2f}, build x{time_ratio:.2f} "
                      f"vs sets x{set_ratio:.1f}")
    print(f"preprocessing tracks the enumeration size: PASS ({'; '.join(ratios)})")


def test_sweep_relaxes_each_damaging_pair_once(monkeypatch):
    # the deterministic side of the scaling claim above, on the same graph:
    # phase 1 relaxes each (root, set) pair at most once, only pairs whose
    # set meets a tree path from the root to an owned column, and at least
    # every set of a row (u, v) that no proper subset matches in u-v code
    graph = gen_gnm(8, 14, 32, seed=42)
    index, _, used = build_index_auto(graph, 1)
    calls, relaxed = [], []
    sweep, relax = tables_module._deleted_all_pairs, tables_module._relax

    def spy_sweep(*args):
        calls.append(1)
        return sweep(*args)

    def spy_relax(row, banned, arcs, unreachable):
        for p in range(row.shape[1]):  # before the rounds only the root is at 0
            relaxed.append((int(arcs.order[row[:, p] == 0][0]),
                            tuple(sorted(set(arcs.edge[banned[:, p]].tolist())))))
        relax(row, banned, arcs, unreachable)

    monkeypatch.setattr(tables_module, "_deleted_all_pairs", spy_sweep)
    monkeypatch.setattr(tables_module, "_relax", spy_relax)
    owned = [[v for v in range(8) if v != u and (v > u) == ((u + v) % 2 == 1)]
             for u in range(8)]
    paths = [[tree_path_edges(index, u, v) for v in owned[u]] for u in range(8)]
    sets = enumerate_failure_sets(graph.m, 3)
    # every root's reference codes under every set, at every vertex
    codes = {(u, s): dijkstra_composite(graph, index.tie, u, frozenset(s))[0]
             for u in range(8) for s in sets}
    for d in (1, 2, 3):
        calls.clear()
        relaxed.clear()
        build_tables(index, d, used)
        assert len(calls) == 1
        assert len(set(relaxed)) == len(relaxed)
        assert all(any(path & set(s) for path in paths[u]) for u, s in relaxed)
        minimal = {(u, s) for u in range(8) for v in owned[u] for s in sets if 0 < len(s) <= d
                   and all(codes[u, s][v] > codes[u, s[:j] + s[j + 1:]][v] for j in range(len(s)))}
        assert minimal <= set(relaxed)
    assert len(relaxed) == 490  # the exhaustive sweep relaxed all 2,609 damaging pairs
    print(f"the sweep relaxes each branching (root, set) pair once: PASS "
          f"({len(relaxed)} pairs at d=3, {len(minimal)} of them minimal for a row)")


def test_persistence_round_trip_determinism(sweep):
    replayed = 0
    for run in sweep:
        blob = oracle_file_bytes(run.oracle)
        rebuilt = build_oracle(run.graph, run.d, seed=1)
        assert oracle_file_bytes(rebuilt) == blob

        loaded = load_oracle(io.BytesIO(blob), graph=run.graph)
        count = 0
        for u, v, failed in enumerate_instances(run.graph, run.d):
            assert loaded.query_composite(u, v, failed) == \
                run.oracle.query_composite(u, v, failed)
            count += 1
        assert count == run.report.instances
        replayed += count
    print(f"save/load keeps every answer and byte: PASS "
          f"({replayed} replayed queries)")
