"""Recursive query: exactness, budgets, argument checks."""
import io
import os
import subprocess
import sys
import threading
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import ftoracle
from ftoracle.generate import gen_gnm
from ftoracle.graph import UNREACHABLE
from ftoracle.hitset import FailureView, QueryStats
from ftoracle.oraclefile import load_oracle, oracle_file_bytes
from ftoracle.query import Oracle, QueryError, build_oracle
from ftoracle.reference import ReferenceOracle, enumerate_instances, verify_instance
from ftoracle.spindex import ShortestPathIndex
from ftoracle.tables import OracleTables

from conftest import base_length, derive_all, derived_roots, tree_path_edges, underive
from test_file_digests import PINNED


def all_instances(graph, dmax):
    for k in range(dmax + 1):
        for failed in combinations(range(graph.m), k):
            for u in range(graph.n):
                for v in range(graph.n):
                    if u != v:
                        yield u, v, failed


def test_single_failure(oracle1_d1):
    assert oracle1_d1.query_composite(0, 2, (1,)).true_len == 6


def test_zero_budget_damaged_path(oracle1_d1):
    code = oracle1_d1._query_r(0, 2, FailureView(oracle1_d1.index, (1,)), 0)
    assert oracle1_d1.index.codec.decode(code) == UNREACHABLE


def test_every_recursive_call_is_on_a_damaged_pair(monkeypatch):
    # _query_r has no undamaged return: the fast path answers an undamaged
    # top call, and each pivot is a hit, damaged from both ends.  Checked
    # on the built oracle and on a loaded one that derives roots afresh.
    graph = gen_gnm(7, 11, 32, 0)
    built = build_oracle(graph, 3, seed=1)
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(built)), graph=graph)
    query_r = Oracle._query_r
    calls = []

    def spy(self, a, b, view, r):
        assert view.path(a) >> b & 1, (a, b, view.failed, r)
        calls.append((a, b))
        return query_r(self, a, b, view, r)

    monkeypatch.setattr(Oracle, "_query_r", spy)
    for oracle, fresh in ((built, False), (loaded, True)):
        calls.clear()
        count = 0
        for u, v, failed in enumerate_instances(graph, 3):
            if fresh:
                underive(oracle.index)
            oracle.query_composite(u, v, failed)
            count += 1
        assert count == 9744
        assert calls, fresh


def test_disconnection_reported(oracle1_d2):
    assert oracle1_d2.query(0, 2, (1, 2)) is None
    assert oracle1_d2.query_composite(0, 2, (1, 2)).is_unreachable


def test_g6_detour(oracle6_d1):
    assert oracle6_d1.query(0, 4, (2,)) == 7


def test_self_query_is_zero(oracle6_d2):
    # under each F of up to d edges, on the built and on the loaded oracle
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(oracle6_d2)))
    graph = oracle6_d2.graph
    for oracle in (oracle6_d2, loaded):
        for k in range(oracle.d + 1):
            for failed in combinations(range(graph.m), k):
                for u in range(graph.n):
                    assert oracle.query(u, u, failed) == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_no_query_reads_a_diagonal_key(d, monkeypatch):
    # the tables store nothing for a pair (u, u): every read of the query
    # engine, over every instance that verify checks, is of a pair u != v
    oracle = build_oracle(PINNED["gnm8x12-s0-d2"][0](), d, seed=1)
    pairs = []
    read = OracleTables.read_block
    monkeypatch.setattr(OracleTables, "read_block",
                        lambda self, u, v, *rest: pairs.append((u, v)) or read(self, u, v, *rest))
    assert verify_instance(oracle).ok
    assert pairs and all(u != v for u, v in pairs)


def test_no_failures_equals_base_distance(oracle6_d1):
    for u in range(7):
        for v in range(7):
            assert oracle6_d1.query(u, v) == \
                base_length(oracle6_d1.index, u, v).true_len


@pytest.mark.parametrize("oracle_name", ["oracle1_d2", "oracle3_d1",
                                         "oracle6_d2"])
def test_exact_on_all_small_instances(request, oracle_name):
    oracle = request.getfixturevalue(oracle_name)
    ref = ReferenceOracle(oracle.graph, oracle.index.tie)
    for u, v, failed in all_instances(oracle.graph, oracle.d):
        assert oracle.query_composite(u, v, failed) == \
            ref.dist_avoiding(failed, u, v), (u, v, failed)


def test_recursion_depth_within_budget(oracle6_d2):
    for u, v, failed in all_instances(oracle6_d2.graph, 2):
        stats = QueryStats()
        oracle6_d2.query_composite(u, v, failed, stats=stats)
        assert stats.max_depth <= len(failed) + 1


def test_duplicate_failures_collapse(oracle1_d1):
    # duplicates are deduplicated before the budget check
    assert oracle1_d1.query(0, 2, [1, 1, 1]) == 6


def test_budget_exceeded(oracle1_d1):
    with pytest.raises(QueryError, match="budget"):
        oracle1_d1.query(0, 2, (1, 2))


@pytest.mark.parametrize("u, v", [(4, 0), (0, 4), (-1, 0), (0, -1)])
def test_vertex_out_of_range(oracle1_d1, u, v):
    # source and sink each checked at both ends of [0, n), n = 4
    assert oracle1_d1.graph.n == 4
    with pytest.raises(QueryError, match="vertex out of range"):
        oracle1_d1.query(u, v)


def test_unknown_edge_id(oracle1_d1):
    with pytest.raises(QueryError, match="unknown edge"):
        oracle1_d1.query(0, 2, (9,))


@pytest.mark.parametrize("failures", [[0.7], ["1"], [np.float64(2)]])
def test_non_integer_edge_id(oracle1_d1, failures):
    with pytest.raises(QueryError, match="must be integers"):
        oracle1_d1.query(0, 2, failures)


@pytest.mark.parametrize("u, v, failures", [
    (1.0, 2, ()), (0, 2.0, [1]), ("1", 2, ()), (0, np.float64(2), [1]), (None, 2, ())],
    ids=["float-u", "float-v-damaged", "str-u", "numpy-float-v-damaged", "none-u"])
def test_non_integer_vertex(oracle1_d1, u, v, failures):
    # undamaged and damaged queries alike: refused, never truncated
    with pytest.raises(QueryError, match="vertices must be integers"):
        oracle1_d1.query(u, v, failures)


def test_numpy_integer_edge_ids(oracle1_d1):
    failed = np.array([1], dtype=np.int64)
    assert oracle1_d1.query(0, 2, failed) == oracle1_d1.query(0, 2, [1]) == 6


def test_numpy_integer_vertices(oracle1_d1):
    assert oracle1_d1.query(np.int64(0), np.int32(2), [1]) == 6
    assert oracle1_d1.query(np.uint8(1), np.int64(3)) == oracle1_d1.query(1, 3)


def test_d_property(oracle1_d2, oracle6_d1):
    assert oracle1_d2.d == 2
    assert oracle6_d1.d == 1


class _Ids(tuple):
    pass


class _IdList(list):
    pass


class _Vertex(int):
    """An int subclass, which the entry converts with operator.index."""


_NOT_INT = "'{}' object cannot be interpreted as an integer"
_NOT_SCALAR = "only integer scalar arrays can be converted to a scalar index"

# (id, u, v, failures, the answer of query or the exact QueryError text), on
# oracle1_d1: n = m = 4, d = 1; query(0, 2) is 3 over edges 0 and 1, and 6
# with either failed; a callable failures is made afresh for each call
ENTRY_PINS = [
    # vertices
    ("bool-u", True, 2, (), 2),
    ("bool-v-damaged", 0, True, (1,), 1),
    ("numpy-vertices-damaged", np.int64(0), np.int32(2), (1,), 6),
    ("numpy-vertices", np.uint8(1), np.int64(3), (), 3),
    ("float-u", 1.0, 2, (), "vertices must be integers: " + _NOT_INT.format("float")),
    ("float-v-damaged", 0, 2.0, (1,), "vertices must be integers: " + _NOT_INT.format("float")),
    ("numpy-float-v", 0, np.float64(2), (1,),
     "vertices must be integers: " + _NOT_INT.format("numpy.float64")),
    ("str-u", "1", 2, (), "vertices must be integers: " + _NOT_INT.format("str")),
    ("none-u", None, 2, (), "vertices must be integers: " + _NOT_INT.format("NoneType")),
    ("none-v-damaged", 0, None, (1,), "vertices must be integers: " + _NOT_INT.format("NoneType")),
    ("u-at-n", 4, 0, (), "vertex out of range: 4, 0"),
    ("v-at-n", 0, 4, (), "vertex out of range: 0, 4"),
    ("negative-u", -1, 0, (), "vertex out of range: -1, 0"),
    ("negative-v-damaged", 0, -1, (1,), "vertex out of range: 0, -1"),
    ("huge-u", 10**30, 0, (), f"vertex out of range: {10**30}, 0"),
    # ids
    ("bool-id-true", 0, 2, (True,), 6),
    ("bool-id-false", 0, 2, (False,), 6),
    ("bool-id-unknown-after", 0, 2, (4, True), "unknown edge id 4"),
    ("numpy-scalar-id", 0, 2, (np.int64(1),), 6),
    ("numpy-scalar-duplicate", 0, 2, (1, np.int64(1)), 6),
    ("numpy-array", 0, 2, lambda: np.array([1]), 6),
    ("numpy-array-undamaged", 0, 2, lambda: np.array([2, 2]), 3),
    ("numpy-array-empty", 0, 2, lambda: np.array([], dtype=np.int64), 3),
    ("numpy-array-2d", 0, 2, lambda: np.array([[1]]), "edge ids must be integers: " + _NOT_SCALAR),
    ("numpy-array-as-id", 0, 2, lambda: (np.array([1, 2]),),
     "edge ids must be integers: " + _NOT_SCALAR),
    ("numpy-float-id", 0, 2, (np.float64(2),),
     "edge ids must be integers: " + _NOT_INT.format("numpy.float64")),
    ("float-id", 0, 2, (0.7,), "edge ids must be integers: " + _NOT_INT.format("float")),
    # refused, not read as int() would: 0.7 as edge 0, 2.0 as edge 2, "1" as edge 1
    ("float-id-list", 0, 2, [0.7], "edge ids must be integers: " + _NOT_INT.format("float")),
    ("integral-float-id-after-valid", 0, 2, [1, 2.0],
     "edge ids must be integers: " + _NOT_INT.format("float")),
    ("float-id-after-valid", 0, 2, (1, 2.5),
     "edge ids must be integers: " + _NOT_INT.format("float")),
    ("str-id", 0, 2, ("1",), "edge ids must be integers: " + _NOT_INT.format("str")),
    ("str-id-list", 0, 2, ["1"], "edge ids must be integers: " + _NOT_INT.format("str")),
    ("none-id", 0, 2, (None,), "edge ids must be integers: " + _NOT_INT.format("NoneType")),
    ("none-id-list", 0, 2, [None], "edge ids must be integers: " + _NOT_INT.format("NoneType")),
    ("negative-id", 0, 2, (-1,), "unknown edge id -1"),
    ("id-at-m", 0, 2, (4,), "unknown edge id 4"),
    # 1 << 10**30 raises OverflowError, so its QueryError shows no id was shifted
    ("huge-id", 0, 2, (10**30,), f"unknown edge id {10**30}"),
    ("id-past-int64", 0, 2, [1 << 70], f"unknown edge id {1 << 70}"),
    ("huge-ids-least-named", 0, 2, [1, 10**30, 10**25], f"unknown edge id {10**25}"),
    ("huge-ids-iterator", 0, 2, lambda: iter([1, 10**30, 10**25]), f"unknown edge id {10**25}"),
    ("huge-negative-id", 0, 2, [-(10**30), 0], f"unknown edge id {-(10**30)}"),
    # containers
    ("tuple", 0, 2, (1,), 6),
    ("list", 0, 2, [1], 6),
    ("tuple-subclass", 0, 2, lambda: _Ids((1,)), 6),
    ("list-subclass", 0, 2, lambda: _IdList([1]), 6),
    ("iterator", 0, 2, lambda: iter([1]), 6),
    ("generator", 0, 2, lambda: (e for e in (1,)), 6),
    ("set", 0, 2, {1}, 6),
    ("frozenset-undamaged", 0, 2, frozenset({2}), 3),
    ("empty-tuple", 0, 2, (), 3),
    ("empty-list", 0, 2, [], 3),
    ("undamaged-tuple", 0, 2, (2,), 3),
    ("undamaged-list", 0, 2, [3], 3),
    ("str-failures", 0, 2, "1", "edge ids must be integers: " + _NOT_INT.format("str")),
    ("int-failures", 0, 2, 5, "failures must be an iterable of edge ids, got int"),
    ("none-failures", 0, 2, None, "failures must be an iterable of edge ids, got NoneType"),
    # the order of refusals: vertex type, vertex range, ids, budget
    ("bad-v-before-range", 9, "1", (), "vertices must be integers: " + _NOT_INT.format("str")),
    ("bad-u-before-range", "1", 9, (), "vertices must be integers: " + _NOT_INT.format("str")),
    ("range-before-ids", 9, 0, ("x",), "vertex out of range: 9, 0"),
    ("range-before-budget", 9, 0, (1, 2), "vertex out of range: 9, 0"),
    ("ids-before-budget", 0, 2, (1, 2, 9), "unknown edge id 9"),
    ("non-integer-after-unknown", 0, 2, (9, "x"),
     "edge ids must be integers: " + _NOT_INT.format("str")),
    ("float-after-unknown", 0, 2, [9, 0.7],
     "edge ids must be integers: " + _NOT_INT.format("float")),
    ("str-after-negative", 0, 2, [-1, "1"], "edge ids must be integers: " + _NOT_INT.format("str")),
    ("none-after-unknown", 0, 2, [0, 9, 2, None],
     "edge ids must be integers: " + _NOT_INT.format("NoneType")),
    ("float-after-unknown-iterator", 0, 2, lambda: iter([7, 1, 0.5]),
     "edge ids must be integers: " + _NOT_INT.format("float")),
    ("least-unknown-named", 0, 2, (9, -3, 7), "unknown edge id -3"),
    ("least-unknown-above-m", 0, 2, [7, 1, 5, 9], "unknown edge id 5"),
    ("least-unknown-below-0", 0, 2, [6, -1, 0, -2], "unknown edge id -2"),
    ("least-unknown-iterator", 0, 2, lambda: iter([9, 1, -3, 5, -1, 1]), "unknown edge id -3"),
    ("least-unknown-generator", 0, 2, lambda: (e for e in [9, 4, 0, 4, 6]), "unknown edge id 4"),
    ("duplicates-past-d", 0, 2, (1, 1, 1), 6),
    ("undamaged-duplicates-past-d", 0, 2, [2, 2, 2, 2], 3),
    ("budget", 0, 2, (1, 2), "2 failures exceed the oracle budget d=1"),
    ("budget-after-duplicates", 0, 2, [1, 2, 1, 2], "2 failures exceed the oracle budget d=1"),
    ("budget-undamaged", 0, 2, (2, 3), "2 failures exceed the oracle budget d=1"),
    # duplicates count once against the budget, in a list, an array and an iterator
    ("budget-list-duplicates", 0, 2, [2, 0, 2], "2 failures exceed the oracle budget d=1"),
    ("budget-numpy-duplicates", 0, 2, lambda: np.array([3, 1, 3], dtype=np.int64),
     "2 failures exceed the oracle budget d=1"),
    ("budget-iterator-duplicates", 0, 2, lambda: iter([3, 0, 3]),
     "2 failures exceed the oracle budget d=1"),
]


@pytest.mark.parametrize("vertex", [lambda x: x, lambda x: _Vertex(x) if type(x) is int else x],
                         ids=["as-given", "int-subclass"])
@pytest.mark.parametrize("u, v, failures, expected", [row[1:] for row in ENTRY_PINS],
                         ids=[row[0] for row in ENTRY_PINS])
def test_entry_answers_and_refusals(oracle1_d1, vertex, u, v, failures, expected):
    # every input maps to one answer or one exact QueryError text; plain int
    # vertices are also passed as an int subclass, which the entry converts,
    # so plain and converted vertices meet every row
    failures = failures() if callable(failures) else failures
    assert _outcome(oracle1_d1.query, vertex(u), vertex(v), failures) == expected


def _outcome(ask, u, v, failures):
    """ask's answer, or the text of the QueryError it raises."""
    try:
        return ask(u, v, failures)
    except QueryError as exc:
        assert type(exc) is QueryError
        return str(exc)


def _canonical(m, ids):
    """sorted(set(ids)), or the refusal: a non-integer anywhere, else the least unknown id."""
    odd = [e for e in ids if type(e) is not int]
    if odd:
        return "edge ids must be integers: " + _NOT_INT.format(type(odd[0]).__name__)
    bad = [e for e in ids if not 0 <= e < m]
    return f"unknown edge id {min(bad)}" if bad else sorted(set(ids))


@given(ids=st.lists(st.one_of(st.integers(-2, 11), st.sampled_from([10**30, -(10**30), 0.5])),
                    max_size=6),
       form=st.sampled_from(["list", "tuple", "iter", "numpy"]),
       u=st.integers(0, 6), v=st.integers(0, 6))
def test_raw_failure_ids_match_their_canonical_set(oracle6_d2, ids, form, u, v):
    # duplicates, any order, numpy ints, one-shot iterators, unknown ids and
    # non-integers: the answer is that of sorted(set(ids)), and a refusal
    # carries the model's text
    if form == "numpy" and any(type(e) is not int or abs(e) > 2**62 for e in ids):
        form = "list"
    raw = {"list": list, "tuple": tuple, "iter": iter,
           "numpy": lambda x: np.array(x, dtype=np.int64)}[form](ids)
    ask = oracle6_d2.query_composite
    want = _canonical(oracle6_d2.graph.m, ids)
    assert _outcome(ask, u, v, raw) == (_outcome(ask, u, v, want) if type(want) is list else want)


class _Once:
    """An iterable of ids that counts the iterators it opens and the ids it hands out."""

    def __init__(self, ids):
        self.ids, self.opens, self.pulls = ids, 0, 0

    def __iter__(self):
        self.opens += 1
        return self._pull()

    def _pull(self):
        for e in self.ids:
            self.pulls += 1
            yield e


@pytest.mark.parametrize("ids, expected, opens, pulls", [
    ([1, 1], 6, 1, 2), ([3, 0, 3], "2 failures exceed the oracle budget d=1", 1, 3),
    ([3, 8, 0, 6], "unknown edge id 6", 1, 4),
    ([3, "x", 0], "edge ids must be integers: " + _NOT_INT.format("str"), 2, 2)],
    ids=["answer", "budget", "unknown", "non-integer"])
def test_entry_pulls_each_id_once(oracle1_d1, ids, expected, opens, pulls):
    # one pass over D: each id is pulled once, up to the first non-integer;
    # only a TypeError opens D again, to tell a non-iterable D apart, and
    # that iterator pulls nothing
    once = _Once(ids)
    assert _outcome(oracle1_d1.query, 0, 2, once) == expected
    assert (once.opens, once.pulls) == (opens, pulls)


def test_build_derives_no_root(g6, monkeypatch):
    # the twin of test_load_derives_no_root: a built index holds what a
    # loaded one holds, and a first undamaged query derives exactly its
    # source, whole, in one step
    calls = []
    finish = ShortestPathIndex._finish_root
    monkeypatch.setattr(ShortestPathIndex, "_finish_root",
                        lambda self, r: calls.append(r) or finish(self, r))
    oracle = build_oracle(g6, 2, seed=1)
    index = oracle.index
    assert calls == []
    assert derived_roots(index) == set()
    # undamaged by the reference's own tree paths, which derive no root
    u, v, failed = next((u, v, f) for u, v, f in all_instances(g6, 2)
                        if len(f) == 2 and not set(f) & tree_path_edges(index, u, v))
    stats = QueryStats()
    answer = oracle.query_composite(u, v, failed, stats=stats)
    assert calls == [u]
    assert derived_roots(index) == {u}
    assert (stats.max_depth, stats.key_trees, stats.lookups) == (1, 0, 0)
    assert answer == base_length(index, u, v)
    derive_all(index)
    assert derived_roots(index) == set(range(g6.n))
    assert sorted(calls) == list(range(g6.n))


def test_build_and_load_derive_no_marks(g6):
    # a key tree reads its root's edge marks; build and load derive none,
    # and no root either
    oracle = build_oracle(g6, 2, seed=1)
    assert derived_roots(oracle.index) == set()
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(oracle)))
    assert derived_roots(loaded.index) == set()
    u, v, failed = next((u, v, f) for u, v, f in all_instances(g6, 2)
                        if f and oracle.index.path_intersects(u, v, f))
    underive(oracle.index)
    stats = QueryStats()
    loaded.query_composite(u, v, failed, stats=stats)
    assert stats.key_trees >= 2
    assert {u, v} <= derived_roots(loaded.index)
    # the same query on the built index derives the same roots and marks
    oracle.query_composite(u, v, failed)
    assert derived_roots(oracle.index) == derived_roots(loaded.index)
    assert oracle.index._marks == loaded.index._marks
    underive(loaded.index)
    assert derived_roots(loaded.index) == set()


def test_undamaged_query_after_load_derives_only_its_root(oracle6_d2, g6):
    u, v, failed = next((u, v, f) for u, v, f in all_instances(g6, 2)
                        if len(f) == 2 and not oracle6_d2.index.path_intersects(u, v, f))
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(oracle6_d2)))
    index = loaded.index
    assert derived_roots(index) == set()
    stats = QueryStats()
    assert loaded.query_composite(u, v, failed[::-1], stats=stats) == \
        base_length(oracle6_d2.index, u, v)
    assert derived_roots(index) == {u}
    assert (stats.max_depth, stats.key_trees, stats.lookups) == (1, 0, 0)


def test_a_second_thread_never_reads_a_half_derived_root():
    # the first query on root 0 is held as it writes the root's edge marks,
    # when _path_edges[0] is written and _marks[0] and _dist[0] are not; an
    # undamaged query on root 0 from a second thread must not read the lists
    # still unwritten, and both answer the reference's distance
    oracle = build_oracle(gen_gnm(10, 18, 32, 0), 2)
    index = oracle.index
    truth = ReferenceOracle(oracle.graph, index.tie).dist_avoiding((), 0, 5).true_len
    held, returned = threading.Event(), threading.Event()

    class HeldMarks(list):
        def __setitem__(self, r, value):
            if not held.is_set():  # the first write only
                held.set()
                returned.wait(timeout=10)
            super().__setitem__(r, value)

    index._marks = HeldMarks(index._marks)
    answers = []
    first = threading.Thread(target=lambda: answers.append(oracle.query(0, 5)))
    first.start()
    assert held.wait(timeout=10)
    try:
        second = oracle.query(0, 5)
    finally:
        returned.set()
        first.join(timeout=10)
    assert answers == [second] == [truth]


FRESH_LOADS_UNDER_THREADS = """
import io, random, sys, threading
from ftoracle.generate import gen_gnm
from ftoracle.oraclefile import load_oracle, oracle_file_bytes
from ftoracle.query import build_oracle
from ftoracle.reference import enumerate_instances

graph = gen_gnm(16, 32, 32, 0)
warm = build_oracle(graph, 2)
blob = oracle_file_bytes(warm)
queries = list(enumerate_instances(graph, 2, "sampled", 60, seed=0))
queries += [(u, v, ()) for u in range(16) for v in range(16)]
truth = [warm.query_composite(u, v, f) for u, v, f in queries]
sys.setswitchinterval(1e-6)
wrong = []

def ask(oracle, order):
    try:
        for i in order:
            u, v, failed = queries[i]
            answer = oracle.query_composite(u, v, failed)
            if answer != truth[i]:
                wrong.append((queries[i], answer, truth[i]))
    except Exception as exc:
        wrong.append(repr(exc))

for load in range(40):
    oracle = load_oracle(io.BytesIO(blob), graph=graph)
    # one order for all four, so that they meet on the roots as they derive them
    order = random.Random(load).sample(range(len(queries)), len(queries))
    threads = [threading.Thread(target=ask, args=(oracle, order)) for _ in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
print(len(wrong), wrong[:3])
sys.exit(1 if wrong else 0)
"""


def test_threads_on_fresh_loads_answer_as_a_warm_oracle():
    # 4 threads share each of 40 fresh loads, ask the same queries in the
    # same order and switch every microsecond, so a reader often meets a root
    # that another thread is deriving; every answer must be the warm
    # oracle's, and none may raise.  A fast path that tests _path_edges[u]
    # and then reads _dist[u] raises here on most runs
    src = str(Path(ftoracle.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", FRESH_LOADS_UNDER_THREADS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
