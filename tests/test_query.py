"""Recursive query: exactness, budgets, argument checks."""
import io
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ftoracle.generate import gen_gnm
from ftoracle.graph import UNREACHABLE, GraphError, canonical_failures
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


def _outcome(oracle, u, v, failures):
    try:
        return oracle.query_composite(u, v, failures)
    except QueryError as exc:
        return str(exc)


@given(ids=st.lists(st.one_of(st.integers(-2, 11), st.sampled_from([10**30, -(10**30), 0.5])),
                    max_size=6),
       form=st.sampled_from(["list", "tuple", "iter", "numpy"]),
       u=st.integers(0, 6), v=st.integers(0, 6))
def test_raw_failure_ids_match_their_canonical_set(oracle6_d2, ids, form, u, v):
    # duplicates, any order, numpy ints, one-shot iterators, unknown ids and
    # non-integers: the answer is that of sorted(set(ids)), and a refusal
    # carries the text of canonical_failures
    if form == "numpy" and any(type(e) is not int or abs(e) > 2**62 for e in ids):
        form = "list"
    raw = {"list": list, "tuple": tuple, "iter": iter,
           "numpy": lambda x: np.array(x, dtype=np.int64)}[form](ids)
    try:
        canonical_failures(oracle6_d2.graph, ids)
    except GraphError as exc:
        assert _outcome(oracle6_d2, u, v, raw) == str(exc)
    else:
        assert _outcome(oracle6_d2, u, v, raw) == _outcome(oracle6_d2, u, v, sorted(set(ids)))


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
