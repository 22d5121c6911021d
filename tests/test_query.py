"""Recursive query: exactness, budgets, argument checks."""
import io
from itertools import combinations

import numpy as np
import pytest

from ftoracle.generate import gen_gnm
from ftoracle.graph import UNREACHABLE
from ftoracle.hitset import FailureView, QueryStats
from ftoracle.oraclefile import load_oracle, oracle_file_bytes
from ftoracle.query import Oracle, QueryError, build_oracle
from ftoracle.reference import ReferenceOracle, enumerate_instances

from conftest import base_length, underive


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
    for u in range(7):
        assert oracle6_d2.query(u, u, (2, 5)) == 0


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


def test_vertex_out_of_range(oracle1_d1):
    with pytest.raises(QueryError, match="vertex"):
        oracle1_d1.query(0, 4)


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
