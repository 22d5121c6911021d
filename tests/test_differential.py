"""Differential test of the whole pipeline against the brute-force reference.

build -> save_oracle -> load_oracle -> every (u, v, F) with |F| <= d, each
answer compared with ReferenceOracle on the same tie values.  Trees make
bridges (UNREACHABLE answers), unit weights make the most true-length
ties, and graphs at the codec's largest accepted weight check that packing
never wraps: a path, whose damaged answers are all UNREACHABLE, and
2-connected graphs, whose replacement paths sum packed codes near the top
of the range.
"""
import dataclasses
import hashlib
import io

import pytest
from hypothesis import example, given, settings, strategies as st

import ftoracle.cli as cli
from ftoracle import (BuildError, Graph, ReferenceOracle, build_oracle, gen_gnm,
                      load_oracle, oracle_file_bytes)
from ftoracle.hitset import QueryStats
from ftoracle.reference import enumerate_instances
from ftoracle.tables import LengthCodec

from conftest import UnprunedOracle, underive


def _tree(n, wmax, seed):
    return gen_gnm(n, n - 1, wmax, seed)


def _complete(n, wmax, seed):
    return gen_gnm(n, n * (n - 1) // 2, wmax, seed)


def _sparse(n, wmax, seed):
    return gen_gnm(n, min(n * (n - 1) // 2, n + 2), wmax, seed)


def test_answers_do_not_depend_on_derivation_order():
    # each query starts with no root derived, so a reader of a per-root list
    # that runs before its root is derived meets None and fails
    graph = gen_gnm(7, 11, 32, 0)
    built = build_oracle(graph, 3, seed=1)
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(built)), graph=graph)
    count = 0
    for u, v, failed in enumerate_instances(graph, 3):
        underive(loaded.index)
        assert loaded.query_composite(u, v, failed) == \
            built.query_composite(u, v, failed), (u, v, failed)
        count += 1
    assert count == 232 * 42


# recorded over the counters of every query below, re-recorded once when
# the pivot loop began to skip pivots whose lower bound cannot beat the
# best bound so far; the unpruned loop still gives the earlier digest,
# recorded when query_composite passed stats by hand through the cases
QUERY_STATS_DIGEST = "566326832925def8f44f1bb4b9607206b3b3fdba366596488bcd686cd9c1bd8b"
UNPRUNED_STATS_DIGEST = "a0bae9fb065d302c3ed52597a2ca753ef2946511be90fdf5d363478816b0db85"


def stats_digest(oracle, graph, fresh):
    digest = hashlib.sha256()
    for u, v, failed in enumerate_instances(graph, 3):
        if fresh:
            underive(oracle.index)
        stats = QueryStats()
        oracle.query_composite(u, v, failed, stats=stats)
        digest.update(repr(dataclasses.astuple(stats)).encode("ascii"))
    return digest.hexdigest()


def test_query_stats_pinned():
    # the same counts on the built oracle and on a loaded one that derives
    # every root afresh for each query
    graph = gen_gnm(7, 11, 32, 0)
    built = build_oracle(graph, 3, seed=1)
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(built)), graph=graph)
    for oracle, fresh in ((built, False), (loaded, True)):
        assert stats_digest(oracle, graph, fresh) == QUERY_STATS_DIGEST, fresh


def test_unpruned_reference_keeps_the_earlier_stats():
    # UnprunedOracle is the reference below only while it is the old loop
    graph = gen_gnm(7, 11, 32, 0)
    built = build_oracle(graph, 3, seed=1)
    unpruned = UnprunedOracle(built.index, built.tables)
    assert stats_digest(unpruned, graph, False) == UNPRUNED_STATS_DIGEST


def assert_prune_only_saves(graph, d):
    """Every query pruned and unpruned: equal answers, and no counter of the
    pruned query above the unpruned one.  Returns both case_three totals."""
    pruned = build_oracle(graph, d, seed=1)
    unpruned = UnprunedOracle(pruned.index, pruned.tables)
    totals = [0, 0]
    for u, v, failed in enumerate_instances(graph, d):
        mine, ref = QueryStats(), QueryStats()
        assert pruned.query_composite(u, v, failed, stats=mine) == \
            unpruned.query_composite(u, v, failed, stats=ref), (u, v, failed)
        for field in ("case_three_calls", "lookups", "key_trees", "max_depth"):
            assert getattr(mine, field) <= getattr(ref, field), (field, u, v, failed)
        totals[0] += mine.case_three_calls
        totals[1] += ref.case_three_calls
    return totals


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([_tree, _complete, _sparse]),
       n=st.integers(2, 6), unit=st.booleans(), seed=st.integers(0, 10 ** 6),
       data=st.data())
@example(shape=_complete, n=4, unit=True, seed=0, data=None)
@example(shape=_complete, n=6, unit=False, seed=0, data=None)
def test_pruned_query_matches_unpruned(shape, n, unit, seed, data):
    # d = 4 only for n <= 4, as in the round trips above
    top = 4 if n <= 4 else 3
    d = top if data is None else data.draw(st.integers(1, top), label="d")
    assert_prune_only_saves(shape(n, 1 if unit else 32, seed), d)


def test_pruned_query_matches_unpruned_on_gnm():
    assert_prune_only_saves(gen_gnm(7, 11, 32, 0), 3)
    pruned, unpruned = assert_prune_only_saves(gen_gnm(10, 18, 32, 5), 3)
    assert pruned < unpruned


def assert_round_trip_exact(graph, d):
    built = build_oracle(graph, d, seed=1)
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(built)), graph=graph)
    ref = ReferenceOracle(graph, loaded.index.tie)
    for u, v, failed in enumerate_instances(graph, d):
        assert loaded.query_composite(u, v, failed) == \
            ref.dist_avoiding(failed, u, v), (u, v, failed)


@settings(max_examples=150, deadline=None)
@given(shape=st.sampled_from([_tree, _complete, _sparse]),
       n=st.integers(1, 6), unit=st.booleans(), seed=st.integers(0, 10 ** 6),
       data=st.data())
@example(shape=_tree, n=1, unit=True, seed=0, data=None)
@example(shape=_tree, n=2, unit=True, seed=0, data=None)
@example(shape=_complete, n=4, unit=True, seed=0, data=None)
def test_loaded_oracle_matches_reference(shape, n, unit, seed, data):
    # d = 3 only for n <= 4, where the reference sweep stays cheap
    top = 3 if n <= 4 else 2
    d = top if data is None else data.draw(st.integers(1, top), label="d")
    assert_round_trip_exact(shape(n, 1 if unit else 32, seed), d)


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from([_tree, _complete, _sparse]),
       n=st.integers(1, 4), unit=st.booleans(), seed=st.integers(0, 10 ** 6))
@example(shape=_complete, n=4, unit=True, seed=0)
@example(shape=_complete, n=4, unit=False, seed=0)
@example(shape=_tree, n=4, unit=True, seed=0)
def test_loaded_oracle_matches_reference_at_budget_four(shape, n, unit, seed):
    # at n <= 4 every graph has m <= 6, so budget 4 covers nearly all subsets
    assert_round_trip_exact(shape(n, 1 if unit else 32, seed), 4)


def _path(n, w):
    return Graph(n, [(i, i + 1, w) for i in range(n - 1)])


def _largest_weight(n, m):
    """Largest edge weight the codec accepts on n vertices and m edges."""
    shift = LengthCodec(n, m, 1).shift  # the shift does not depend on weights
    return ((1 << (62 - shift)) - 1) // (n - 1)


@pytest.mark.parametrize("n", [2, 4])
def test_largest_codec_weight_is_exact(n):
    w = _largest_weight(n, n - 1)
    LengthCodec(n, n - 1, w)
    assert_round_trip_exact(_path(n, w), 2)


CYCLE5 = [(i, (i + 1) % 5) for i in range(5)]
K4 = [(a, b) for a in range(4) for b in range(a + 1, 4)]
CYCLE6_CHORD = [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]


@pytest.mark.parametrize("pairs", [CYCLE5, K4, CYCLE6_CHORD],
                         ids=["cycle5", "k4", "cycle6-chord"])
def test_largest_codec_weight_is_exact_when_two_connected(pairs):
    # every failure set of size <= 3, weights largest - (k mod 3)
    n = 1 + max(max(p) for p in pairs)
    w = _largest_weight(n, len(pairs))
    graph = Graph(n, [(a, b, w - k % 3) for k, (a, b) in enumerate(pairs)])
    LengthCodec(n, graph.m, w)
    assert_round_trip_exact(graph, 3)


@pytest.mark.parametrize("n", [2, 4])
def test_weight_past_codec_range_is_refused(n, tmp_path, capsys):
    graph = _path(n, _largest_weight(n, n - 1) + 1)
    with pytest.raises(BuildError, match="too large"):
        build_oracle(graph, 1)
    path = tmp_path / "heavy.graph"
    path.write_text(graph.to_text())
    out = tmp_path / "heavy.oracle"
    assert cli.main(["build", "-g", str(path), "-d", "1", "-o", str(out)]) == 2
    assert "too large" in capsys.readouterr().err
    assert not out.exists()
