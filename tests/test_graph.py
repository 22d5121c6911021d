"""Graph parsing, validation, tie-break assignment and composite lengths."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ftoracle.generate import gen_gnm
from ftoracle.graph import (CompositeLength, Graph, GraphError, UNREACHABLE,
                            ZERO_LENGTH, canonical_failures, edge_ids,
                            failure_mask, parse_graph, tie_break_values)
from ftoracle.query import build_oracle
from ftoracle.spindex import ShortestPathIndex

from conftest import G1_TEXT, encode


def test_parse_g1():
    g = parse_graph(G1_TEXT)
    assert g.n == 4
    assert g.m == 4
    assert g.edges == [(0, 1, 1), (1, 2, 2), (2, 3, 1), (0, 3, 5)]


def test_repr_names_the_counts():
    assert repr(parse_graph(G1_TEXT)) == "Graph(n=4, m=4)"


def test_eq_against_a_non_graph_is_false():
    g = parse_graph(G1_TEXT)
    assert g.__eq__(5) is NotImplemented
    assert not g == 5
    assert g != "4 4"
    assert g == parse_graph(G1_TEXT)


def test_parse_skips_comments_and_blanks():
    g = parse_graph("# header\n\n2 1\n# mid\n0 1 7\n")
    assert g.n == 2
    assert g.edges == [(0, 1, 7)]


def test_parse_accepts_bytes():
    assert parse_graph(G1_TEXT.encode()).m == 4


def test_parse_rejects_self_loop():
    with pytest.raises(GraphError, match="self-loop"):
        parse_graph("2 1\n0 0 5\n")


def test_parse_rejects_disconnected():
    with pytest.raises(GraphError, match="disconnected"):
        parse_graph("4 2\n0 1 1\n2 3 1\n")
    # n - 1 edges, a triangle and an edge apart: found by the search
    with pytest.raises(GraphError, match="disconnected: reached 3 of 5"):
        parse_graph("5 4\n0 1 1\n1 2 1\n0 2 1\n3 4 1\n")


def test_parse_rejects_non_utf8_bytes():
    with pytest.raises(GraphError, match="not UTF-8"):
        parse_graph(b"3 2\n0 1 5\n1 2 \xff\n")


def test_parse_refuses_too_few_edges_before_any_size_n_work():
    # 10^7 vertices and no edge: refused from the counts alone, with none
    # of the n adjacency lists or reach flags made
    tracemalloc.start()
    try:
        with pytest.raises(GraphError, match="disconnected"):
            parse_graph(b"10000000 0\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("text, pattern", [
    ("", "empty"),
    ("2\n0 1 1\n", "header"),
    ("2 x\n0 1 1\n", "header"),
    ("2 2\n0 1 1\n", "expected 2 edge"),
    ("2 1\n0 1\n", "edge line"),
    ("2 1\n0 1 w\n", "edge line"),
])
def test_parse_rejects_malformed(text, pattern):
    with pytest.raises(GraphError, match=pattern):
        parse_graph(text)


def test_validate_accepts_g6(g6):
    g6.validate()


def test_validate_rejects_zero_weight():
    with pytest.raises(GraphError, match="weight"):
        Graph(2, [(0, 1, 0)]).validate()


def test_validate_rejects_duplicate_either_orientation():
    with pytest.raises(GraphError, match="duplicate"):
        Graph(2, [(0, 1, 1), (1, 0, 2)]).validate()


def test_validate_rejects_bad_endpoint():
    with pytest.raises(GraphError, match="out of range"):
        Graph(2, [(0, 2, 1)]).validate()


@pytest.mark.parametrize("graph, pattern", [
    (Graph(0, [(0, 1, 1)]), "vertex count"),
    (Graph(2, [(0, 2, 1)]), "out of range"),
    (Graph(3, [(0, 1, 1)]), "disconnected"),
])
def test_build_oracle_rejects_invalid_graph(graph, pattern):
    # build_oracle leaves validation to the index build; tie values are
    # drawn before it and must not fail first with an untyped error
    with pytest.raises(GraphError, match=pattern):
        build_oracle(graph, 1)


def test_roundtrip_fixtures(g1, g6):
    for g in (g1, g6):
        assert parse_graph(g.to_text()) == g


@given(n=st.integers(2, 10), extra=st.integers(0, 6), seed=st.integers(0, 10**6))
def test_roundtrip_generated(n, extra, seed):
    m = min(n - 1 + extra, n * (n - 1) // 2)
    g = gen_gnm(n, m, 32, seed)
    assert parse_graph(g.to_text()) == g


def test_edge_id_unordered(g1):
    assert g1.edge_id(0, 1) == 0
    assert g1.edge_id(1, 0) == 0
    assert g1.edge_id(3, 0) == 3
    with pytest.raises(GraphError, match="no edge"):
        g1.edge_id(0, 2)


def test_digest_tracks_content(g1, g6):
    assert g1.digest() == parse_graph(G1_TEXT).digest()
    assert g1.digest() != g6.digest()


def test_tiebreakers_in_range(g1):
    values = tie_break_values(g1, seed=1)
    assert len(values) == 4
    assert all(1 <= t <= 8 * 4 * 16 for t in values)


def test_tiebreakers_deterministic(g1):
    assert tie_break_values(g1, 1) == tie_break_values(g1, 1)
    assert tie_break_values(g1, 1) != tie_break_values(g1, 2)


def test_tiebreakers_star_always_unique(g3):
    # a tree has one path per pair, so any assignment passes the tie check
    for seed in range(5):
        ShortestPathIndex(g3, tie_break_values(g3, seed))


def test_composite_ordering():
    assert CompositeLength(3, 9) < CompositeLength(4, 1)
    assert CompositeLength(3, 2) < CompositeLength(3, 5)
    assert max(CompositeLength(3, 2), UNREACHABLE) == UNREACHABLE


def test_composite_addition_componentwise():
    assert CompositeLength(2, 5) + CompositeLength(3, 7) == CompositeLength(5, 12)
    assert ZERO_LENGTH + CompositeLength(1, 1) == CompositeLength(1, 1)


def test_composite_addition_saturates():
    s = UNREACHABLE + CompositeLength(4, 2)
    assert s.is_unreachable
    assert s.true_len == math.inf


def test_unreachable_flag():
    assert UNREACHABLE.is_unreachable
    assert not CompositeLength(0, 0).is_unreachable


def test_canonical_failures(g1):
    assert canonical_failures(g1, [2, 0, 2]) == (0, 2)
    assert canonical_failures(g1, []) == ()
    with pytest.raises(GraphError, match="unknown edge"):
        canonical_failures(g1, [4])
    # the smallest bad id is named, below the range or above it
    with pytest.raises(GraphError, match=r"unknown edge id 5$"):
        canonical_failures(g1, [7, 1, 5, 9])
    with pytest.raises(GraphError, match=r"unknown edge id -2$"):
        canonical_failures(g1, [6, -1, 0, -2])
    with pytest.raises(GraphError, match=r"unknown edge id -1$"):
        canonical_failures(g1, [-1])
    ids = canonical_failures(g1, np.array([3, 1, 3], dtype=np.int64))
    assert ids == (1, 3) and all(type(e) is int for e in ids)
    assert canonical_failures(g1, iter([3, 0, 3])) == (0, 3)


@pytest.mark.parametrize("ids", [[0.7], ["1"], [1, 2.0], [None]])
def test_canonical_failures_rejects_non_integers(g1, ids):
    # int() would truncate 0.7 to edge 0 and parse "1" as edge 1
    with pytest.raises(GraphError, match="must be integers"):
        canonical_failures(g1, ids)


def test_failure_mask_bits(g1):
    assert failure_mask(g1, [2, 0, 2]) == 0b101
    assert failure_mask(g1, ()) == 0
    assert edge_ids(0b1011) == (0, 1, 3)
    assert edge_ids(0) == ()


def bit_scan(mask):
    """The set bits of mask, ascending, one bit test each."""
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


# edge_ids reads bytes 0-3 from tables and the bits from 32 up one by one;
# masks run up to n = 128's most edges, 128 * 127 / 2 = 8128
TABLE_BOUNDARIES = [8, 16, 24, 32]
TOP_BIT = 8127


@given(st.sets(st.one_of(st.sampled_from([b + k for b in TABLE_BOUNDARIES for k in (-1, 0)]),
                         st.integers(0, 40), st.integers(0, TOP_BIT)), max_size=64))
def test_edge_ids_matches_a_bit_scan(bits):
    mask = sum(1 << b for b in bits)
    assert edge_ids(mask) == bit_scan(mask) == tuple(sorted(bits))


@pytest.mark.parametrize("boundary", TABLE_BOUNDARIES)
def test_edge_ids_across_a_table_boundary(boundary):
    # set bits on both sides of the boundary, alone, with the bits below
    # it, and with the lowest and highest bit
    for mask in (0b11 << boundary - 1, (1 << boundary + 1) - 1,
                 1 | 0b11 << boundary - 1 | 1 << TOP_BIT):
        assert edge_ids(mask) == bit_scan(mask)


def test_edge_ids_of_every_bit():
    full = (1 << TOP_BIT + 1) - 1
    assert edge_ids(full) == bit_scan(full) == tuple(range(TOP_BIT + 1))
    for b in TABLE_BOUNDARIES:
        assert edge_ids(full ^ 1 << b) == bit_scan(full ^ 1 << b)


@pytest.mark.parametrize("ids", [[9, 0.7], [-1, "1"], [0, 9, 2, None], iter([7, 1, 0.5])])
def test_canonical_failures_non_integer_after_bad_id(g1, ids):
    # a non-integer is refused wherever it stands, even after an unknown id
    with pytest.raises(GraphError, match="must be integers"):
        canonical_failures(g1, ids)


def test_canonical_failures_names_smallest_bad_id_of_an_iterator(g1):
    with pytest.raises(GraphError, match=r"unknown edge id -3$"):
        canonical_failures(g1, iter([9, 1, -3, 5, -1, 1]))
    with pytest.raises(GraphError, match=r"unknown edge id 4$"):
        canonical_failures(g1, (x for x in [9, 4, 0, 4, 6]))


def test_canonical_failures_reads_ids_once(g1):
    class Once:
        """An iterable that may be iterated only once, one pull per id."""

        def __init__(self, ids):
            self.ids, self.pulls, self.opened = ids, 0, False

        def __iter__(self):
            assert not self.opened, "ids read a second time"
            self.opened = True
            for e in self.ids:
                self.pulls += 1
                yield e

    ok = Once([3, 0, 3])
    assert canonical_failures(g1, ok) == (0, 3) and ok.pulls == 3
    bad = Once([3, 8, 0, 6])
    with pytest.raises(GraphError, match=r"unknown edge id 6$"):
        canonical_failures(g1, bad)
    assert bad.pulls == 4


@pytest.mark.parametrize("ids, bad", [([10**30], 10**30), ([1, 10**30, 10**25], 10**25),
                                      ([-(10**30), 0], -(10**30))])
def test_canonical_failures_refuses_huge_ids_before_any_shift(g1, ids, bad):
    # 1 << 10**30 raises OverflowError, so a GraphError shows no shift was made
    with pytest.raises(GraphError, match=rf"unknown edge id {bad}$"):
        canonical_failures(g1, ids)
    with pytest.raises(GraphError, match=rf"unknown edge id {bad}$"):
        failure_mask(g1, iter(ids))


@pytest.mark.parametrize("n, edges", [
    (3, [(0, 1, 1.9), (1, 2, 2.5), (0, 2, 3.7)]),
    (3.0, [(0, 1, 1), (1, 2, 1)]),
    (2, [("0", 1, 1)]),
    (2, [(0, 1, np.float64(4))]),
])
def test_graph_rejects_non_integer_fields(n, edges):
    with pytest.raises(GraphError, match="must be integers"):
        Graph(n, edges)


def test_graph_accepts_numpy_integers():
    g = Graph(np.int64(3), [(np.int32(0), np.int64(1), np.uint8(2)), (1, 2, 5)])
    assert g == Graph(3, [(0, 1, 2), (1, 2, 5)])
    assert type(g.n) is int and all(type(x) is int for e in g.edges for x in e)


def test_edge_length_reads_weight_and_tie(g1):
    # the index's packed step of an edge is its weight and its tie value
    tie = tie_break_values(g1, 1)
    index = ShortestPathIndex(g1, tie)
    assert index.codec.decode(index._step[1]) == CompositeLength(2, tie[1])
    assert index._step[1] == encode(index.codec, CompositeLength(2, tie[1]))
