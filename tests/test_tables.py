"""Table build: constraint predicate, maximization, dominance, packing."""
import io
import os
import signal
import time
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ftoracle import tables as tables_module
from ftoracle.generate import gen_gnm
from ftoracle.graph import UNREACHABLE, CompositeLength, Graph
from ftoracle.oraclefile import load_oracle, oracle_file_bytes
from ftoracle.query import build_oracle
from ftoracle.reference import ReferenceOracle, dijkstra_composite
from ftoracle.spindex import MAX_TIE_RETRIES, build_index_auto
from ftoracle.tables import (CHUNK, BuildError, LengthCodec, _arc_list, _deleted_all_pairs,
                             _edge_masks, _failure_set_ids, _fill_bytes, _levels,
                             _row_candidates, _side_masks, build_tables, check_build_size,
                             constraint_holds, enumerate_failure_sets, failure_set_count,
                             wide_codes)

from conftest import (TableKey, derive_all, derived_roots, encode, exhaustive_candidates,
                      reference_of, swap_parents, tree_path, tree_path_edges)
from test_file_digests import PINNED


def id_matrix(sets, m, d):
    """The build's (set, slot) edge ids, short sets padded with edge m."""
    width = max(1, min(d, m))
    return np.array([s + (m,) * (width - len(s)) for s in sets],
                    dtype=np.int32).reshape(-1, width)


def all_keys(n):
    for u, v, up, vp, b1, b2 in product(range(n), range(n), range(n),
                                        range(n), (0, 1), (0, 1)):
        yield TableKey(u, v, up, vp, b1, b2)


def feasible_sets(index, key, d):
    """The sets that meet key's constraint by the reference's tree walks."""
    ref = reference_of(index)
    for failed in enumerate_failure_sets(index.graph.m, d):
        if ref.constraint_holds(failed, key):
            yield failed


def best_by_reference(ref, index, key, d):
    """Independent maximization over feasible sets, first-in-order tie-break."""
    best_set, best_len = None, None
    for failed in feasible_sets(index, key, d):
        length = ref.dist_avoiding(failed, key.u, key.v)
        if best_len is None or length > best_len:
            best_set, best_len = failed, length
    return best_set, best_len


# -- constraint predicate -----------------------------------------------------

def both_constraints(index, failed, key):
    """The index's constraint, checked against the reference's tree walks."""
    holds = constraint_holds(index, failed, key)
    assert reference_of(index).constraint_holds(failed, key) == holds
    return holds


def test_empty_set_always_feasible(idx1):
    for key in all_keys(4):
        assert both_constraints(idx1, (), key)


def test_constraint_blocks_damaged_anchor_path(idx1):
    assert not both_constraints(idx1, (0,), TableKey(0, 2, 1, 2, 0, 0))


def test_constraint_blocks_touched_subtree(idx1):
    assert not both_constraints(idx1, (3,), TableKey(0, 2, 1, 2, 1, 0))
    # same set passes once the subtree bit is dropped
    assert both_constraints(idx1, (3,), TableKey(0, 2, 1, 2, 0, 0))


def side_keys(n):
    """Keys that constrain one side only: the other side's anchor is its root."""
    for r, x, b in product(range(n), range(n), (0, 1)):
        yield TableKey(r, r, x, r, b, 0)
        yield TableKey(r, r, r, x, 0, b)


def test_constraint_matches_vectorized_masks(idx1, idx6):
    # n = 1 has no edge; at n = 9 the unpacked vertex masks cross a byte.
    # A key's constraint is its two sides' AND, so on the larger inputs
    # checking every side alone covers every key.
    inputs = [(idx1, all_keys), (build_index_auto(gen_gnm(1, 0, 9, 0), 1)[0], all_keys),
              (idx6, side_keys), (build_index_auto(gen_gnm(9, 11, 9, 0), 1)[0], side_keys)]
    for index, keys in inputs:
        n, m = index.graph.n, index.graph.m
        bad = _edge_masks(index)
        sets = enumerate_failure_sets(m, 2)
        ids = id_matrix(sets, m, 2)
        fb = [_side_masks(bad, ids, root) for root in range(n)]
        for si, failed in enumerate(sets):
            for key in keys(n):
                expect = both_constraints(index, failed, key)
                assert bool(fb[key.u][key.up, key.b1, si] and
                            fb[key.v][key.vp, key.b2, si]) == expect


def test_edge_masks_unpack_every_roots_lists(g6):
    # _edge_masks derives each root itself and keeps none: its masks are
    # those of a fully derived index's lists, bit by bit, on g6 and every
    # pinned graph.  So are the packed masks a loaded oracle's first reads
    # take, OracleTables._root, unpacked little-endian, edge m all 0
    graphs = [g6] + [make() for make, _, _ in PINNED.values()]
    for graph in graphs:
        index = build_index_auto(graph, 1)[0]
        bad = _edge_masks(index)
        assert derived_roots(index) == set()
        derive_all(index)
        n, m = graph.n, graph.m
        expect = np.zeros((n, 2, n, m + 1), dtype=bool)
        for r, x, e in product(range(n), range(n), range(m)):
            expect[x, 0, r, e] = index._below[r][e] >> x & 1
            expect[x, 1, r, e] = expect[x, 0, r, e] or index._sub[r][x] & index._ends[e]
        assert np.array_equal(bad, expect)
        loaded = load_oracle(io.BytesIO(oracle_file_bytes(build_oracle(graph, 1, seed=1))))
        for r in range(n):
            packed = loaded.tables._root(r)
            assert packed.dtype == np.uint8 and packed.shape == (m + 1, 2, (n + 7) // 8)
            bits = np.unpackbits(packed, axis=-1, count=n, bitorder="little")
            assert np.array_equal(bits.transpose(2, 1, 0), expect[:, :, r])


def test_no_root_is_derived_while_batches_fill(monkeypatch):
    # the build reads each root's lists once, for its masks, and keeps no
    # root through the fill; the part of the build's peak this test guards
    fill, seen = tables_module._fill_rows, []
    monkeypatch.setattr(tables_module, "_fill_rows",
                        lambda *args: seen.append(derived_roots(index)) or fill(*args))
    for graph, d in ((gen_gnm(16, 32, 32, 0), 2), (gen_gnm(10, 18, 32, 0), 3)):
        index = build_index_auto(graph, 1)[0]
        seen.clear()
        build_tables(index, d, 1)
        assert len(seen) > 1
        assert all(roots == set() for roots in seen)
        assert derived_roots(index) == set()


# -- enumeration order ----------------------------------------------------------

def test_enumerate_failure_sets_small():
    sets = enumerate_failure_sets(4, 2)
    assert sets[0] == ()
    assert len(sets) == 1 + 4 + 6
    assert sets == sorted(sets)


def test_enumerate_failure_sets_degenerate_budget():
    assert len(enumerate_failure_sets(4, 9)) == 16


@pytest.mark.parametrize("m, d", [(0, 1), (4, 2), (4, 9), (7, 3)])
def test_failure_set_count_matches_enumeration(m, d):
    assert failure_set_count(m, d) == len(enumerate_failure_sets(m, d))


@pytest.mark.parametrize("m", [0, 1, 5, 12, 18, 32])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_failure_set_ids_match_enumeration(m, d):
    # the build's id matrix, made without a tuple per set, d > m included
    ids = _failure_set_ids(m, d)
    assert ids.dtype == np.int32
    assert np.array_equal(ids, id_matrix(enumerate_failure_sets(m, d), m, d))


def test_failure_set_count_stops_past_cap():
    # 2**36 sets in full; the partial sum passes the cap within a few terms
    assert 100 < failure_set_count(36, 36, cap=100) < 2 ** 36


# -- build results on fixtures ---------------------------------------------------

def test_g1_unconstrained_entry(oracle1_d1):
    entry = oracle1_d1.tables.lookup(0, 2, 0, 2, 0, 0)
    assert entry.d_star == (0,)
    assert entry.l_star.true_len == 6


def test_g1_path_constrained_entry(oracle1_d1):
    entry = oracle1_d1.tables.lookup(0, 2, 1, 2, 0, 0)
    assert entry.d_star == (1,)
    assert entry.l_star.true_len == 6


def test_g1_fully_constrained_entry(oracle1_d1):
    entry = oracle1_d1.tables.lookup(0, 2, 1, 3, 1, 1)
    assert entry.d_star == ()
    assert entry.l_star.true_len == 3


def test_lookup_round_trip_stable(oracle1_d1):
    assert oracle1_d1.tables.lookup(0, 2, 0, 2, 0, 0) == \
        oracle1_d1.tables.lookup(0, 2, 0, 2, 0, 0)


def test_g6_branching_entry(oracle6_d1, ref6, idx6):
    # the two single-edge candidates tie on true length (both force 7);
    # the composite order picks whichever replacement path drew the
    # smaller tie sum, so derive the winner from the reference oracle
    entry = oracle6_d1.tables.lookup(0, 4, 5, 6, 1, 1)
    assert entry.l_star.true_len == 7
    key = TableKey(0, 4, 5, 6, 1, 1)
    assert list(feasible_sets(oracle6_d1.index, key, 1)) == [(), (1,), (2,)]
    expect_set, expect_len = best_by_reference(ref6, oracle6_d1.index, key, 1)
    assert entry.d_star == expect_set
    assert entry.l_star == expect_len


def test_entry_counts(oracle1_d1, oracle6_d1):
    assert oracle1_d1.tables.entry_count == 4 * 4 ** 4
    assert oracle6_d1.tables.entry_count == 4 * 7 ** 4


def test_lookup_rejects_bad_keys(oracle1_d1):
    with pytest.raises(ValueError, match="out of range"):
        oracle1_d1.tables.lookup(0, 2, 4, 0, 0, 0)
    with pytest.raises(ValueError, match="bits"):
        oracle1_d1.tables.lookup(0, 2, 0, 2, 2, 0)


def test_build_rejects_zero_budget(idx1):
    with pytest.raises(BuildError, match="budget"):
        build_tables(idx1, 0, tie_seed=1)


def test_build_refuses_what_the_file_header_cannot_hold():
    # d is a u64 on file and the tie seed an int64, counting the up to
    # MAX_TIE_RETRIES - 1 bumps that build_index_auto may add to it
    g = gen_gnm(5, 6, 32, 0)
    check_build_size(g.n, g.m, 2 ** 64 - 1)
    with pytest.raises(BuildError, match="budget"):
        check_build_size(g.n, g.m, 2 ** 64)
    for seed in (-2 ** 63, 2 ** 63 - MAX_TIE_RETRIES):
        assert build_oracle(g, 1, seed=seed).tables.tie_seed == seed
    for seed in (-2 ** 63 - 1, 2 ** 63 - MAX_TIE_RETRIES + 1):
        with pytest.raises(BuildError, match="tie seed"):
            build_oracle(g, 1, seed=seed)


def test_wrong_tree_raises_in_the_walk_back(monkeypatch):
    # root 0's tree with two parents swapped gives masks that disagree with
    # the codes, so phase 1's walk-back meets a vertex with no tight arc,
    # whose default arc 0 can lead into a cycle.  The walk is bounded at
    # n - 1 arcs and raises; the alarm turns a hang into a failure
    def hung(signum, frame):
        raise TimeoutError("the build hung")

    swap_parents(monkeypatch, 0)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        with pytest.raises(RuntimeError, match="walk-back passed n - 1 arcs"):
            build_oracle(gen_gnm(8, 12, 32, 0), 2, seed=1)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# -- pruned build against the dense all-keys update -----------------------------

def walk_subtree(index, root, x):
    """Vertices whose reference tree path from root passes x (x's subtree)."""
    return {y for y in range(index.graph.n) if x in tree_path(index, root, y)}


def dense_build(index, d):
    """The all-keys update, kept as the specification of the pruned build.

    Every set runs the reference's Dijkstra from scratch per root and
    compares-and-copies over all 4*n^4 keys in set order, with side masks
    derived directly by walking the reference's Dijkstra parents, not from
    the index's vertex bitmasks.
    """
    graph = index.graph
    n = graph.n
    on_path = [[tree_path_edges(index, r, x) for x in range(n)] for r in range(n)]
    subtree = [[walk_subtree(index, r, x) for x in range(n)] for r in range(n)]
    values = np.full((n, n, n, n, 2, 2), -1, dtype=np.int64)
    dstar_idx = np.zeros((n, n, n, n, 2, 2), dtype=np.int32)
    for si, sub in enumerate(enumerate_failure_sets(graph.m, d)):
        dist = np.array([[encode(index.codec, length) for length in
                          dijkstra_composite(graph, index.tie, r, frozenset(sub))[0]]
                         for r in range(n)], dtype=np.int64)
        ends = {p for eid in sub for p in graph.edges[eid][:2]}
        path_ok = np.array([[on_path[r][x].isdisjoint(sub) for x in range(n)]
                            for r in range(n)], dtype=bool)
        sub_ok = np.array([[subtree[r][x].isdisjoint(ends) for x in range(n)]
                           for r in range(n)], dtype=bool)
        fb = np.stack((path_ok, path_ok & sub_ok), axis=2)
        f1 = fb[:, None, :, None, :, None]
        f2 = fb[None, :, None, :, None, :]
        cand = dist[:, :, None, None, None, None]
        upd = (cand > values) & f1 & f2
        np.copyto(values, np.broadcast_to(cand, values.shape), where=upd)
        np.copyto(dstar_idx, np.int32(si), where=upd)
    return values, dstar_idx


def _tree(n, wmax, seed):
    return gen_gnm(n, n - 1, wmax, seed)


def _complete(n, wmax, seed):
    return gen_gnm(n, n * (n - 1) // 2, wmax, seed)


def _sparse(n, wmax, seed):
    return gen_gnm(n, min(n * (n - 1) // 2, n + 2), wmax, seed)


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([_tree, _complete, _sparse]),
       n=st.integers(1, 6), unit=st.booleans(), d=st.integers(1, 3),
       seed=st.integers(0, 10 ** 6))
@example(shape=_tree, n=1, unit=True, d=3, seed=0)
@example(shape=_tree, n=2, unit=False, d=1, seed=0)
@example(shape=_tree, n=2, unit=True, d=3, seed=0)
@example(shape=_complete, n=5, unit=True, d=3, seed=0)
# every damaging set of a tree disconnects the row: all candidates tie
# at UNREACHABLE and the lowest set index must win
@example(shape=_tree, n=6, unit=False, d=3, seed=0)
# more than 64 candidates per row: the bitsets cross byte and word bounds
@example(shape=_complete, n=6, unit=True, d=3, seed=0)
def test_pruned_build_equals_dense_update(shape, n, unit, d, seed):
    # trees give UNREACHABLE through bridges, unit weights give maximal ties
    index, _, tie_seed = build_index_auto(shape(n, 1 if unit else 9, seed), 1)
    tables = build_tables(index, d, tie_seed)
    values, dstar_idx = dense_build(index, d)
    assert tables.values.dtype == values.dtype
    assert tables.dstar_idx.dtype == dstar_idx.dtype
    assert np.array_equal(tables.values, values)
    assert np.array_equal(tables.dstar_idx, dstar_idx)


@settings(max_examples=30, deadline=None)
@given(shape=st.sampled_from([_tree, _complete, _sparse]),
       n=st.integers(1, 7), unit=st.booleans(), d=st.integers(1, 3),
       seed=st.integers(0, 10 ** 6))
@example(shape=_tree, n=7, unit=True, d=3, seed=0)
@example(shape=_sparse, n=7, unit=False, d=3, seed=0)
@example(shape=_complete, n=7, unit=True, d=2, seed=0)
def test_tables_are_symmetric(shape, n, unit, d, seed):
    # entry (v, u, v', u', b2, b1) == entry (u, v, u', v', b1, b2)
    index, _, tie_seed = build_index_auto(shape(n, 1 if unit else 9, seed), 1)
    tables = build_tables(index, d, tie_seed)
    for table in (tables.values, tables.dstar_idx):
        assert np.array_equal(table, table.transpose(1, 0, 3, 2, 5, 4))


@pytest.mark.parametrize("oracle_name", ["oracle1_d2", "oracle6_d2"])
def test_palettes_hold_each_rows_distinct_winners(request, oracle_name):
    tables = request.getfixturevalue(oracle_name).tables
    n = tables.graph.n
    assert tables.slots.dtype == np.uint8
    assert tables.slots.shape == (n * (n - 1) // 2, n, n, 2, 2)
    m = tables.graph.m
    sets = [tuple(e for e in row if e < m) for row in tables.ids.tolist()]
    entries = list(zip(wide_codes(tables.codes).tolist(), sets))
    pairs = list(combinations(range(n), 2))
    assert len(tables.pair_sizes) == len(pairs)
    # every key's palette entry, as lookup finds it
    entry = {key: (encode(tables.codec, found.l_star), found.d_star)
             for key in product(*[range(n)] * 4, (0, 1), (0, 1))
             for found in [tables.lookup(*key)]}
    start = 0
    for (u, v), size, stored in zip(pairs, tables.pair_sizes.tolist(), tables.slots):
        palette = entries[start:start + size]
        start += size
        # no two entries are equal, codes descend, and each wins a key of both rows
        assert len(set(palette)) == size
        assert [code for code, _ in palette] == sorted((c for c, _ in palette), reverse=True)
        for row in ((u, v), (v, u)):
            won = {entry[row + key] for key in product(*[range(n)] * 2, (0, 1), (0, 1))}
            assert won == set(palette)
        # the pair's row is stored once, and uses every slot
        assert np.unique(stored).tolist() == list(range(size))
    assert start == len(entries)


def side_feasible(index, root, x, bit, d_star):
    """d_star meets side root's constraint at (x, bit): no edge on the tree
    path root->x and, with bit set, no endpoint in x's subtree."""
    if index.path_intersects(root, x, d_star):  # derives the root first
        return False
    ends = 0
    for e in d_star:
        ends |= index._ends[e]
    return not (bit and index._sub[root][x] & ends)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_slot_classes_are_minimal_and_decode_to_the_values(name):
    # each pair u < v's derived row and column classes come in order of
    # first appearance and are minimal over the side bitsets: two rows
    # (u', b1) share a class iff the same palette entries meet side u's
    # constraint there, and the same for the columns at side v.  The matrix
    # cell of a key's classes is its slot, in both rows of the pair; the
    # built and the loaded tables derive the same class ids and matrices,
    # byte for byte
    make, d, _ = PINNED[name]
    built = build_oracle(make(), d, seed=1)
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(built)))
    for tables in (built.tables, loaded.tables):
        n, values, codes = tables.graph.n, tables.values, wide_codes(tables.codes)
        starts = (np.cumsum(tables.pair_sizes) - tables.pair_sizes).tolist()
        for ((u, v), palette), start in zip(palettes_of(tables), starts):
            classes, matrix = tables.pair_classes(u, v)
            rows, cols = classes.tolist()
            for ids, root in ((rows, u), (cols, v)):
                assert [x for k, x in enumerate(ids) if x not in ids[:k]] == \
                    list(range(max(ids) + 1))
                feasible = [tuple(side_feasible(tables.index, root, x, bit, d_star)
                                  for d_star in palette)
                            for x, bit in product(range(n), (0, 1))]
                for i, j in combinations(range(2 * n), 2):
                    assert (ids[i] == ids[j]) == (feasible[i] == feasible[j])
            assert matrix.shape == (max(rows) + 1, max(cols) + 1)
            # rows (u, 1), (v, 0) and (v, 1) admit only the empty set, and so
            # do columns (v, 1), (u, 0) and (u, 1)
            assert max(rows) < 2 * n - 2 and max(cols) < 2 * n - 2
            matrix = matrix.tolist()
            for up, b1, vp, b2 in product(range(n), (0, 1), range(n), (0, 1)):
                code = codes[start + matrix[rows[2 * up + b1]][cols[2 * vp + b2]]]
                assert values[u, v, up, vp, b1, b2] == values[v, u, vp, up, b2, b1] == code
                assert tables.read_block(u, v, (up,), (vp,), b1, b2)[0] == code
    for u, v in combinations(range(built.graph.n), 2):
        for mine, theirs in zip(loaded.tables.pair_classes(u, v), built.tables.pair_classes(u, v)):
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("name", sorted(PINNED))
def test_chunked_and_derives_the_same_classes(name, monkeypatch):
    # a first read ANDs its side classes' bool rows FILL_BYTES at a time, or
    # one row class at a time where that is more; each pinned pair fits in
    # one chunk, so a few bytes force chunks of one row class, and 100
    # bytes chunks of several, and each pair's class ids and matrix must
    # stay byte for byte
    make, d, _ = PINNED[name]
    blob = oracle_file_bytes(build_oracle(make(), d, seed=1))
    whole = load_oracle(io.BytesIO(blob)).tables
    for budget in (1, 100):
        monkeypatch.setattr(tables_module, "FILL_BYTES", budget)
        chunked = load_oracle(io.BytesIO(blob)).tables
        for u, v in combinations(range(whole.graph.n), 2):
            for mine, theirs in zip(chunked.pair_classes(u, v), whole.pair_classes(u, v)):
                assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()


def test_a_roots_masks_go_once_its_pairs_are_derived():
    # a root's masks are read only by its pairs' first reads: they stay
    # while one of its n - 1 pairs is underived, and go with the last
    g = gen_gnm(8, 12, 32, 0)
    tables = load_oracle(io.BytesIO(oracle_file_bytes(build_oracle(g, 2, seed=1)))).tables
    r, last = 3, 5
    for v in range(g.n):
        if v not in (r, last):
            tables.pair_classes(min(r, v), max(r, v))
    assert tables._masks[r] is not None
    tables.pair_classes(r, last)
    assert tables._masks[r] is None
    for u, v in combinations(range(g.n), 2):
        tables.pair_classes(u, v)
    assert tables._masks == [None] * g.n


def palettes_of(tables):
    """Each pair u < v, row-major, and its palette's D*s in stored order."""
    n, m = tables.graph.n, tables.graph.m
    sets, start = [tuple(e for e in row if e < m) for row in tables.ids.tolist()], 0
    for (u, v), size in zip(combinations(range(n), 2), tables.pair_sizes.tolist()):
        yield (u, v), sets[start:start + size]
        start += size


@pytest.mark.parametrize("name", sorted(PINNED))
def test_derived_slots_are_the_first_feasible_entries(name):
    # every derived slot, built and loaded, is the index of the first entry
    # of its pair's palette whose D* passes constraint_holds for the key
    make, d, _ = PINNED[name]
    built = build_oracle(make(), d, seed=1)
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(built)))
    n = built.graph.n
    for oracle in (built, loaded):
        slots = oracle.tables.slots
        for k, ((u, v), palette) in enumerate(palettes_of(oracle.tables)):
            for up, vp, b1, b2 in product(range(n), range(n), (0, 1), (0, 1)):
                first = next(i for i, d_star in enumerate(palette)
                             if constraint_holds(oracle.index, d_star, (u, v, up, vp, b1, b2)))
                assert slots[k, up, vp, b1, b2] == first


@settings(max_examples=12, deadline=None)
@given(n=st.integers(2, 10), extra=st.integers(0, 12), d=st.integers(1, 3),
       seed=st.integers(0, 10 ** 6))
def test_derived_slots_match_constraint_holds(n, extra, d, seed):
    # the same on a sample of graphs, n <= 10 and d = 1-3, built and loaded,
    # key by key.  A key's constraint is that of its two sides, each of them
    # the constraint of a key whose other anchor is its root, bit 0: so
    # each entry is tested at 4n keys per pair, not at all 4n^2
    graph = gen_gnm(n, min(n * (n - 1) // 2, n - 1 + extra), 9, seed)
    built = build_oracle(graph, d, seed=1)
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(built)))
    for oracle in (built, loaded):
        slots = oracle.tables.slots
        for k, ((u, v), palette) in enumerate(palettes_of(oracle.tables)):
            sides = [[[constraint_holds(oracle.index, d_star, key) for d_star in palette]
                      for key in keys]
                     for keys in ([(u, v, x, v, b, 0) for x in range(n) for b in (0, 1)],
                                  [(u, v, u, x, 0, b) for x in range(n) for b in (0, 1)])]
            for (up, b1), (vp, b2) in product(product(range(n), (0, 1)), repeat=2):
                a, b = sides[0][2 * up + b1], sides[1][2 * vp + b2]
                first = next(i for i in range(len(palette)) if a[i] and b[i])
                assert constraint_holds(oracle.index, palette[first], (u, v, up, vp, b1, b2))
                assert slots[k, up, vp, b1, b2] == first


def _first_appearance(matrix: list) -> tuple[list[int], list[bool]]:
    """Class ids of a matrix's rows in order of first appearance, and which
    rows come first in their class."""
    seen: dict = {}
    ids = [seen.setdefault(tuple(row), len(seen)) for row in matrix]
    return ids, [ids.index(c) == k for k, c in enumerate(ids)]


@pytest.mark.parametrize("n, entries, packed", [
    (10, 20, True), (16, 32, True), (7, 14, True), (5, 3, True), (10, 20, False),
], ids=["10-20", "16-32", "7-14", "5-3", "bool-10-20"])
def test_distinct_numbers_side_rows_by_first_appearance(n, entries, packed):
    # a side's 2n feasibility rows along a palette of entries, as the bool
    # rows that OracleTables._derive classes, or packed into bytes, where
    # the padding bits past the last entry are 0: rows repeat, and two
    # differ only in entry 0's bit.  The distinct rows come in class order,
    # each its class's first row
    rng = np.random.default_rng(entries)
    bits = rng.integers(0, 2, (3, entries), dtype=np.uint8)[rng.integers(0, 3, 2 * n)]
    bits[0] = 1
    bits[1] = bits[0]
    bits[1, 0] = 0
    lines = np.packbits(bits, axis=-1) if packed else bits == 1
    ids, rows = tables_module._distinct(lines)
    assert isinstance(ids, bytes)
    expect_ids, expect_first = _first_appearance(bits.tolist())
    assert list(ids) == expect_ids
    assert rows.dtype == lines.dtype
    assert np.array_equal(rows, lines[[k for k, f in enumerate(expect_first) if f]])
    assert np.array_equal(rows[list(ids)], lines)


def test_distinct_numbers_256_distinct_side_rows():
    # at n = 128 a side holds 2n = 256 rows, all distinct at worst: ids 0
    # to 255, the most that one byte per id holds; as bytes and as bool rows
    packed = np.stack([np.arange(256), np.arange(256) * 7 % 256], axis=1).astype(np.uint8)
    for lines in (packed, np.unpackbits(packed, axis=-1) == 1):
        ids, rows = tables_module._distinct(lines)
        assert list(ids) == list(range(256)) and np.array_equal(rows, lines)
        ids, rows = tables_module._distinct(lines[np.arange(256) % 128])
        assert list(ids) == list(range(128)) * 2 and np.array_equal(rows, lines[:128])


def test_progress_reports_each_root(idx6):
    calls = []
    build_tables(idx6, 1, 1, progress=lambda done, total: calls.append((done, total)))
    assert calls == [(k, 7) for k in range(1, 8)]


@pytest.mark.parametrize("n, m, d, limit, expect", [
    (10, 16, 1, 256, (True, False, False)),
    (9, 36, 3, 256, (False, True, False)),
    (8, 16, 4, 256, (False, True, False)),
    (10, 16, 1, 5, (True, False, True)),
], ids=["d1", "d3", "d4", "d1-widen"])
def test_fill_batches_leave_the_file_unchanged(monkeypatch, n, m, d, limit, expect):
    # the build writes the same file with FILL_BYTES at 0, one row per fill
    # call, as in its default batches.  Those hold, as expect says: rows of
    # several roots and widths in one batch; a row too wide to share one;
    # a palette that outgrows uint8 (UINT8_ENTRIES patched) in a batch of
    # several rows, whose pair derives its matrix as uint16
    calls = []
    fill = tables_module._fill_rows

    def spy(i, us, vs, start, size, *rest):
        part = fill(i, us, vs, start, size, *rest)
        calls.append((us.tolist(), size.tolist(), int(part[1].max())))
        return part

    graph, budget = gen_gnm(n, m, 32, 0), tables_module.FILL_BYTES
    monkeypatch.setattr(tables_module, "UINT8_ENTRIES", limit)
    monkeypatch.setattr(tables_module, "_fill_rows", spy)
    built = build_oracle(graph, d, seed=1)
    blob = oracle_file_bytes(built)
    batches = calls[:]
    calls.clear()
    monkeypatch.setattr(tables_module, "FILL_BYTES", 0)
    alone = build_oracle(graph, d, seed=1)
    assert oracle_file_bytes(alone) == blob
    assert [len(us) for us, *_ in calls] == [1] * (n * (n - 1) // 2)
    assert sum(len(us) for us, *_ in batches) == len(calls) > len(batches)
    mixed = any(len(set(us)) > 1 and len(set(size)) > 1 for us, size, _ in batches)
    wide = any(len(us) == 1 and 2 * _fill_bytes(n, size[0]) > budget
               for us, size, _ in batches)
    widened = any(len(us) > 1 and most > limit for us, _, most in batches)
    assert (mixed, wide, widened) == expect
    for tables in (built.tables, alone.tables):
        assert tables.slots.itemsize == (2 if limit < 256 else 1)


@pytest.mark.parametrize("n, m, d, kept, damaging", [
    (10, 18, 3, 5157, 12870),
    (16, 32, 2, 4746, 8969),
], ids=["n10-d3", "n16-d2"])
def test_rows_leave_out_sets_at_their_prefix_code(monkeypatch, n, m, d, kept, damaging):
    # a set at its prefix's code (the set less its last edge) ranks after
    # the prefix, which is feasible wherever the set is, so it wins no key
    # and its row leaves it out.  The rows' candidates, each row's empty
    # set included, as kept and as every damaging set (exhaustive_candidates)
    counts, palettes = [0, 0], []
    rows, fill = tables_module._row_candidates, tables_module._fill_rows

    def spy_rows(*args):
        out = rows(*args)
        counts[0] += int(out[3].sum())
        counts[1] += int(exhaustive_candidates(*args)[3].sum())
        return out

    def spy_fill(i, us, vs, start, size, codes, sets, *rest):
        _, sizes, _, won = part = fill(i, us, vs, start, size, codes, sets, *rest)
        for a, b, lo, hi in zip(start, start + size, np.cumsum(sizes) - sizes, np.cumsum(sizes)):
            palettes.append(set(won[lo:hi].tolist()) <= set(sets[a:b].tolist()))
        return part

    monkeypatch.setattr(tables_module, "_row_candidates", spy_rows)
    monkeypatch.setattr(tables_module, "_fill_rows", spy_fill)
    build_oracle(gen_gnm(n, m, 32, 0), d, seed=1)
    assert counts == [kept, damaging]
    assert len(palettes) == n * (n - 1) // 2 and all(palettes)


def both_phases(index, d, roots, cols=None):
    """Run phase 1 for roots, ascending, owning cols (every vertex by
    default), as one group, then phase 2 over them.  Returns per root its
    rows (x, codes, sets), and the (root, set) pairs of every chunk phase 1
    relaxed."""
    graph = index.graph
    ids = id_matrix(enumerate_failure_sets(graph.m, d), graph.m, d)
    cols = [list(range(graph.n))] * len(roots) if cols is None else cols
    owned = [[] for _ in range(graph.n)]
    for u, c in zip(roots, cols):
        owned[u] = c
    bad = _edge_masks(index)
    chunks = []
    relax = tables_module._relax

    def spy(row, banned, arcs, unreachable):
        # before the rounds only a pair's root sits at code 0
        chunks.append([(int(arcs.order[row[:, p] == 0][0]),
                        tuple(sorted(set(arcs.edge[banned[:, p]].tolist()))))
                       for p in range(row.shape[1])])
        relax(row, banned, arcs, unreachable)

    tables_module._relax = spy
    try:
        (swept,) = _deleted_all_pairs(index, _arc_list(index), ids, owned, bad, [0])
    finally:
        tables_module._relax = relax
    clean = _side_masks(bad, ids, np.array(roots)[:, None])[:, 0]
    rows = _row_candidates(index, ids, _levels(ids, graph.m), swept, roots, cols, clean)
    return swept_rows(rows, cols), chunks


def test_deleted_distances_match_reference(idx6, ref6):
    g = idx6.graph
    codec = idx6.codec
    sets = enumerate_failure_sets(g.m, 2)
    clean = _side_masks(_edge_masks(idx6), id_matrix(sets, g.m, 2), np.arange(g.n)[:, None])[:, 0]
    swept, _ = both_phases(idx6, 2, list(range(g.n)))
    for u, rows in enumerate(swept):
        _, codes, found = zip(*rows)
        for v in range(g.n):
            # the empty set first, then, ascending, each damaging set (each
            # is longer) whose length differs from its prefix's, the set
            # less its last edge
            damaging = [si for si in range(len(sets)) if not clean[v, u, si]]
            dist = dict(zip(found[v].tolist(), codes[v].tolist()))
            assert found[v].tolist() == [0] + [si for si in damaging if si in dist]
            for si, failed in enumerate(sets):
                length = ref6.dist_avoiding(failed, u, v)
                if si in dist:
                    assert codec.decode(dist[si]) == length
                if si in damaging:  # left out just where it has its prefix's length
                    assert (si in dist) == (length != ref6.dist_avoiding(failed[:-1], u, v))
                else:  # the base code
                    assert codec.decode(int(idx6.codes[u, v])) == length


def swept_rows(swept, cols):
    """_row_candidates' flat buffers as, per root, its rows (x, codes, sets)."""
    codes, sets, start, size = swept
    bounds = iter(zip(start.tolist(), (start + size).tolist()))
    return [[(x, codes[a:b], sets[a:b]) for x, (a, b) in zip(c, bounds)] for c in cols]


def sweep_against_reference(index, d, roots, cols=None):
    """Run both phases over roots and check every row phase 2 lays out.

    Each row (x, codes, sets) must hold the empty set, then, ascending,
    exactly the sets that hit the tree path root->x (by the reference's
    parent walks) and whose ReferenceOracle.dist_avoiding length differs
    from their prefix's, the set less its last edge; each damaging set left
    out has its prefix's length.  Each code must equal the reference's
    length: exactly unreachable_code where the set disconnects x, never
    negative.  So every kept set of every row has its exact code, swept or
    not.  Returns the (root, set) pairs of every chunk phase 1 relaxed, in
    order.
    """
    graph, codec = index.graph, index.codec
    ref = ReferenceOracle(graph, index.tie)
    sets = enumerate_failure_sets(graph.m, d)
    cols = [list(range(graph.n))] * len(roots) if cols is None else cols
    swept, chunks = both_phases(index, d, roots, cols)
    assert len(swept) == len(roots)
    for u, owned, rows in zip(roots, cols, swept):
        # u's reference length to each vertex under each set, a set at a time
        length = {s: [ref.dist_avoiding(s, u, x) for x in range(graph.n)] for s in sets}
        assert [row[0] for row in rows] == owned
        for x, codes, found in rows:
            assert codes.dtype == np.int64 and found.dtype == np.int32
            path = tree_path_edges(index, u, x)
            kept = found.tolist()
            assert kept[0] == 0 and kept[1:] == sorted(set(kept[1:]))
            chosen = set(kept)
            for si, s in enumerate(sets[1:], 1):
                if path & set(s):  # damaging: kept just where its length is not its prefix's
                    longer = length[s][x] != length[s[:-1]][x]
                    assert (si in chosen) == longer, (u, x, s)
                else:
                    assert si not in chosen, (u, x, s)
            for si, code in zip(kept, codes.tolist()):
                expect = length[sets[si]][x]
                assert codec.decode(code) == expect, (u, x, sets[si])
                assert 0 <= code <= codec.unreachable_code
                assert (code == codec.unreachable_code) == (expect == UNREACHABLE)
    assert all(0 < len(chunk) <= CHUNK for chunk in chunks)
    return chunks


def test_sweep_disconnecting_sets_give_unreachable_exactly():
    path = Graph(5, [(0, 1, 3), (1, 2, 1), (2, 3, 4), (3, 4, 2)])
    bridge = Graph(6, [(0, 1, 1), (1, 2, 2), (0, 2, 3), (2, 3, 5),
                       (3, 4, 1), (4, 5, 2), (3, 5, 2)])
    for graph in (path, bridge):
        index = build_index_auto(graph, 1)[0]
        sweep_against_reference(index, 2, list(range(graph.n)))
    # on a path every damaging set disconnects its column: phase 1 sweeps
    # the singletons only, and every larger set takes their code, its
    # prefix's, and so leaves the row
    index = build_index_auto(path, 1)[0]
    (rows,), chunks = both_phases(index, 2, [0], [[4]])
    assert rows[0][1][1:].tolist() == [index.codec.unreachable_code] * (len(rows[0][1]) - 1)
    sets = enumerate_failure_sets(4, 2)
    assert rows[0][2].tolist() == [0] + [sets.index((e,)) for e in range(4)]
    assert len(rows[0][1]) == 1 + 4 and chunks == [[(0, (e,)) for e in range(4)]]


def test_sweep_repairs_long_detours_on_a_cycle():
    # a 24-cycle with 2 chords: cutting one cycle edge sends the repair
    # around the cycle, over many Bellman-Ford rounds
    graph = Graph(24, [(i, (i + 1) % 24, 1 + i % 3) for i in range(24)] + [(0, 12, 9), (6, 18, 9)])
    index = build_index_auto(graph, 1)[0]
    sweep_against_reference(index, 2, [0, 5, 11])


def test_sweep_with_unit_weights():
    # unit weights tie many shortest paths of G - P: one walked path must do
    index = build_index_auto(gen_gnm(9, 16, 1, 3), 1)[0]
    sweep_against_reference(index, 3, list(range(9)))


@pytest.mark.parametrize("graph", [Graph(1, []), Graph(2, [(0, 1, 5)])], ids=["n1", "n2"])
@pytest.mark.parametrize("d", [1, 3])
def test_sweep_on_one_and_two_vertices(graph, d):
    index = build_index_auto(graph, 1)[0]
    chunks = sweep_against_reference(index, d, list(range(graph.n)))
    # n = 2: edge 0 is each root's path to the other vertex
    assert chunks == ([[(0, (0,)), (1, (0,))]] if graph.n == 2 else [])


@pytest.mark.parametrize("n, m, wmax", [(2, 1, 2 ** 55 - 1), (5, 7, 2 ** 46 - 1)])
def test_sweep_near_the_codec_limit(n, m, wmax):
    # max_len << shift within 2x of 2^62: a sum over a banned arc reaches
    # nearly 2^63 before it is overwritten, and must not wrap
    edges = gen_gnm(n, m, wmax, 0).edges
    index = build_index_auto(Graph(n, [(a, b, wmax) for a, b, _ in edges[:1]] + edges[1:]), 1)[0]
    codec = index.codec
    assert 2 ** 61 <= codec.max_len << codec.shift < 2 ** 62
    sweep_against_reference(index, 2, list(range(n)))


def test_sweep_chunks_stack_across_roots():
    # every root owns every vertex: level 1 is each root's n - 1 tree edges,
    # 13 * 12 = 156 pairs, so its first chunk straddles roots 0 to 10
    index = build_index_auto(gen_gnm(13, 30, 9, 0), 1)[0]
    chunks = sweep_against_reference(index, 2, list(range(13)))
    levels = {}
    for chunk in chunks:  # a chunk never mixes levels
        (size,) = {len(s) for _, s in chunk}
        levels.setdefault(size, []).append(chunk)
    for size, level in levels.items():
        # within a level, chunks are full but the last, and pairs ascend
        assert [len(c) for c in level[:-1]] == [CHUNK] * (len(level) - 1)
        pairs = [pair for chunk in level for pair in chunk]
        assert pairs == sorted(set(pairs))
    assert [len(c) for c in levels[1]] == [CHUNK, 156 - CHUNK]
    assert sorted({root for root, _ in levels[1][0]}) == list(range(11))
    assert len(levels[2]) > 1 and any(len({root for root, _ in c}) > 1 for c in levels[2])
    # a path at d=1: 5 roots of 4 pairs each share one chunk
    index = build_index_auto(Graph(5, [(i, i + 1, 1 + i) for i in range(4)]), 1)[0]
    chunks = sweep_against_reference(index, 1, list(range(5)))
    assert [sorted({root for root, _ in chunk}) for chunk in chunks] == [[0, 1, 2, 3, 4]]


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([_tree, _complete, _sparse]),
       n=st.integers(1, 7), unit=st.booleans(), d=st.integers(1, 4),
       seed=st.integers(0, 10 ** 6))
@example(shape=_complete, n=7, unit=True, d=4, seed=0)
@example(shape=_complete, n=6, unit=False, d=4, seed=1)
@example(shape=_tree, n=7, unit=True, d=4, seed=0)
@example(shape=_sparse, n=7, unit=True, d=4, seed=2)
def test_build_equals_exhaustive_sweep(shape, n, unit, d, seed):
    # the file of the two-phase build is byte for byte the file of a build
    # whose rows take every damaging set's code from the exhaustive sweep;
    # unit weights tie shortest paths of G - P, trees disconnect
    graph = shape(n, 1 if unit else 9, seed)
    blob = oracle_file_bytes(build_oracle(graph, d, seed=1))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tables_module, "_row_candidates", exhaustive_candidates)
        assert oracle_file_bytes(build_oracle(graph, d, seed=1)) == blob


# -- pre-flight size check --------------------------------------------------------

def test_build_rejects_tables_beyond_physical_memory():
    # 48 * 2000**4 bytes is far above any machine's memory; the check must
    # fire before the index build, which alone would take minutes
    path = Graph(2000, [(i, i + 1, 1) for i in range(1999)])
    start = time.perf_counter()
    with pytest.raises(BuildError, match="physical memory"):
        build_oracle(path, 1)
    assert time.perf_counter() - start < 1.0


def test_size_check_refuses_rows_beyond_uint16_slots(monkeypatch):
    # a row has 4n^2 keys: 65,536 slots at n=128, 66,564 at n=129
    pages = {"SC_PHYS_PAGES": 2 ** 28, "SC_PAGE_SIZE": 4096}  # 1 TiB
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    check_build_size(128, 127, 1)
    with pytest.raises(BuildError, match="uint16"):
        check_build_size(129, 128, 1)


def test_size_check_refuses_sets_beyond_int32_indices(monkeypatch):
    # K9 (m=36) names 2,241,812,648 failure sets at d=12, more than the
    # build's int32 pair, set and candidate indices address, and 990,134,948
    # at d=11, fewer; 1 TiB of memory would admit both
    pages = {"SC_PHYS_PAGES": 2 ** 28, "SC_PAGE_SIZE": 4096}  # 1 TiB
    monkeypatch.setattr(os, "sysconf", pages.__getitem__)
    check_build_size(9, 36, 11)
    with pytest.raises(BuildError, match="int32"):
        check_build_size(9, 36, 12)


# -- the load-bearing inequalities --------------------------------------------

@pytest.mark.parametrize("oracle_name, d", [
    ("oracle1_d1", 1), ("oracle1_d2", 2), ("oracle6_d1", 1),
])
def test_guarded_dominance(request, oracle_name, d):
    oracle = request.getfixturevalue(oracle_name)
    ref = ReferenceOracle(oracle.graph, oracle.index.tie)
    entries = {key: oracle.tables.lookup(*key) for key in all_keys(oracle.graph.n)}
    for failed in enumerate_failure_sets(oracle.graph.m, d):  # a set at a time
        for key, entry in entries.items():
            if ref.constraint_holds(failed, key):
                assert entry.l_star >= ref.dist_avoiding(failed, key.u, key.v)


@pytest.mark.parametrize("oracle_name", ["oracle1_d2", "oracle6_d1"])
def test_exact_at_maximizer(request, oracle_name):
    oracle = request.getfixturevalue(oracle_name)
    ref = ReferenceOracle(oracle.graph, oracle.index.tie)
    for key in all_keys(oracle.graph.n):
        entry = oracle.tables.lookup(*key)
        assert both_constraints(oracle.index, entry.d_star, key)
        assert entry.l_star == ref.dist_avoiding(entry.d_star, key.u, key.v)


def test_relaxing_bits_never_decreases(oracle1_d2, oracle6_d1):
    for oracle in (oracle1_d2, oracle6_d1):
        v = oracle.tables.values
        assert (v[:, :, :, :, 0, :] >= v[:, :, :, :, 1, :]).all()
        assert (v[:, :, :, :, :, 0] >= v[:, :, :, :, :, 1]).all()


def test_warm_up_entry_is_plain_maximum(oracle1_d2, ref1):
    # anchors equal to the endpoints leave only the trivial constraints,
    # so the entry must agree with an unconstrained search
    for u in range(4):
        for v in range(4):
            best = max(ref1.dist_avoiding(failed, u, v)
                       for failed in enumerate_failure_sets(4, 2))
            assert oracle1_d2.tables.lookup(u, v, u, v, 0, 0).l_star == best


def test_diagonal_distance_is_zero(oracle6_d1):
    # every key of a diagonal row, built and loaded: D* = () at distance 0
    loaded = load_oracle(io.BytesIO(oracle_file_bytes(oracle6_d1)))
    for tables in (oracle6_d1.tables, loaded.tables):
        for u, up, vp, b1, b2 in product(range(7), range(7), range(7), (0, 1), (0, 1)):
            entry = tables.lookup(u, u, up, vp, b1, b2)
            assert entry.l_star == CompositeLength(0, 0) and entry.d_star == ()


def test_unreachable_entries_decode(oracle1_d2):
    # cutting the cycle twice separates {0,3} from {1,2}; the first such
    # set in enumeration order wins the maximization
    entry = oracle1_d2.tables.lookup(0, 2, 0, 2, 0, 0)
    assert entry.l_star == UNREACHABLE
    assert entry.d_star == (0, 2)


# -- codec ---------------------------------------------------------------------

def test_codec_round_trip():
    codec = LengthCodec(n=9, m=14, max_weight=32)
    for length in (CompositeLength(0, 0), CompositeLength(7, 12345),
                   CompositeLength(8 * 32, 1)):
        assert codec.decode(encode(codec, length)) == length
    assert codec.decode(encode(codec, UNREACHABLE)) == UNREACHABLE


def test_codec_encoding_preserves_order():
    codec = LengthCodec(n=9, m=14, max_weight=32)
    a = CompositeLength(3, 500)
    b = CompositeLength(4, 2)
    assert encode(codec, a) < encode(codec, b)
    assert encode(codec, b) < encode(codec, UNREACHABLE)


def test_codec_rejects_oversized_inputs():
    with pytest.raises(BuildError, match="too large"):
        LengthCodec(n=60, m=80, max_weight=2 ** 40)
