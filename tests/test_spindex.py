"""Tree index: distances, ancestor masks, damage predicates, uniqueness."""
import heapq
import io
import os
import random
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ftoracle import build_oracle, load_oracle, oracle_file_bytes, spindex
from ftoracle.generate import gen_gnm
from ftoracle.graph import Graph, GraphError
from ftoracle.hitset import FailureView
from ftoracle.reference import dijkstra_composite
from ftoracle.spindex import ShortestPathIndex, TieBreakError, build_index_auto

from conftest import (PER_ROOT, base_length, derive_all, derived_roots, encode, lca,
                      mask_parents, reference_codes, reference_of, tree_path, tree_path_edges)
from test_file_digests import PINNED


def plain_dijkstra(graph, source):
    """True-length-only shortest paths, sharing nothing with the index."""
    dist = {source: 0}
    heap = [(0, source)]
    while heap:
        dd, v = heapq.heappop(heap)
        if dd > dist.get(v, float("inf")):
            continue
        for nb, _, w in graph.adj[v]:
            nd = dd + w
            if nd < dist.get(nb, float("inf")):
                dist[nb] = nd
                heapq.heappush(heap, (nd, nb))
    return dist


def all_failure_sets(m, d):
    for k in range(d + 1):
        yield from combinations(range(m), k)


def _tree(n, seed):
    return gen_gnm(n, n - 1, 32, seed)


def _complete(n, seed):
    return gen_gnm(n, n * (n - 1) // 2, 32, seed)


def _sparse(n, seed):
    return gen_gnm(n, min(n * (n - 1) // 2, n + 2), 32, seed)


def _path(n, seed):
    # vertex labels shuffled, so the arcs' slot order is no path order
    rng = random.Random(seed)
    label = rng.sample(range(n), n)
    return Graph(n, [(label[i], label[i + 1], rng.randint(1, 32)) for i in range(n - 1)])


def _unit_complete(n, seed):
    return Graph(n, [(a, b, 1) for a in range(n) for b in range(a + 1, n)])


# -- tree shape and distances -----------------------------------------------

def test_g1_root0_parents(idx1):
    # the reference's Dijkstra parents, and the index's tree read off its masks
    for parent in (reference_of(idx1)._pairs(())[1][0], mask_parents(idx1, 0)[0]):
        assert parent[1] == 0
        assert parent[2] == 1
        assert parent[3] == 2
        assert parent[0] == -1


def test_g1_distances(idx1):
    assert base_length(idx1, 0, 3).true_len == 4
    assert base_length(idx1, 0, 2).true_len == 3


def test_g6_root0_shape(idx6):
    for parent in (reference_of(idx6)._pairs(())[1][0], mask_parents(idx6, 0)[0]):
        assert parent[5] == 1
        assert parent[6] == 3
    assert base_length(idx6, 0, 6).true_len == 4


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([_tree, _path, _unit_complete]), n=st.integers(1, 12),
       seed=st.integers(0, 10 ** 6))
@example(shape=_tree, n=1, seed=0)
@example(shape=_path, n=12, seed=0)  # 11 hops from either end
@example(shape=_unit_complete, n=12, seed=0)  # every path ties but for its tie key
def test_true_lengths_match_plain_dijkstra(idx1, idx6, shape, n, seed):
    # every code, tie key included, against the reference's own Dijkstra
    for index in (idx1, idx6, build_index_auto(shape(n, seed), seed=1)[0]):
        g = index.graph
        for r in range(g.n):
            plain = plain_dijkstra(g, r)
            composite, _ = dijkstra_composite(g, index.tie, r)
            for v in range(g.n):
                assert base_length(index, r, v).true_len == plain[v]
                assert index.codes[r, v] == encode(index.codec, composite[v])


def test_distance_symmetric(idx6):
    n = idx6.graph.n
    for u in range(n):
        for v in range(n):
            assert base_length(idx6, u, v) == base_length(idx6, v, u)


def test_parent_edge_recurrence(idx6):
    # the index's tree, read off its masks, is the reference's, and each
    # tree edge adds its packed step to the code
    g = idx6.graph
    for r in range(g.n):
        parent, parent_eid = mask_parents(idx6, r)
        assert parent == reference_of(idx6)._pairs(())[1][r]
        for v in range(g.n):
            if v == r:
                continue
            p = parent[v]
            e = parent_eid[v]
            assert set(g.edges[e][:2]) == {p, v}
            assert idx6.codes[r, v] == idx6.codes[r, p] + idx6._step[e]


def test_subpath_property(idx1, idx6):
    for index in (idx1, idx6):
        n = index.graph.n
        for u in range(n):
            for v in range(n):
                for w in range(n):
                    if lca(index, u, w, v) == w:
                        assert base_length(index, u, v) == \
                            base_length(index, u, w) + base_length(index, w, v)


# -- predicates ---------------------------------------------------------------

def test_is_ancestor_chain(idx1):
    # x is an ancestor of y (or y itself) exactly when lca(r, x, y) == x
    assert lca(idx1, 0, 1, 3) == 1
    assert not lca(idx1, 0, 3, 1) == 3


def test_is_ancestor_reflexive(idx1):
    for r in range(4):
        for x in range(4):
            assert lca(idx1, r, x, x) == x


def test_path_intersects_examples(idx1):
    assert idx1.path_intersects(0, 3, (1,))
    assert not idx1.path_intersects(0, 1, (1,))


def test_path_intersects_empty_path(idx1):
    for u in range(4):
        for eid in range(4):
            assert not idx1.path_intersects(u, u, (eid,))


def test_path_intersects_matches_parent_walk(idx1, idx6):
    for index in (idx1, idx6):
        g = index.graph
        for u in range(g.n):
            for x in range(g.n):
                edges = tree_path_edges(index, u, x)
                for failed in all_failure_sets(g.m, 2):
                    expect = bool(edges.intersection(failed))
                    assert index.path_intersects(u, x, failed) == expect


def test_path_edge_masks_match_path_intersects(idx1, idx3, idx6):
    # the fast path's one AND and path_intersects against the reference's
    # walk, which reads no mask: every (u, v) and every failure set of at
    # most d = 3 edges
    wide = build_index_auto(gen_gnm(8, 14, 32, 42), 1)[0]
    for index in (idx1, idx3, idx6, wide):
        g = index.graph
        ref = reference_of(index)
        for failed in all_failure_sets(g.m, 3):
            seen = sum(1 << e for e in failed)
            for u in range(g.n):
                if index._path_edges[u] is None:
                    index._finish_root(u)
                paths = index._path_edges[u]
                for v in range(g.n):
                    expect = ref.path_intersects(u, v, failed)
                    assert bool(paths[v] & seen) == expect, (g, u, v, failed)
                    assert index.path_intersects(u, v, failed) == expect, (g, u, v, failed)


def test_path_edge_masks_match_the_tree_paths():
    # _path_edges[r][x], built along the DFS, against the reference's walk
    # and against a plain bit scan of the masks: bit e of entry x is bit x
    # of _below[r][e]
    graphs = {make().to_text(): make() for make, _, _ in PINNED.values()}
    for graph in graphs.values():
        index = derive_all(build_index_auto(graph, 1)[0])
        for r in range(graph.n):
            below = index._below[r]
            for x in range(graph.n):
                scan = sum(1 << e for e, sub in enumerate(below) if sub >> x & 1)
                walk = sum(1 << e for e in tree_path_edges(index, r, x))
                assert index._path_edges[r][x] == walk == scan, (graph, r, x)


def test_path_intersects_ignores_ids_outside_the_edges(idx1, idx6):
    # no id outside [0, m) lies on a tree path; a plain _below[root][e]
    # read would take the last edge for e = -1
    for index in (idx1, idx6):
        m = index.graph.m
        for u in range(index.graph.n):
            for x in range(index.graph.n):
                assert not index.path_intersects(u, x, (-1,))
                assert not index.path_intersects(u, x, (m,))
                assert index.path_intersects(u, x, (-1, m, m - 1)) == \
                    index.path_intersects(u, x, (m - 1,))


def touches(index, root, w, failed):
    """The index's answer: w's subtree mask holds a failed endpoint."""
    return bool(index._sub[root][w] & FailureView(index, failed).ends)


def test_subtree_touches_examples(idx1):
    ref = reference_of(idx1)
    assert not ref.subtree_touches(0, 3, (0,))
    assert ref.subtree_touches(0, 1, (2,))
    assert not touches(idx1, 0, 3, (0,))
    assert touches(idx1, 0, 1, (2,))


def test_subtree_touches_at_root(idx1):
    for r in range(4):
        for eid in range(4):
            assert reference_of(idx1).subtree_touches(r, r, (eid,))
            assert touches(idx1, r, r, (eid,))


def test_subtree_touches_matches_interval_free_scan(idx6):
    # recompute by collecting the subtree of the reference's tree with an
    # explicit DFS
    g = idx6.graph
    ref = reference_of(idx6)
    for r in range(g.n):
        children = [[] for _ in range(g.n)]
        parent = ref._pairs(())[1][r]
        for v in range(g.n):
            if parent[v] >= 0:
                children[parent[v]].append(v)
        for w in range(g.n):
            sub = set()
            stack = [w]
            while stack:
                x = stack.pop()
                sub.add(x)
                stack.extend(children[x])
            for eid in range(g.m):
                a, b = g.edges[eid][:2]
                expect = a in sub or b in sub
                assert ref.subtree_touches(r, w, (eid,)) == expect
                assert touches(idx6, r, w, (eid,)) == expect


def is_clean(index, root, w, failed):
    """No failure on the path root -> w and none hanging below w, by the
    reference's walks; the index's FailureView.clean agrees."""
    ref = reference_of(index)
    clean = not ref.path_intersects(root, w, failed) and \
        not ref.subtree_touches(root, w, failed)
    assert FailureView(index, failed).clean(root, w) == clean
    return clean


def test_is_clean_examples(idx3, idx6):
    assert is_clean(idx3, 0, 1, (2,))
    assert is_clean(idx6, 0, 5, (2,))
    assert not is_clean(idx6, 0, 1, (2,))


def test_lca_examples(idx1, idx6):
    assert lca(idx1, 0, 2, 3) == 2
    assert lca(idx6, 0, 5, 4) == 1


def test_lca_self(idx6):
    for r in range(7):
        for x in range(7):
            assert lca(idx6, r, x, x) == x


def test_lca_matches_path_walk(idx6):
    # deepest common vertex of the two root paths
    for r in range(7):
        for x in range(7):
            for y in range(7):
                px = tree_path(idx6, r, x)
                py = set(tree_path(idx6, r, y))
                common = [v for v in px if v in py]
                assert lca(idx6, r, x, y) == common[-1]


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([_tree, _complete, _sparse]), n=st.integers(1, 7),
       seed=st.integers(0, 10 ** 6))
@example(shape=_unit_complete, n=5, seed=0)
@example(shape=_complete, n=7, seed=0)
def test_masks_match_interval_predicates(shape, n, seed):
    # the query engine's bit tests against the reference's parent walks, for
    # every root, vertex and failure set of size <= 3, and the LCA against
    # a path walk
    index, _, _ = build_index_auto(shape(n, seed), seed=1)
    g = index.graph
    ref = reference_of(index)
    for failed in all_failure_sets(g.m, 3):
        view = FailureView(index, failed)
        for r in range(g.n):
            path = view.path(r)
            sub = index._sub[r]
            for x in range(g.n):
                assert path >> x & 1 == ref.path_intersects(r, x, failed)
                assert bool(sub[x] & view.ends) == ref.subtree_touches(r, x, failed)
    for r in range(g.n):
        for x in range(g.n):
            px = tree_path(index, r, x)
            for y in range(g.n):
                py = set(tree_path(index, r, y))
                assert lca(index, r, x, y) == [w for w in px if w in py][-1]
    # the query's tree-child rule: e's end in _below[r][e] is the vertex whose
    # parent edge e is, and an edge off the tree has neither end there; on a
    # clone each root is derived on its first use here
    clone = ShortestPathIndex.from_arrays(g, index.tie, index.codes.copy())
    assert derived_roots(clone) == set()
    for ix in (index, clone):
        for r in range(g.n):
            if ix._below[r] is None:
                ix._finish_root(r)
            below = ix._below[r]
            child = {g.edge_id(p, c): c for c, p in enumerate(ref._pairs(())[1][r]) if p >= 0}
            for eid in range(g.m):
                want = 1 << child[eid] if eid in child else 0
                assert below[eid] & ix._ends[eid] == want, (r, eid)


def test_tree_path_endpoints(idx6):
    for r in range(7):
        for v in range(7):
            path = tree_path(idx6, r, v)
            assert path[0] == r
            assert path[-1] == v


# -- construction and uniqueness ---------------------------------------------

def test_tie_detected_on_even_square():
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    g.validate()
    with pytest.raises(TieBreakError):
        ShortestPathIndex(g, [1, 1, 1, 1])


def test_auto_reseed_clears_square_tie():
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    index, tie, used = build_index_auto(g, seed=1)
    assert used >= 1
    assert len(tie) == 4
    assert base_length(index, 0, 2).true_len == 2


def test_auto_gives_up_after_retries(monkeypatch):
    g = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
    monkeypatch.setattr(spindex, "MAX_TIE_RETRIES", 0)
    with pytest.raises(TieBreakError, match="no tie-free"):
        build_index_auto(g, seed=1)


@pytest.mark.parametrize("graph", [Graph(3, [(0, 1, 1)]), Graph(4, [(0, 1, 1), (2, 3, 1)])],
                         ids=["isolated-vertex", "two-components"])
def test_disconnected_graph_rejected(graph):
    # a typed error at once, not a tie error after every reseed
    with pytest.raises(GraphError, match="disconnected"):
        ShortestPathIndex(graph, [1] * graph.m)
    with pytest.raises(GraphError, match="disconnected"):
        build_index_auto(graph, seed=1)


def test_wrong_tie_count_rejected(g1):
    with pytest.raises(Exception, match="tie values"):
        ShortestPathIndex(g1, [1, 2, 3])


@pytest.mark.parametrize("bad", [0, -3, 8 * 4 * 4 * 4 + 1])
def test_out_of_range_tie_rejected(g1, bad):
    # tie values lie in [1, 8*m*n^2], the range the length codec assumes
    with pytest.raises(GraphError, match="tie value"):
        ShortestPathIndex(g1, [1, 2, bad, 4])
    ShortestPathIndex(g1, [1, 2, 8 * 4 * 4 * 4, 4])


def test_unique_parent_per_root(idx6):
    # the index's masks give every vertex but the root a parent edge
    for r in range(7):
        roots = [v for v in range(7) if mask_parents(idx6, r)[0][v] < 0]
        assert roots == [r]


def test_from_arrays_reproduces_predicates(idx6):
    # a root derived from certified codes has the built root's parents,
    # masks and lengths: g6's index rebuilt by from_arrays, and each pinned
    # build's loaded back from its file
    pairs = [(idx6, ShortestPathIndex.from_arrays(idx6.graph, idx6.tie, idx6.codes.copy()))]
    for name in sorted(PINNED):
        make, d, _ = PINNED[name]
        built = build_oracle(make(), d, seed=1)
        pairs.append((built.index, load_oracle(io.BytesIO(oracle_file_bytes(built))).index))
    for index, clone in pairs:
        _same_roots(index, clone)


def _same_roots(index, clone):
    g = index.graph
    assert derived_roots(clone) == set()
    assert np.array_equal(clone.codes, index.codes)
    for r in range(g.n):
        clone._finish_root(r)
        assert derived_roots(clone) == set(range(r + 1))
        assert mask_parents(clone, r) == mask_parents(index, r)
        assert clone._derive(r) == index._derive(r)  # the ancestor marks too
        for name in PER_ROOT:
            assert getattr(clone, name)[r] == getattr(index, name)[r], (r, name)
    for name in PER_ROOT:
        assert getattr(clone, name) == getattr(index, name), name
    for u in range(g.n):
        for x in range(g.n):
            assert base_length(clone, u, x) == base_length(index, u, x)
            for eid in range(g.m):
                assert clone.path_intersects(u, x, (eid,)) == \
                    index.path_intersects(u, x, (eid,))


def test_from_arrays_certifies_the_codes(idx1, idx6):
    # the built codes pass; any one code off by 1, one of a pair's two codes
    # or both, or the codes of other tie values, do not
    for index in (idx1, idx6):
        g, codes = index.graph, index.codes
        ShortestPathIndex.from_arrays(g, index.tie, codes.copy())
        for u, v in combinations(range(g.n), 2):
            for change in (-1, 1):
                for cells in ([(u, v)], [(v, u)], [(u, v), (v, u)]):
                    bad = codes.copy()
                    for cell in cells:
                        bad[cell] += change
                    with pytest.raises(spindex.CodeError):
                        ShortestPathIndex.from_arrays(g, index.tie, bad)
        for u in range(g.n):
            bad = codes.copy()
            bad[u, u] = 1
            with pytest.raises(spindex.CodeError):
                ShortestPathIndex.from_arrays(g, index.tie, bad)
    other = [t + 1 for t in idx6.tie]
    with pytest.raises(spindex.CodeError):
        ShortestPathIndex.from_arrays(idx6.graph, other, idx6.codes.copy())
    assert np.array_equal(ShortestPathIndex.from_arrays(
        idx6.graph, other, reference_codes(idx6.graph, other)).codes,
        ShortestPathIndex(idx6.graph, other).codes)


TREE_CHECK_UNDER_O = """
import sys
import numpy as np
from ftoracle.graph import Graph
from ftoracle.reference import dijkstra_composite
from ftoracle.spindex import LengthCodec, ShortestPathIndex, TieBreakError
assert sys.flags.optimize, "not running under -O"
square = Graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)])
shift = LengthCodec(4, 4, 1).shift  # the reference's lengths, packed
codes = np.array([[(length.true_len << shift) + length.tie_key for length in
                   dijkstra_composite(square, [1] * 4, r)[0]] for r in range(4)])
try:
    ShortestPathIndex.from_arrays(square, [1, 1, 1, 1], codes)
except TieBreakError as exc:
    print(exc)
"""


def test_tree_check_survives_optimized_mode():
    # python -O strips assert statements; the certificate that refuses tied
    # codes, and so makes a loaded root's tree arcs a tree, must not depend on them
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-O", "-c", TREE_CHECK_UNDER_O], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "root 0: vertex 2 has 2 optimal predecessors" in done.stdout


def test_deterministic_across_builds(g6):
    a, tie_a, seed_a = build_index_auto(g6, seed=1)
    b, tie_b, seed_b = build_index_auto(g6, seed=1)
    assert tie_a == tie_b
    assert seed_a == seed_b
    assert [mask_parents(a, r) for r in range(g6.n)] == [mask_parents(b, r) for r in range(g6.n)]
    assert derived_roots(a) == derived_roots(b) == set(range(g6.n))
    assert [a._derive(r) for r in range(g6.n)] == [b._derive(r) for r in range(g6.n)]
    for name in PER_ROOT:
        assert getattr(a, name) == getattr(b, name), name
