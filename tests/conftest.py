"""Shared fixtures: three small hand-checkable graphs and prebuilt oracles.

g1 is a weighted 4-cycle, g3 a star, g6 a 7-vertex graph whose unique
shortest 0-4 path detours over two branch vertices once its middle edge
fails.  Everything derived from them (indexes, tables, reference oracles)
is built once per session; the graphs are tiny, but table builds are still
the slowest thing the unit tests do.
"""
import functools
from typing import NamedTuple

import numpy as np
import pytest

from ftoracle import spindex
from ftoracle.graph import parse_graph
from ftoracle.query import Oracle, build_oracle
from ftoracle.reference import ReferenceOracle, dijkstra_composite
from ftoracle.spindex import LengthCodec, _arc_list, _relax, build_index_auto
from ftoracle.tables import CHUNK

G1_TEXT = """\
4 4
0 1 1
1 2 2
2 3 1
0 3 5
"""

G3_TEXT = """\
4 3
0 1 1
0 2 1
0 3 1
"""

G6_TEXT = """\
7 8
0 1 1
1 2 1
2 3 1
3 4 1
1 5 1
5 2 3
3 6 1
6 2 3
"""


@pytest.fixture(scope="session")
def g1():
    return parse_graph(G1_TEXT)


@pytest.fixture(scope="session")
def g3():
    return parse_graph(G3_TEXT)


@pytest.fixture(scope="session")
def g6():
    return parse_graph(G6_TEXT)


@pytest.fixture(scope="session")
def idx1(g1):
    index, _, _ = build_index_auto(g1, seed=1)
    return derive_all(index)


@pytest.fixture(scope="session")
def idx3(g3):
    index, _, _ = build_index_auto(g3, seed=1)
    return derive_all(index)


@pytest.fixture(scope="session")
def idx6(g6):
    index, _, _ = build_index_auto(g6, seed=1)
    return derive_all(index)


@pytest.fixture(scope="session")
def oracle1_d1(g1):
    return build_oracle(g1, d=1, seed=1)


@pytest.fixture(scope="session")
def oracle1_d2(g1):
    return build_oracle(g1, d=2, seed=1)


@pytest.fixture(scope="session")
def oracle3_d1(g3):
    return build_oracle(g3, d=1, seed=1)


@pytest.fixture(scope="session")
def oracle6_d1(g6):
    return build_oracle(g6, d=1, seed=1)


@pytest.fixture(scope="session")
def oracle6_d2(g6):
    return build_oracle(g6, d=2, seed=1)


@pytest.fixture(scope="session")
def ref1(oracle1_d2):
    return ReferenceOracle(oracle1_d2.graph, oracle1_d2.index.tie)


@pytest.fixture(scope="session")
def ref3(oracle3_d1):
    return ReferenceOracle(oracle3_d1.graph, oracle3_d1.index.tie)


@pytest.fixture(scope="session")
def ref6(oracle6_d2):
    return ReferenceOracle(oracle6_d2.graph, oracle6_d2.index.tie)


class TableKey(NamedTuple):
    """A table key (u, v, u', v', b1, b2) with named fields."""
    u: int
    v: int
    up: int
    vp: int
    b1: int
    b2: int


def encode(codec, length):
    """Packed code of a composite length, the inverse of codec.decode."""
    if length.is_unreachable:
        return codec.unreachable_code
    return (length.true_len << codec.shift) | length.tie_key


def reference_codes(graph, tie):
    """(root, vertex) int64 base codes by the reference's own Dijkstra, which
    needs no unique shortest paths."""
    codec = LengthCodec(graph.n, graph.m, max((w for _, _, w in graph.edges), default=1))
    return np.array([[encode(codec, length) for length in dijkstra_composite(graph, tie, r)[0]]
                     for r in range(graph.n)], dtype=np.int64)


@functools.cache
def reference_of(index):
    """A reference oracle on index's graph and ties: its own Dijkstra trees."""
    return ReferenceOracle(index.graph, index.tie)


def tree_path_edges(index, root, x):
    """Edge ids on the tree path root -> x, walked by the reference's parents."""
    path = tree_path(index, root, x)
    return {index.graph.edge_id(a, b) for a, b in zip(path, path[1:])}


def base_length(index, u, v):
    """Base u-v length; derives root u first, as the fast path does."""
    if index._dist[u] is None:
        index._finish_root(u)
    return index._dist[u][v]


def tree_path(index, root, v):
    """Vertices of the tree path root -> v (both inclusive), walked by the
    reference's parents, which share nothing with the index."""
    return reference_of(index).replacement_path((), root, v)


def mask_parents(index, root):
    """The index's tree of root as read off its masks: per vertex its parent
    and parent edge, -1 at the root.  Tree edge e's child end is the end in
    _below[root][e]."""
    if index._below[root] is None:
        index._finish_root(root)
    below = index._below[root]
    parent, parent_eid = [-1] * index.graph.n, [-1] * index.graph.n
    for eid, (a, b, _) in enumerate(index.graph.edges):
        child = below[eid] & index._ends[eid]
        if child:
            c = child.bit_length() - 1
            parent[c], parent_eid[c] = a + b - c, eid
    return parent, parent_eid


def lca(index, root, x, y):
    """Deepest common ancestor of x and y, read off the DFS-entry ancestor
    marks that _derive returns and _finish_root keeps only per edge."""
    by_tin, anc = index._derive(root)[:2]
    return by_tin[(anc[x] & anc[y]).bit_length() - 1]


# the index's per-root lists, all six filled for root r by _finish_root(r)
# on r's first use after a build or a load
PER_ROOT = ("_by_tin", "_sub", "_below", "_marks", "_path_edges", "_dist")


def derived_roots(index):
    """Roots whose per-root lists are filled; a root has all six or none."""
    filled = [{getattr(index, name)[r] is not None for name in PER_ROOT}
              for r in range(index.graph.n)]
    assert all(len(f) == 1 for f in filled), filled
    return {r for r, f in enumerate(filled) if True in f}


def derive_all(index):
    """Derive every root's per-root lists, as a first use of each would; returns index."""
    for r in set(range(index.graph.n)) - derived_roots(index):
        index._finish_root(r)
    return index


def underive(index):
    """Empty every per-root slot, as build and load leave them."""
    for name in PER_ROOT:
        setattr(index, name, [None] * index.graph.n)


class UnprunedOracle(Oracle):
    """The query with every pivot recursed on, as before the branch and bound.

    Its answers are the reference for the pruned Oracle._query_r, and its
    counters the ceiling for the pruned query's.
    """

    def _query_r(self, a, b, view, r):
        stats = view.stats
        if stats is not None:
            depth = len(view.failed) - r + 1
            if depth > stats.max_depth:
                stats.max_depth = depth
        unreachable = self.index.codec.unreachable_code
        if r == 0:
            return unreachable
        memo = view.memo
        cached = memo.get((a, b, r))
        if cached is not None:
            if stats is not None:
                stats.memo_hits += 1
            return cached
        bound, hits = self.engine.case_three(a, b, view)
        best = bound
        for w in sorted(hits):
            left = self._query_r(a, w, view, r - 1)
            if left >= unreachable:
                continue
            right = self._query_r(w, b, view, r - 1)
            cand = left + right
            if cand < best:
                best = cand
        memo[(a, b, r)] = best
        return best


def exhaustive_candidates(index, ids, levels, swept, roots, cols, clean):
    """The rows' candidates by the exhaustive deletion sweep, the reference
    for the build's two phases; a drop-in for tables._row_candidates that
    ignores levels and swept.

    Every (root, set) pair whose set damages an owned column goes, root by
    root, in chunks of CHUNK to _relax, and each row gets the code of every
    set that damages it, laid out as _row_candidates lays out its rows,
    which leave out the sets at their prefix's code.
    """
    arcs = _arc_list(index)
    unreachable = index.codec.unreachable_code
    roots = np.array(roots, dtype=np.int64)
    width = max(map(len, cols), default=0)
    at = np.array([c + [r] * (width - len(c)) for r, c in zip(roots.tolist(), cols)],
                  dtype=np.int64).reshape(len(roots), width)
    hit = ~clean[at, np.arange(len(roots))[:, None]]  # (root, column, set)
    pairs = np.flatnonzero(hit.any(axis=1))  # i * sets + s, ascending
    hit[:, :, 0] = True
    size = hit.sum(axis=2)
    start = np.cumsum(size).reshape(size.shape) - size
    codes = np.empty(size.sum(), dtype=np.int64)
    codes[start] = index.codes[roots[:, None], at]
    # pair p's entry in row (i, j) is start[i, j] plus its rank among the
    # row's damaging sets
    offset = start - np.cumsum(size - 1, axis=0) + size - 1
    place = np.argsort(arcs.order)[at]
    seen = np.zeros(width, dtype=np.int64)
    for lo in range(0, len(pairs), CHUNK):
        r, s = np.divmod(pairs[lo:lo + CHUNK], len(ids))
        row = index.codes[roots[r], arcs.order[:, None]]
        row[~clean[arcs.order[:, None], r, s]] = unreachable
        banned = np.zeros((index.graph.m + 1, len(s)), dtype=bool)
        banned[ids[s].T, np.arange(len(s))] = True
        _relax(row, banned[arcs.edge], arcs, unreachable)
        hp = hit[r, :, s]
        rank = seen + np.cumsum(hp, axis=0)
        seen = rank[-1]
        codes[(offset[r] + rank)[hp]] = row[place[r], np.arange(len(s))[:, None]][hp]
    sets = (np.flatnonzero(hit) % len(ids)).astype(np.int32)
    real = np.arange(width) < np.array(list(map(len, cols)), dtype=np.int64)[:, None]
    return codes, sets, start[real], size[real]


def swap_parents(monkeypatch, root):
    """Make root's tree wrong wherever the index derives it from now on.

    ShortestPathIndex._certify is wrapped so that, for root, two vertices
    that lie on neither one's tree path and have different parents swap
    tree arcs, and so parent and parent edge.  The result is still a tree
    over every vertex, so the derivation succeeds, but its masks disagree
    with the codes.
    """
    real = spindex.ShortestPathIndex._certify

    def swapped(self, codes):
        real(self, codes)
        tree, edges = self._tree[root], self.graph.edges
        parent = [edges[arc >> 1][arc & 1] for arc in tree.tolist()]  # the arc's tail

        def ancestors(x):
            out = {x}
            while x != root:
                x = parent[x]
                out.add(x)
            return out
        n = len(parent)
        a, b = next((a, b) for a in range(n) for b in range(a + 1, n)
                    if root not in (a, b) and parent[a] != parent[b]
                    and a not in ancestors(b) and b not in ancestors(a))
        tree[[a, b]] = tree[[b, a]]

    monkeypatch.setattr(spindex.ShortestPathIndex, "_certify", swapped)
