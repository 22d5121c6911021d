"""Shared fixtures: three small hand-checkable graphs and prebuilt oracles.

g1 is a weighted 4-cycle, g3 a star, g6 a 7-vertex graph whose unique
shortest 0-4 path detours over two branch vertices once its middle edge
fails.  Everything derived from them (indexes, tables, reference oracles)
is built once per session; the graphs are tiny, but table builds are still
the slowest thing the unit tests do.
"""
from typing import NamedTuple

import pytest

from ftoracle.graph import parse_graph
from ftoracle.query import Oracle, build_oracle
from ftoracle.reference import ReferenceOracle
from ftoracle.spindex import build_index_auto

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
    return index


@pytest.fixture(scope="session")
def idx3(g3):
    index, _, _ = build_index_auto(g3, seed=1)
    return index


@pytest.fixture(scope="session")
def idx6(g6):
    index, _, _ = build_index_auto(g6, seed=1)
    return index


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


def tree_path_edges(index, root, x):
    """Edge ids on the tree path root -> x, by explicit parent walking."""
    out = set()
    v = x
    while v != root:
        out.add(index._parent_eid[root][v])
        v = index._parent[root][v]
    return out


def base_length(index, u, v):
    """Base u-v length; derives root u first, as a loaded index may not have."""
    if index._dist[u] is None:
        index._finish_root(u)
    return index._dist[u][v]


def tree_path(index, root, v):
    """Vertices of the tree path root -> v (both inclusive)."""
    path = [v]
    while path[-1] != root:
        path.append(index._parent[root][path[-1]])
    path.reverse()
    return path


def lca(index, root, x, y):
    """Deepest common ancestor of x and y, read off the DFS-entry marks."""
    anc = index._anc[root]
    return index._by_tin[root][(anc[x] & anc[y]).bit_length() - 1]


# the index's per-root lists: filled for every root by a build, and for
# root r by _finish_root(r) on r's first use after a load
PER_ROOT = ("_parent", "_parent_eid", "_dist", "_by_tin", "_anc", "_sub", "_below")


def derived_roots(index):
    """Roots whose per-root lists are filled; a root has all seven or none."""
    filled = [{getattr(index, name)[r] is not None for name in PER_ROOT}
              for r in range(index.graph.n)]
    assert all(len(f) == 1 for f in filled), filled
    return {r for r, f in enumerate(filled) if True in f}


def underive(index):
    """Empty every per-root slot, as load leaves them."""
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
