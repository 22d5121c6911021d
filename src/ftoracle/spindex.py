"""All-roots shortest-path trees with O(1) ancestor and damage predicates.

Composite (length, tie-key) lengths are packed by the index's one
LengthCodec into integer codes that order like the pairs, and the index
keeps all base distances as one (n, n) int64 code array.  The query
engine reads them as Python-int rows and adds each edge's packed step.
One settle loop, _settle, is the engine's only Dijkstra: the index build
seeds it with each root, the table build's deletion sweep with a root's
damaged vertices.  It tracks no parents; the uniqueness check scans every
vertex's optimal predecessors anyway, and the unique one is the tree
parent.  Vertices get Euler-tour entry/exit numbers per root, so subtree
membership is an interval test, and the child-side endpoint of every tree
edge per root makes "does this failed edge lie on the tree path root->x"
constant-time.
"""
from __future__ import annotations

import heapq
from typing import Iterable, Sequence

import numpy as np

from .graph import (TIE_RANGE_FACTOR, UNREACHABLE, CompositeLength, Graph,
                    GraphError, tie_break_values)

MAX_TIE_RETRIES = 64


class TieBreakError(RuntimeError):
    """Composite lengths failed to make shortest paths unique for some root."""


class BuildError(RuntimeError):
    """Table build cannot proceed at this input scale."""


class LengthCodec:
    """Packs a composite length into one int64 so numpy can order and merge."""

    def __init__(self, n: int, m: int, max_weight: int):
        max_tie_sum = max(1, (n - 1) * TIE_RANGE_FACTOR * m * n * n if m else 1)
        self.shift = max_tie_sum.bit_length() + 1
        self.mask = (1 << self.shift) - 1
        self.unreachable_code = 1 << 62
        self.max_len = (n - 1) * max_weight
        if m and (self.max_len << self.shift) >= self.unreachable_code:
            raise BuildError(
                f"graph too large to pack composite lengths: n={n} m={m} wmax={max_weight}")

    def encode(self, length: CompositeLength) -> int:
        if length.is_unreachable:
            return self.unreachable_code
        return (length.true_len << self.shift) | length.tie_key

    def decode(self, code: int) -> CompositeLength:
        if code >= self.unreachable_code:
            return UNREACHABLE
        return CompositeLength(code >> self.shift, code & self.mask)


def length_codec(graph: Graph) -> LengthCodec:
    """The codec of every packed length derived from graph."""
    return LengthCodec(graph.n, graph.m, max((w for _, _, w in graph.edges), default=1))


class ShortestPathIndex:
    """Per-root tree arrays plus the predicate surface used everywhere else."""

    def __init__(self, graph: Graph, tie: Sequence[int]):
        self._set_graph(graph, tie)
        n = graph.n
        rows = [[self.codec.unreachable_code] * n for _ in range(n)]
        for r, row in enumerate(rows):
            self._settle(row, [False] * n, [(0, r)], ())
        parent, parent_eid = zip(*(_check_unique(self._adj, r, row)
                                   for r, row in enumerate(rows)))
        self._finish(np.array(rows, dtype=np.int64), list(parent), list(parent_eid))

    @classmethod
    def from_arrays(cls, graph: Graph, tie: Sequence[int], codes: np.ndarray,
                    parent: list[list[int]],
                    parent_eid: list[list[int]]) -> "ShortestPathIndex":
        """Rebuild from stored arrays (oracle file load); skips Dijkstra."""
        index = cls.__new__(cls)
        index._set_graph(graph, tie)
        index._finish(codes, parent, parent_eid)
        return index

    def _set_graph(self, graph: Graph, tie: Sequence[int]) -> None:
        """Check the tie values, derive the codec and the packed edge steps."""
        if len(tie) != graph.m:
            raise GraphError(f"expected {graph.m} tie values, got {len(tie)}")
        hi = TIE_RANGE_FACTOR * graph.m * graph.n * graph.n
        for eid, t in enumerate(tie):
            if not 1 <= t <= hi:
                raise GraphError(f"edge {eid}: tie value {t} outside [1, {hi}]")
        self.graph = graph
        self.tie = list(tie)
        self.codec = length_codec(graph)
        shift = self.codec.shift
        # packed length of each edge, and (neighbor, edge id, that length)
        self._step = [(w << shift) + t for (_, _, w), t in zip(graph.edges, self.tie)]
        self._adj = [[(nb, eid, self._step[eid]) for nb, eid, _ in row]
                     for row in graph.adj]

    def _finish(self, codes: np.ndarray, parent: list[list[int]],
                parent_eid: list[list[int]]) -> None:
        self.codes = codes  # int64 (n, n): packed base distance root -> vertex
        self._rows = codes.tolist()  # the same codes as Python ints, for the query
        # a connected graph's index holds no UNREACHABLE code
        self._dist = [list(map(CompositeLength, tl, tk)) for tl, tk in
                      zip((codes >> self.codec.shift).tolist(),
                          (codes & self.codec.mask).tolist())]
        self._parent = parent
        self._parent_eid = parent_eid
        self._in, self._out, self._tree_child, self._lift = [], [], [], []
        for r in range(self.graph.n):
            self._finish_root(r)

    def _settle(self, row: list[int], done: list[bool],
                heap: list[tuple[int, int]], banned: Iterable[int]) -> None:
        """Dijkstra over the vertices not yet done, from (code, vertex) seeds.

        Writes the packed length of every vertex it settles into row and
        never relaxes an edge in banned; a vertex it cannot reach keeps its
        row entry.
        """
        adj = self._adj
        heapq.heapify(heap)
        while heap:
            code, x = heapq.heappop(heap)
            if done[x]:
                continue
            done[x] = True
            row[x] = code
            for nb, eid, step in adj[x]:
                if not done[nb] and eid not in banned:
                    heapq.heappush(heap, (code + step, nb))

    def _finish_root(self, r: int) -> None:
        """Derive DFS numbering, per-edge child map and lifting table for root r."""
        graph = self.graph
        n = graph.n
        parent = self._parent[r]
        parent_eid = self._parent_eid[r]

        children: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            if parent[v] >= 0:
                children[parent[v]].append(v)

        tin = [0] * n
        tout = [0] * n
        clock = 0
        stack: list[tuple[int, bool]] = [(r, False)]
        while stack:
            v, done = stack.pop()
            if done:
                tout[v] = clock - 1
                continue
            tin[v] = clock
            clock += 1
            stack.append((v, True))
            for c in reversed(children[v]):
                stack.append((c, False))

        tree_child = [-1] * graph.m
        for v in range(n):
            if parent_eid[v] >= 0:
                tree_child[parent_eid[v]] = v

        logn = max(1, (n - 1).bit_length())
        lift = [[parent[v] if parent[v] >= 0 else r for v in range(n)]]
        for k in range(1, logn):
            prev = lift[k - 1]
            lift.append([prev[prev[v]] for v in range(n)])

        self._in.append(tin)
        self._out.append(tout)
        self._tree_child.append(tree_child)
        self._lift.append(lift)

    # -- distances ---------------------------------------------------------

    def distance(self, u: int, v: int) -> CompositeLength:
        return self._dist[u][v]

    def parent(self, root: int, v: int) -> int:
        return self._parent[root][v]

    def parent_edge(self, root: int, v: int) -> int:
        return self._parent_eid[root][v]

    def tree_path(self, root: int, v: int) -> list[int]:
        """Vertices of the tree path root -> v (both inclusive)."""
        path = [v]
        parent = self._parent[root]
        while path[-1] != root:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    # -- predicates --------------------------------------------------------

    def is_ancestor(self, root: int, x: int, y: int) -> bool:
        """True iff x is an ancestor of y (or equal) in the tree rooted at root."""
        tin = self._in[root]
        return tin[x] <= tin[y] <= self._out[root][x]

    def lca(self, root: int, x: int, y: int) -> int:
        if self.is_ancestor(root, x, y):
            return x
        if self.is_ancestor(root, y, x):
            return y
        lift = self._lift[root]
        for k in range(len(lift) - 1, -1, -1):
            if not self.is_ancestor(root, lift[k][x], y):
                x = lift[k][x]
        return self._parent[root][x]

    def path_intersects(self, root: int, x: int, failed: Iterable[int]) -> bool:
        """True iff some failed edge lies on the tree path root -> x."""
        tin = self._in[root]
        tout = self._out[root]
        child = self._tree_child[root]
        tx = tin[x]
        for eid in failed:
            c = child[eid]
            if c >= 0 and tin[c] <= tx <= tout[c]:
                return True
        return False

    def subtree_touches(self, root: int, w: int, failed: Iterable[int]) -> bool:
        """True iff the subtree of w (rooted at root) contains a failed endpoint."""
        tin = self._in[root]
        lo = tin[w]
        hi = self._out[root][w]
        edges = self.graph.edges
        for eid in failed:
            a, b, _ = edges[eid]
            if lo <= tin[a] <= hi or lo <= tin[b] <= hi:
                return True
        return False

    def is_clean(self, root: int, w: int, failed: Iterable[int]) -> bool:
        """No failure on the path root -> w and none hanging below w."""
        return not self.path_intersects(root, w, failed) and \
            not self.subtree_touches(root, w, failed)


def _check_unique(adj: list[list[tuple[int, int, int]]], r: int,
                  row: list[int]) -> tuple[list[int], list[int]]:
    """Parent and parent edge of every vertex: its one optimal predecessor.

    Raises TieBreakError when a non-root vertex has none or several.
    """
    n = len(row)
    parent = [-1] * n
    parent_eid = [-1] * n
    for v in range(n):
        if v == r:
            continue
        preds = [(nb, eid) for nb, eid, step in adj[v] if row[nb] + step == row[v]]
        if len(preds) != 1:
            raise TieBreakError(
                f"root {r}: vertex {v} has {len(preds)} optimal predecessors")
        parent[v], parent_eid[v] = preds[0]
    return parent, parent_eid


def build_index_auto(graph: Graph, seed: int,
                     max_retries: int = MAX_TIE_RETRIES):
    """Draw tie values from seed, bump the seed until shortest paths are unique.

    Returns (index, tie_values, used_seed).  Gives up after max_retries
    consecutive seeds, which at the documented tie range has vanishing
    probability on any real input.
    """
    last: TieBreakError | None = None
    for attempt in range(max_retries):
        used = seed + attempt
        tie = tie_break_values(graph, used)
        try:
            return ShortestPathIndex(graph, tie), tie, used
        except TieBreakError as exc:
            last = exc
    raise TieBreakError(
        f"no tie-free assignment after {max_retries} seeds starting at {seed}: {last}")
