"""All-roots shortest-path trees with O(1) ancestor and damage masks.

Composite (length, tie-key) lengths are packed by the index's one
LengthCodec into integer codes that order like the pairs, and the index
keeps all base distances as one (n, n) int64 code array.  The query
engine reads them as Python-int rows and adds each edge's packed step.
One batched Bellman-Ford, _relax, is the engine's only shortest-path
routine: the index build runs it once over all roots from scratch, with
no arc banned, and the table build's deletion sweep runs it per failure
set; the oracle file load (from_arrays) computes none.  Both send their
codes through one numpy certificate, _certify, which keeps each vertex's
one tight arc in as its tree arc, so both refuse the same ties, at once.
From those arcs one DFS per root derives the index's one damage
encoding, Python-int vertex bitmasks: _sub[r][w] is w's subtree,
_below[r][e] the vertices below tree edge e (0 off the tree), so "e lies
on the tree path r->x" is _below[r][e] >> x & 1.  The tables pack their
bytes into numpy masks and the query engine ORs them per failure set.
_ends[e] is e's endpoints, so the child end of tree edge e, the one end
below it, is _below[r][e] & _ends[e]; int64 _arcs[2e] is (a, b, step) for
e = (a, b) and _arcs[2e + 1] (b, a, step).  The parents are not kept; the
verifier checks the masks against the reference's own Dijkstra trees.
Built and loaded indexes hold the same: neither derives a root until its
first use, and until then r's slots in the six per-root lists hold None.
_finish_root(r) fills all six at once: besides _sub[r] and _below[r],
_by_tin[r], the vertices in DFS-entry order; _marks[r], entry e edge e's
endpoints' ancestor marks, a vertex's mark holding its ancestors'
DFS-entry bits, so the LCA of x and y enters at the highest bit their
marks share; _path_edges[r], entry x the edge bitmask of the tree path
r->x; and _dist[r], the fast path's base lengths.  The table build reads
every root once, through _derive, which keeps nothing.
"""
from __future__ import annotations

from typing import Collection, NamedTuple, Sequence

import numpy as np

from .graph import (TIE_RANGE_FACTOR, UNREACHABLE, CompositeLength, Graph,
                    GraphError, tie_break_values)

MAX_TIE_RETRIES = 64


class TieBreakError(RuntimeError):
    """Composite lengths failed to make shortest paths unique for some root."""


class BuildError(RuntimeError):
    """Table build cannot proceed at this input scale."""


class CodeError(ValueError):
    """Claimed base codes are not the graph's shortest-path codes."""


class LengthCodec:
    """Packs a composite length into one int64 so numpy can order and merge."""
    unreachable_code = 1 << 62

    def __init__(self, n: int, m: int, max_weight: int):
        max_tie_sum = max(1, (n - 1) * TIE_RANGE_FACTOR * m * n * n if m else 1)
        self.shift = max_tie_sum.bit_length() + 1
        self.mask = (1 << self.shift) - 1
        self.max_len = (n - 1) * max_weight
        if m and (self.max_len << self.shift) >= self.unreachable_code:
            raise BuildError(
                f"graph too large to pack composite lengths: n={n} m={m} wmax={max_weight}")

    def decode(self, code: int) -> CompositeLength:
        if code >= self.unreachable_code:
            return UNREACHABLE
        return CompositeLength(code >> self.shift, code & self.mask)


class ShortestPathIndex:
    """Per-root tree arrays plus the predicate surface used everywhere else."""

    def __init__(self, graph: Graph, tie: Sequence[int]):
        graph.validate()
        self._base(graph, tie)
        # one column per root, the deletion sweep's empty set started from
        # scratch: every vertex unreachable but the root itself
        n = graph.n
        arcs = _arc_list(self)
        place = np.argsort(arcs.order)
        dist = np.full((n, n), self.codec.unreachable_code, dtype=np.int64)
        dist[place, np.arange(n)] = 0
        _relax(dist, np.zeros((len(arcs.tail), n), dtype=bool), arcs, self.codec.unreachable_code)
        self._certify(dist[place].T.copy())

    @classmethod
    def from_arrays(cls, graph: Graph, tie: Sequence[int],
                    codes: np.ndarray) -> "ShortestPathIndex":
        """Rebuild from a stored graph, its tie values and its claimed int64
        (root, vertex) base codes in [0, 2^62] (oracle file load), deriving
        no root.  Raises CodeError or TieBreakError as _certify does."""
        index = cls.__new__(cls)
        index._base(graph, tie)
        index._certify(codes)
        return index

    def _base(self, graph: Graph, tie: Sequence[int]) -> None:
        """Check the tie values; derive the codec and edge steps; derive no root."""
        n, m = graph.n, graph.m
        if len(tie) != m:
            raise GraphError(f"expected {m} tie values, got {len(tie)}")
        hi = TIE_RANGE_FACTOR * m * n * n
        for eid, t in enumerate(tie):
            if not 1 <= t <= hi:
                raise GraphError(f"edge {eid}: tie value {t} outside [1, {hi}]")
        self.graph = graph
        self.tie = list(tie)
        self.codec = LengthCodec(n, m, max((w for _, _, w in graph.edges), default=1))
        shift = self.codec.shift
        self._step = [(w << shift) + t for (_, _, w), t in zip(graph.edges, self.tie)]  # per edge
        arcs = np.array([(a, b, s, b, a, s) for (a, b, _), s in zip(graph.edges, self._step)],
                        dtype=np.int64).reshape(2 * m, 3)
        self._endpoints, self._arcs = arcs[::2, :2], arcs
        self._ends = [1 << a | 1 << b for a, b, _ in graph.edges]
        # per root, None until _finish_root derives it
        (self._by_tin, self._sub, self._below, self._marks, self._path_edges,
         self._dist) = ([None] * n for _ in range(6))

    def _certify(self, codes: np.ndarray) -> None:
        """Keep codes, int64 (root, vertex) in [0, 2^62], as the base codes,
        and each (root, vertex)'s tree arc, its one tight arc in.

        As steps are >= 1, the codes are the shortest codes iff each root's
        own is 0, no arc lowers a code and every other vertex has a tight
        arc in; raises CodeError if not.  Raises TieBreakError if a vertex
        has several: then its shortest paths from that root are not unique.
        """
        n, arcs = self.graph.n, self._arcs
        # per (root, arc): the code the arc offers its head, less the head's code
        gap = codes.take(arcs[:, 0], 1) + arcs[:, 2] - codes.take(arcs[:, 1], 1)
        roots, tight = np.nonzero(gap == 0)
        keys = roots * n + arcs[:, 1].take(tight)  # per tight arc, its (root, head)
        count = np.bincount(keys, minlength=n * n)
        count[::n + 1] = 1  # a root needs no arc in
        if codes.diagonal().any() or gap.min(initial=0) < 0 or not count.all():
            raise CodeError("base codes are not the graph's shortest-path codes")
        if len(keys) > n * (n - 1):  # each vertex has a tight arc in, so one has several
            r, v = divmod(int((count > 1).argmax()), n)
            raise TieBreakError(f"root {r}: vertex {v} has {count[r * n + v]} optimal predecessors")
        self._tree = np.zeros((n, n), dtype=np.min_scalar_type(len(arcs)))  # a root's own unread
        self._tree.put(keys, tight)
        self.codes, self._rows = codes, codes.tolist()

    def _finish_root(self, r: int) -> None:
        """Derive and keep all six of root r's per-root lists."""
        # another thread may read r's lists while they are written, in this
        # order: a reader tests the list it reads, or one written after it
        self._by_tin[r], anc, self._sub[r], self._below[r], self._path_edges[r] = self._derive(r)
        self._marks[r] = [(anc[a], anc[b]) for a, b, _ in self.graph.edges]
        shift, mask = self.codec.shift, self.codec.mask
        # a connected graph's index holds no UNREACHABLE code
        self._dist[r] = [CompositeLength(c >> shift, c & mask) for c in self._rows[r]]

    def _derive(self, r: int) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
        """Root r's DFS order, ancestor marks, _sub, _below and tree-path edge
        masks from its tree arcs; keeps nothing."""
        graph = self.graph
        n = graph.n
        tree, parent, parent_eid = self._tree[r].tolist(), [-1] * n, [-1] * n
        children: list[list[int]] = [[] for _ in range(n)]
        for v in range(n - 1, -1, -1):  # children listed descending, popped ascending
            if v != r:  # its tree arc's tail and edge
                parent[v], parent_eid[v] = graph.edges[tree[v] >> 1][tree[v] & 1], tree[v] >> 1
                children[parent[v]].append(v)

        by_tin: list[int] = []  # vertices in DFS-entry (preorder) order
        stack = [r]
        while stack:
            v = stack.pop()
            by_tin.append(v)
            stack += children[v]

        # anc[v]: v's ancestors' DFS-entry bits, v's own the highest
        anc, paths = [0] * n, [0] * n
        anc[r] = 1
        for i in range(1, n):
            v = by_tin[i]
            anc[v] = anc[parent[v]] | 1 << i
            paths[v] = paths[parent[v]] | 1 << parent_eid[v]
        sub = [1 << v for v in range(n)]
        below = [0] * graph.m  # 0 off the tree
        for v in by_tin[:0:-1]:  # children before parents, root left out
            sub[parent[v]] |= sub[v]
            below[parent_eid[v]] = sub[v]
        return by_tin, anc, sub, below, paths

    def path_intersects(self, root: int, x: int, failed: Collection[int]) -> bool:
        """True iff a failed edge lies on the tree path root -> x; ids outside [0, m) never do."""
        if self._below[root] is None:
            self._finish_root(root)
        below = self._below[root]
        return any(0 <= e < len(below) and below[e] >> x & 1 for e in failed)


class _Arcs(NamedTuple):
    """_relax's vertex order and its directed arcs, slot by slot.

    Vertices go by degree, descending, order[p] at position p.  Slot k holds
    the k-th arc into each vertex of degree above k, so into positions
    0 .. sizes[k] - 1; a connected graph with n >= 2 puts every vertex in
    slot 0.  Per arc, slot by slot: its tail's position, edge id and packed
    step.
    """
    order: np.ndarray
    tail: np.ndarray
    edge: np.ndarray
    step: np.ndarray
    sizes: list[int]


def _arc_list(index: ShortestPathIndex) -> _Arcs:
    """The arcs of index's graph, made once per index and once per table build."""
    adj = index.graph.adj  # per vertex, (neighbor, edge id, weight) per arc in
    order = sorted(range(len(adj)), key=lambda v: -len(adj[v]))
    slots = [[adj[v][k] for v in order if len(adj[v]) > k] for k in range(len(adj[order[0]]))]
    arcs = np.array([arc for slot in slots for arc in slot], dtype=np.int64).reshape(-1, 3)
    return _Arcs(np.array(order), np.argsort(order)[arcs[:, 0]], arcs[:, 1],
                 index._arcs[2 * arcs[:, 1], 2], list(map(len, slots)))


def _relax(row: np.ndarray, banned: np.ndarray, arcs: _Arcs, unreachable: int) -> None:
    """Bellman-Ford on (position, column) codes, in place, never over banned arcs.

    Column p holds, vertices in arcs.order, codes of walks from its root or
    unreachable, and banned[a, p] marks arc a as deleted for it.  A round
    adds each arc's packed step to its tail's code, overwrites the banned
    arcs' sums with unreachable, and takes the min by head, slot by slot,
    and with the codes; the rounds end after one that lowers nothing.  The
    index build and the table build's deletion sweep (_deleted_all_pairs)
    both run it.
    """
    sums = np.empty((len(arcs.tail), row.shape[1]), dtype=np.int64)
    best = sums[:len(row)]  # slot 0, then the min over every slot
    while True:
        np.take(row, arcs.tail, axis=0, out=sums, mode="clip")  # "raise" would buffer a copy
        sums += arcs.step[:, None]
        sums[banned] = unreachable
        lo = len(row)
        for size in arcs.sizes[1:]:
            np.minimum(best[:size], sums[lo:lo + size], out=best[:size])
            lo += size
        if not (best < row).any():
            return
        np.minimum(row, best, out=row)


def build_index_auto(graph: Graph, seed: int):
    """Draw tie values from seed, bump the seed until shortest paths are unique.

    Returns (index, tie_values, used_seed).  Gives up after MAX_TIE_RETRIES
    consecutive seeds, which at the documented tie range has vanishing
    probability on any real input.
    """
    last: TieBreakError | None = None
    for attempt in range(MAX_TIE_RETRIES):
        used = seed + attempt
        tie = tie_break_values(graph, used)
        try:
            return ShortestPathIndex(graph, tie), tie, used
        except TieBreakError as exc:
            last = exc
    raise TieBreakError(
        f"no tie-free assignment after {MAX_TIE_RETRIES} seeds starting at {seed}: {last}")
