"""Preprocessed lookup tables over all failure sets up to the budget.

A table key is (u, v, u', v', b1, b2).  The stored entry is the failure
set D* of size <= d that maximizes the u-v distance in G - D* subject to:
D* avoids the tree paths u->u' and v->v', and, when the corresponding bit
is set, no endpoint of D* lies in the subtree of u' (rooted at u) or of
v' (rooted at v).  Any query-time failure set that satisfies the same
constraints is dominated by the stored one, which is what makes a guarded
lookup a sound upper bound.

The build enumerates candidate sets in ascending order of their sorted
edge-id sequence and replaces an entry only on a strictly larger composite
length, so ties resolve to the lexicographically smallest set without a
second pass.  The per-set update over all keys is vectorized: feasibility
factors into one (root, vertex, bit) mask per side, and the key space is
their outer product.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .graph import TIE_RANGE_FACTOR, CompositeLength, Graph, UNREACHABLE
from .spindex import ShortestPathIndex


class BuildError(RuntimeError):
    """Table build cannot proceed at this input scale."""


class TableKey(NamedTuple):
    u: int
    v: int
    up: int
    vp: int
    b1: int
    b2: int


@dataclass(frozen=True)
class TableEntry:
    d_star: tuple[int, ...]
    l_star: CompositeLength


class LengthCodec:
    """Packs a composite length into one int64 so numpy can order and merge."""

    def __init__(self, n: int, m: int, max_weight: int):
        max_tie_sum = max(1, (n - 1) * TIE_RANGE_FACTOR * m * n * n if m else 1)
        self.shift = max_tie_sum.bit_length() + 1
        self.mask = (1 << self.shift) - 1
        self.unreachable_code = 1 << 62
        max_len = (n - 1) * max_weight
        if m and (max_len << self.shift) >= self.unreachable_code:
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


def enumerate_failure_sets(m: int, d: int) -> list[tuple[int, ...]]:
    """All edge-id tuples of size <= d, ascending by sequence order, () first."""
    return sorted(chain.from_iterable(
        combinations(range(m), k) for k in range(min(d, m) + 1)))


def constraint_holds(index: ShortestPathIndex, failed: Sequence[int],
                     key: TableKey | tuple[int, int, int, int, int, int]) -> bool:
    """The constraint a failure set must satisfy to be dominated by key's entry."""
    u, v, up, vp, b1, b2 = key
    if index.path_intersects(u, up, failed):
        return False
    if index.path_intersects(v, vp, failed):
        return False
    if b1 and index.subtree_touches(u, up, failed):
        return False
    if b2 and index.subtree_touches(v, vp, failed):
        return False
    return True


class OracleTables:
    """Dense table over all 4*n^4 keys, plus build metadata."""

    def __init__(self, graph: Graph, d: int, tie_seed: int, codec: LengthCodec,
                 values: np.ndarray, dstar_idx: np.ndarray,
                 subsets: list[tuple[int, ...]]):
        self.graph = graph
        self.d = d
        self.tie_seed = tie_seed
        self.codec = codec
        self.values = values          # int64, shape (n, n, n, n, 2, 2)
        self.dstar_idx = dstar_idx    # int32, same shape
        self.subsets = subsets
        self.graph_digest = graph.digest()

    @property
    def entry_count(self) -> int:
        return int(self.values.size)

    def lookup(self, u: int, v: int, up: int, vp: int, b1: int, b2: int) -> TableEntry:
        n = self.graph.n
        if not (0 <= u < n and 0 <= v < n and 0 <= up < n and 0 <= vp < n):
            raise ValueError(f"table key out of range: {(u, v, up, vp, b1, b2)}")
        if b1 not in (0, 1) or b2 not in (0, 1):
            raise ValueError(f"table key bits must be 0/1: {(u, v, up, vp, b1, b2)}")
        code = int(self.values[u, v, up, vp, b1, b2])
        sub = self.subsets[int(self.dstar_idx[u, v, up, vp, b1, b2])]
        return TableEntry(sub, self.codec.decode(code))


def _deleted_all_pairs(index: ShortestPathIndex, banned: frozenset[int],
                       codec: LengthCodec) -> np.ndarray:
    """Encoded all-pairs composite distances of G minus the banned edges."""
    graph = index.graph
    tie = index.tie
    n = graph.n
    adj = graph.adj
    unreach = codec.unreachable_code
    shift = codec.shift
    out = np.full((n, n), unreach, dtype=np.int64)
    for r in range(n):
        dist_tl = [-1] * n
        dist_tk = [0] * n
        dist_tl[r] = 0
        done = [False] * n
        heap = [(0, 0, r)]
        while heap:
            tl, tk, x = heapq.heappop(heap)
            if done[x]:
                continue
            done[x] = True
            for nb, eid, w in adj[x]:
                if done[nb] or eid in banned:
                    continue
                ctl = tl + w
                ctk = tk + tie[eid]
                if dist_tl[nb] < 0 or (ctl, ctk) < (dist_tl[nb], dist_tk[nb]):
                    dist_tl[nb] = ctl
                    dist_tk[nb] = ctk
                    heapq.heappush(heap, (ctl, ctk, nb))
        row = out[r]
        for x in range(n):
            if done[x]:
                row[x] = (dist_tl[x] << shift) | dist_tk[x]
    return out


def _side_masks(index: ShortestPathIndex, sub: tuple[int, ...],
                tin: np.ndarray, tout: np.ndarray,
                order: np.ndarray) -> np.ndarray:
    """(root, vertex, bit) feasibility factor for one failure set.

    bit 0 requires only a clean tree path root->vertex; bit 1 additionally
    requires no failed endpoint inside the vertex's subtree.
    """
    n = index.graph.n
    path_ok = np.ones((n, n), dtype=bool)
    sub_ok = np.ones((n, n), dtype=bool)
    edges = index.graph.edges
    for eid in sub:
        a, b, _ = edges[eid]
        for r in range(n):
            c = index._tree_child[r][eid]
            if c >= 0:
                row = index._in[r]
                path_ok[r, order[r, row[c]:index._out[r][c] + 1]] = False
            ia = tin[r, a]
            ib = tin[r, b]
            sub_ok[r] &= ~(((tin[r] <= ia) & (tout[r] >= ia)) |
                           ((tin[r] <= ib) & (tout[r] >= ib)))
    return np.stack((path_ok, path_ok & sub_ok), axis=2)


def build_tables(index: ShortestPathIndex, d: int, tie_seed: int,
                 progress: Callable[[int, int], None] | None = None) -> OracleTables:
    """Exhaustive maximization over failure sets of size <= d.

    Outer loop per candidate set (one shortest-path sweep of G minus the
    set), inner update over all keys at once.
    """
    if d < 1:
        raise BuildError(f"failure budget must be >= 1, got {d}")
    graph = index.graph
    n = graph.n
    max_w = max((w for _, _, w in graph.edges), default=1)
    codec = LengthCodec(n, graph.m, max_w)
    subsets = enumerate_failure_sets(graph.m, d)
    try:
        values = np.full((n, n, n, n, 2, 2), -1, dtype=np.int64)
        dstar_idx = np.zeros((n, n, n, n, 2, 2), dtype=np.int32)
    except MemoryError:
        raise BuildError(
            f"cannot allocate {4 * n ** 4} table entries for n={n}") from None

    tin = np.array(index._in, dtype=np.int64)
    tout = np.array(index._out, dtype=np.int64)
    order = np.array(index._order, dtype=np.int64)

    total = len(subsets)
    for si, sub in enumerate(subsets):
        dist = _deleted_all_pairs(index, frozenset(sub), codec)
        fb = _side_masks(index, sub, tin, tout, order)
        f1 = fb[:, None, :, None, :, None]
        f2 = fb[None, :, None, :, None, :]
        cand = dist[:, :, None, None, None, None]
        upd = (cand > values) & f1 & f2
        np.copyto(values, np.broadcast_to(cand, values.shape), where=upd)
        np.copyto(dstar_idx, np.int32(si), where=upd)
        if progress is not None:
            progress(si + 1, total)
    assert int(values.min()) >= 0, "every key must be initialized by the empty set"
    return OracleTables(graph, d, tie_seed, codec, values, dstar_idx, subsets)
