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
second pass.

Most (set, row) pairs cannot change anything, and the build skips them.
Composite lengths make every shortest path unique, so a set F that misses
the base tree path u->v leaves the u-v distance at its base value.  The
empty set comes first in the order and is feasible for every key, so every
key of row (u, v) starts at that base value, and F, which needs a strictly
larger length to replace it, changes none of them.  Only the damaged rows,
whose base path F hits, are updated.  For the same reason the deletion
sweep under F re-settles, from each root, only the vertices whose tree
path F hits; every other distance stays at its base value.  The sweep is
the index's one settle loop (spindex), run on the index's packed base
codes and seeded from the undamaged neighbours of those vertices; table
values are codes of the index's codec.

Feasibility factors into one (root, vertex, bit) mask per side, taken from
per-edge masks derived once per build; a damaged row's update is the outer
product of its two sides' masks.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .graph import CompositeLength, Graph
from .spindex import BuildError, LengthCodec, ShortestPathIndex


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


def enumerate_failure_sets(m: int, d: int) -> list[tuple[int, ...]]:
    """All edge-id tuples of size <= d, ascending by sequence order, () first."""
    return sorted(chain.from_iterable(
        combinations(range(m), k) for k in range(min(d, m) + 1)))


def failure_set_count(m: int, d: int, cap: float = math.inf) -> int:
    """len(enumerate_failure_sets(m, d)), summed only until it passes cap."""
    total = 0
    for k in range(min(d, m) + 1):
        total += math.comb(m, k)
        if total > cap:
            break
    return total


def check_build_size(n: int, m: int, d: int) -> None:
    """Refuse a build whose tables and subset list exceed physical memory.

    Each of the 4*n^4 keys takes an int64 code and an int32 set index; each
    subset costs a tuple plus its list slot.  Failing here, before anything
    is allocated, beats an overcommitted allocation that is killed later.
    """
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    per_set = 48 + 8 * max(0, min(d, m))
    need = 48 * n ** 4 + failure_set_count(m, d, phys // per_set) * per_set
    if need > phys:
        raise BuildError(
            f"build needs about {need / 2 ** 30:.3g} GiB for n={n} m={m} d={d}, "
            f"more than the {phys / 2 ** 30:.3g} GiB of physical memory")


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
                       codec: LengthCodec, base: np.ndarray,
                       damaged: np.ndarray) -> np.ndarray:
    """Encoded all-pairs composite distances of G minus the banned edges.

    base holds the encoded distances of G and damaged[r, x] marks the pairs
    whose tree path r->x meets a banned edge.  Every other pair keeps its
    base distance, so each root re-settles only its damaged vertices, by
    the index's settle loop seeded from their undamaged neighbours (the
    affected-subtree repair of Ramalingam and Reps).
    """
    adj = index._adj
    out = base.copy()
    for r, bad in enumerate(damaged.tolist()):
        if not any(bad):
            continue
        row = out[r].tolist()
        done = [not b for b in bad]
        heap = []
        for y, b in enumerate(bad):
            if b:
                row[y] = codec.unreachable_code
                for nb, eid, step in adj[y]:
                    if done[nb] and eid not in banned:
                        heap.append((row[nb] + step, y))
        index._settle(row, done, heap, banned)
        out[r] = row
    return out


def _edge_masks(index: ShortestPathIndex) -> tuple[np.ndarray, np.ndarray]:
    """Per-edge (edge, root, vertex) bool masks, derived once per build.

    on_path[e, r, x]: edge e lies on the tree path r->x, i.e. x sits in the
    subtree of e's child endpoint.  touches[e, r, x]: the subtree of x,
    rooted at r, holds an endpoint of e.
    """
    graph = index.graph
    n, m = graph.n, graph.m
    tin = np.array(index._in, dtype=np.int64)
    tout = np.array(index._out, dtype=np.int64)
    roots = np.arange(n)
    child = np.array(index._tree_child, dtype=np.int64).reshape(n, m).T
    ends = np.array([(a, b) for a, b, _ in graph.edges], dtype=np.int64).reshape(m, 2)

    def at(num: np.ndarray, x: np.ndarray) -> np.ndarray:
        # num[r, x[e, r]] as an (edge, root, 1) column against num[r, vertex]
        return num[roots, x][:, :, None]

    c = np.maximum(child, 0)
    on_path = (child >= 0)[:, :, None] & (at(tin, c) <= tin) & (tin <= at(tout, c))
    a, b = at(tin, ends[:, :1]), at(tin, ends[:, 1:])
    touches = ((tin <= a) & (a <= tout)) | ((tin <= b) & (b <= tout))
    return on_path, touches


def _side_masks(on_path: np.ndarray, touches: np.ndarray,
                sub: tuple[int, ...]) -> np.ndarray:
    """(root, vertex, bit) feasibility factor for one failure set.

    bit 0 requires only a clean tree path root->vertex; bit 1 additionally
    requires no failed endpoint inside the vertex's subtree.  This is the
    one place that derives which (root, vertex) pairs are clean under F.
    """
    rows = list(sub)
    path_ok = ~on_path[rows].any(axis=0)
    return np.stack((path_ok, path_ok & ~touches[rows].any(axis=0)), axis=2)


def build_tables(index: ShortestPathIndex, d: int, tie_seed: int,
                 progress: Callable[[int, int], None] | None = None) -> OracleTables:
    """Exhaustive maximization over failure sets of size <= d.

    Every key starts at the empty set's entry, the base distance.  Each
    other set re-settles the vertices it damages and updates only the
    damaged (u, v) rows.
    """
    if d < 1:
        raise BuildError(f"failure budget must be >= 1, got {d}")
    graph = index.graph
    n = graph.n
    codec = index.codec
    subsets = enumerate_failure_sets(graph.m, d)
    on_path, touches = _edge_masks(index)
    base = index.codes
    try:
        values = np.empty((n, n, n, n, 2, 2), dtype=np.int64)
        values[...] = base[:, :, None, None, None, None]
        dstar_idx = np.zeros((n, n, n, n, 2, 2), dtype=np.int32)
    except MemoryError:
        raise BuildError(
            f"cannot allocate {4 * n ** 4} table entries for n={n}") from None

    rows_of_values = values.reshape(n * n, -1)
    rows_of_dstar = dstar_idx.reshape(n * n, -1)
    total = len(subsets)
    for si, sub in enumerate(subsets):
        fb = _side_masks(on_path, touches, sub)
        damaged = ~fb[:, :, 0]
        if damaged.any():
            dist = _deleted_all_pairs(index, frozenset(sub), codec, base, damaged).ravel()
            damaged_rows = np.flatnonzero(damaged)
            # chunks of n damaged rows keep every temporary at O(n^3)
            for lo in range(0, len(damaged_rows), n):
                rows = damaged_rows[lo:lo + n]
                u, v = np.divmod(rows, n)
                cur = rows_of_values[rows]
                cand = dist[rows][:, None]
                upd = fb[u][:, :, None, :, None] & fb[v][:, None, :, None, :]
                upd = upd.reshape(cur.shape) & (cand > cur)
                np.copyto(cur, cand, where=upd)
                rows_of_values[rows] = cur
                idx = rows_of_dstar[rows]
                idx[upd] = si
                rows_of_dstar[rows] = idx
        if progress is not None:
            progress(si + 1, total)
    return OracleTables(graph, d, tie_seed, codec, values, dstar_idx, subsets)
