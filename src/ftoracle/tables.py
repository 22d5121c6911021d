"""Preprocessed lookup tables over all failure sets up to the budget.

A table key is (u, v, u', v', b1, b2).  The stored entry is the failure
set D* of size <= d that maximizes the u-v distance in G - D* subject to:
D* avoids the tree paths u->u' and v->v', and, when the corresponding bit
is set, no endpoint of D* lies in the subtree of u' (rooted at u) or of
v' (rooted at v).  Any query-time failure set that satisfies the same
constraints is dominated by the stored one, which is what makes a guarded
lookup a sound upper bound.

Composite lengths make every shortest path unique, so a set that misses
the base tree path u->v leaves the u-v distance at its base value, and a
set that hits it (a damaging set) makes it strictly longer: every other
path is longer, or none is left.  The empty set is feasible for every key.
So a key holds the base entry unless some damaging set is feasible, and
then the first feasible candidate of its row in the order code descending,
then set index ascending (sets ascend by sorted edge-id sequence, () first).
The build still filters candidates by code > base explicitly.

The build goes root by root.  Root u takes every set's side masks at u
from per-edge masks made once, repairs its distances under each set that
damages one of its owned columns (the deletion sweep, on the index's one
settle loop), and ranks each owned row's candidates.  Their side masks at
u and at v are packed into bitsets along the candidate axis and ANDed; a
key's winner is the first set bit, found as the first nonzero byte plus
that byte's leading zeros.  Lengths are undirected and the constraints of
(u, v, u', v', b1, b2) and (v, u, v', u', b2, b1) agree, so row (v, u) is
row (u, v) with its vertex axes and its bit axes swapped.  Root u owns
(u, v) when (v > u) == (u + v is odd): each pair has one owner, each root
at most n // 2 columns.
"""
from __future__ import annotations

import math
import os
from array import array
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
    """Refuse a build whose tables and per-set buffers exceed physical memory.

    Each of the 4*n^4 keys takes an int64 code and an int32 set index.  Each
    subset costs a tuple and list slot, a row of int32 edge ids, about 4n+8
    bytes while one root's side masks are derived, and a code and an index
    in each of that root's at most n // 2 candidate buffers.  Failing before
    anything is allocated beats an overcommitted allocation killed later.
    """
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    width = max(0, min(d, m))
    per_set = 56 + 8 * width + 4 * max(1, width) + 4 * n + 12 * (n // 2)
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
        code, d_star = self.read(u, v, up, vp, b1, b2)
        return TableEntry(d_star, self.codec.decode(code))

    def read(self, *key: int) -> tuple[int, tuple[int, ...]]:
        """(packed code, D*) stored at key, unchecked; the query engine's read."""
        return self.values.item(key), self.subsets[self.dstar_idx.item(key)]


def _deleted_all_pairs(index: ShortestPathIndex, root: int,
                       subsets: Sequence[tuple[int, ...]], clean: np.ndarray,
                       cols: list[int]) -> tuple[list[array], list[array]]:
    """The candidates of each row (root, x), x in cols, by deletion sweep.

    clean[s, x] is False where set s hits the tree path root->x.  Returns
    (codes, sets): per column x, distance codes root->x in array('q') and
    set indices in array('i'); first the empty set at the base distance,
    then, ascending, each set that damages x and makes it longer.  A set
    re-settles only its damaged vertices, by the index's settle loop seeded
    from their undamaged neighbours (Ramalingam-Reps repair).
    """
    adj = index._adj
    unreachable = index.codec.unreachable_code
    base = index.codes[root].tolist()
    codes = [array("q", [base[x]]) for x in cols]
    sets = [array("i", [0]) for _ in cols]
    for si in np.flatnonzero(~clean[:, cols].all(axis=1)):
        banned = subsets[si]
        row = base[:]
        done = clean[si].tolist()
        hit = [col for col in zip(cols, codes, sets) if not done[col[0]]]
        heap = []
        for y, ok in enumerate(done):
            if not ok:
                row[y] = unreachable
                for nb, eid, step in adj[y]:
                    if done[nb] and eid not in banned:
                        heap.append((row[nb] + step, y))
        index._settle(row, done, heap, banned)
        for x, code_buf, set_buf in hit:
            if row[x] > base[x]:
                code_buf.append(row[x])
                set_buf.append(si)
    return codes, sets


def _edge_masks(index: ShortestPathIndex) -> np.ndarray:
    """Per-edge (edge, root, vertex, bit) bool masks, derived once per build.

    [e, r, x, 0]: e lies on the tree path r->x (x is below e's child end);
    [e, r, x, 1]: that, or x's subtree rooted at r holds an endpoint of e.
    Row m, the clean edge that pads short sets, is all False.
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
    a, b = at(tin, ends[:, :1]), at(tin, ends[:, 1:])
    bad = np.zeros((m + 1, n, n, 2), dtype=bool)
    bad[:m, :, :, 0] = (child >= 0)[:, :, None] & (at(tin, c) <= tin) & (tin <= at(tout, c))
    bad[:m, :, :, 1] = bad[:m, :, :, 0] | ((tin <= a) & (a <= tout)) | ((tin <= b) & (b <= tout))
    return bad


def _side_masks(bad: np.ndarray, ids: np.ndarray, root) -> np.ndarray:
    """(set, vertex, bit) feasibility at root, for ids' rows of edge ids.

    root may be an array broadcast against ids' leading axes.  bit 0 needs
    a clean tree path root->vertex, bit 1 also no failed endpoint in the
    vertex's subtree.  The one place that derives clean (root, vertex) pairs.
    """
    fb = bad[ids[..., 0], root]
    for j in range(1, ids.shape[-1]):
        fb |= bad[ids[..., j], root]
    return np.logical_not(fb, out=fb)


def _build_root(index: ShortestPathIndex, u: int, subsets: list[tuple[int, ...]],
                ids: np.ndarray, bad: np.ndarray, values: np.ndarray,
                dstar_idx: np.ndarray) -> None:
    """Fill root u's owned rows (u, v) and their mirrors (v, u)."""
    cols = [v for v in range(index.graph.n) if v != u and (v > u) == ((u + v) % 2 == 1)]
    rows = list(zip(cols, *_deleted_all_pairs(
        index, u, subsets, np.ascontiguousarray(_side_masks(bad, ids, u)[:, :, 0]), cols)))
    # rows go in one batch while its AND stays within 8 bytes per key
    width = (max((len(row[1]) for row in rows), default=0) + 7) // 8
    for batch in [rows] if 0 < len(rows) * width <= 8 else [[row] for row in rows]:
        _fill_rows(u, batch, ids, bad, values, dstar_idx)


def _fill_rows(u: int, batch: list[tuple[int, array, array]], ids: np.ndarray,
               bad: np.ndarray, values: np.ndarray, dstar_idx: np.ndarray) -> None:
    """Rows (u, v) and (v, u) for a batch of (v, codes, sets) candidates."""
    n = values.shape[0]
    count, width = len(batch), max(len(row[1]) for row in batch)
    code = np.full((count, width), -1, dtype=np.int64)  # sorts after the empty set
    cand = np.zeros((count, width), dtype=np.int32)
    for k, (_, code_buf, set_buf) in enumerate(batch):
        code[k, :len(code_buf)] = np.frombuffer(code_buf, dtype=np.int64)
        cand[k, :len(set_buf)] = np.frombuffer(set_buf, dtype=np.int32)
    line = np.arange(count)[:, None]
    order = np.argsort(-code, axis=1, kind="stable")  # ties keep set order
    code, cand = code[line, order], cand[line, order]
    vs = [row[0] for row in batch]
    # (row, vertex, bit, byte) bitsets at u and at v; bit k is candidate k
    a, b = (np.packbits(_side_masks(bad, ids[cand], root).transpose(0, 2, 3, 1), axis=-1)
            for root in (u, np.array(vs)[:, None]))
    rank = np.empty((count, n, n, 2, 2), dtype=np.int64)
    for b1 in (0, 1):
        both = a[:, :, None, b1, None] & b[:, None]  # (row, u', v', b2, byte)
        first = both.astype(bool).argmax(axis=-1).ravel()
        byte = both.reshape(first.size, -1)[np.arange(first.size), first]
        rank[:, :, :, b1] = (first * 8 + _LEAD[byte]).reshape(count, n, n, 2)
    for table, column in ((values, code), (dstar_idx, cand)):
        row = column[line[:, :, None, None, None], rank]
        table[u, vs] = row
        table[vs, u] = row.transpose(0, 2, 1, 4, 3)


# leading zero bits of each nonzero byte; packbits puts candidate 0 in the top bit
_LEAD = np.array([8] + [8 - b.bit_length() for b in range(1, 256)], dtype=np.int64)


def build_tables(index: ShortestPathIndex, d: int, tie_seed: int,
                 progress: Callable[[int, int], None] | None = None) -> OracleTables:
    """Exhaustive maximization over failure sets of size <= d, row by row.

    Every key starts at the empty set's entry, the base distance; each root
    then fills its owned rows and their mirrors.  progress(done, n) is
    called once per root.
    """
    if d < 1:
        raise BuildError(f"failure budget must be >= 1, got {d}")
    graph = index.graph
    n = graph.n
    subsets = enumerate_failure_sets(graph.m, d)
    # (set, slot) edge ids; short sets padded with the clean edge m
    width = max(1, min(d, graph.m))
    ids = np.fromiter(chain.from_iterable(s + (graph.m,) * (width - len(s)) for s in subsets),
                      np.int32, len(subsets) * width).reshape(-1, width)
    bad = _edge_masks(index)
    try:
        values = np.empty((n, n, n, n, 2, 2), dtype=np.int64)
        values[...] = index.codes[:, :, None, None, None, None]
        dstar_idx = np.zeros((n, n, n, n, 2, 2), dtype=np.int32)
    except MemoryError:
        raise BuildError(
            f"cannot allocate {4 * n ** 4} table entries for n={n}") from None

    for u in range(n):
        _build_root(index, u, subsets, ids, bad, values, dstar_idx)
        if progress is not None:
            progress(u + 1, n)
    return OracleTables(graph, d, tie_seed, index.codec, values, dstar_idx, subsets)
