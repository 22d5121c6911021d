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

A key's value is the u-v distance in G - D* for its stored D*: within a
row it is a function of D*, and few sets win any key of a row.  So each
row keeps a palette of its winners as (code, D*), in candidate order, and
each key a uint16 slot into it.  Row (v, u) shares row (u, v)'s palette,
kept per pair u <= v.  A row has 4n^2 keys, so at most 4n^2 entries, and
its slots fit in uint16 for n <= 128.
"""
from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, combinations_with_replacement
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
    """Refuse tables beyond physical memory or beyond uint16 palette slots.

    Each of the 4*n^4 keys takes a uint16 slot, each palette entry an int64
    code, set size and edge ids plus their read-path lists, charged at the
    bound of min(4n^2, sets) entries per pair.  Each subset costs a tuple
    and list slot, a row of int32 edge ids, about 4n+8 bytes while one
    root's side masks are derived, and a code and an index in each of that
    root's at most n // 2 candidate buffers.  Failing before anything is
    allocated beats an overcommitted allocation killed later.
    """
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    width = max(0, min(d, m))
    per_set = 56 + 8 * width + 4 * max(1, width) + 4 * n + 12 * (n // 2)
    sets = failure_set_count(m, d, phys // per_set)
    entries = n * (n + 1) // 2 * min(4 * n * n, sets)
    need = 8 * n ** 4 + entries * (160 + 24 * width) + sets * per_set
    if need > phys:
        raise BuildError(
            f"build needs about {need / 2 ** 30:.3g} GiB for n={n} m={m} d={d}, "
            f"more than the {phys / 2 ** 30:.3g} GiB of physical memory")
    if n > 128:
        raise BuildError(f"n={n} gives rows of {4 * n * n} keys, more than uint16 "
                         f"palette slots can address (n <= 128)")


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


def pair_grid(per_pair: np.ndarray, n: int) -> np.ndarray:
    """(n, n) array holding per_pair's value of pair u <= v at [u, v] and [v, u]."""
    lo, hi = np.sort(np.indices((n, n)), axis=0)
    return per_pair[lo * (2 * n + 1 - lo) // 2 + hi - lo]  # pairs before row lo, then hi


class OracleTables:
    """Palette tables over all 4*n^4 keys, plus build metadata."""

    def __init__(self, graph: Graph, d: int, tie_seed: int, codec: LengthCodec,
                 slots: np.ndarray, pair_sizes: np.ndarray, codes: np.ndarray,
                 set_sizes: np.ndarray, ids: np.ndarray):
        self.graph = graph
        self.d = d
        self.tie_seed = tie_seed
        self.codec = codec
        self.slots = slots            # uint16 (n, n, n, n, 2, 2), into the row's palette
        self.pair_sizes = pair_sizes  # int64, palette size per pair u <= v, row-major
        self.codes = codes            # int64, packed code per palette entry, pair by pair
        self.set_sizes = set_sizes    # int64, |D*| per palette entry
        self.ids = ids                # int64, every D*'s ascending edge ids, entry by entry
        self.graph_digest = graph.digest()
        # the read path's Python lists; each D* becomes a tuple on first read
        self._start = pair_grid(np.cumsum(pair_sizes) - pair_sizes, graph.n).tolist()
        self._codes = codes.tolist()
        self._bounds = [0] + np.cumsum(set_sizes).tolist()
        self._sets: list[tuple[int, ...] | None] = [None] * len(self._codes)

    @property
    def entry_count(self) -> int:
        return int(self.slots.size)

    # dense views, derived on first use by tests and benchmarks only: int64
    # codes, the subsets in enumeration order, int32 indices into them
    values = cached_property(lambda self: self._dense(self.codes))
    subsets = cached_property(lambda self: enumerate_failure_sets(self.graph.m, self.d))

    @cached_property
    def dstar_idx(self) -> np.ndarray:
        where = {s: i for i, s in enumerate(self.subsets)}
        bounds = self._bounds
        return self._dense(np.array([where[tuple(self.ids[a:b].tolist())] for a, b in
                                     zip(bounds, bounds[1:])], dtype=np.int32))

    def _dense(self, per_entry: np.ndarray) -> np.ndarray:
        return per_entry[np.array(self._start)[:, :, None, None, None, None] + self.slots]

    def lookup(self, u: int, v: int, up: int, vp: int, b1: int, b2: int) -> TableEntry:
        n = self.graph.n
        if not (0 <= u < n and 0 <= v < n and 0 <= up < n and 0 <= vp < n):
            raise ValueError(f"table key out of range: {(u, v, up, vp, b1, b2)}")
        if b1 not in (0, 1) or b2 not in (0, 1):
            raise ValueError(f"table key bits must be 0/1: {(u, v, up, vp, b1, b2)}")
        code, d_star = self.read(u, v, up, vp, b1, b2)
        return TableEntry(d_star, self.codec.decode(code))

    def read(self, u: int, v: int, up: int, vp: int, b1: int,
             b2: int) -> tuple[int, tuple[int, ...]]:
        """(packed code, D*) stored at key, unchecked; the query engine's read."""
        p = self._start[u][v] + self.slots.item(u, v, up, vp, b1, b2)
        d_star = self._sets[p]
        if d_star is None:
            d_star = self._sets[p] = tuple(self.ids[self._bounds[p]:self._bounds[p + 1]].tolist())
        return self._codes[p], d_star


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

    They unpack the index's vertex bitmasks, the ones the query engine ORs:
    [e, r, x, 0]: e lies on the tree path r->x, bit x of _below[r][e];
    [e, r, x, 1]: that, or _sub[r][x], x's subtree rooted at r, holds an
    endpoint of e.  Row m, the clean edge that pads short sets, is all False.
    """
    graph = index.graph
    n, m = graph.n, graph.m
    size = (n + 7) // 8

    def unpack(masks: list[list[int]], count: int) -> np.ndarray:
        # (root, count, vertex) bools, bit x of each mask at [..., x]
        raw = b"".join(mask.to_bytes(size, "little") for row in masks for mask in row)
        bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8), bitorder="little")
        return bits.reshape(n, count, 8 * size)[:, :, :n].view(bool)

    ends = np.array([(a, b) for a, b, _ in graph.edges], dtype=np.int64).reshape(m, 2)
    touched = unpack(index._sub, n)[:, :, ends].any(axis=-1)  # (root, vertex, edge)
    bad = np.zeros((m + 1, n, n, 2), dtype=bool)
    bad[:m, :, :, 0] = unpack(index._below, m).transpose(1, 0, 2)
    bad[:m, :, :, 1] = bad[:m, :, :, 0] | touched.transpose(2, 0, 1)
    return bad


def _side_masks(bad: np.ndarray, ids: np.ndarray, root) -> np.ndarray:
    """(set, vertex, bit) feasibility at root, for ids' rows of edge ids.

    root may be an array broadcast against ids' leading axes.  bit 0 needs
    a clean tree path root->vertex, bit 1 also no failed endpoint in the
    vertex's subtree.  The one place the build derives clean (root, vertex)
    pairs, from bad = _edge_masks(index), the index's vertex bitmasks that
    the query engine's FailureView reads too.
    """
    fb = bad[ids[..., 0], root]
    for j in range(1, ids.shape[-1]):
        fb |= bad[ids[..., j], root]
    return np.logical_not(fb, out=fb)


def _build_root(index: ShortestPathIndex, u: int, subsets: list[tuple[int, ...]],
                ids: np.ndarray, bad: np.ndarray, slots: np.ndarray,
                palettes: dict) -> None:
    """Fill root u's owned rows (u, v) and their mirrors (v, u)."""
    cols = [v for v in range(index.graph.n) if v != u and (v > u) == ((u + v) % 2 == 1)]
    at_u = _side_masks(bad, ids, u)  # every set's, for the sweep and each row's u side
    rows = list(zip(cols, *_deleted_all_pairs(
        index, u, subsets, np.ascontiguousarray(at_u[:, :, 0]), cols)))
    # rows go in one batch while its AND stays within 8 bytes per key
    width = (max((len(row[1]) for row in rows), default=0) + 7) // 8
    for batch in [rows] if 0 < len(rows) * width <= 8 else [[row] for row in rows]:
        _fill_rows(u, batch, ids, bad, at_u, slots, palettes)


def _fill_rows(u: int, batch: list[tuple[int, array, array]], ids: np.ndarray,
               bad: np.ndarray, at_u: np.ndarray, slots: np.ndarray, palettes: dict) -> None:
    """Rows (u, v), (v, u) and their palette for a batch of (v, codes, sets) candidates."""
    n = slots.shape[0]
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
    a, b = (np.packbits(fb.transpose(0, 2, 3, 1), axis=-1)
            for fb in (at_u[cand], _side_masks(bad, ids[cand], np.array(vs)[:, None])))
    rank = np.empty((count, n, n, 2, 2), dtype=np.int64)  # into code and cand, flattened
    for b1 in (0, 1):
        both = a[:, :, None, b1, None] & b[:, None]  # (row, u', v', b2, byte)
        first = both.astype(bool).argmax(axis=-1).ravel()
        byte = both.reshape(first.size, -1)[np.arange(first.size), first]
        rank[:, :, :, b1] = (first * 8 + _LEAD[byte]).reshape(count, n, n, 2)
    rank += line[:, :, None, None, None] * width
    used = np.zeros((count, width), dtype=bool)
    used.ravel()[rank] = True
    row = (np.cumsum(used, axis=1) - 1).astype(np.uint16).ravel()[rank]
    slots[u, vs] = row
    slots[vs, u] = row.transpose(0, 2, 1, 4, 3)
    for k, v in enumerate(vs):
        palettes[min(u, v), max(u, v)] = code[k, used[k]], cand[k, used[k]]


# leading zero bits of each nonzero byte; packbits puts candidate 0 in the top bit
_LEAD = np.array([8] + [8 - b.bit_length() for b in range(1, 256)], dtype=np.int64)


def build_tables(index: ShortestPathIndex, d: int, tie_seed: int,
                 progress: Callable[[int, int], None] | None = None) -> OracleTables:
    """Exhaustive maximization over failure sets of size <= d, row by row.

    A diagonal row holds only the empty set's entry, the zero distance;
    each root fills its owned rows and their mirrors.  progress(done, n) is
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
        slots = np.zeros((n, n, n, n, 2, 2), dtype=np.uint16)
    except MemoryError:
        raise BuildError(
            f"cannot allocate {4 * n ** 4} table entries for n={n}") from None
    palettes = {(u, u): (index.codes[u, u:u + 1], np.zeros(1, dtype=np.int32))
                for u in range(n)}
    for u in range(n):
        _build_root(index, u, subsets, ids, bad, slots, palettes)
        if progress is not None:
            progress(u + 1, n)
    code, cand = zip(*(palettes[pair] for pair in combinations_with_replacement(range(n), 2)))
    winners = [subsets[si] for si in np.concatenate(cand).tolist()]
    return OracleTables(graph, d, tie_seed, index.codec, slots,
                        np.array(list(map(len, code)), dtype=np.int64), np.concatenate(code),
                        np.array(list(map(len, winners)), dtype=np.int64),
                        np.fromiter(chain.from_iterable(winners), np.int64))
