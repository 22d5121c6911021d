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
A row's candidates are the empty set and each damaging set off its
prefix's code (the set less its last edge): the prefix, a subset, is
feasible wherever the set is and ranks first at equal codes, so a set at
its code wins no key, as one that did not lengthen the distance would not.

The build has two phases.  Phase 1, the deletion sweep
(_deleted_all_pairs), runs Bellman-Ford over CHUNK = 128 (root, set)
pairs at a time, for the sets that the replacement-path branching of
Malik, Mittal and Gupta (1989) reaches from each root: exact, as
undamaged distances are right from the start and no walk's code sum
undercuts the unique shortest path's, and in int64, as codes are at most
2^62, steps below 2^62 (the codec's bound) and banned arcs' sums
overwritten, not added to.  Phase 2 goes by groups of consecutive roots
whose damaging (root, set) pairs fill a chunk.  A group takes every
set's side masks at its roots from per-edge masks, made once from each
root's index masks, which the build derives and drops, and lays out
each row's candidates, the empty set and then the sets that damage the
row off their prefix's code, each with its swept code or else the largest
of its immediate subsets': deleting edges never shortens a path, so a set
has the code of a least subset with that code, and phase 1 reaches each
of those.  Then consecutive rows are ranked in batches of at most
FILL_BYTES of working memory, or one wider row alone.  Their side masks
at u and at v are packed into bitsets along the candidate axis and ANDed;
a key's winner is the first set bit, found as the first nonzero byte plus
that byte's leading zeros (_LEAD); a row keeps the winning candidates.
Lengths are undirected and the constraints of (u, v, u', v', b1, b2) and
(v, u, v', u', b2, b1) agree, so row (v, u) is row (u, v) with its vertex
axes and its bit axes swapped, and has the same winners.  Root u owns
(u, v) when (v > u) == (u + v is odd): each pair has one owner, each root
at most n // 2 columns.

A key's value is the u-v distance in G - D* for its stored D*: within a
row it is a function of D*, and few sets win any key of a row.  So each
row keeps a palette of its winners as (code, D*), in candidate order;
the build gathers palettes batch by batch.  Row (v, u) shares row
(u, v)'s palette, stored once per pair u < v, pairs row-major.  A D* is
a row of w = max(1, min(d, m)) ascending edge ids padded with the clean
edge m (_failure_set_ids); the empty set, all padding, has the lowest
code and so ends its pair's palette.  The palettes are all the tables
store.  A key's winner is the first entry of its pair's palette whose D*
meets the key's constraint, as an entry ranked before it that met it
would have won the key.  So a pair's slots, each key's index into its
palette, are derived on the pair's first read (OracleTables._derive),
for built and loaded tables alike: each entry's side masks at u and at
v, read off the roots' packed masks (_root_masks, made once per root from
the bytes of the index's _below and _sub), give bool rows along the
palette, both sides at once, one per row (u', b1) at u and per column
(v', b2) at v, True where an entry meets that side's constraint.  A pair's
slots form a 2n x 2n matrix of these rows and columns, a key's slot the
first entry feasible at both, the argmax of their AND.  So a pair keeps a
class id per row and per column, equal rows of a side sharing a class,
numbered in order of first appearance (_distinct), and a ku x kv matrix of
slots, one per row class and column class, ANDed FILL_BYTES at a time.
There each nonempty D* must hit the tree path u->v and each entry be the
slot of some key, as in every palette a build stores.  Rows (u, 1), (v, 0)
and (v, 1) admit only the empty set, and so do the like columns, so ku and
kv are at most 2n - 2 and each id is one byte.  The slots are uint8 while
the palette has at most 256 entries, else uint16: a row has 4n^2 keys, so
at most 4n^2 entries, and its slots fit in uint16 for n <= 128.  A read of
row (v, u) takes the pair's column classes for u' and row classes for v',
with the matrix strides swapped.
Every key of a diagonal row holds the empty set at distance 0, so no
part of one is built or stored; lookup answers its keys with code 0, and
the query engine, whose every read pair is damaged, never reads one.
"""
from __future__ import annotations

import math
import os
from array import array
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, product
from typing import Callable, Sequence

import numpy as np

from .graph import CompositeLength
from .spindex import BuildError, LengthCodec, ShortestPathIndex, _Arcs, _arc_list, _relax


CHUNK = 128  # (root, set) pairs the deletion sweep relaxes together
FILL_BYTES = 112 << 10  # estimated working bytes of a fill batch (_fill_bytes)
UINT8_ENTRIES = 256  # palette entries that uint8 slots can address
NARROW_UNREACHABLE = 2 ** 32 - 1  # the unreachable code of uint32 palette codes


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


def _failure_set_ids(m: int, d: int) -> np.ndarray:
    """enumerate_failure_sets(m, d) as (set, slot) int32 edge ids, short sets
    padded with the clean edge m to width max(1, min(d, m)); no list of
    tuples is made."""
    width = max(1, min(d, m))
    ids = np.full((failure_set_count(m, d), width), m, dtype=np.int32)
    at = 1  # row 0 is the empty set
    for k in range(1, min(d, m) + 1):
        count = math.comb(m, k)
        flat = np.fromiter(chain.from_iterable(combinations(range(m), k)), np.int32, count * k)
        ids[at:at + count, :k] = flat.reshape(count, k)
        at += count
    # sets ascend as sequences, a prefix first: the padding sorts as -1
    return ids[np.lexsort(np.where(ids == m, -1, ids).T[::-1])]


def palette_id_dtype(m: int) -> np.dtype:
    """The dtype of the palettes' edge ids, in memory and on file.

    Ids are below m and the pad is m itself, so one byte holds them while
    m < 256, else two (n <= 128 keeps m < 2^13).
    """
    return np.dtype("<u1" if m < 256 else "<u2")


def narrow_codes(codes: np.ndarray) -> np.ndarray:
    """int64 palette codes as stored: uint32 when every finite code fits, else as given."""
    fits = codes.max(initial=0, where=codes < LengthCodec.unreachable_code) < NARROW_UNREACHABLE
    return np.minimum(codes, NARROW_UNREACHABLE).astype(np.uint32) if fits else codes


def wide_codes(codes: np.ndarray) -> np.ndarray:
    """Stored palette codes as int64, unreachable at LengthCodec.unreachable_code."""
    return codes if codes.dtype == np.int64 else np.where(
        codes == NARROW_UNREACHABLE, np.int64(LengthCodec.unreachable_code), codes)


def check_build_size(n: int, m: int, d: int) -> int:
    """The one budget gate of build and load; returns the bytes it charges or raises BuildError.

    In order, it refuses d < 1 or d >= 2^64 (the file's d is a u64), more
    than 2^31 failure sets (the build's pair, set and candidate indices are
    int32), more than physical memory, and n > 128 (a row's 4n^2 keys
    outgrow uint16 slots).  Memory, at build and at load alike: what the
    tables derive as they are read, per pair u < v its 4n uint8 class ids
    and at most 4n^2 matrix slots, uint8, or uint16 where a palette may
    outgrow uint8, and per root its side masks, two bits per edge and vertex
    (OracleTables._derive).  Each palette entry is charged an int64 code,
    its row of max(1, min(d, m)) edge ids at their width (palette_id_dtype)
    and its read-path lists, at the bound of min(4n^2, sets) per pair u < v;
    codes may take four bytes, so that part over-estimates until palettes
    are charged by their count.  Each subset is charged a tuple and list
    slot, which covers the sort key and int64 order that _failure_set_ids
    sorts it by, and costs a row of int32 edge ids, its own and its
    immediate subsets' indices (_levels) and, while those are derived, a row
    of edge ids and three int64s.  Phase 1 costs, per (root, subset), a
    next-level flag and, once swept, its int64 pair index, the key it is
    stored under and per column a damage flag and an int64 code.  Its chunk
    adds, per pair, an int64 sum, its copy in numpy's broadcast buffer and a
    ban flag per arc (2m arcs), edge flags for the set and its walks, an
    int64 code, first tight arc and two side-mask flags per vertex, and per
    column a damage flag and four int64s.  Phase 2's group costs, per subset
    and root, its side masks (about 4n + 8 bytes while derived) and per
    column a hit flag, an int64 code and hit index and the candidate's int64
    code and int32 set index; a slice of CHUNK sets adds two int64s per
    column.  A group holds at most 1 + (CHUNK - 1) // k roots, k the sets
    that hold a given edge, since every root before its last has at least k
    damaging sets and all of them fewer than CHUNK.  The fill takes
    FILL_BYTES, or _fill_bytes of a row of one candidate per subset.
    Failing before anything is allocated beats an overcommitted allocation
    killed later.
    """
    if not 1 <= d < 2 ** 64:
        raise BuildError(f"failure budget d={d} out of range, must be >= 1 and < 2^64")
    sets = failure_set_count(m, d, 2 ** 31)
    if sets > 2 ** 31:
        raise BuildError(f"failure budget d={d} with m={m} gives more failure "
                         f"sets than int32 set indices can address")
    phys = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    width, cols, pairs = min(d, m), n // 2, n * (n - 1) // 2
    per_set = 84 + 16 * width + 4 * max(1, width) + n * (17 + 9 * cols)
    per_root = 4 * n + 8 + 29 * cols
    roots = min(n, 1 + (CHUNK - 1) // max(1, failure_set_count(m - 1, d - 1, CHUNK)))
    entries = pairs * min(4 * n * n, sets)
    slot = 1 if min(4 * n * n, sets) <= UINT8_ENTRIES else 2
    derived = pairs * (4 * n + 4 * n * n * slot) + n * (m + 1) * 2 * ((n + 7) // 8)
    row = max(1, width) * palette_id_dtype(m).itemsize
    need = (derived + entries * (152 + 16 * width + row) + sets * (per_set + roots * per_root)
            + CHUNK * (36 * m + 18 * n + 2 + 33 * cols + 16 * roots * cols)
            + max(FILL_BYTES, _fill_bytes(n, sets)))
    if need > phys:
        raise BuildError(
            f"build needs about {need / 2 ** 30:.3g} GiB for n={n} m={m} d={d}, "
            f"more than the {phys / 2 ** 30:.3g} GiB of physical memory")
    if n > 128:
        raise BuildError(f"n={n} gives rows of {4 * n * n} keys, more than uint16 "
                         f"palette slots can address (n <= 128)")
    return need


def constraint_holds(index: ShortestPathIndex, failed: Sequence[int],
                     key: tuple[int, int, int, int, int, int]) -> bool:
    """The constraint a set must meet to be dominated by key's entry, read off the masks."""
    u, v, up, vp, b1, b2 = key
    ends = 0
    for eid in failed:
        ends |= index._ends[eid]
    return not (index.path_intersects(u, up, failed) or index.path_intersects(v, vp, failed)
                or b1 and index._sub[u][up] & ends or b2 and index._sub[v][vp] & ends)


class PaletteError(ValueError):
    """A palette that no build stores, found on its pair's first read."""


class OracleTables:
    """Palette tables over all 4*n^4 keys, plus build metadata."""

    def __init__(self, index: ShortestPathIndex, d: int, tie_seed: int, pair_sizes: np.ndarray,
                 codes: np.ndarray, ids: np.ndarray):
        n = index.graph.n
        self.index = index
        self.graph = index.graph
        self.d = d
        self.tie_seed = tie_seed
        self.codec = index.codec
        self.pair_sizes = pair_sizes  # int64, palette size per pair u < v, row-major
        self.codes = codes            # uint32 or int64 (narrow_codes), per entry, pair by pair
        self.ids = ids                # uint8 or uint16 (palette_id_dtype), per entry
                                      # a row of its D*'s ascending edge ids, padded with m
        # per ordered pair u != v, from its first read (_derive): its palette
        # start, its 4n side class ids, where the ids of u' and of v' start in
        # them and the strides of their classes, and its class matrix's
        # slots; a diagonal pair, whose keys all hold the empty set at code 0,
        # has none.  Per root, its packed side masks (_root), until its n - 1
        # pairs are derived.  Each palette entry becomes a (code, D*) tuple
        # on first read
        self._rows: list[list[tuple | None]] = [[None] * n for _ in range(n)]
        self._masks: list[np.ndarray | None] = [None] * n
        self._starts = pair_sizes.cumsum() - pair_sizes
        self._entries: list[tuple[int, tuple[int, ...]] | None] = [None] * len(codes)
        self._unreachable = index.codec.unreachable_code
        self._sentinel = NARROW_UNREACHABLE if codes.dtype == np.uint32 else self._unreachable

    @property
    def entry_count(self) -> int:
        return 4 * self.graph.n ** 4

    # dense views, derived on first use by tests and benchmarks only: int64
    # codes, the subsets in enumeration order, int32 indices into them; a
    # diagonal key reads 0, code 0 and subset 0, the empty set
    values = cached_property(lambda self: self._dense(wide_codes(self.codes)))
    subsets = cached_property(lambda self: enumerate_failure_sets(self.graph.m, self.d))

    dstar_idx = cached_property(lambda self: self._dense(
        _set_index(self.ids.astype(np.int64), self.graph.m).astype(np.int32)))

    @cached_property
    def slots(self) -> np.ndarray:
        """The slots of the pairs u < v, (pair, u', v', b1, b2), decoded."""
        n = self.graph.n
        mats = [matrix[ids[0][:, None], ids[1]] for ids, matrix in
                (self.pair_classes(u, v) for u, v in combinations(range(n), 2))]
        return np.array(mats or np.zeros((0, 2 * n, 2 * n), dtype=np.uint8)).reshape(
            -1, n, 2, n, 2).transpose(0, 1, 3, 2, 4)

    def pair_classes(self, u: int, v: int) -> tuple[np.ndarray, np.ndarray]:
        """Pair u < v's (2, 2n) uint8 side class ids, of (u', b1) at [0, 2u' + b1]
        and of (v', b2) at [1, 2v' + b2], and its ku x kv matrix of slots."""
        _, cls, _, kv, _, _, cells = self._rows[u][v] or self._derive(u, v)
        return np.frombuffer(cls, np.uint8).reshape(2, -1), np.asarray(cells).reshape(-1, kv)

    def _dense(self, per_entry: np.ndarray) -> np.ndarray:
        n = self.graph.n
        slots = np.zeros((n, n, n, n, 2, 2), dtype=np.int64)
        lo, hi = np.triu_indices(n, 1)
        slots[lo, hi] = self.slots
        slots[hi, lo] = self.slots.transpose(0, 2, 1, 4, 3)
        start = np.full((n, n), len(per_entry), dtype=np.int64)  # the diagonal's 0, appended
        start[lo, hi] = start[hi, lo] = self._starts
        per_entry = np.concatenate((per_entry, np.zeros(1, dtype=per_entry.dtype)))
        return per_entry[start.reshape(n, n, 1, 1, 1, 1) + slots]

    def lookup(self, u: int, v: int, up: int, vp: int, b1: int, b2: int) -> TableEntry:
        n = self.graph.n
        if not (0 <= u < n and 0 <= v < n and 0 <= up < n and 0 <= vp < n):
            raise ValueError(f"table key out of range: {(u, v, up, vp, b1, b2)}")
        if b1 not in (0, 1) or b2 not in (0, 1):
            raise ValueError(f"table key bits must be 0/1: {(u, v, up, vp, b1, b2)}")
        if u == v:
            return TableEntry((), self.codec.decode(0))
        code, union = self.read_block(u, v, (up,), (vp,), b1, b2)
        return TableEntry(tuple(sorted(union)), self.codec.decode(code))

    def read_block(self, u: int, v: int, ups: Sequence[int], vps: Sequence[int],
                   b1: int, b2: int) -> tuple[int, set[int]]:
        """(min code, union of D*) over the keys (u, v, up, vp, b1, b2), up in
        ups, vp in vps, u != v, unchecked; the query engine's read, which
        never reads a diagonal pair, as those store nothing.  It reads each
        up's and each vp's class once, then the matrix cells."""
        start, cls, a, sa, b, sb, cells = self._rows[u][v] or self._derive(u, v)
        entries = self._entries
        a += b1
        b += b2
        rows = []  # a loop, not a comprehension, which costs a frame
        for up in ups:
            rows.append(cls[a + 2 * up] * sa)
        bound, union = self._unreachable, set()
        for vp in vps:
            col = cls[b + 2 * vp] * sb
            for row in rows:
                entry = entries[start + cells[row + col]]
                if entry is None:
                    entry = self._entry(start + cells[row + col])
                if entry[0] < bound:
                    bound = entry[0]
                union.update(entry[1])
        return bound, union

    def _entry(self, p: int) -> tuple[int, tuple[int, ...]]:
        m = self.graph.m
        d_star = tuple(e for e in self.ids[p].tolist() if e < m)
        code = self.codes.item(p)
        entry = self._entries[p] = (self._unreachable if code == self._sentinel else code, d_star)
        return entry

    def _derive(self, u: int, v: int) -> tuple:
        """Derive pair (u, v)'s slots, both rows, from its palette, or raise
        PaletteError; returns row (u, v)'s read state (see the module
        docstring).  Drops a root's masks once its n - 1 pairs are derived."""
        n = self.graph.n
        lo, hi = min(u, v), max(u, v)
        pair = lo * (2 * n - 3 - lo) // 2 + hi - 1
        start, size = self._starts.item(pair), self.pair_sizes.item(pair)
        sets = self.ids[start:start + size]  # padded with the clean edge m
        # another thread may derive this pair or drop a root's masks at any
        # time: a reader tests the field it reads, or one written after it,
        # so each root's masks are read once, into held, and stacked from there
        held = [self._masks[lo], self._masks[hi]]
        for side, r in enumerate((lo, hi)):
            if held[side] is None:
                held[side] = self._masks[r] = self._root(r)
        masks = np.stack(held)  # (side, edge, bit, byte)
        bad = np.bitwise_or.reduce(masks[:, sets], axis=2)
        bits = np.unpackbits(bad, axis=-1, count=n, bitorder="little").transpose(0, 3, 2, 1)
        if not bits[0, hi, 0, :-1].all():  # all but the last, the empty set
            raise PaletteError(f"pair ({lo}, {hi}): a palette set misses the base path")
        ok = bits.reshape(2, 2 * n, size) == 0  # per side, rows (x, b) at 2x + b, feasible
        (ida, a), (idb, b) = _distinct(ok[0]), _distinct(ok[1])
        # each pair of side classes' slot: the first entry feasible at both,
        # the AND taken over at most FILL_BYTES, or one row class, at a time
        rows = max(1, FILL_BYTES // b.size)
        slots = np.concatenate([(a[k:k + rows, None] & b).argmax(axis=-1)
                                for k in range(0, len(a), rows)])
        slots = slots.astype(np.uint8 if size <= UINT8_ENTRIES else np.uint16)
        if not np.bincount(slots.ravel(), minlength=size).all():
            raise PaletteError(f"pair ({lo}, {hi}): a palette entry wins no key")
        cls, kv = ida + idb, len(b)
        cells = array(slots.dtype.char, slots.tobytes())
        self._rows[lo][hi] = (start, cls, 0, kv, 2 * n, 1, cells)
        self._rows[hi][lo] = (start, cls, 2 * n, 1, 0, kv, cells)
        for r in (lo, hi):
            if self._rows[r].count(None) == 1:  # only the diagonal left: r's masks are done
                self._masks[r] = None
        return self._rows[u][v]

    def _root(self, r: int) -> np.ndarray:
        """Root r's _root_masks, from the index's lists."""
        index = self.index
        if index._below[r] is None:
            index._finish_root(r)
        return _root_masks(index._endpoints, index._sub[r], index._below[r])


def _root_masks(ends: np.ndarray, sub: list[int], below: list[int]) -> np.ndarray:
    """(edge, bit, byte) uint8 masks of one root, bit x little-endian in
    byte x // 8, from its _sub and _below lists and the edges' (a, b).

    Bit x of [e, 0]: e lies on the tree path root->x, bit x of below[e];
    of [e, 1]: that, or sub[x], x's subtree, holds an endpoint of e.  Edge
    m, the clean edge that pads short sets, is all 0.
    """
    n, m = len(sub), len(below)
    size = (n + 7) // 8

    def pack(masks: list[int]) -> np.ndarray:  # (mask, byte)
        raw = b"".join(mask.to_bytes(size, "little") for mask in masks)
        return np.frombuffer(raw, dtype=np.uint8).reshape(len(masks), size)

    # [a]: the vertices x whose subtree holds a, a and its ancestors
    anc = np.packbits(np.unpackbits(pack(sub), axis=-1, count=n, bitorder="little").T,
                      axis=-1, bitorder="little")
    bad = np.zeros((m + 1, 2, size), dtype=np.uint8)
    bad[:m, 0] = pack(below)
    bad[:m, 1] = bad[:m, 0] | anc[ends[:, 0]] | anc[ends[:, 1]]
    return bad


def _edge_masks(index: ShortestPathIndex) -> np.ndarray:
    """Per-edge (vertex, bit, root, edge) bool masks, derived once per build:
    each root's _root_masks, unpacked, from its lists as index._derive
    derives them and the build drops them, the ones the query engine ORs."""
    n, m = index.graph.n, index.graph.m
    bad = np.empty((n, 2, n, m + 1), dtype=bool)
    for r in range(n):
        masks = _root_masks(index._endpoints, *index._derive(r)[2:4])
        bad[:, :, r] = np.unpackbits(masks, axis=-1, count=n, bitorder="little").T
    return bad


def _side_masks(bad: np.ndarray, ids: np.ndarray, root) -> np.ndarray:
    """(vertex, bit, ...) feasibility at root, for ids' rows of edge ids.

    root may be an array broadcast against ids' leading axes, which make
    the trailing axes of the result.  bit 0 needs a clean tree path
    root->vertex, bit 1 also no failed endpoint in the vertex's subtree.
    The one place the build derives clean (root, vertex) pairs, from bad =
    _edge_masks(index), the index's vertex bitmasks that the query engine's
    FailureView reads too.
    """
    n, _, roots, edges = bad.shape
    flat, root = bad.reshape(n, 2, roots * edges), np.asarray(root) * edges
    fb = np.take(flat, root + ids[..., 0], axis=-1)
    for j in range(1, ids.shape[-1]):
        fb |= np.take(flat, root + ids[..., j], axis=-1)
    return np.logical_not(fb, out=fb)


def _set_index(rows: np.ndarray, m: int) -> np.ndarray:
    """Each row's index in enumerate_failure_sets(m, d), for rows of a set's
    ascending edge ids padded with m to width w = max(1, min(d, m)).

    Sets ascend as sequences, a prefix first, so before (a_0, ..., a_k-1)
    come, per slot i, the prefix (a_0, ..., a_i-1) and every set that
    extends it by 1 to w - i edges above a_i-1, the least below a_i.  That
    w - i may stand for d - i: at most m - i edges lie above a_i-1.
    """
    width = rows.shape[1]
    count = np.ones((width + 1, m + 1), dtype=np.int64)  # [j, r]: failure_set_count(r, j)
    for j in range(1, width + 1):
        count[j, 1:] += np.cumsum(count[j - 1, :-1])
    index, prev = np.zeros(len(rows), dtype=np.int64), 0  # prev: a_i-1 + 1
    for i in range(width):
        edge = rows[:, i]
        index += np.where(edge < m, 1 + count[width - i, m - prev] - count[width - i, m - edge], 0)
        prev = np.minimum(edge + 1, m)
    return index


def _levels(ids: np.ndarray, m: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per size k >= 2, the indices of the sets of k edges, and of their
    immediate subsets: [j, i] is set i less the edge in its slot j."""
    edges, levels, dtype = (ids < m).sum(axis=1), [], np.min_scalar_type(len(ids))
    for k in range(2, ids.shape[1] + 1):
        sets = np.flatnonzero(edges == k)
        below = np.empty((k, len(sets)), dtype=dtype)
        for j in range(k):
            below[j] = _set_index(np.c_[np.delete(ids[sets], j, axis=1),
                                        np.full(len(sets), m, dtype=ids.dtype)], m)
        levels.append((sets.astype(dtype), below))
    return levels


def _deleted_all_pairs(index: ShortestPathIndex, arcs: _Arcs, ids: np.ndarray,
                       cols: Sequence[list[int]], bad: np.ndarray,
                       groups: Sequence[int]) -> list[tuple[np.ndarray, ...]]:
    """Phase 1: each root's codes under the sets that replacement-path
    branching reaches from it, level by level across all roots.

    Root r owns the columns cols[r]; bad = _edge_masks(index).  Level 1
    holds each root's damaging singletons.  Level k + 1 adds to a level-k
    set P the edges of one shortest path root->x of G - P, walked back by
    first tight arcs (code[tail] + step == code[head], not banned), for each
    owned x that P damages and leaves reachable.  One path is enough even
    where G - P ties: if no proper subset of M has its root->x code, every
    shortest path of G - P, P a proper subset of M, meets the rest of M.  A
    level's pairs go in chunks of CHUNK to _relax, from the root's base
    codes with the set's damaged vertices at unreachable_code and its arcs
    banned, which is exact and stays in int64 (see the module docstring).

    Returns per group of roots, from groups[g] up to the next group's first
    root: its swept pairs as root * len(ids) + set index, level by level;
    their damage flags at their root's columns, padded with the root; and
    their int64 codes at the damaged ones (elsewhere a set leaves the base
    code).  Each group's arrays are its own, to be freed once its rows are.
    """
    n, m, sets = index.graph.n, index.graph.m, len(ids)
    unreachable = index.codec.unreachable_code
    width = max(map(len, cols), default=0)
    at = np.array([c + [r] * (width - len(c)) for r, c in enumerate(cols)],
                  dtype=np.int64).reshape(n, width)
    place = np.argsort(arcs.order)  # each vertex's position in arcs.order
    bounds = np.cumsum([0] + arcs.sizes).tolist()
    spans = list(zip(bounds, bounds[1:]))[::-1]  # each slot's arcs, the last slot first
    fresh = np.zeros((n, sets), dtype=bool)  # the next level's (root, set) pairs
    single = np.flatnonzero((ids[:, 0] < m) & (ids[:, 1:] == m).all(axis=1))  # (0,), (1,), ...
    fresh[:, single] = bad[at, 0, np.arange(n)[:, None], :m].any(axis=1)
    key = np.min_scalar_type(n * sets)  # narrow, as the store stays while the rows fill
    store = [[(np.zeros(0, dtype=key), np.zeros((0, width), dtype=bool),
               np.zeros(0, dtype=np.int64))] for _ in groups]
    for level in range(1, ids.shape[1] + 1):
        pairs = np.flatnonzero(fresh)  # root * sets + set, ascending
        fresh = np.zeros((n, sets), dtype=bool) if level < ids.shape[1] else None
        hurt, found = [np.zeros((0, width), dtype=bool)], [np.zeros(0, dtype=np.int64)]
        for lo in range(0, len(pairs), CHUNK):
            r, s = np.divmod(pairs[lo:lo + CHUNK], sets)
            k = np.arange(len(s))
            clean = _side_masks(bad, ids[s], r)[:, 0]  # (vertex, pair)
            row = index.codes[r, arcs.order[:, None]]  # (position, pair)
            row[~clean[arcs.order]] = unreachable
            banned = np.zeros((m + 1, len(s)), dtype=bool)
            banned[ids[s].T, k] = True
            banned = banned[arcs.edge]
            _relax(row, banned, arcs, unreachable)
            pos = place[at[r]]  # (pair, column) positions
            codes, damaged = row[pos, k[:, None]], ~clean[at[r], k[:, None]]
            hurt.append(damaged)
            found.append(codes[damaged])
            if fresh is not None:
                # walk back from each damaged, reachable column by first tight arcs
                pred = np.zeros(row.shape, dtype=np.int64)
                for a, b in spans:
                    tight = row[arcs.tail[a:b]] + arcs.step[a:b, None] == row[:b - a]
                    tight[banned[a:b]] = False
                    np.copyto(pred[:b - a], np.arange(a, b)[:, None], where=tight)
                pair, col = np.nonzero(damaged & (codes < unreachable))
                x, on = pos[pair, col], np.zeros((len(s), m + 1), dtype=bool)
                for _ in range(n - 1):  # codes fall along the walk: n - 1 arcs at most
                    arc = pred[x, pair]
                    on[pair, arcs.edge[arc]] = True
                    x = arcs.tail[arc]
                    go = x != place[r[pair]]
                    x, pair = x[go], pair[go]
                    if not len(x):
                        break
                if len(x):
                    raise RuntimeError("internal error: a phase 1 walk-back passed n - 1 arcs")
                # set s[k] plus each edge e it walked joins the next level at root r[k]
                k, edge = np.nonzero(on)
                grown = ids[s[k]]
                grown[:, -1] = edge  # the last slot pads every set below the width
                grown.sort(axis=1)
                fresh[r[k], _set_index(grown, m)] = True
                del pred, on
            del row, pos, codes  # before the next chunk's relax
        hurt, found = np.concatenate(hurt), np.concatenate(found)
        cut = np.searchsorted(pairs, np.append(groups, n) * sets)  # each group's pairs
        ends = np.concatenate(([0], np.cumsum(hurt.sum(axis=1))))[cut]
        for g in np.flatnonzero(np.diff(cut)):
            a, b = cut[g], cut[g + 1]
            store[g].append((pairs[a:b].astype(key), hurt[a:b], found[ends[g]:ends[g + 1]]))
    return [tuple(map(np.concatenate, zip(*parts))) for parts in store]


def _row_candidates(index: ShortestPathIndex, ids: np.ndarray, levels: list,
                    swept: tuple[np.ndarray, ...], roots: Sequence[int],
                    cols: Sequence[list[int]], clean: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Phase 2: the candidates of each row (root, x), x in cols.

    Root roots[i], ascending, owns the columns cols[i], and clean[x, i, s]
    is False where set s (edge ids ids[s]) hits the tree path roots[i]->x.
    Returns flat buffers of int64 codes root->x and int32 set indices, and
    each row's start and size in them, rows in the order of cols: a row
    holds first the empty set at the base distance, then, ascending, each
    set that damages x off its prefix's code (see the module docstring).
    A set takes the code phase 1 swept at its root where swept, the
    group's share of _deleted_all_pairs, holds one, or else, sizes
    ascending (levels = _levels(ids, m)), the largest code of its immediate
    subsets, a subset that does not damage x counting at the base code.
    """
    count, roots = len(ids), np.array(roots, dtype=np.int64)
    width = max(map(len, cols), default=0)
    at = np.array([c + [r] * (width - len(c)) for r, c in zip(roots.tolist(), cols)],
                  dtype=np.int64).reshape(len(roots), width)
    hit = ~clean[at, np.arange(len(roots))[:, None]]  # (root, column, set)
    hit[:, :, 0] = True  # the empty set, which damages nothing, opens every row
    real = np.arange(width) < np.array(list(map(len, cols)), dtype=np.int64)[:, None]
    # (set, row) codes: the base code, then the swept codes, then the rest
    full = np.repeat(index.codes[roots[:, None], at].reshape(1, -1), count, axis=0)
    pairs, damaged, found = swept
    pair, col = np.nonzero(damaged)
    r, sets = np.divmod(pairs[pair], count)
    full[sets, np.searchsorted(roots, r) * width + col] = found
    for level, below in levels:  # in slices of CHUNK sets, which bound the temporaries
        for lo in range(0, len(level), CHUNK):
            sets = level[lo:lo + CHUNK]
            best = full.take(sets, axis=0)
            for less in below[:, lo:lo + CHUNK]:  # the last: the prefix
                sub = full.take(less, axis=0)
                np.maximum(best, sub, out=best)
            full[sets] = best
            hit.reshape(-1, count)[:, sets] &= (best != sub).T  # off the prefix's code
    codes = full.T[hit.reshape(-1, count)]
    del full
    size = hit.sum(axis=2)  # after full goes, as the sum's int64 cast is as large
    start = np.cumsum(size).reshape(size.shape) - size  # each row's empty-set entry
    sets = np.flatnonzero(hit)  # (i * width + j) * count + s: the rows' sets, in order
    sets %= count
    return codes, sets.astype(np.int32), start[real], size[real]


def _build_roots(index: ShortestPathIndex, roots: list[int], cols: list[list[int]],
                 ids: np.ndarray, levels: list, swept: tuple[np.ndarray, ...],
                 bad: np.ndarray) -> list[tuple[np.ndarray, ...]]:
    """Phase 2 for a group of roots u = roots[i]: lay out the rows (u, v),
    v in cols[i], and fill their palettes in batches of consecutive rows.
    Returns each batch's palette part (see _fill_rows), none where the
    group owns no row, as at n = 1."""
    n = index.graph.n
    at = _side_masks(bad, ids, np.array(roots)[:, None])  # (vertex, bit, root, set)
    codes, sets, start, size = _row_candidates(index, ids, levels, swept, roots, cols, at[:, 0])
    i = np.repeat(np.arange(len(roots)), list(map(len, cols)))
    us, vs = np.array(roots)[i], np.array(list(chain.from_iterable(cols)), dtype=np.int64)
    # consecutive rows share a batch while count x widest row's bytes fit
    cut, most = [], 0  # each batch's first row; the batch's widest row
    for k, cost in enumerate(_fill_bytes(n, size).tolist()):
        most = max(most, cost)
        if not cut or (k + 1 - cut[-1]) * most > FILL_BYTES:
            cut.append(k)
            most = cost
    return [_fill_rows(i[lo:hi], us[lo:hi], vs[lo:hi], start[lo:hi], size[lo:hi], codes, sets,
                       at, ids, bad) for lo, hi in zip(cut, cut[1:] + [len(size)])]


def _fill_bytes(n: int, width):
    """Working bytes, bar numpy's fixed ufunc buffers, that a row of width
    candidates adds to its fill batch: per candidate its sort, its 2n side
    masks and its bits in the n^2 ANDs; per key its first set bit and the
    temporaries that find it."""
    return (2 * n + 40 + n * n // 8) * width + 28 * n * n


def _fill_rows(i: np.ndarray, us: np.ndarray, vs: np.ndarray, start: np.ndarray,
               size: np.ndarray, codes: np.ndarray, sets: np.ndarray, at: np.ndarray,
               ids: np.ndarray, bad: np.ndarray) -> tuple[np.ndarray, ...]:
    """The palettes of the rows (us[k], vs[k]) of a batch: row k's
    candidates are codes and sets [start[k], start[k] + size[k]), and
    at[:, :, i[k]] is its root's (vertex, bit, set) side masks.  Returns
    the rows' pairs u < v, row-major, their palette sizes, and their
    entries' int64 codes and int32 set indices: the candidates that win a
    key, in rank order.  The dels keep to _fill_bytes."""
    n, count, width = at.shape[0], len(i), int(size.max())
    # each row's candidates, padded with repeats of its last, in rank order:
    # code descending, ties in set order.  A repeat never wins a key
    take = start[:, None] + np.minimum(np.arange(width), size[:, None] - 1)
    take = take[np.arange(count)[:, None], np.argsort(-codes[take], axis=1, kind="stable")]
    cand = sets[take]
    # (vertex, bit, row, byte) bitsets at u and at v, bit k for candidate k;
    # at v, the AND of each edge's.  Bits past the last candidate are unread
    a = np.take(at.reshape(n, 2, -1), i[:, None] * len(ids) + cand, axis=-1)
    a = np.packbits(a, axis=-1)
    b = np.bitwise_and.reduce([np.packbits(_side_masks(bad, ids[cand, j:j + 1], vs[:, None]),
                                           axis=-1) for j in range(ids.shape[1])])
    del cand
    # a key's winner is the first set bit of its bitsets' AND: the first
    # nonzero byte, then that byte's leading zeros.  A row (v, u), u > v,
    # has the winners of row (u, v), its sides swapped
    off = np.arange(n * 2 * count).reshape(n, 2, count) * a.shape[-1]  # bitsets' first bytes
    line, used = np.arange(count) * width, np.zeros((count, width), dtype=bool)
    for b1, b2 in product((0, 1), repeat=2):
        both = np.bitwise_and(a[:, None, b1], b[None, :, b2])  # (u', v', row, byte)
        first = np.not_equal(both, 0, out=both.view(bool)).argmax(axis=-1)
        del both
        byte = a.ravel()[first + off[:, None, b1]] & b.ravel()[first + off[None, :, b2]]
        first <<= 3
        first += _LEAD[byte]
        first += line
        used.ravel()[first] = True
        del first
    lo, hi = np.minimum(us, vs), np.maximum(us, vs)
    won = take[used]
    return lo * (2 * n - 3 - lo) // 2 + hi - 1, used.sum(axis=1), codes[won], sets[won]


def _distinct(lines: np.ndarray) -> tuple[bytes, np.ndarray]:
    """Class ids of the rows of a 2-D array of at most 256 rows, one byte
    each: equal rows share a class, numbered in order of first appearance.
    Also the distinct rows, in class order."""
    raw, width = lines.tobytes(), lines.shape[1] * lines.itemsize
    seen: dict[bytes, int] = {}
    ids = bytes([seen.setdefault(raw[k:k + width], len(seen)) for k in range(0, len(raw), width)])
    return ids, np.frombuffer(b"".join(seen), lines.dtype).reshape(len(seen), lines.shape[1])


# _fill_rows' leading zero bits of each nonzero byte; packbits puts candidate 0 in the top bit
_LEAD = np.array([8] + [8 - b.bit_length() for b in range(1, 256)], dtype=np.int64)


def build_tables(index: ShortestPathIndex, d: int, tie_seed: int,
                 progress: Callable[[int, int], None] | None = None) -> OracleTables:
    """Exhaustive maximization over failure sets of size <= d, row by row.

    Each root fills its owned rows, which cover each pair u < v once; a
    diagonal row, whose keys all hold the empty set at distance 0, is not
    built.  progress(done, n) is called once per root.
    """
    graph = index.graph
    n = graph.n
    check_build_size(n, graph.m, d)
    ids = _failure_set_ids(graph.m, d)
    bad = _edge_masks(index)
    cols = [[v for v in range(n) if v != u and (v > u) == ((u + v) % 2 == 1)] for u in range(n)]
    # groups of consecutive roots, each closed once its rows' damaging
    # (root, set) pairs fill a chunk: the sets that meet a tree path from
    # the root to an owned column
    groups, damaging = [0], 0
    for u in range(n - 1):
        damaging += len(ids) - failure_set_count(
            graph.m - int(bad[cols[u], 0, u].any(axis=0).sum()), d)
        if damaging >= CHUNK:
            groups.append(u + 1)
            damaging = 0
    swept = _deleted_all_pairs(index, _arc_list(index), ids, cols, bad, groups)
    levels = _levels(ids, graph.m)
    # per fill batch, its rows' pairs, palette sizes and entries
    empty = np.zeros(0, dtype=np.int64)
    palettes = [(empty, empty, empty, np.zeros(0, dtype=np.int32))]
    for lo, hi in zip(groups, groups[1:] + [n]):
        palettes += _build_roots(index, list(range(lo, hi)), cols[lo:hi], ids, levels, swept[0],
                                 bad)
        del swept[0]  # once its rows are filled
        if progress is not None:
            for u in range(lo, hi):
                progress(u + 1, n)
    del bad, cols, levels
    pair, size, code, cand = map(np.concatenate, zip(*palettes))
    order = np.argsort(np.repeat(pair, size), kind="stable")  # entries pair by pair
    return OracleTables(index, d, tie_seed, size[np.argsort(pair)], narrow_codes(code)[order],
                        ids[cand[order]].astype(palette_id_dtype(graph.m)))
