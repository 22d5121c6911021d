"""Hitting-set search: bound the failed distance or name vertices on its path.

Every routine here returns a pair (bound, hits).  The bound is always a
sound upper bound on the u-v distance in G minus the failed edges, and the
contract is: either the bound is exact, or some vertex in hits lies on the
true replacement path.  Each hit w is only ever admitted after checking
that failures damage both tree paths u->w and w->v, which is what lets the
query engine recurse on (u,w) and (w,v) with a smaller budget.

Bounds are packed length codes of the index's LengthCodec, and
codec.unreachable_code stands for no path.  They come from the tables and
from the index's base rows and are compared and summed as plain ints;
nothing here decodes them.  The query decodes once, at the API edge.

The three cases differ in how much is already known:

* case_one  - clean anchor vertices are known on both sides, so a single
  guarded lookup suffices and the hits are read off its stored set.
* case_two  - the v side has a clean anchor; the u side is searched by
  walking the key tree of u.  Row (v, u) is row (u, v) transposed, so the
  search with the anchor on the u side is case_two with u and v swapped.
* case_three - nothing is known; both sides are searched at once.

What a D* edge adds in case_two or case_three (a bound, a hit, a helper)
depends only on (u, v, F, edge), not on the key whose lookup returned it,
so a case reads all its keys in one _read, the min of their codes and the
union of their D*, in any order, and visits each unfailed edge once.

All three run on a FailureView: the damage of one failure set D, derived
once per damaged query as vertex bitmasks and shared by its recursion
with the query's stats.  "D hits the tree path r->x" is path(r) >> x & 1,
"D touches w's subtree" is _sub[r][w] & ends, and tree edge e's child end
is the end in _below[r][e], 0 off the tree.  Reads here are unguarded;
verify's reference.CheckedEngine guards each key by walks of the reference's
own Dijkstra trees, so a verify run checks the masks independently.

The key tree of a root is the failure-endpoint-induced subtree of that
root's shortest-path tree, contracted to the O(d) vertices that matter:
the failed endpoints themselves and every branching vertex in between.
It is built as a vertex mask from the failed edges' endpoint marks, which
the index derives per root on that root's first key tree.  The keys
case_two and case_three read at r, the key tree & ~path(r), are listed at
most once per root and view, by FailureView.keys(r).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .graph import edge_ids
from .spindex import ShortestPathIndex
from .tables import OracleTables


class HitSetOutcome(NamedTuple):
    bound: int
    hits: frozenset[int]


@dataclass
class QueryStats:
    """Per-query instrumentation counters."""

    lookups: int = 0
    case_three_calls: int = 0
    max_hits: int = 0
    max_depth: int = 0
    memo_hits: int = 0    # recursion calls answered from the view's memo
    key_trees: int = 0    # key trees built, at most one per root and query


def build_induced_key_tree(index: ShortestPathIndex, root: int,
                           failed: Sequence[int]) -> int:
    """Vertex mask of root's key tree under failed; O(d log d).

    Its vertices are the failure endpoints and the LCAs of DFS-adjacent
    ones, read off the marks _anc[root][x], x's ancestors' DFS entry bits,
    one pair per failed edge from _marks[root]: x's own entry is its mark's
    highest bit, so marks sort in DFS order, and the LCA of x and y enters
    at the highest bit their marks share, which _by_tin maps back to a
    vertex.  Root must be derived: FailureView.keys(r) runs view.path(r)
    first.
    """
    assert failed, "key tree is only defined for a nonempty failure set"
    edge_marks = index._marks[root] or index._finish_marks(root)
    ends, by_tin = index._ends, index._by_tin[root]
    keys, marks = 0, []
    for eid in failed:
        keys |= ends[eid]
        marks += edge_marks[eid]
    marks.sort()
    x = marks[0]
    for y in marks[1:]:
        keys |= 1 << by_tin[(x & y).bit_length() - 1]
        x = y
    return keys


class FailureView:
    """One failure set's damage, derived once and shared by a whole query.

    Per root, path(r) is cached in _paths and keys(r), the clean key-tree
    vertices, in trees; the memo holds the recursion's answers.
    """

    def __init__(self, index: ShortestPathIndex, failed: tuple[int, ...],
                 stats: QueryStats | None = None):
        self.index = index
        self.failed = failed
        self.stats = stats
        self.ends = 0
        for eid in failed:
            self.ends |= index._ends[eid]
        self._paths: list[int | None] = [None] * index.graph.n
        self.trees: dict[int, tuple[int, ...]] = {}
        self.memo: dict[tuple[int, int, int], int] = {}

    def path(self, r: int) -> int:
        """Mask of the vertices x whose tree path r->x a failed edge lies on."""
        mask = self._paths[r]
        if mask is None:
            below = self.index._below[r]
            if below is None:
                below = self.index._finish_root(r)
            mask = 0
            for eid in self.failed:
                mask |= below[eid]
            self._paths[r] = mask
        return mask

    def clean(self, r: int, w: int) -> bool:
        """No failure on the tree path r->w and no failed endpoint below w."""
        return not (self.path(r) >> w & 1 or self.index._sub[r][w] & self.ends)

    def keys(self, r: int) -> tuple[int, ...]:
        """Root r's clean key-tree vertices, ascending: its key tree & ~path(r)."""
        keys = self.trees.get(r)
        if keys is None:  # path(r) first: on a loaded index it derives r
            keys = self.trees[r] = edge_ids(
                ~self.path(r) & build_induced_key_tree(self.index, r, self.failed))
        return keys


class HitSetEngine:
    """Case analysis over table reads for one (index, tables) pair."""

    def __init__(self, index: ShortestPathIndex, tables: OracleTables):
        self.index = index
        self.tables = tables

    def _read(self, u: int, v: int, ups: Sequence[int], vps: Sequence[int],
              b1: int, b2: int, view: FailureView) -> tuple[int, set[int]]:
        """(min code, union of D*) over the keys (u, v, up, vp, b1, b2), up in ups, vp in vps."""
        if view.stats is not None:
            view.stats.lookups += len(ups) * len(vps)
        return self.tables.read_block(u, v, ups, vps, b1, b2)

    def case_one(self, u: int, v: int, up: int, vp: int, view: FailureView) -> HitSetOutcome:
        """Both anchors known clean: one key, hits from its stored set."""
        assert view.clean(u, up), "source anchor is not clean"
        assert view.clean(v, vp), "sink anchor is not clean"
        code, d_star = self._read(u, v, [up], [vp], 1, 1, view)
        # only vertices with damage on both sides are useful recursion pivots
        both = view.path(u) & view.path(v)
        edges = self.index.graph.edges
        hits = {p for eid in d_star for p in edges[eid][:2] if both >> p & 1}
        return HitSetOutcome(code, frozenset(hits))

    def case_two(self, u: int, v: int, anchor: int, view: FailureView) -> HitSetOutcome:
        """Anchor clean seen from v; search along the key tree of u."""
        index = self.index
        assert view.clean(v, anchor), "anchor is not clean"
        path_u, path_v = view.path(u), view.path(v)
        edges = index.graph.edges
        hits: set[int] = set()
        helpers: set[int] = set()
        below_u = index._below[u]

        bound, union = self._read(u, v, view.keys(u), [anchor], 0, 1, view)
        union.difference_update(view.failed)
        for eid in union:
            a, b, _ = edges[eid]
            if a > b:
                a, b = b, a
            # both ends damaged from v, so a hit below is damaged from both
            if not path_v >> a & path_v >> b & 1:
                continue
            if path_u >> a & 1:
                hits.add(a)
            elif path_u >> b & 1:
                hits.add(b)
            elif (low := below_u[eid]) and not low & view.ends:
                helpers.add((low & index._ends[eid]).bit_length() - 1)

        for h in sorted(helpers):
            sub = self.case_one(u, v, h, anchor, view)
            bound = min(bound, sub.bound)
            hits |= sub.hits
        return HitSetOutcome(bound, frozenset(hits))

    def case_three(self, u: int, v: int, view: FailureView) -> HitSetOutcome:
        """No anchors known: read every pair of clean key-tree vertices of u and v."""
        index = self.index
        path_u, path_v = view.path(u), view.path(v)
        assert path_u >> v & 1, "case_three requires a damaged u-v path"
        stats = view.stats
        if stats is not None:
            stats.case_three_calls += 1
        edges = index.graph.edges
        step = index._step
        base_u, base_v = index._rows[u], index._rows[v]
        below_u, below_v = index._below[u], index._below[v]
        hits: set[int] = set()
        helpers_u: set[int] = set()
        helpers_v: set[int] = set()

        bound, union = self._read(u, v, view.keys(u), view.keys(v), 0, 0, view)
        # each D* edge e = (a, b) has its four damage bits read once for both
        # orientations, a->b (a on u's side) and b->a.  One clean from both
        # roots gives a bound.  One whose u-side end is clean from u and whose
        # v-side end y is damaged from v gives u a helper y if e is u's tree
        # edge into y with no failed endpoint below (and the same with u and
        # v swapped).  A hit x needs damage on both tree paths u->x and v->x:
        # a is one if b is damaged from v too, e is off v's tree, or b is
        # clean from u and e off u's tree (and the same with a and b swapped)
        union.difference_update(view.failed)
        failed_ends = view.ends
        for eid in union:
            a, b, _ = edges[eid]
            ua, ub, va, vb = path_u >> a & 1, path_u >> b & 1, path_v >> a & 1, path_v >> b & 1
            if not ua | vb:
                cand = base_u[a] + step[eid] + base_v[b]
                if cand < bound:
                    bound = cand
            if not ub | va:
                cand = base_u[b] + step[eid] + base_v[a]
                if cand < bound:
                    bound = cand
            low_u, low_v = below_u[eid], below_v[eid]
            if ua & va and (vb or not low_v or not ub | low_u):
                hits.add(a)
            if ub & vb and (va or not low_v or not ua | low_u):
                hits.add(b)
            if low_u and not low_u & failed_ends:
                if vb and not ua and low_u >> b & 1:
                    helpers_u.add(b)
                if va and not ub and low_u >> a & 1:
                    helpers_u.add(a)
            if low_v and not low_v & failed_ends:
                if ua and not vb and low_v >> a & 1:
                    helpers_v.add(a)
                if ub and not va and low_v >> b & 1:
                    helpers_v.add(b)

        if helpers_u or helpers_v:
            for a, b, helpers in ((u, v, helpers_v), (v, u, helpers_u)):
                for h in sorted(helpers):
                    sub = self.case_two(a, b, h, view)
                    bound = min(bound, sub.bound)
                    hits |= sub.hits

        if stats is not None and len(hits) > stats.max_hits:
            stats.max_hits = len(hits)
        return HitSetOutcome(bound, frozenset(hits))


def hit_budget(d: int) -> int:
    """Declared cap for both |hits| and per-query lookups."""
    return 16 * d ** 6 + 16
