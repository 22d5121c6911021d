"""Hitting-set search: bound the failed distance or name vertices on its path.

Every routine here returns a pair (bound, hits).  The bound is always a
sound upper bound on the u-v distance in G minus the failed edges, and the
contract is: either the bound is exact, or some vertex in hits lies on the
true replacement path.  Each hit w is only ever admitted after checking
that failures damage both tree paths u->w and w->v, which is what lets the
query engine recurse on (u,w) and (w,v) with a smaller budget.

The three cases differ in how much is already known:

* case_one  - clean anchor vertices are known on both sides, so a single
  guarded lookup suffices and the hits are read off its stored set.
* case_two  - one side has a clean anchor; the other side is searched by
  walking the key tree of that side's root.
* case_three - nothing is known; both sides are searched at once.

The key tree of a root is the failure-endpoint-induced subtree of that
root's shortest-path tree, contracted to the O(d) vertices that matter:
the failed endpoints themselves, an auxiliary root glued above the real
one, and every branching vertex in between.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .graph import CompositeLength, UNREACHABLE, edge_length
from .spindex import ShortestPathIndex
from .tables import OracleTables, TableEntry, constraint_holds

AUX_ROOT = -1

Observer = Callable[[int, int, tuple[int, ...], "HitSetOutcome"], None]


class HitSetOutcome(NamedTuple):
    bound: CompositeLength
    hits: frozenset[int]


@dataclass
class QueryStats:
    """Per-query instrumentation counters."""

    lookups: int = 0
    case_three_calls: int = 0
    max_hits: int = 0
    max_depth: int = 0


@dataclass(frozen=True)
class InducedKeyTree:
    """Contracted failure-induced subtree of one root's shortest-path tree.

    key_edges are (parent, child) pairs walking away from the root; the
    parent may be AUX_ROOT.  induced_edges are the ids of the underlying
    tree edges, kept for introspection and tests.
    """

    root: int
    induced_edges: frozenset[int]
    key_vertices: tuple[int, ...]
    key_edges: tuple[tuple[int, int], ...]


def build_induced_key_tree(index: ShortestPathIndex, root: int,
                           failed: Sequence[int]) -> InducedKeyTree:
    """O(d log d) construction from failure endpoints sorted in DFS order."""
    assert failed, "key tree is only defined for a nonempty failure set"
    graph = index.graph
    tin = index._in[root]

    pts = sorted({p for eid in failed for p in graph.endpoints(eid)},
                 key=tin.__getitem__)
    cand = set(pts)
    for a, b in zip(pts, pts[1:]):
        cand.add(index.lca(root, a, b))
    key_real = sorted(cand, key=tin.__getitem__)

    stack: list[int] = []
    edges: list[tuple[int, int]] = []
    for w in key_real:
        while stack and not index.is_ancestor(root, stack[-1], w):
            stack.pop()
        edges.append((stack[-1] if stack else AUX_ROOT, w))
        stack.append(w)

    induced: set[int] = set()
    marked = {root}
    for p in pts:
        v = p
        while v not in marked:
            induced.add(index.parent_edge(root, v))
            marked.add(v)
            v = index.parent(root, v)

    return InducedKeyTree(root, frozenset(induced),
                          (AUX_ROOT, *key_real), tuple(edges))


class HitSetEngine:
    """Case analysis over guarded table lookups for one (index, tables) pair."""

    def __init__(self, index: ShortestPathIndex, tables: OracleTables,
                 check_guards: bool = False):
        self.index = index
        self.tables = tables
        self.check_guards = check_guards

    def _lookup(self, u: int, v: int, up: int, vp: int, b1: int, b2: int,
                failed: Sequence[int], stats: QueryStats | None) -> TableEntry:
        if self.check_guards:
            assert constraint_holds(self.index, failed, (u, v, up, vp, b1, b2)), \
                f"unguarded lookup {(u, v, up, vp, b1, b2)} under {failed}"
        if stats is not None:
            stats.lookups += 1
        return self.tables.lookup(u, v, up, vp, b1, b2)

    def _add_hit(self, hits: set[int], w: int, u: int, v: int,
                 failed: Sequence[int]) -> None:
        # only vertices with damage on both sides are useful recursion pivots
        if self.index.path_intersects(u, w, failed) and \
                self.index.path_intersects(v, w, failed):
            hits.add(w)

    def case_one(self, u: int, v: int, up: int, vp: int,
                 failed: Sequence[int],
                 stats: QueryStats | None = None) -> HitSetOutcome:
        """Both anchors known clean: one lookup, hits from its stored set."""
        index = self.index
        assert index.is_clean(u, up, failed), "source anchor is not clean"
        assert index.is_clean(v, vp, failed), "sink anchor is not clean"
        entry = self._lookup(u, v, up, vp, 1, 1, failed, stats)
        hits: set[int] = set()
        for eid in entry.d_star:
            a, b = index.graph.endpoints(eid)
            self._add_hit(hits, a, u, v, failed)
            self._add_hit(hits, b, u, v, failed)
        return HitSetOutcome(entry.l_star, frozenset(hits))

    def case_two(self, u: int, v: int, anchor: int, failed: Sequence[int],
                 mirrored: bool = False, stats: QueryStats | None = None,
                 tree: InducedKeyTree | None = None) -> HitSetOutcome:
        """One clean anchor; search the other side along its key tree.

        Forward: anchor is clean seen from v, the key tree hangs off u.
        Mirrored: anchor is clean seen from u, the key tree hangs off v.
        """
        index = self.index
        near, far = (u, v) if not mirrored else (v, u)
        assert index.is_clean(far, anchor, failed), "anchor is not clean"
        if tree is None:
            tree = build_induced_key_tree(index, near, failed)
        failed_set = frozenset(failed)
        bound = UNREACHABLE
        hits: set[int] = set()
        helpers: set[int] = set()
        tree_child = index._tree_child[near]

        for _, c in tree.key_edges:
            if index.path_intersects(near, c, failed):
                continue
            if not mirrored:
                entry = self._lookup(u, v, c, anchor, 0, 1, failed, stats)
            else:
                entry = self._lookup(u, v, anchor, c, 1, 0, failed, stats)
            bound = min(bound, entry.l_star)
            for eid in entry.d_star:
                if eid in failed_set:
                    continue
                a, b = index.graph.endpoints(eid)
                if a > b:
                    a, b = b, a
                if not index.path_intersects(far, a, failed) or \
                        not index.path_intersects(far, b, failed):
                    continue
                if index.path_intersects(near, a, failed):
                    self._add_hit(hits, a, u, v, failed)
                    continue
                if index.path_intersects(near, b, failed):
                    self._add_hit(hits, b, u, v, failed)
                    continue
                child = tree_child[eid]
                if child < 0:
                    continue
                if not index.subtree_touches(near, child, failed):
                    helpers.add(child)

        for h in sorted(helpers):
            if not mirrored:
                sub = self.case_one(u, v, h, anchor, failed, stats)
            else:
                sub = self.case_one(u, v, anchor, h, failed, stats)
            bound = min(bound, sub.bound)
            hits |= sub.hits
        return HitSetOutcome(bound, frozenset(hits))

    def case_three(self, u: int, v: int, failed: Sequence[int],
                   stats: QueryStats | None = None,
                   observer: Observer | None = None) -> HitSetOutcome:
        """No anchors known: enumerate key-tree edge pairs on both sides."""
        index = self.index
        assert failed and index.path_intersects(u, v, failed), \
            "case_three requires a damaged u-v path"
        if stats is not None:
            stats.case_three_calls += 1
        tree_u = build_induced_key_tree(index, u, failed)
        tree_v = build_induced_key_tree(index, v, failed)
        failed_set = frozenset(failed)
        graph = index.graph
        tie = index.tie
        child_u = index._tree_child[u]
        child_v = index._tree_child[v]
        bound = UNREACHABLE
        hits: set[int] = set()
        helpers_u: set[int] = set()
        helpers_v: set[int] = set()

        for _, cu in tree_u.key_edges:
            if index.path_intersects(u, cu, failed):
                continue
            for _, cv in tree_v.key_edges:
                if index.path_intersects(v, cv, failed):
                    continue
                entry = self._lookup(u, v, cu, cv, 0, 0, failed, stats)
                bound = min(bound, entry.l_star)
                for eid in entry.d_star:
                    if eid in failed_set:
                        continue
                    a, b = graph.endpoints(eid)
                    if a > b:
                        a, b = b, a
                    for x, y in ((a, b), (b, a)):
                        u_clean = not index.path_intersects(u, x, failed)
                        v_clean = not index.path_intersects(v, y, failed)
                        if u_clean and v_clean:
                            cand = index.distance(u, x) + \
                                edge_length(graph, tie, eid) + \
                                index.distance(y, v)
                            if cand < bound:
                                bound = cand
                        elif not u_clean and not v_clean:
                            if index.path_intersects(v, x, failed):
                                self._add_hit(hits, x, u, v, failed)
                        elif u_clean:
                            if child_u[eid] < 0:
                                if index.path_intersects(u, y, failed):
                                    self._add_hit(hits, y, u, v, failed)
                            elif child_u[eid] == y:
                                if not index.subtree_touches(u, y, failed):
                                    helpers_u.add(y)
                        else:
                            if child_v[eid] < 0:
                                if index.path_intersects(v, x, failed):
                                    self._add_hit(hits, x, u, v, failed)
                            elif child_v[eid] == x:
                                if not index.subtree_touches(v, x, failed):
                                    helpers_v.add(x)

        for h in sorted(helpers_v):
            sub = self.case_two(u, v, h, failed, mirrored=False,
                                stats=stats, tree=tree_u)
            bound = min(bound, sub.bound)
            hits |= sub.hits
        for h in sorted(helpers_u):
            sub = self.case_two(u, v, h, failed, mirrored=True,
                                stats=stats, tree=tree_v)
            bound = min(bound, sub.bound)
            hits |= sub.hits

        outcome = HitSetOutcome(bound, frozenset(hits))
        if stats is not None and len(outcome.hits) > stats.max_hits:
            stats.max_hits = len(outcome.hits)
        if observer is not None:
            observer(u, v, tuple(failed), outcome)
        return outcome


def hit_budget(d: int) -> int:
    """Declared cap for both |hits| and per-query lookups."""
    return 16 * d ** 6 + 16
