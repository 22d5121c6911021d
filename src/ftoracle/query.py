"""Query engine: exact failed-graph distances from the precomputed tables.

A query with failure set D either sees an undamaged shortest path (answered
from the base distance table) or recurses: the hitting-set engine returns a
sound upper bound plus pivot vertices known to sit on the true replacement
path, and the answer is the minimum of the bound and pivot-split subqueries
with a decremented budget.  The budget argument makes the recursion finite;
exactness at budget |D| follows from the pivot contract.

The pivot loop is a branch and bound.  A subquery's code is that of a walk
in G - D, so at least its pair's base code, and a pivot whose detour cannot
beat the best bound so far is skipped: every answer and memo entry is kept.

A damaged query builds one FailureView of D and the whole recursion runs
on it: damage tests are bit tests, each root's key tree is built once, and
the memo and the query's stats live in the view.  The failure ids are
checked in one pass into an edge bitmask of D, and a query whose tree path
u->v carries none of those edges, one AND with the index's path-edge mask,
is undamaged: it builds no failure tuple and no view.

The recursion runs on packed length codes, the hitting-set engine's bounds
included, and decodes once, at the API edge; an undamaged query returns
the index's prebuilt base length.  Summing codes is exact for every simple
path, whose tie sum fits below the codec's shift.  Only a walk that is not
simple can carry tie bits into the length field or pass unreachable_code,
and its sum stays above the code of the unique shortest path, so every
min, and so every answer, is what composite lengths would give.
"""
from __future__ import annotations

import operator
from typing import Iterable

from .graph import CompositeLength, Graph, GraphError, edge_ids, failure_mask
from .hitset import FailureView, HitSetEngine, QueryStats
from .spindex import MAX_TIE_RETRIES, BuildError, ShortestPathIndex, build_index_auto
from .tables import OracleTables, build_tables, check_build_size


class QueryError(ValueError):
    """Invalid query arguments (vertex range, edge ids, budget)."""


class Oracle:
    """Bundles the graph, tie assignment, tree index and lookup tables."""

    def __init__(self, index: ShortestPathIndex, tables: OracleTables):
        self.graph = index.graph
        self.index = index
        self.tables = tables
        self.engine = HitSetEngine(index, tables)

    @property
    def d(self) -> int:
        return self.tables.d

    def query(self, u: int, v: int, failures: Iterable[int] = ()) -> int | None:
        """Exact u-v distance avoiding the failed edges; None if disconnected."""
        length = self.query_composite(u, v, failures)
        return None if length.is_unreachable else length.true_len

    def query_composite(self, u: int, v: int, failures: Iterable[int] = (),
                        stats: QueryStats | None = None) -> CompositeLength:
        n = self.graph.n
        try:
            u, v = operator.index(u), operator.index(v)
        except TypeError as exc:
            raise QueryError(f"vertices must be integers: {exc}") from None
        if not (0 <= u < n and 0 <= v < n):
            raise QueryError(f"vertex out of range: {u}, {v}")
        try:
            seen = failure_mask(self.graph, failures)
        except GraphError as exc:
            raise QueryError(str(exc)) from None
        if seen.bit_count() > self.tables.d:
            raise QueryError(
                f"{seen.bit_count()} failures exceed the oracle budget d={self.tables.d}")
        index = self.index
        if index._dist[u] is None:  # the last list _finish_root writes
            index._finish_root(u)
        if not index._path_edges[u][v] & seen:
            if stats is not None and stats.max_depth < 1:
                stats.max_depth = 1
            return index._dist[u][v]
        failed = edge_ids(seen)
        view = FailureView(index, failed, stats)
        code = self._query_r(u, v, view, len(failed))
        if stats is not None:
            stats.key_trees += len(view.trees)
        return index.codec.decode(code)

    def _query_r(self, a: int, b: int, view: FailureView, r: int) -> int:
        """Packed a-b distance avoiding view's failures, found with pivot budget r.

        Every call is on a damaged pair, view.path(a) >> b & 1: the fast
        path answers an undamaged top call, and a pivot w is a hit, so a
        failure lies on both tree paths a->w and w->b.  A pivot is skipped
        when a lower bound on left + right, base codes for the parts not yet
        known, reaches best: left >= rows[a][w] and right >= rows[w][b].
        """
        stats = view.stats
        if stats is not None:
            depth = len(view.failed) - r + 1
            if depth > stats.max_depth:
                stats.max_depth = depth
        if r == 0:
            return self.index.codec.unreachable_code
        memo = view.memo
        cached = memo.get((a, b, r))
        if cached is not None:
            if stats is not None:
                stats.memo_hits += 1
            return cached
        best, hits = self.engine.case_three(a, b, view)
        rows = self.index._rows
        for w in sorted(hits):
            to_b = rows[w][b]
            if rows[a][w] + to_b >= best:
                continue
            left = self._query_r(a, w, view, r - 1)
            if left + to_b >= best:
                continue
            right = self._query_r(w, b, view, r - 1)
            cand = left + right
            if cand < best:
                best = cand
        memo[(a, b, r)] = best
        return best


def build_oracle(graph: Graph, d: int, seed: int = 1,
                 progress=None) -> Oracle:
    """Pick a tie assignment with unique paths (the index validates), build all tables.

    Refuses, with BuildError, a seed whose retries leave the file's int64."""
    if not -2 ** 63 <= seed <= 2 ** 63 - MAX_TIE_RETRIES:
        raise BuildError(f"tie seed {seed} out of range: it and its {MAX_TIE_RETRIES - 1} "
                         f"retries must fit in int64")
    check_build_size(graph.n, graph.m, d)
    index, _, used_seed = build_index_auto(graph, seed)
    tables = build_tables(index, d, used_seed, progress)
    return Oracle(index, tables)
