"""Brute-force reference oracle and the instance verifier.

Everything here recomputes from scratch with a plain Dijkstra so the main
query path is checked against an implementation that shares none of its
machinery.  The verifier also exercises the structural guarantees the
query path relies on: replacement paths decompose into few shortest-path
segments (their "rank" is at most the failure count), recursion pivots
strictly decrease that rank, and every hitting-set outcome either returns
the exact distance or names a vertex of the true replacement path.  Its
CheckedEngine guards every lookup by the reference's own Dijkstra trees,
never the index's, and records every case_three outcome.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from itertools import chain, combinations, product
from typing import Collection, Iterable, Iterator, Sequence

from .graph import CompositeLength, Graph, UNREACHABLE, ZERO_LENGTH
from .hitset import FailureView, HitSetEngine, HitSetOutcome, QueryStats, hit_budget
from .query import Oracle
from .spindex import ShortestPathIndex
from .tables import OracleTables


class GuardError(AssertionError):
    """A lookup whose failure set breaks its key's constraint; raised, not asserted, for -O."""


class CheckedEngine(HitSetEngine):
    """Verify's engine: guards each key read by its reference's trees, records each case_three."""

    def __init__(self, index: ShortestPathIndex, tables: OracleTables):
        super().__init__(index, tables)
        self.ref = ReferenceOracle(index.graph, index.tie)
        self.records: list[tuple[int, int, tuple[int, ...], HitSetOutcome]] = []

    def _read(self, u: int, v: int, ups: Sequence[int], vps: Sequence[int],
              b1: int, b2: int, view: FailureView) -> tuple[int, set[int]]:
        for up, vp in product(ups, vps):
            key = (u, v, up, vp, b1, b2)
            if not self.ref.constraint_holds(view.failed, key):
                raise GuardError(f"unguarded lookup {key} under {view.failed}")
        return super()._read(u, v, ups, vps, b1, b2, view)

    def case_three(self, u: int, v: int, view: FailureView) -> HitSetOutcome:
        outcome = super().case_three(u, v, view)
        self.records.append((u, v, view.failed, outcome))
        return outcome


def dijkstra_composite(graph: Graph, tie: Sequence[int], source: int,
                       banned: frozenset[int] = frozenset()):
    """Composite-order shortest paths in G minus banned edges.

    Returns (dist, parent) lists; unreachable vertices get UNREACHABLE / -1.
    """
    n = graph.n
    dist: list[CompositeLength] = [UNREACHABLE] * n
    parent = [-1] * n
    dist[source] = ZERO_LENGTH
    done = [False] * n
    heap: list[tuple[int, int, int]] = [(0, 0, source)]
    while heap:
        tl, tk, v = heapq.heappop(heap)
        if done[v]:
            continue
        done[v] = True
        for nb, eid, w in graph.adj[v]:
            if done[nb] or eid in banned:
                continue
            cand = CompositeLength(tl + w, tk + tie[eid])
            if cand < dist[nb]:
                dist[nb] = cand
                parent[nb] = v
                heapq.heappush(heap, (cand.true_len, cand.tie_key, nb))
    return dist, parent


class ReferenceOracle:
    """Per-failure-set all-pairs answers, cached, built by plain Dijkstra."""

    def __init__(self, graph: Graph, tie: Sequence[int]):
        self.graph = graph
        self.tie = list(tie)
        self._cache: dict[tuple[int, ...], tuple[list, list]] = {}

    def _pairs(self, failed: tuple[int, ...]):
        hit = self._cache.get(failed)
        if hit is None:
            banned = frozenset(failed)
            runs = [dijkstra_composite(self.graph, self.tie, r, banned)
                    for r in range(self.graph.n)]
            hit = ([d for d, _ in runs], [p for _, p in runs])
            self._cache[failed] = hit
        return hit

    def dist_avoiding(self, failed: Iterable[int], u: int, v: int) -> CompositeLength:
        return self._pairs(tuple(sorted(set(failed))))[0][u][v]

    def replacement_path(self, failed: Iterable[int], u: int, v: int) -> list[int] | None:
        """Vertex list of the unique shortest u-v path in G minus failed edges."""
        failed = tuple(sorted(set(failed)))
        dists, parents = self._pairs(failed)
        if dists[u][v].is_unreachable:
            return None
        path = [v]
        pu = parents[u]
        while path[-1] != u:
            path.append(pu[path[-1]])
        path.reverse()
        return path

    def path_intersects(self, root: int, x: int, failed: Collection[int]) -> bool:
        """True iff a failed edge lies on root's tree path to x, walked by this oracle."""
        parent = self._pairs(())[1][root]
        while x != root:
            if self.graph.edge_id(parent[x], x) in failed:
                return True
            x = parent[x]
        return False

    def subtree_touches(self, root: int, w: int, failed: Iterable[int]) -> bool:
        """True iff w's subtree in root's tree holds an endpoint of a failed edge."""
        return any(w in self.replacement_path((), root, p)
                   for eid in failed for p in self.graph.edges[eid][:2])

    def constraint_holds(self, failed: Collection[int], key: tuple[int, ...]) -> bool:
        """tables.constraint_holds, by walks of these trees."""
        u, v, up, vp, b1, b2 = key
        return not (self.path_intersects(u, up, failed) or self.path_intersects(v, vp, failed)
                    or b1 and self.subtree_touches(u, up, failed)
                    or b2 and self.subtree_touches(v, vp, failed))

    def rank_of_path(self, path: Sequence[int]) -> int:
        """Fewest single edges interleaving unfailed-shortest-path segments.

        A path has rank r when it splits into at most r+1 segments, each a
        shortest path of the intact graph (possibly trivial), joined by at
        most r single edges.  Dynamic program over segment boundaries.
        """
        base = self._pairs(())[0]
        k = len(path) - 1
        if k <= 0:
            return 0
        pref_tl = [0] * (k + 1)
        pref_tk = [0] * (k + 1)
        for i in range(k):
            eid = self.graph.edge_id(path[i], path[i + 1])
            pref_tl[i + 1] = pref_tl[i] + self.graph.edges[eid][2]
            pref_tk[i + 1] = pref_tk[i] + self.tie[eid]

        def shortest(i: int, j: int) -> bool:
            d = base[path[i]][path[j]]
            return pref_tl[j] - pref_tl[i] == d.true_len and \
                pref_tk[j] - pref_tk[i] == d.tie_key

        best = [0] * (k + 1)
        for i in range(1, k + 1):
            if shortest(0, i):
                best[i] = 0
                continue
            b = best[i - 1] + 1  # j = i-1: jump edge into a trivial segment
            for j in range(i - 1):
                if best[j] + 1 < b and shortest(j + 1, i):
                    b = best[j] + 1
            best[i] = b
        return best[k]

    def rank(self, failed: Iterable[int], u: int, v: int) -> int | None:
        path = self.replacement_path(failed, u, v)
        return None if path is None else self.rank_of_path(path)


def enumerate_instances(graph: Graph, d: int, mode: str = "exhaustive",
                        samples: int = 10000,
                        seed: int = 0) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """Deterministic (u, v, failure set) stream shared by verify and replay."""
    n = graph.n
    m = graph.m
    if mode == "exhaustive":
        sets = sorted(chain.from_iterable(
            combinations(range(m), k) for k in range(min(d, m) + 1)))
        for failed in sets:
            for u in range(n):
                for v in range(n):
                    if u != v:
                        yield u, v, failed
    elif mode == "sampled":
        rng = random.Random(seed)
        for _ in range(samples):
            u = rng.randrange(n)
            v = rng.randrange(n - 1)
            if v >= u:
                v += 1
            size = rng.randint(1, min(d, m)) if m else 0
            failed = tuple(sorted(rng.sample(range(m), size)))
            yield u, v, failed
    else:
        raise ValueError(f"unknown mode {mode!r}")


@dataclass
class VerifyReport:
    """Aggregated result of one verification run."""

    graph_digest: str
    d: int
    mode: str
    instances: int = 0
    case_three_calls: int = 0
    mismatches: int = 0
    mismatch_examples: list = field(default_factory=list)
    rank_violations: int = 0
    rank_drop_violations: int = 0
    bound_violations: int = 0
    hit_check_violations: int = 0
    hits_budget: int = 0
    max_hits: int = 0
    hit_budget_violations: int = 0
    lookup_budget: int = 0
    max_lookups: int = 0
    lookup_budget_violations: int = 0
    max_depth: int = 0
    max_rank: int = 0

    @property
    def ok(self) -> bool:
        return not (self.mismatches or self.rank_violations or
                    self.rank_drop_violations or self.bound_violations or
                    self.hit_check_violations or self.hit_budget_violations or
                    self.lookup_budget_violations)

    def summary(self) -> str:
        lines = [
            f"graph {self.graph_digest[:12]} d={self.d} mode={self.mode}",
            f"instances checked: {self.instances}",
            f"distance mismatches: {self.mismatches}",
            f"rank over budget: {self.rank_violations} (max rank {self.max_rank})",
            f"pivot rank drops missed: {self.rank_drop_violations}",
            f"bound contract violations: {self.bound_violations}",
            f"hit double-check violations: {self.hit_check_violations}",
            f"hit budget: max {self.max_hits} of {self.hits_budget}"
            f" ({self.hit_budget_violations} over)",
            f"lookup budget: max {self.max_lookups} of {self.lookup_budget}"
            f" ({self.lookup_budget_violations} over)",
            f"max recursion depth: {self.max_depth}",
            f"result: {'PASS' if self.ok else 'FAIL'}",
        ]
        for bad in self.mismatch_examples:
            lines.append(f"  counterexample: {bad}")
        return "\n".join(lines)


def verify_instance(oracle: Oracle, samples: int | None = None, seed: int = 0) -> VerifyReport:
    """Check answers and contracts on every instance, or on samples drawn from seed."""
    if samples is not None and samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    mode = "exhaustive" if samples is None else "sampled"
    graph = oracle.graph
    index = oracle.index
    d = oracle.d
    budget = hit_budget(d)
    report = VerifyReport(graph.digest(), d, mode, hits_budget=budget, lookup_budget=budget)
    # a private oracle, so the caller's keeps its own plain engine
    checked = Oracle(index, oracle.tables)
    engine = checked.engine = CheckedEngine(index, oracle.tables)
    ref, records = engine.ref, engine.records
    for u, v, failed in enumerate_instances(graph, d, mode, samples or 0, seed):
        stats = QueryStats()
        records.clear()
        answer = checked.query_composite(u, v, failed, stats=stats)
        truth = ref.dist_avoiding(failed, u, v)
        report.instances += 1
        report.case_three_calls += stats.case_three_calls
        if answer != truth:
            report.mismatches += 1
            if len(report.mismatch_examples) < 5:
                report.mismatch_examples.append(
                    (u, v, failed, answer, truth))
        if not truth.is_unreachable:
            path = ref.replacement_path(failed, u, v)
            r_uv = ref.rank_of_path(path)
            if r_uv > report.max_rank:
                report.max_rank = r_uv
            if r_uv > len(failed):
                report.rank_violations += 1
            for w in path[1:-1]:
                if ref.path_intersects(u, w, failed) and ref.path_intersects(v, w, failed):
                    r_uw = ref.rank(failed, u, w)
                    r_wv = ref.rank(failed, w, v)
                    if r_uw > r_uv - 1 or r_wv > r_uv - 1:
                        report.rank_drop_violations += 1
        for a, b, fset, outcome in records:
            sub_truth = ref.dist_avoiding(fset, a, b)
            if index.codec.decode(outcome.bound) != sub_truth:
                sub_path = ref.replacement_path(fset, a, b)
                on_path = sub_path is not None and \
                    bool(outcome.hits.intersection(sub_path))
                if not on_path:
                    report.bound_violations += 1
            for w in outcome.hits:
                if not (ref.path_intersects(a, w, fset) and ref.path_intersects(b, w, fset)):
                    report.hit_check_violations += 1
            if len(outcome.hits) > report.max_hits:
                report.max_hits = len(outcome.hits)
            if len(outcome.hits) > budget:
                report.hit_budget_violations += 1
        if stats.lookups > report.max_lookups:
            report.max_lookups = stats.lookups
        if stats.lookups > budget:
            report.lookup_budget_violations += 1
        if stats.max_depth > report.max_depth:
            report.max_depth = stats.max_depth
    return report
