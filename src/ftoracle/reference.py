"""Brute-force reference oracle and the instance verifier.

Everything here recomputes from scratch with a plain Dijkstra so the main
query path is checked against an implementation that shares none of its
machinery.  The verifier also exercises the structural guarantees the
query path relies on: replacement paths decompose into few shortest-path
segments (their "rank" is at most the failure count), recursion pivots
strictly decrease that rank, and every hitting-set outcome either returns
the exact distance or names a vertex of the true replacement path.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from itertools import chain, combinations
from typing import Iterable, Iterator, Sequence

from .graph import CompositeLength, Graph, UNREACHABLE, ZERO_LENGTH
from .hitset import QueryStats, hit_budget
from .query import Oracle


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
            dists = []
            parents = []
            for r in range(self.graph.n):
                d, p = dijkstra_composite(self.graph, self.tie, r, banned)
                dists.append(d)
                parents.append(p)
            hit = (dists, parents)
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
            pref_tl[i + 1] = pref_tl[i] + self.graph.weight(eid)
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
    answers: list | None = None

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


def verify_instance(oracle: Oracle, mode: str = "exhaustive",
                    samples: int = 10000, seed: int = 0,
                    check_guards: bool = True,
                    collect_answers: bool = False) -> VerifyReport:
    """Check oracle answers and internal contracts over an instance stream."""
    graph = oracle.graph
    ref = ReferenceOracle(graph, oracle.index.tie)
    index = oracle.index
    d = oracle.d
    budget = hit_budget(d)
    report = VerifyReport(graph.digest(), d, mode,
                          hits_budget=budget, lookup_budget=budget,
                          answers=[] if collect_answers else None)
    # a private engine, so the caller's oracle never sees the guard flag
    checked = Oracle(index, oracle.tables)
    checked.engine.check_guards = check_guards
    for u, v, failed in enumerate_instances(graph, d, mode, samples, seed):
        stats = QueryStats()
        records: list[tuple[int, int, tuple[int, ...], object]] = []
        answer = checked._query_canonical(
            u, v, failed, stats=stats,
            observer=lambda a, b, f, o: records.append((a, b, f, o)))
        truth = ref.dist_avoiding(failed, u, v)
        report.instances += 1
        report.case_three_calls += stats.case_three_calls
        if collect_answers:
            report.answers.append(answer)
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
                if index.path_intersects(u, w, failed) and \
                        index.path_intersects(v, w, failed):
                    r_uw = ref.rank(failed, u, w)
                    r_wv = ref.rank(failed, w, v)
                    if r_uw > r_uv - 1 or r_wv > r_uv - 1:
                        report.rank_drop_violations += 1
        for a, b, fset, outcome in records:
            sub_truth = ref.dist_avoiding(fset, a, b)
            if outcome.bound != sub_truth:
                sub_path = ref.replacement_path(fset, a, b)
                on_path = sub_path is not None and \
                    bool(outcome.hits.intersection(sub_path))
                if not on_path:
                    report.bound_violations += 1
            for w in outcome.hits:
                if not (index.path_intersects(a, w, fset) and
                        index.path_intersects(b, w, fset)):
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
