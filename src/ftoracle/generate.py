"""Seeded random connected graph generation for tests and benchmarks."""
from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Sequence

from .graph import Graph, GraphError


class _Spare(Sequence):
    """The vertex pairs a < b of an n-vertex graph, row-major, less the
    given ones, held as a count: pair i is found by rank, never listed."""

    def __init__(self, n: int, used: list[tuple[int, int]]):
        self._row = [a * (2 * n - a - 1) // 2 for a in range(n)]  # rank of (a, a + 1)
        # the used ranks, the j-th less j: the spare pairs below each
        ranks = sorted(self._row[a] + b - a - 1 for a, b in used)
        self._skip = [t - j for j, t in enumerate(ranks)]
        self._len = n * (n - 1) // 2 - len(used)

    def __len__(self) -> int:
        return self._len

    def __getitem__(self, i: int) -> tuple[int, int]:
        if not 0 <= i < self._len:  # iteration, as sample's copy of a small one, stops here
            raise IndexError(i)
        rank = i + bisect_right(self._skip, i)
        a = bisect_right(self._row, rank) - 1
        return a, a + 1 + rank - self._row[a]


def gen_gnm(n: int, m: int, wmax: int, seed: int) -> Graph:
    """Random connected simple graph: a random spanning tree plus extra edges.

    Weights are uniform integers in [1, wmax].  Everything is driven by one
    seeded generator, so (n, m, wmax, seed) fully determines the result.
    The extra edges are a sample of the pairs off the tree in row-major
    order, which are counted, not listed, so memory stays linear in n + m.
    """
    if n < 1:
        raise GraphError(f"vertex count must be positive, got {n}")
    if wmax < 1:
        raise GraphError(f"maximum weight must be positive, got {wmax}")
    max_m = n * (n - 1) // 2
    if not (n - 1 <= m <= max_m):
        raise GraphError(
            f"edge count {m} infeasible for n={n}: need {n - 1} <= m <= {max_m}")
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    pairs: list[tuple[int, int]] = []
    for i in range(1, n):
        pairs.append((order[rng.randrange(i)], order[i]))
    spare = _Spare(n, [(min(a, b), max(a, b)) for a, b in pairs])
    pairs.extend(rng.sample(spare, m - (n - 1)))
    edges = [(a, b, rng.randint(1, wmax)) for a, b in pairs]
    g = Graph(n, edges)
    g.validate()
    return g
