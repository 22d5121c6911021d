"""Seeded random connected graph generation for tests and benchmarks."""
from __future__ import annotations

import random
from bisect import bisect_right

from .graph import Graph, GraphError


def gen_gnm(n: int, m: int, wmax: int, seed: int) -> Graph:
    """Random connected simple graph: a random spanning tree plus extra edges.

    Weights are uniform integers in [1, wmax].  Everything is driven by one
    seeded generator, so (n, m, wmax, seed) fully determines the result.
    The extra edges are a sample of the ranks of the pairs off the tree in
    row-major order, each mapped to its pair by bisection, so the pairs are
    never listed and memory stays linear in n + m.
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
    pairs = [(order[rng.randrange(i)], order[i]) for i in range(1, n)]
    row = [a * (2 * n - a - 1) // 2 for a in range(n)]  # the rank of pair (a, a + 1)
    # the tree pairs' sorted ranks, the j-th less j: the spare pairs below each
    skip = [t - j for j, t in enumerate(sorted(row[min(a, b)] + abs(a - b) - 1
                                               for a, b in pairs))]
    for i in rng.sample(range(max_m - (n - 1)), m - (n - 1)):
        rank = i + bisect_right(skip, i)  # the i-th spare pair's
        a = bisect_right(row, rank) - 1
        pairs.append((a, a + 1 + rank - row[a]))
    edges = [(a, b, rng.randint(1, wmax)) for a, b in pairs]
    g = Graph(n, edges)
    g.validate()
    return g
