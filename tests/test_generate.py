"""Seeded random connected graphs."""
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, strategies as st

from ftoracle.generate import gen_gnm
from ftoracle.graph import Graph, GraphError


def listed_gnm(n, m, wmax, seed):
    """gen_gnm's draws with every pair off the tree listed before the
    sample, as the generator once did: its memory is quadratic in n."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    pairs, used = [], set()
    for i in range(1, n):
        a, b = order[rng.randrange(i)], order[i]
        pairs.append((a, b))
        used.add((min(a, b), max(a, b)))
    spare = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in used]
    pairs.extend(rng.sample(spare, m - (n - 1)))
    return Graph(n, [(a, b, rng.randint(1, wmax)) for a, b in pairs])


def test_tree_when_minimal():
    g = gen_gnm(5, 4, 10, seed=0)
    assert g.n == 5
    assert g.m == 4
    g.validate()


def test_deterministic_in_seed():
    a = gen_gnm(8, 12, 32, seed=7)
    b = gen_gnm(8, 12, 32, seed=7)
    assert a == b
    assert a.to_text() == b.to_text()


def test_seed_changes_output():
    assert gen_gnm(8, 12, 32, seed=7) != gen_gnm(8, 12, 32, seed=8)


def test_rejects_too_many_edges():
    with pytest.raises(GraphError, match="infeasible"):
        gen_gnm(4, 7, 10, seed=0)


def test_rejects_too_few_edges():
    with pytest.raises(GraphError, match="infeasible"):
        gen_gnm(5, 3, 10, seed=0)


def test_rejects_bad_scalars():
    with pytest.raises(GraphError, match="positive"):
        gen_gnm(0, 0, 10, seed=0)
    with pytest.raises(GraphError, match="positive"):
        gen_gnm(5, 4, 0, seed=0)


@given(n=st.integers(2, 12), extra=st.integers(0, 8),
       wmax=st.integers(1, 64), seed=st.integers(0, 10**9))
def test_generated_graphs_are_valid(n, extra, wmax, seed):
    m = min(n - 1 + extra, n * (n - 1) // 2)
    g = gen_gnm(n, m, wmax, seed)
    g.validate()
    assert g.m == m
    assert all(1 <= w <= wmax for _, _, w in g.edges)


@given(n=st.integers(1, 40), fill=st.floats(0, 1), wmax=st.integers(1, 64),
       seed=st.integers(0, 10**9))
def test_draws_match_the_listed_pairs(n, fill, wmax, seed):
    # the spare pairs are counted, not listed, yet random.sample draws the
    # same pairs from them; fill spans a tree to the complete graph
    m = n - 1 + round(fill * (n - 1) * (n - 2) / 2)
    assert gen_gnm(n, m, wmax, seed).to_text() == listed_gnm(n, m, wmax, seed).to_text()


def test_tree_memory_is_linear_in_n():
    # a tree of 3,000 vertices: listing the pairs off it, as listed_gnm
    # does, peaks at about 436 MB
    tracemalloc.start()
    try:
        gen_gnm(3000, 2999, 32, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2 ** 20


@pytest.mark.parametrize("n, m, seed, digest", [
    # random.sample draws a small share of a large population by indexing it
    (3000, 6000, 0, "603167431b4c9ae12214374a131bf22d5db676581b080b02d3f024ca186c9a1f"),
    # and copies a population that the sample nearly fills
    (200, 19000, 1, "60a00bd55984d3a3d9d443d9257988872c23447a8faf027f67a67fc4a6bfb012"),
    # a tree draws no extra edge
    (20000, 19999, 0, "d7c77bb6e6dbdd19e88ca03d6fdbd3ca74424c9059c04505f7e99ffa1e9a5b6b"),
])
def test_large_graphs_are_pinned(n, m, seed, digest):
    # past test_draws_match_the_listed_pairs' n <= 40, the text of a few
    # large graphs is pinned, as the listing generator once drew them
    text = gen_gnm(n, m, 32, seed).to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
