"""Workload definitions: which graphs are built and which queries are sent.

Every run builds ``graphs`` random connected graphs
``gen_gnm(n, m, 32, seed * graphs + i)`` with tie seed 1.  Pooling several
graphs per run keeps the figures of one seed close to those of another:
the damaged-query p99 differs by 2x between single n=10 graphs.  Queries
form one stream that visits the graphs in turn and is sent as a closed
loop by a single caller, one query after the previous answer.

* ``build-n16-d2``: the dense table update and the oracle file dominate;
  about 11% of the uniform queries are damaged.
* ``query-uniform-n10-d3``: independent queries drawn like
  ``enumerate_instances(mode="sampled")``; nothing is shared between
  consecutive queries, so it guards the undamaged fast path.
* ``query-batched-n10-d3``: failure sets of exactly d edges, each followed
  by all ordered vertex pairs of its graph, so consecutive queries share F.
  It is not listed in BENCHMARK.json: a handful of costly failure sets set
  its damaged p99, which spread by 26% across five seeds (540 sets a pass
  over 16 graphs).  Run it by name to look at per-F reuse.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from ftoracle import Graph, gen_gnm
from ftoracle.reference import enumerate_instances

WMAX = 32
TIE_SEED = 1

# (graph index, u, v, failed edge ids)
Query = tuple[int, int, int, tuple[int, ...]]


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    m: int
    d: int
    graphs: int       # graphs built per run
    stream: str       # "uniform" or "batched"
    stream_len: int   # queries per pass over the stream


WORKLOADS = {w.name: w for w in (
    Workload("build-n16-d2", n=16, m=32, d=2, graphs=4,
             stream="uniform", stream_len=48000),
    Workload("query-uniform-n10-d3", n=10, m=18, d=3, graphs=24,
             stream="uniform", stream_len=72000),
    Workload("query-batched-n10-d3", n=10, m=18, d=3, graphs=24,
             stream="batched", stream_len=540 * 90),
)}


def graph_seeds(w: Workload, seed: int) -> list[int]:
    return [seed * w.graphs + i for i in range(w.graphs)]


def make_graphs(w: Workload, seed: int) -> list[Graph]:
    return [gen_gnm(w.n, w.m, WMAX, s) for s in graph_seeds(w, seed)]


def make_stream(w: Workload, graphs: list[Graph], seed: int) -> list[Query]:
    """The query stream of one pass; the same seed gives the same stream."""
    if w.stream == "uniform":
        per_graph = -(-w.stream_len // len(graphs))
        draws = [list(enumerate_instances(g, w.d, "sampled", per_graph, seed=s))
                 for g, s in zip(graphs, graph_seeds(w, seed))]
        stream = [(gi, *draws[gi][k]) for k in range(per_graph)
                  for gi in range(len(graphs))]
        return stream[:w.stream_len]
    if w.stream == "batched":
        rng = random.Random(seed)
        stream = []
        batch = 0
        while len(stream) < w.stream_len:
            gi = batch % len(graphs)
            g = graphs[gi]
            failed = tuple(sorted(rng.sample(range(g.m), min(w.d, g.m))))
            stream.extend((gi, u, v, failed) for u in range(g.n)
                          for v in range(g.n) if u != v)
            batch += 1
        return stream[:w.stream_len]
    raise ValueError(f"unknown stream shape {w.stream!r}")
