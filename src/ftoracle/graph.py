"""Graph model: validated undirected weighted graphs with stable edge ids.

The text format is line oriented.  Lines starting with '#' are comments.
The first data line is "n m"; the following m lines are "a b w" with
0-indexed endpoints and a positive integer weight.  Edge ids are assigned
in file order and stay stable for the lifetime of the graph.
"""
from __future__ import annotations

import hashlib
import math
import random
from operator import index
from typing import NamedTuple, Sequence

TIE_RANGE_FACTOR = 8

_INF = math.inf


class GraphError(ValueError):
    """Malformed graph input or a violated structural invariant."""


class CompositeLength(NamedTuple):
    """Path length as a (true_len, tie_key) pair compared lexicographically.

    true_len is the real weighted length; tie_key is the sum of per-edge
    tie-break values and exists only to make shortest paths unique.
    Comparison and min/max come from tuple ordering.  Addition is
    componentwise and saturates at UNREACHABLE (both fields infinite).
    """

    true_len: int
    tie_key: int

    def __add__(self, other: "CompositeLength") -> "CompositeLength":  # type: ignore[override]
        return CompositeLength(self.true_len + other.true_len,
                               self.tie_key + other.tie_key)

    @property
    def is_unreachable(self) -> bool:
        return self.true_len == _INF


UNREACHABLE = CompositeLength(_INF, _INF)  # type: ignore[arg-type]
ZERO_LENGTH = CompositeLength(0, 0)


class Graph:
    """Undirected weighted graph; the edge id of an edge is its list position."""

    def __init__(self, n: int, edges: Sequence[tuple[int, int, int]]):
        try:  # operator.index takes numpy integers but no float or str
            self.n = index(n)
            self.edges = [(index(a), index(b), index(w)) for a, b, w in edges]
        except TypeError as exc:
            raise GraphError(f"vertex count and edge fields must be integers: {exc}") from None
        except ValueError as exc:  # an edge of other than three fields
            raise GraphError(f"each edge must be (a, b, w): {exc}") from None
        self._adj: list[list[tuple[int, int, int]]] | None = None
        self._pair_ids: dict[tuple[int, int], int] | None = None

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def adj(self) -> list[list[tuple[int, int, int]]]:
        """Adjacency lists of (neighbor, edge_id, weight) triples."""
        if self._adj is None:
            adj: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n)]
            for eid, (a, b, w) in enumerate(self.edges):
                adj[a].append((b, eid, w))
                adj[b].append((a, eid, w))
            self._adj = adj
        return self._adj

    def edge_id(self, a: int, b: int) -> int:
        """Edge id for an unordered endpoint pair; GraphError if absent."""
        if self._pair_ids is None:
            self._pair_ids = {}
            for eid, (x, y, _) in enumerate(self.edges):
                self._pair_ids[(min(x, y), max(x, y))] = eid
        try:
            return self._pair_ids[(min(a, b), max(a, b))]
        except KeyError:
            raise GraphError(f"no edge between {a} and {b}") from None

    def validate(self) -> None:
        """Check ids, weights, simplicity and connectivity; raise GraphError."""
        if self.n < 1:
            raise GraphError(f"vertex count must be positive, got {self.n}")
        seen: set[tuple[int, int]] = set()
        for eid, (a, b, w) in enumerate(self.edges):
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise GraphError(f"edge {eid}: endpoint out of range: {a} {b}")
            if a == b:
                raise GraphError(f"edge {eid}: self-loop at vertex {a}")
            if w < 1:
                raise GraphError(f"edge {eid}: nonpositive weight {w}")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise GraphError(f"edge {eid}: duplicate edge {a}-{b}")
            seen.add(key)
        if self.m < self.n - 1:  # refused before anything of size n is made
            raise GraphError(f"graph is disconnected: {self.m} edges cannot join {self.n} vertices")
        reached = [False] * self.n
        reached[0] = True
        stack = [0]
        count = 1
        while stack:
            x = stack.pop()
            for nb, _, _ in self.adj[x]:
                if not reached[nb]:
                    reached[nb] = True
                    count += 1
                    stack.append(nb)
        if count != self.n:
            raise GraphError(f"graph is disconnected: reached {count} of {self.n} vertices")

    def to_text(self) -> str:
        lines = [f"{self.n} {self.m}"]
        lines.extend(f"{a} {b} {w}" for a, b, w in self.edges)
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hashlib.sha256(self.to_text().encode("ascii")).hexdigest()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def parse_graph(text: str | bytes) -> Graph:
    """Parse and validate the text format described in the module docstring."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise GraphError(f"graph file is not UTF-8 text: {exc}") from None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line))
    if not rows:
        raise GraphError("empty graph file")
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise GraphError(f"line {lineno}: malformed header {header!r}, expected 'n m'")
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise GraphError(f"line {lineno}: malformed header {header!r}") from None
    if len(rows) - 1 != m:
        raise GraphError(f"expected {m} edge lines, found {len(rows) - 1}")
    edges = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 3:
            raise GraphError(f"line {lineno}: malformed edge line {line!r}, expected 'a b w'")
        try:
            a, b, w = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError:
            raise GraphError(f"line {lineno}: malformed edge line {line!r}") from None
        edges.append((a, b, w))
    g = Graph(n, edges)
    g.validate()
    return g


def tie_break_values(graph: Graph, seed: int) -> list[int]:
    """Per-edge tie-break values, a pure function of (graph shape, seed).

    Values are drawn uniformly from [1, 8*m*n^2]; the range is wide enough
    that re-drawing with a bumped seed quickly clears any shortest-path tie.
    """
    m = graph.m
    if m == 0 or graph.n < 1:  # nothing to draw; the index rejects n < 1
        return []
    hi = TIE_RANGE_FACTOR * m * graph.n * graph.n
    rng = random.Random(seed)
    return [rng.randint(1, hi) for _ in range(m)]


# _BYTE_BITS[k][x]: the set bits of x << 8k, ascending, for the low 4 bytes
_BYTE_BITS = [[tuple(8 * k + i for i in range(8) if x >> i & 1) for x in range(256)]
              for k in range(4)]


def edge_ids(mask: int) -> tuple[int, ...]:
    """The set bits of a bitmask, ascending: an edge mask's ids, a vertex mask's vertices.

    The low 32 bits are read a byte at a time from _BYTE_BITS, the rest bit by bit.
    """
    t0, t1, t2, t3 = _BYTE_BITS
    out = t0[mask & 255] + t1[mask >> 8 & 255] + t2[mask >> 16 & 255] + t3[mask >> 24 & 255]
    mask >>= 32
    if not mask:
        return out
    high = []
    while mask:
        high.append((mask & -mask).bit_length() + 31)
        mask &= mask - 1
    return out + tuple(high)

