"""Machine-speed probes used to scale the benchmark's timings.

On a shared 2-core VM the same code ran up to 2x slower for tens of seconds
at a time, so raw timings of runs made minutes apart spread by 40-55%.
A probe is fixed work outside the library, sampled before and after every
timed unit.  A unit's reference time is its raw time multiplied by
``reference_s / mean of the two probe times``: the time it would take at
the speed where the probe takes ``reference_s``.

Two kinds of slowdown showed up on that VM: everything slower, and large
numpy arrays slower while interpreted code was not.  So there are two
probes.  ``python`` is a heap-based shortest-path search; it scales the
query stream, which is interpreted code only.  ``mixed`` adds a numpy
masked update over a 2 MiB array shaped like an n=16 table; it scales
builds and loads, which mix both.  With a probe every 2000 to 4000 queries
the spread of 10-second medians of query time fell from 6% to under 1%.
"""
from __future__ import annotations

import heapq
import statistics
from time import perf_counter

import numpy as np

# median probe times on a 2-core x86-64 VM, Python 3.11, numpy 2.4, in a
# fast phase; they only fix the scale of the reported numbers
REFERENCE_S = {"python": 0.0017, "mixed": 0.0065}

_N = 256
_ADJ = [[((v + k) % _N, (v * 7 + k) % 13 + 1) for k in (1, 3, 17, 59)]
        for v in range(_N)]
_RNG = np.random.default_rng(0)
_CAND = _RNG.integers(0, 1 << 40, (16, 16))
_MASK = _RNG.random((16, 16, 2)) < 0.8


def _python_work() -> None:
    for root in range(0, _N, 40):
        dist = [-1] * _N
        dist[root] = 0
        heap = [(0, root)]
        while heap:
            d, v = heapq.heappop(heap)
            if d > dist[v]:
                continue
            for nb, w in _ADJ[v]:
                if dist[nb] < 0 or d + w < dist[nb]:
                    dist[nb] = d + w
                    heapq.heappush(heap, (d + w, nb))


def _mixed_work() -> None:
    _python_work()
    values = np.full((16, 16, 16, 16, 2, 2), -1, dtype=np.int64)
    f1 = _MASK[:, None, :, None, :, None]
    f2 = _MASK[None, :, None, :, None, :]
    for k in range(2):
        cand = (_CAND + k)[:, :, None, None, None, None]
        np.copyto(values, np.broadcast_to(cand, values.shape),
                  where=(cand > values) & f1 & f2)


class SpeedProbe:
    def __init__(self, kind: str):
        self._work = {"python": _python_work, "mixed": _mixed_work}[kind]
        self._reference = REFERENCE_S[kind]
        self.times: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        self._work()
        self.times.append(perf_counter() - start)

    def factor(self) -> float:
        """Raw-to-reference factor for the unit timed between the last two samples."""
        return 2 * self._reference / (self.times[-2] + self.times[-1])

    def scale(self) -> float:
        """Raw-to-reference factor for the whole run so far."""
        return self._reference / statistics.median(self.times)
