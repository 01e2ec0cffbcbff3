"""Machine speed next to the timed work, from a fixed reference kernel.

A shared machine runs the same call at different speeds from minute to
minute, and CPU time moves with wall time, so neither clock alone
repeats from run to run.  ``Pace`` times a fixed pure-Python kernel
between blocks of timed work and scales each block by
``REF_SECONDS / kernel time``, the mean of the kernel times measured
just before and just after the block.  The scaled figures are
reference seconds: on a machine where one kernel call takes
``REF_SECONDS`` they equal wall seconds.  The kernel uses no spack
code, so any change to the library shows in full.
"""
from __future__ import annotations

import statistics
from time import perf_counter

REF_SECONDS = 0.010  # nominal time of one kernel call
REF_CALLS = 3  # kernel calls per speed sample; the sample is their median
BLOCK_SECONDS = 0.25  # timed work between two speed samples


def reference_kernel() -> int:
    """Build a pseudo-random subcubic graph, search it breadth-first, sort its edges."""
    n, x = 500, 12345
    adj: list[list[int]] = [[] for _ in range(n)]
    for _ in range(800):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        a = x % n
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        b = x % n
        if a != b and len(adj[a]) < 3 and len(adj[b]) < 3 and b not in adj[a]:
            adj[a].append(b)
            adj[b].append(a)
    total = 0
    for source in range(0, n, 5):
        dist = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if w not in dist:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        total += sum(dist.values())
    edges = sorted({(min(v, w), max(v, w)) for v in range(n) for w in adj[v]})
    return total + len(edges)


def speed_sample() -> float:
    """Median wall time of REF_CALLS kernel calls, in seconds."""
    times = []
    for _ in range(REF_CALLS):
        start = perf_counter()
        reference_kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Pace:
    """Scales timed work to reference seconds, one block at a time.

    ``add`` records a wall time under ``out[key]``; the scaled value is
    written there when the block closes, after BLOCK_SECONDS of work or
    at ``close``.  ``wall_s`` sums the unscaled times.
    """

    def __init__(self) -> None:
        self.samples = [speed_sample()]
        self.wall_s = 0.0
        self._block: list[tuple[dict, object, float]] = []
        self._block_s = 0.0

    def add(self, out: dict, key, seconds: float) -> None:
        self._block.append((out, key, seconds))
        self._block_s += seconds
        self.wall_s += seconds
        if self._block_s >= BLOCK_SECONDS:
            self.close()

    def close(self) -> None:
        if not self._block:
            return
        self.samples.append(speed_sample())
        scale = REF_SECONDS / ((self.samples[-2] + self.samples[-1]) / 2)
        for out, key, seconds in self._block:
            out[key] = seconds * scale
        self._block, self._block_s = [], 0.0

    @property
    def scale(self) -> float:
        """REF_SECONDS over the median kernel time of the whole run so far."""
        return REF_SECONDS / statistics.median(self.samples)
