"""The machine-speed probe that rescales the benchmark's times.

On a shared host the speed of pure-Python code can drift by up to about
1.7x over seconds to minutes, with CPU time tracking wall time (no stolen
time shows); a 2-vCPU Xeon VM did. A fixed piece of work timed next to each operation
measures that drift: the probe runs a BFS over a fixed random graph, the
same kind of dict, list and deque work the decaps indexes do. An operation's
time is then rescaled by ``NOMINAL_S / probe time``, so that it reads as the
wall time on a machine where one probe BFS takes ``NOMINAL_S``. A change to
the program moves the rescaled time as it moves the wall time; a change in
the host's speed moves the probe with it and cancels out.
"""

from __future__ import annotations

import random
import statistics
from collections import deque
from time import perf_counter

# About one probe BFS on a 2-vCPU Xeon VM at its fast speed. The constant only
# sets the scale of the rescaled times; both sides of a comparison share it.
NOMINAL_S = 2e-4


class SpeedProbe:
    def __init__(self, n: int = 400, m: int = 1600):
        rng = random.Random(0)
        adj: list[set] = [set() for _ in range(n)]
        for v in range(1, n):  # a random tree keeps the graph connected
            u = rng.randrange(v)
            adj[u].add(v)
            adj[v].add(u)
        while sum(len(a) for a in adj) < 2 * m:
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v:
                adj[u].add(v)
                adj[v].add(u)
        self.adj = [sorted(a) for a in adj]

    def _bfs(self) -> int:
        level = {0: 0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            d = level[u] + 1
            for v in self.adj[u]:
                if v not in level:
                    level[v] = d
                    queue.append(v)
        return len(level)

    def sample(self, repeats: int = 3) -> float:
        """The fastest of ``repeats`` timed BFS runs, in seconds."""
        best = float("inf")
        for _ in range(repeats):
            t0 = perf_counter()
            self._bfs()
            best = min(best, perf_counter() - t0)
        return best


def local_speed(samples: list[float], lo: int, hi: int, window: int) -> float:
    """Median probe time of ``samples[lo:hi]`` widened by ``window`` each side."""
    return statistics.median(samples[max(0, lo - window):hi + window])
