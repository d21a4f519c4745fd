"""Fully dynamic (1+eps, 0)-approximate APSP via the phase reduction.

Updates are grouped in phases of t operations. Each phase starts by
rebuilding a deterministic decremental index from the current graph; within
the phase, deletions of phase-start edges are forwarded to that index, while
insertions (stars around a center node) live only in the true graph and in
the set I of insertion centers. After every update the distances from every
node of I are recomputed on the true graph, so a query can combine the
decremental estimate with exact two-leg paths through insertion centers:

    answer(u, w) = min(delta1(u, w), min over x in I of d(u, x) + d(x, w))
"""

from __future__ import annotations

import math
from collections import deque

from .deterministic_apsp import ApspIndexDet
from .errors import (
    EdgeAbsent,
    EdgePresent,
    InvalidEpsilon,
    InvalidParameters,
    InvalidPhaseLength,
    NodeOutOfRange,
)
from .graph_core import INF, DecrementalGraph


class FullyDynamicApsp:
    def __init__(self, g: DecrementalGraph, eps: float, t: int):
        if not 0 < eps <= 1:
            raise InvalidEpsilon(f"eps must be in (0, 1], got {eps}")
        limit = math.ceil(math.sqrt(g.n)) if g.n else 1
        if not 1 <= t <= max(1, limit):
            raise InvalidPhaseLength(f"need 1 <= t <= ceil(sqrt(n)) = {limit}, got {t}")
        self.n = g.n
        self.eps = eps
        self.t = t
        self._true_adj: list[set[int]] = [set(s) for s in g._adj]
        # work of the indexes that earlier phases built
        self._retired_increases = 0
        self._retired_ops = 0
        self.index = None
        self._start_phase()

    # -- phase machinery -----------------------------------------------------

    def _true_edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            for v in self._true_adj[u]:
                if u < v:
                    out.append((u, v))
        return out

    def _start_phase(self) -> None:
        if self.index is not None:
            self._retired_increases += self.index.level_increases
            self._retired_ops += self.index.ops
        self._base = DecrementalGraph.from_edge_list(self.n, self._true_edges())
        self.index = ApspIndexDet(self._base, self.eps)
        self.insertion_centers: dict[int, bool] = {}
        self._center_dist: dict[int, list] = {}
        self.updates_in_phase = 0

    def _after_update(self) -> None:
        self.updates_in_phase += 1
        if self.updates_in_phase >= self.t:
            self._start_phase()
            return
        self._center_dist = {x: self._bfs(x) for x in self.insertion_centers}

    def _bfs(self, root: int) -> list:
        dist = [INF] * self.n
        dist[root] = 0
        queue = deque((root,))
        adj = self._true_adj
        while queue:
            y = queue.popleft()
            d = dist[y] + 1
            for z in adj[y]:
                if dist[z] is INF:
                    dist[z] = d
                    queue.append(z)
        return dist

    @property
    def level_increases(self) -> int:
        """Level increases of every index built here, earlier phases' included."""
        return self._retired_increases + self.index.level_increases

    @property
    def ops(self) -> int:
        """Work (``ops``) of every index built here, earlier phases' included."""
        return self._retired_ops + self.index.ops

    def _check_node(self, x: int) -> None:
        if not 0 <= x < self.n:
            raise NodeOutOfRange(f"node {x} not in [0, {self.n})")

    # -- updates -----------------------------------------------------------

    def insert_star(self, v: int, edges) -> None:
        """Insert a set of edges all touching the center node v (one update)."""
        self._check_node(v)
        edges = list(edges)
        for a, b in edges:
            self._check_node(a)
            self._check_node(b)
            if a != v and b != v:
                raise InvalidParameters(f"edge ({a}, {b}) does not touch center {v}")
            if a == b:
                raise InvalidParameters(f"self-loop at {a}")
            if b in self._true_adj[a]:
                raise EdgePresent(f"edge ({a}, {b}) already present")
        for a, b in edges:
            self._true_adj[a].add(b)
            self._true_adj[b].add(a)
        self.insertion_centers[v] = True
        self._after_update()

    def delete_set(self, edges) -> None:
        """Delete a set of edges from the true graph (one update)."""
        edges = list(edges)
        for a, b in edges:
            self._check_node(a)
            self._check_node(b)
            if b not in self._true_adj[a]:
                raise EdgeAbsent(f"edge ({a}, {b}) not present")
        for a, b in edges:
            self._true_adj[a].discard(b)
            self._true_adj[b].discard(a)
            # edges born in this phase never reached the decremental index
            if self._base.has_edge(a, b):
                self.index.delete(a, b)
        self._after_update()

    # -- queries --------------------------------------------------------------

    def query(self, u: int, w: int):
        """Estimate with dist <= result <= (1+eps)*dist on the true graph."""
        self._check_node(u)
        self._check_node(w)
        if u == w:
            return 0
        best = self.index.query(u, w)
        for x in self.insertion_centers:
            dist = self._center_dist[x]
            cand = dist[u] + dist[w]
            if cand < best:
                best = cand
        return best
