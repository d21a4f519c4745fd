"""Fully dynamic (1+eps, 0)-approximate APSP via the phase reduction.

Updates are grouped in phases of t operations. Each phase starts by
rebuilding a deterministic decremental index from the current graph; within
the phase, deletions of phase-start edges are forwarded to that index, while
insertions (stars around a center node) live only in the true graph and in
the set I of insertion centers. The exact distances from every node of I on
the true graph are kept up to date, so a query can combine the decremental
estimate with exact two-leg paths through insertion centers:

    answer(u, w) = min(delta1(u, w), min over x in I of d(u, x) + d(x, w))

After an update, a center's distances are searched again only when the
update can change them (``_keeps`` tells exactly). Distances d from x are
the true ones iff d(x) = 0, every edge joins nodes at most 1 apart (or both
at INF) and every other finite node has a neighbour one lower. An insertion
only lowers distances and leaves every node its neighbours, so d stays true
iff every inserted edge joins nodes at most 1 apart or both at INF. A
deletion only raises them and keeps the edge condition, so d stays true iff
every finite node still has a neighbour one lower: only the deeper end of a
deleted edge whose ends sat on adjacent levels may have lost its last one.
"""

from __future__ import annotations

import math
from collections import Counter, deque

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
        self._retired = Counter()  # stats of the indexes earlier phases built
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
            self._retired.update(self.index.stats())
            # free the old phase before building the next
            self.index = None
        self.index = ApspIndexDet(
            DecrementalGraph.from_edge_list(self.n, self._true_edges()), self.eps)
        # insertion center -> its distances in the true graph, None until
        # the first search
        self.insertion_centers: dict[int, list | None] = {}
        self.updates_in_phase = 0

    def _after_update(self, edges, inserted: bool) -> None:
        """Phase bookkeeping after ``edges`` were inserted or deleted."""
        self.updates_in_phase += 1
        if self.updates_in_phase >= self.t:
            self._start_phase()
            return
        centers = self.insertion_centers
        for x, dist in centers.items():
            if dist is None or not self._keeps(dist, edges, inserted):
                centers[x] = self._bfs(x)

    def _keeps(self, dist: list, edges, inserted: bool) -> bool:
        """Whether ``dist``, a center's distances before the update, are
        still its distances in the true graph after it (see the module
        docstring)."""
        if inserted:
            return all(abs(dist[a] - dist[b]) <= 1 or dist[a] is dist[b] is INF
                       for a, b in edges)
        adj = self._true_adj
        for a, b in edges:
            da, db = dist[a], dist[b]
            if da == db:
                continue
            if da < db:
                a, da = b, db
            # a is the deeper end; it keeps its distance with a neighbour
            # one level lower
            if not any(dist[c] == da - 1 for c in adj[a]):
                return False
        return True

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

    def stats(self) -> Counter:
        """The current index's ``stats`` plus those of earlier phases'
        indexes; the searches from insertion centers are not counted."""
        stats = self.index.stats()
        stats.update(self._retired)
        return stats

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
        self.insertion_centers.setdefault(v, None)
        self._after_update(edges, True)

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
            if self.index.g.has_edge(a, b):
                self.index.delete(a, b)
        self._after_update(edges, False)

    # -- queries --------------------------------------------------------------

    def query(self, u: int, w: int):
        """Estimate with dist <= result <= (1+eps)*dist on the true graph.

        The index checks the pair and answers a self-pair 0, which no sum
        through an insertion center undercuts."""
        best = self.index.query(u, w)
        for dist in self.insertion_centers.values():
            cand = dist[u] + dist[w]
            if cand < best:
                best = cand
        return best
