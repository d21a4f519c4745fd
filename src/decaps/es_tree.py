"""Classic Even-Shiloach tree: exact decremental single-source distances up to
a depth bound, with deletion handled as weight-increase-to-infinity and
reporting of nodes that drop past a threshold.

Two interchangeable backends are provided:

* ``heap``: per-node lazy heaps keyed by level(v) + w(u, v), ties broken by
  (key, node id). Stale entries are tolerated and skipped on pop, with
  compaction once they dominate. Works on weighted and unweighted graphs and
  carries the heap-operation instrumentation used by the work-accounting
  checks.
* ``counter``: per-node support counters over a level-ordered queue; only for
  unweighted graphs, where it is considerably faster. Both backends produce
  identical levels after every event.

A deletion that splits a component gets the Even-Shiloach connectivity
step: ``after_delete`` accepts the side the deletion cut off
(``DecrementalGraph.split_side``, one bounded search shared by every tree
on the graph). A tree rooted outside that side sets every finite level in
it to INF in one pass; a tree rooted inside it does the same to every
finite node outside it. This is exact: after the split no path joins the
two sides, so the side without the root has distance INF from it. Nothing
else moves, so the drop is the whole repair: (u, v) was the only edge
between the sides, a shortest path never enters a side it must leave by
the edge it came in, and the endpoint on the root's side sat a level above
the other, so it did not count that one as a support. Isolating a node and
cutting the root's last edge are the cases of a one-node side. Without a
side (no split, or both sides past the search's cap) the cut-off nodes rise
one unit at a time until they pass the depth bound.

``level_increases`` counts level units on both backends: a rise from l to l'
adds l' - l, and a node that leaves the tree at level l adds depth + 1 - l,
whether it climbs there or drops in one step. The total therefore depends
only on the levels before and after, not on the path taken. ``messages``
counts neighbour notifications: a node that rises notifies all of its
neighbours, a node that drops with its side notifies none, because every
neighbour of it drops too.

A tree can either share a :class:`~decaps.graph_core.DecrementalGraph` with
other trees (the owner deletes edges once and notifies every tree via
``after_delete``) or own a private weighted adjacency (``from_weighted``),
in which case ``increase_or_delete`` validates and applies the update itself.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, heapify

from .errors import (
    EdgeAbsent,
    InvalidParameters,
    NodeOutOfRange,
    NonIncreasingWeight,
)
from .graph_core import INF, DecrementalGraph, cut_off

HEAP = "heap"
COUNTER = "counter"


class EsTree:
    def __init__(self, graph: DecrementalGraph, root: int, depth,
                 report_threshold=None, backend: str = COUNTER):
        """Build a tree on a shared unweighted graph snapshot.

        ``depth`` is the distance range: any node farther than ``depth`` from
        ``root`` has level infinity. ``report_threshold`` (default: depth)
        controls which level crossings the update operations report.
        """
        if not 0 <= root < graph.n:
            raise NodeOutOfRange(f"root {root} not in [0, {graph.n})")
        if depth < 1:
            raise InvalidParameters(f"depth bound must be >= 1, got {depth}")
        if backend not in (HEAP, COUNTER):
            raise InvalidParameters(f"unknown backend {backend!r}")
        self.root = root
        self.depth = depth
        self.report_threshold = depth if report_threshold is None else report_threshold
        self.backend = backend
        self.level_increases = 0
        self.heap_ops = 0
        self.messages = 0
        self._g = graph
        self._adj = graph._adj  # hot-loop alias; weight 1 everywhere
        self._wadj = None  # owned weighted adjacency, heap backend only
        self._n = graph.n
        self._track = None
        self._init_levels()

    @classmethod
    def from_weighted(cls, n: int, weighted_edges, root: int, depth,
                      report_threshold=None) -> "EsTree":
        """Standalone tree over an owned weighted adjacency.

        ``weighted_edges`` is an iterable of (u, v, w) with positive integer
        weights. Uses the heap backend; updates go through
        ``increase_or_delete`` which mutates the owned adjacency.
        """
        self = cls.__new__(cls)
        if not 0 <= root < n:
            raise NodeOutOfRange(f"root {root} not in [0, {n})")
        if depth < 1:
            raise InvalidParameters(f"depth bound must be >= 1, got {depth}")
        self.root = root
        self.depth = depth
        self.report_threshold = depth if report_threshold is None else report_threshold
        self.backend = HEAP
        self.level_increases = 0
        self.heap_ops = 0
        self.messages = 0
        self._g = None
        self._adj = None
        self._n = n
        self._track = None
        wadj: list[dict[int, float]] = [dict() for _ in range(n)]
        for u, v, w in weighted_edges:
            if not (0 <= u < n and 0 <= v < n):
                raise NodeOutOfRange(f"edge ({u}, {v}) out of range")
            if w < 1:
                raise InvalidParameters(f"edge weight must be >= 1, got {w}")
            wadj[u][v] = w
            wadj[v][u] = w
        self._wadj = wadj
        self._init_levels()
        return self

    # -- initialization ------------------------------------------------

    def _init_levels(self) -> None:
        n = self._n
        self.level = [INF] * n
        self.level[self.root] = 0
        if self._wadj is None:
            self._bfs_init()
        else:
            self._dijkstra_init()
        if self.backend == COUNTER:
            self._init_counters()
        else:
            self._init_heaps()

    def _bfs_init(self) -> None:
        level = self.level
        depth = self.depth
        adj = self._adj
        queue = deque((self.root,))
        while queue:
            y = queue.popleft()
            ly = level[y]
            if ly >= depth:
                continue
            for z in adj[y]:
                if level[z] is INF:
                    level[z] = ly + 1
                    queue.append(z)

    def _dijkstra_init(self) -> None:
        level = self.level
        depth = self.depth
        wadj = self._wadj
        heap = [(0, self.root)]
        done = [False] * self._n
        while heap:
            d, y = heappop(heap)
            if done[y] or d > level[y]:
                continue
            done[y] = True
            for z, w in wadj[y].items():
                nd = d + w
                if nd <= depth and nd < level[z]:
                    level[z] = nd
                    heappush(heap, (nd, z))

    def _init_heaps(self) -> None:
        level = self.level
        self._nheap: list[list] = [[] for _ in range(self._n)]
        ops = 0
        for u in range(self._n):
            if level[u] is INF:
                continue
            entries = []
            for v, w in self._iter_neighbors(u):
                if level[v] is not INF:
                    entries.append((level[v] + w, v))
            heapify(entries)
            ops += len(entries)
            self._nheap[u] = entries
        self.heap_ops += ops

    def _init_counters(self) -> None:
        level = self.level
        adj = self._adj
        c = [0] * self._n
        for u in range(self._n):
            lu = level[u]
            if lu is INF or u == self.root:
                continue
            want = lu - 1
            c[u] = sum(1 for v in adj[u] if level[v] == want)
        self._count = c

    def _iter_neighbors(self, u):
        if self._wadj is not None:
            return self._wadj[u].items()
        return ((v, 1) for v in self._adj[u])

    # -- queries ---------------------------------------------------------

    def level_query(self, x: int):
        if not 0 <= x < self._n:
            raise NodeOutOfRange(f"node {x} not in [0, {self._n})")
        return self.level[x]

    def levels(self) -> list:
        return list(self.level)

    # -- updates ---------------------------------------------------------

    def increase_or_delete(self, u: int, v: int, new_weight=INF) -> set[int]:
        """Increase the weight of (u, v) to ``new_weight`` (INF deletes).

        On a shared unweighted graph only deletions are meaningful; the edge
        is removed from the shared graph here. Returns the set of nodes whose
        level crossed the report threshold.
        """
        if self._wadj is not None:
            old = self._wadj[u].get(v)
            if old is None:
                raise EdgeAbsent(f"edge ({u}, {v}) not present")
            if not new_weight > old:
                raise NonIncreasingWeight(
                    f"weight of ({u}, {v}) must increase past {old}, got {new_weight}")
            if new_weight == INF:
                del self._wadj[u][v]
                del self._wadj[v][u]
            else:
                self._wadj[u][v] = new_weight
                self._wadj[v][u] = new_weight
            return self._repair_after_update(u, v, new_weight)
        if new_weight != INF:
            raise NonIncreasingWeight("shared unweighted graphs only support deletion")
        self._g.delete_edge(u, v)  # raises EdgeAbsent when missing
        return self.after_delete(u, v)

    def after_delete(self, u: int, v: int, cut=None) -> set[int]:
        """Repair levels after (u, v) was removed from the shared graph.

        ``cut`` is the side this deletion split off the graph
        (``DecrementalGraph.split_side``), or None; with it, dropping the side
        without the root in one pass is the whole repair (see the module
        docstring).
        """
        if cut is not None:
            return self._drop_side(cut)
        if self.backend == COUNTER:
            return self._repair_counter(u, v)
        return self._repair_after_update(u, v, INF)

    def after_delete_with_changes(self, u: int, v: int, cut=None):
        """Like after_delete, also returning coalesced (node, old, new) levels."""
        self._track = {}
        dropped = self.after_delete(u, v, cut)
        changes = [(y, old, self.level[y]) for y, old in sorted(self._track.items())]
        self._track = None
        return dropped, changes

    def _drop_side(self, cut) -> set[int]:
        """Set every finite level on the root-less side of a split to INF.

        Counted in units, as a rise to depth + 1; notifies no neighbour,
        since every neighbour of a dropped node drops too. Returns the
        dropped nodes that crossed the report threshold.
        """
        level = self.level
        gone = cut_off(level, self.root, cut)
        track = self._track
        rt = self.report_threshold
        top = self.depth + 1
        reported = set()
        for y in gone:
            ly = level[y]
            self.level_increases += top - ly
            if track is not None and y not in track:
                track[y] = ly
            if ly <= rt:
                reported.add(y)
            level[y] = INF
        return reported

    # -- heap backend ------------------------------------------------------

    def _repair_after_update(self, u: int, v: int, new_weight) -> set[int]:
        level = self.level
        if new_weight != INF and self._wadj is not None:
            # fresh keys for the increased edge; stale ones get skipped
            if level[v] is not INF:
                heappush(self._nheap[u], (level[v] + new_weight, v))
                self.heap_ops += 1
            if level[u] is not INF:
                heappush(self._nheap[v], (level[u] + new_weight, u))
                self.heap_ops += 1
        queue = []
        if level[u] is not INF and u != self.root:
            heappush(queue, (level[u], u))
        if level[v] is not INF and v != self.root:
            heappush(queue, (level[v], v))
        self.heap_ops += len(queue)
        return self._update_levels_heap(queue)

    def _edge_weight(self, u: int, v: int):
        if self._wadj is not None:
            return self._wadj[u].get(v)
        return 1 if v in self._adj[u] else None

    def _best_support(self, y: int):
        """Smallest valid level(v) + w(y, v); lazily discards stale entries."""
        heap = self._nheap[y]
        level = self.level
        while heap:
            key, v = heap[0]
            w = self._edge_weight(y, v)
            if w is not None and level[v] is not INF and level[v] + w == key:
                return key
            heappop(heap)
            self.heap_ops += 1
        return INF

    def _update_levels_heap(self, queue) -> set[int]:
        level = self.level
        depth = self.depth
        rt = self.report_threshold
        dropped: set[int] = set()
        root = self.root
        while queue:
            ly, y = heappop(queue)
            self.heap_ops += 1
            if ly != level[y] or y == root:
                continue
            new = self._best_support(y)
            if new <= ly:
                continue
            # counted in units, a drop as a rise to depth + 1, as the
            # counter backend counts it
            self.level_increases += min(new, depth + 1) - ly
            if new > depth:
                new = INF
            level[y] = new
            self.messages += len(self._wadj[y]) if self._wadj is not None else len(self._adj[y])
            if self._track is not None and y not in self._track:
                self._track[y] = ly
            if ly <= rt and (new is INF or new > rt):
                dropped.add(y)
            self._maybe_compact(y)
            for x, w in self._iter_neighbors(y):
                lx = level[x]
                if lx is INF:
                    continue
                if new is not INF:
                    heappush(self._nheap[x], (new + w, y))
                    self.heap_ops += 1
                if x != root:
                    heappush(queue, (lx, x))
                    self.heap_ops += 1
        return dropped

    def _maybe_compact(self, y: int) -> None:
        heap = self._nheap[y]
        deg = len(self._wadj[y]) if self._wadj is not None else len(self._adj[y])
        if len(heap) <= 2 * max(8, deg):
            return
        level = self.level
        entries = []
        for v, w in self._iter_neighbors(y):
            if level[v] is not INF:
                entries.append((level[v] + w, v))
        heapify(entries)
        self.heap_ops += len(entries)
        self._nheap[y] = entries

    # -- counter backend ---------------------------------------------------

    def _repair_counter(self, u: int, v: int) -> set[int]:
        level = self.level
        count = self._count
        queue = []
        lu, lv = level[u], level[v]
        if lu is not INF and lv is not INF:
            if lv == lu - 1 and u != self.root:
                count[u] -= 1
                if count[u] == 0:
                    heappush(queue, (lu, u))
            if lu == lv - 1 and v != self.root:
                count[v] -= 1
                if count[v] == 0:
                    heappush(queue, (lv, v))
        return self._update_levels_counter(queue)

    def _update_levels_counter(self, queue) -> set[int]:
        level = self.level
        count = self._count
        adj = self._adj
        depth = self.depth
        rt = self.report_threshold
        root = self.root
        dropped: set[int] = set()
        while queue:
            ly, y = heappop(queue)
            if ly != level[y] or count[y] > 0:
                continue
            new = ly + 1
            dead = new > depth
            level[y] = INF if dead else new
            self.level_increases += 1
            self.messages += len(adj[y])
            if self._track is not None and y not in self._track:
                self._track[y] = ly
            if ly <= rt and (dead or new > rt):
                dropped.add(y)
            support = 0
            for x in adj[y]:
                lx = level[x]
                if lx is INF:
                    continue
                if lx == ly + 1:
                    if x != root:
                        count[x] -= 1
                        if count[x] == 0:
                            heappush(queue, (lx, x))
                elif not dead and lx == new + 1:
                    count[x] += 1
                if not dead and lx == ly:
                    support += 1
            if not dead:
                count[y] = support
                if support == 0:
                    heappush(queue, (new, y))
        return dropped
