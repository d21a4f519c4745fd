"""Monotone ES-tree over an emulator's event stream.

Consumes ordered batches of update events (all insertions first, then weight
increases and deletions) and maintains per-node levels that never decrease.
Insertions only refresh neighbor bookkeeping; they never lower a level. The
tree is maintained to depth (alpha + beta/tau) * Q + beta, so with the
(1, 2, ceil(2/eps))-locally persevering emulator its level is a
(1 + eps, 2)-approximate distance estimate for the base graph, up to Q.

Two backends:

* ``heap``: lazy per-node heaps, levels jump straight to the new support
  value (ties broken by (key, node id));
* ``counter``: per-node support counters c(u) = |{v : level(v) + w(u, v) <=
  level(u)}| with one-unit level increases, plus per-node candidate-parent
  lists L(u) (revalidated on pop, deduplicated through a membership set) so
  parents stay retrievable in O(1) amortized.

Both backends produce identical levels after every event; ``counter`` is
the default.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, heapify

from .errors import (
    InvalidParameters,
    NodeOutOfRange,
    NonIncreasingWeight,
    OrderViolation,
    UnknownEdge,
)
from .graph_core import DELETE, INCREASE, INF, INSERT

HEAP = "heap"
COUNTER = "counter"


def depth_bound_floor(Q: int, alpha: int, beta: int, tau: int) -> int:
    """floor((alpha + beta/tau) * Q + beta), in exact integer arithmetic."""
    return ((alpha * tau + beta) * Q + beta * tau) // tau


class MonotoneEsTree:
    def __init__(self, n: int, h0: dict, root: int, Q: int, alpha: int = 1,
                 beta: int = 2, tau: int = 1, backend: str = COUNTER,
                 report_threshold=None):
        """Initialize on the emulator snapshot ``h0`` ({(u, v): weight}).

        ``Q`` is the distance range of the estimates; the tree itself is kept
        to depth (alpha + beta/tau) * Q + beta. ``report_threshold`` selects
        the level whose crossing apply_batch reports (default: the depth
        bound, i.e. nodes leaving the tree).
        """
        if not 0 <= root < n:
            raise NodeOutOfRange(f"root {root} not in [0, {n})")
        if Q < 1 or alpha < 1 or beta < 0 or tau < 1:
            raise InvalidParameters(
                f"need Q >= 1, alpha >= 1, beta >= 0, tau >= 1; "
                f"got Q={Q}, alpha={alpha}, beta={beta}, tau={tau}")
        if backend not in (HEAP, COUNTER):
            raise InvalidParameters(f"unknown backend {backend!r}")
        self.n = n
        self.root = root
        self.Q = Q
        self.alpha = alpha
        self.beta = beta
        self.tau = tau
        self.backend = backend
        self.bound = depth_bound_floor(Q, alpha, beta, tau)
        self.report_threshold = self.bound if report_threshold is None else report_threshold
        self.level_increases = 0
        self.ops = 0

        self._adj: list[dict[int, int]] = [dict() for _ in range(n)]
        for (u, v), w in h0.items():
            self._adj[u][v] = w
            self._adj[v][u] = w
        self._init_levels()
        if backend == HEAP:
            self._init_heaps()
        else:
            self._init_counters()

    # -- initialization ----------------------------------------------------

    def _init_levels(self) -> None:
        level = [INF] * self.n
        level[self.root] = 0
        bound = self.bound
        heap = [(0, self.root)]
        while heap:
            d, y = heappop(heap)
            if d > level[y]:
                continue
            for z, w in self._adj[y].items():
                nd = d + w
                if nd <= bound and nd < level[z]:
                    level[z] = nd
                    heappush(heap, (nd, z))
        self.level = level

    def _init_heaps(self) -> None:
        level = self.level
        self._nheap: list[list] = [[] for _ in range(self.n)]
        for u in range(self.n):
            entries = [(level[v] + w, v) for v, w in self._adj[u].items()
                       if level[v] is not INF]
            heapify(entries)
            self.ops += len(entries)
            self._nheap[u] = entries

    def _init_counters(self) -> None:
        level = self.level
        self._count = [0] * self.n
        self._parents: list[deque] = [deque() for _ in range(self.n)]
        self._members: list[set] = [set() for _ in range(self.n)]
        for u in range(self.n):
            lu = level[u]
            if lu is INF:
                continue
            c = 0
            for v in sorted(self._adj[u]):
                if level[v] is not INF and level[v] + self._adj[u][v] <= lu:
                    c += 1
                    self._parents[u].append(v)
                    self._members[u].add(v)
            self._count[u] = c

    # -- queries -------------------------------------------------------------

    def level_query(self, x: int):
        """Current level of x: the distance estimate toward the root."""
        if not 0 <= x < self.n:
            raise NodeOutOfRange(f"node {x} not in [0, {self.n})")
        return self.level[x]

    def levels(self) -> list:
        return list(self.level)

    def parent(self, x: int):
        """A current parent candidate of x, or None (root, dropped, orphan)."""
        if not 0 <= x < self.n:
            raise NodeOutOfRange(f"node {x} not in [0, {self.n})")
        level = self.level
        if x == self.root or level[x] is INF:
            return None
        if self.backend == COUNTER:
            lst = self._parents[x]
            while lst:
                v = lst[0]
                w = self._adj[x].get(v)
                if w is not None and level[v] is not INF and level[v] + w <= level[x]:
                    return v
                lst.popleft()
                self._members[x].discard(v)
            return None
        heap = self._nheap[x]
        while heap:
            key, v = heap[0]
            w = self._adj[x].get(v)
            if w is not None and level[v] is not INF and level[v] + w == key:
                return v if key <= level[x] else None
            heappop(heap)
            self.ops += 1
        return None

    def stretched_edges(self):
        """Directed pairs (u, v) with level(u) > level(v) + w(u, v), level(u) finite."""
        level = self.level
        out = []
        for u in range(self.n):
            lu = level[u]
            if lu is INF:
                continue
            for v, w in self._adj[u].items():
                lv = level[v]
                if lv is not INF and lu > lv + w:
                    out.append((u, v))
        return out

    # -- updates ---------------------------------------------------------------

    def apply_batch(self, events) -> set[int]:
        """Process one ordered event batch; returns report-threshold crossings.

        The event order is checked before any event is applied, so an
        OrderViolation or an unknown event kind leaves the tree unchanged.
        """
        batch = list(events)
        saw_non_insert = False
        for kind, u, v, _ in batch:
            if kind == INSERT:
                if saw_non_insert:
                    raise OrderViolation(
                        f"insert of ({u}, {v}) after a non-insert event in one batch")
            elif kind == INCREASE or kind == DELETE:
                saw_non_insert = True
            else:
                raise UnknownEdge(f"unknown event kind {kind!r}")
        dropped: set[int] = set()
        for kind, u, v, w in batch:
            if kind == INSERT:
                self._apply_insert(u, v, w)
                continue
            if kind == INCREASE:
                self._apply_increase(u, v, w)
            else:
                self._apply_delete(u, v)
            dropped |= self._update_levels(u, v)
        return dropped

    def _apply_insert(self, u: int, v: int, w) -> None:
        if v in self._adj[u]:
            raise UnknownEdge(f"insert of edge ({u}, {v}) which is already present")
        w = int(w)
        self._adj[u][v] = w
        self._adj[v][u] = w
        level = self.level
        if self.backend == HEAP:
            if level[v] is not INF:
                heappush(self._nheap[u], (level[v] + w, v))
                self.ops += 1
            if level[u] is not INF:
                heappush(self._nheap[v], (level[u] + w, u))
                self.ops += 1
            return
        for a, b in ((u, v), (v, u)):
            if level[a] is not INF and level[b] is not INF and level[b] + w <= level[a]:
                self._count[a] += 1
                if b not in self._members[a]:
                    self._members[a].add(b)
                    self._parents[a].append(b)

    def _apply_increase(self, u: int, v: int, w) -> None:
        old = self._adj[u].get(v)
        if old is None:
            raise UnknownEdge(f"weight increase of absent edge ({u}, {v})")
        if not w > old:
            raise NonIncreasingWeight(
                f"weight of ({u}, {v}) must increase past {old}, got {w}")
        w = int(w)
        level = self.level
        if self.backend == COUNTER:
            for a, b in ((u, v), (v, u)):
                la, lb = level[a], level[b]
                if la is not INF and lb is not INF and lb + old <= la < lb + w:
                    self._count[a] -= 1
        self._adj[u][v] = w
        self._adj[v][u] = w
        if self.backend == HEAP:
            if level[v] is not INF:
                heappush(self._nheap[u], (level[v] + w, v))
                self.ops += 1
            if level[u] is not INF:
                heappush(self._nheap[v], (level[u] + w, u))
                self.ops += 1

    def _apply_delete(self, u: int, v: int) -> None:
        w = self._adj[u].get(v)
        if w is None:
            raise UnknownEdge(f"deletion of absent edge ({u}, {v})")
        level = self.level
        if self.backend == COUNTER:
            for a, b in ((u, v), (v, u)):
                la, lb = level[a], level[b]
                if la is not INF and lb is not INF and lb + w <= la:
                    self._count[a] -= 1
        del self._adj[u][v]
        del self._adj[v][u]

    # -- level maintenance -----------------------------------------------------

    def _update_levels(self, u: int, v: int) -> set[int]:
        if self.backend == HEAP:
            return self._update_levels_heap(u, v)
        return self._update_levels_counter(u, v)

    def _best_support(self, y: int):
        heap = self._nheap[y]
        level = self.level
        adj = self._adj[y]
        while heap:
            key, v = heap[0]
            w = adj.get(v)
            if w is not None and level[v] is not INF and level[v] + w == key:
                return key
            heappop(heap)
            self.ops += 1
        return INF

    def _update_levels_heap(self, u: int, v: int) -> set[int]:
        level = self.level
        bound = self.bound
        rt = self.report_threshold
        root = self.root
        dropped: set[int] = set()
        queue = []
        for y in (u, v):
            if level[y] is not INF and y != root:
                heappush(queue, (level[y], y))
                self.ops += 1
        while queue:
            ly, y = heappop(queue)
            self.ops += 1
            if ly != level[y] or y == root:
                continue
            new = self._best_support(y)
            if new <= ly:
                continue
            if new > bound:
                new = INF
            level[y] = new
            self.level_increases += 1
            if ly <= rt and (new is INF or new > rt):
                dropped.add(y)
            if len(self._nheap[y]) > 2 * max(8, len(self._adj[y])):
                entries = [(level[z] + w, z) for z, w in self._adj[y].items()
                           if level[z] is not INF]
                heapify(entries)
                self.ops += len(entries)
                self._nheap[y] = entries
            for x, w in self._adj[y].items():
                lx = level[x]
                if lx is INF:
                    continue
                if new is not INF:
                    heappush(self._nheap[x], (new + w, y))
                    self.ops += 1
                if x != root:
                    heappush(queue, (lx, x))
                    self.ops += 1
        return dropped

    def _update_levels_counter(self, u: int, v: int) -> set[int]:
        level = self.level
        count = self._count
        bound = self.bound
        rt = self.report_threshold
        root = self.root
        dropped: set[int] = set()
        queue = deque()
        for y in (u, v):
            if level[y] is not INF and y != root:
                queue.append(y)
        while queue:
            y = queue.popleft()
            ly = level[y]
            if y == root or ly is INF or count[y] > 0:
                continue
            # unsupported: raise the level by exactly one unit
            new = ly + 1
            dead = new > bound
            level[y] = INF if dead else new
            self.level_increases += 1
            if ly <= rt and (dead or new > rt):
                dropped.add(y)
            support = 0
            adj_y = self._adj[y]
            for x, w in adj_y.items():
                lx = level[x]
                if lx is INF:
                    continue
                self.ops += 1
                # y's support of x: held iff ly + w <= lx; after the rise it
                # holds iff new + w <= lx (never, when y dropped out)
                if ly + w <= lx and (dead or new + w > lx):
                    count[x] -= 1
                    if count[x] == 0 and x != root:
                        queue.append(x)
                if not dead and lx + w <= new:
                    support += 1
                    if lx + w == new and x not in self._members[y]:
                        self._members[y].add(x)
                        self._parents[y].append(x)
            if not dead:
                count[y] = support
                if support == 0:
                    queue.append(y)
        return dropped
