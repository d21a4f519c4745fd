"""Monotone ES-tree over a weighted graph's event stream: the one tree engine.

The weighted graph H is a list ``adj`` with ``adj[u]`` mapping each neighbor
of u to the edge weight, at least 1. A ``WeightedAdjacency`` owned by the
emulator (or by a test) is one; a ``DecrementalGraph`` keeps its edges in the
same shape, every weight 1, and the exact ``EsTree`` is this tree on it (see
``es_tree``). One adjacency is shared by every tree built on it. A tree keeps
only per-root state (levels, and support counters or heaps) and never writes
H. H receives each ordered event batch (all insertions first, then weight
increases and deletions) once; every tree then repairs itself once per batch
with :meth:`MonotoneEsTree.apply_batch`. Levels never decrease; insertions
only refresh neighbor bookkeeping. The tree is maintained to depth
(alpha + beta/tau) * Q + beta, so with the (1, 2, ceil(2/eps))-locally
persevering emulator its level is a (1 + eps, 2)-approximate distance
estimate for the base graph, up to Q. With alpha 1, beta 0, tau 1 on an
unweighted graph without insertions the levels are exact distances up to Q:
the classic Even-Shiloach tree (JACM 1981).

``apply_batch`` returns the nodes whose level rose in the batch. One tree
serves every reader whose depth bound b is at or below its own: the reader
cuts levels off, l if l <= b else INF, which gives the levels of a tree kept
to depth b (the truncation argument is in ``RandomCenterCover``). Levels
never fall, so a node leaves a reader's range [0, b] exactly in the batch
that raises it past b, and the reader finds it among the returned nodes.

Repairing once per batch gives the levels that repairing after every event
gives. Let T cut a level off to INF past the depth bound. For levels L and a
graph H, call L'' >= L closed if L''(y) >= T(max(L(y), min_v L''(v) + w(y, v)))
for every y other than the root (which stays at 0), and let F(L, H) be the
least closed L'': the least fixpoint of that equation at or above L. The
repair computes F(L, H') for the levels L before the batch and the graph H'
after it, on both backends, because a level is only ever raised to a support
value that is at or below F(L, H'), and the repair stops at a fixpoint.
Insertions come first and only lower the minimum, so they leave L closed and
move no level; after them every event raises a weight (a deletion raises it
to INF). For H_1 <= H_2 in every weight and L_1 = F(L, H_1):

* F(L, H_2) is closed for H_1 (a smaller weight only lowers the minimum), so
  it is at or above L_1; being a fixpoint at or above L_1, it is closed for
  (L_1, H_2), hence at or above F(L_1, H_2);
* F(L_1, H_2) is at or above L_1 >= L and closed for (L, H_2), hence at or
  above F(L, H_2).

So F(L_1, H_2) = F(L, H_2), and by induction over the events the per-batch
levels equal the per-event ones.

A base-graph deletion that splits a component of G is handled in one step:
``apply_batch`` takes the side the deletion cut off G
(``DecrementalGraph.split_side``) and sets every finite level on the side
without the root to INF in one pass. H's components refine G's: a hub edge
joins nodes at G-distance at most the weight cap, and a unit edge is a G
edge (for an exact tree H is G), so after the batch no edge of H' joins the
two sides. Let P be the side without the root. Every closed L'' is INF on P:
if some node of P had a finite value, the node y of P with the least one has
all its neighbours in P, at values at least L''(y), and every weight is at
least 1, so min_v L''(v) + w(y, v) > L''(y) and L'' is not closed at y. So
F(L, H') is INF on P, and since no edge joins P to the rest, F on the rest
does not depend on P. The event pass runs first, with the levels from before
the batch: it takes from the counters of nodes on the root's side the
support of edges that crossed the cut, which the batch deletes. Then P
drops, and the repair pass runs on the rest. Isolating a node and cutting
the root's last edge are the cases of a one-node side. Without a side (no
split, or both sides past the search's cap) the cut-off nodes rise one unit
at a time until they pass the depth bound.

``level_increases`` counts level units on both backends: a rise from l to l'
adds l' - l, and a node that leaves the tree at level l adds bound + 1 - l,
whether it climbs there or drops with its side. The total depends only on
the levels before and after, so per-batch and per-event repair, both
backends and the cut and unit-raise paths report the same figure. ``ops``
counts neighbour checks (counter backend) or heap operations (heap
backend); a drop costs none.

Levels start from a bucket (Dial) search over the integer weights, which on
unit weights is a BFS; the counter backend counts every node's supports in
the same pass. Two backends:

* ``heap``: lazy per-node heaps, levels jump straight to the new support
  value (ties broken by (key, node id));
* ``counter``: per-node support counters c(u) = |{v : level(v) + w(u, v) <=
  level(u)}| with one-unit level increases.

Both backends produce identical levels after every batch; ``counter`` is
the default. ``parent`` scans the node's adjacency, O(deg).
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush, heapify

from .errors import InvalidParameters, NodeOutOfRange
from .graph_core import DELETE, INF, WeightedAdjacency, cut_off

HEAP = "heap"
COUNTER = "counter"


def depth_bound_floor(Q: int, alpha: int, beta: int, tau: int) -> int:
    """floor((alpha + beta/tau) * Q + beta), in exact integer arithmetic."""
    return ((alpha * tau + beta) * Q + beta * tau) // tau


class MonotoneEsTree:
    def __init__(self, h: WeightedAdjacency, root: int, Q: int, alpha: int = 1,
                 beta: int = 2, tau: int = 1, backend: str = COUNTER):
        """Initialize on the current state of the shared graph ``h``.

        ``Q`` is the distance range of the estimates; the tree itself is kept
        to depth (alpha + beta/tau) * Q + beta. ``level`` is updated in place,
        so a reader may hold on to the list.
        """
        self._setup(h.adj, root, Q, alpha, beta, tau, backend)

    def _setup(self, adj: list[dict[int, int]], root: int, Q: int, alpha: int,
               beta: int, tau: int, backend: str) -> None:
        n = len(adj)
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
        self.level_increases = 0
        self.ops = 0
        self._adj = adj  # shared with every tree on the graph; read only
        self._init_levels()
        if backend == HEAP:
            self._count = None
            self._init_heaps()

    # -- initialization ----------------------------------------------------

    def _init_levels(self) -> None:
        """Bucket search to the depth bound; counts supports on the way.

        Buckets are settled in increasing level, and every weight is at
        least 1, so a node's supports are all settled, and counted, before
        its own bucket; a lower level found later resets its count.
        """
        adj = self._adj
        bound = self.bound
        level = [INF] * self.n
        count = [0] * self.n
        level[self.root] = 0
        buckets = [[self.root]]
        d = 0
        while d < len(buckets):
            for y in buckets[d]:
                if level[y] != d:
                    continue  # settled lower already
                for z, w in adj[y].items():
                    nd = d + w
                    lz = level[z]
                    if nd == lz:
                        count[z] += 1
                    elif nd < lz and nd <= bound:
                        level[z] = nd
                        count[z] = 1
                        while len(buckets) <= nd:
                            buckets.append([])
                        buckets[nd].append(z)
            d += 1
        self.level = level
        self._count = count

    def _init_heaps(self) -> None:
        level = self.level
        self._nheap: list[list] = [[] for _ in range(self.n)]
        for u in range(self.n):
            entries = [(level[v] + w, v) for v, w in self._adj[u].items()
                       if level[v] is not INF]
            heapify(entries)
            self.ops += len(entries)
            self._nheap[u] = entries

    # -- queries -------------------------------------------------------------

    def level_query(self, x: int):
        """Current level of x: the distance estimate toward the root."""
        if not 0 <= x < self.n:
            raise NodeOutOfRange(f"node {x} not in [0, {self.n})")
        return self.level[x]

    def levels(self) -> list:
        return list(self.level)

    def parent(self, x: int):
        """A neighbour v of x with level(v) + w(x, v) <= level(x), or None
        (root, dropped); scans x's adjacency."""
        if not 0 <= x < self.n:
            raise NodeOutOfRange(f"node {x} not in [0, {self.n})")
        level = self.level
        lx = level[x]
        if x == self.root or lx is INF:
            return None
        for v, w in self._adj[x].items():
            if level[v] + w <= lx:  # never for an INF level
                return v
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

    def apply_batch(self, batch, cut=None) -> set[int]:
        """Repair after ``batch``; returns the nodes whose level rose in it.

        ``batch`` is the list that ``WeightedAdjacency.apply`` returned: it is
        already applied to H and each event carries its old weight. ``cut``
        is the side that the base-graph deletion behind the batch split off
        (``DecrementalGraph.split_side``), or None. With the levels from
        before the batch, every event first updates the support counters
        (counter backend) or pushes its new heap keys (heap backend). Then
        the side of the cut without the root drops in one pass, and one
        repair pass starts from the endpoints that lost a support. A tree
        where no endpoint lost one returns before the repair loop.
        """
        level = self.level
        seeds = []
        if self.backend == COUNTER:
            count = self._count
            for _, u, v, w, old in batch:
                lu, lv = level[u], level[v]
                if lu is INF or lv is INF or lu == lv:
                    continue
                if lu < lv:
                    u, lu, lv = v, lv, lu
                # weights are at least 1, so only the higher endpoint u can
                # lean on v: iff lv + weight <= lu (never when w is INF)
                held = old is not None and lv + old <= lu
                if held == (lv + w <= lu):
                    continue
                if held:
                    count[u] -= 1
                    if count[u] == 0:
                        seeds.append(u)
                else:
                    count[u] += 1
        else:
            for kind, u, v, w, old in batch:
                lu, lv = level[u], level[v]
                if kind != DELETE:
                    if lv is not INF:
                        heappush(self._nheap[u], (lv + w, v))
                        self.ops += 1
                    if lu is not INF:
                        heappush(self._nheap[v], (lu + w, u))
                        self.ops += 1
                if old is not None:
                    for a, la, lb in ((u, lu, lv), (v, lv, lu)):
                        if la is not INF and lb + old <= la:
                            seeds.append(a)
        # after the event pass, which read the levels from before the batch
        raised = self._drop_side(cut) if cut is not None else set()
        if seeds:
            if self.backend == COUNTER:
                self._update_levels_counter(seeds, raised)
            else:
                self._update_levels_heap(seeds, raised)
        return raised

    # the same function under a second name: subclasses repair through it,
    # so wrapping ``apply_batch`` on this class (as perfbench's tracer does)
    # leaves their calls out
    _apply = apply_batch

    def _drop_side(self, cut) -> set[int]:
        """Set every finite level on the root-less side of a split to INF.

        Counted in units, as a rise to bound + 1; costs no op.
        """
        level = self.level
        gone = cut_off(level, self.root, cut)
        top = self.bound + 1
        for y in gone:
            self.level_increases += top - level[y]
            level[y] = INF
        return set(gone)

    # -- level maintenance -----------------------------------------------------
    #
    # Both loops start from the seeds, skip those the drop set to INF, and
    # add every node whose level rose to ``raised``.

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

    def _update_levels_heap(self, seeds, raised: set[int]) -> None:
        level = self.level
        bound = self.bound
        root = self.root
        queue = []
        for y in seeds:
            if y != root and level[y] is not INF:  # a dropped seed needs no repair
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
            # counted in units, a drop as a rise to bound + 1, as the counter
            # backend counts it: the total then does not depend on the path
            self.level_increases += min(new, bound + 1) - ly
            if new > bound:
                new = INF
            level[y] = new
            raised.add(y)
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

    def _update_levels_counter(self, seeds, raised: set[int]) -> None:
        level = self.level
        count = self._count
        adj = self._adj
        bound = self.bound
        ops = 0
        # the root never lands in the queue: it leans on no node, and every
        # node that leans on another sits at a level of at least 1
        queue = deque(seeds)
        while queue:
            y = queue.popleft()
            ly = level[y]
            if ly is INF or count[y] > 0:
                continue
            # unsupported: raise the level by exactly one unit
            self.level_increases += 1
            raised.add(y)
            if ly == bound:
                # y drops out; at the bound it held up no finite node
                level[y] = INF
                continue
            new = level[y] = ly + 1
            support = 0
            for x, w in adj[y].items():
                lx = level[x]
                if lx is INF:
                    continue
                ops += 1
                if lx - w == ly:
                    # y held x up (ly + w <= lx) and no longer does (new + w > lx):
                    # with integer levels and weights, that is lx == ly + w
                    count[x] -= 1
                    if count[x] == 0:
                        queue.append(x)
                elif lx + w <= new:
                    support += 1
            count[y] = support
            if support == 0:
                queue.append(y)
        self.ops += ops
