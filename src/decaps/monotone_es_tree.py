"""Monotone ES-tree over a weighted graph's event stream: the one tree engine.

The weighted graph H is a list ``adj`` with ``adj[u]`` mapping each neighbor
of u to the edge weight, at least 1. A ``WeightedAdjacency`` owned by the
emulator (or by a test) is one; a ``DecrementalGraph`` keeps its edges in the
same shape, every weight 1, and the exact ``EsTree`` is this tree on it (see
``es_tree``). One adjacency is shared by every tree built on it. A tree keeps
only per-root state (levels and support counters) and never writes H. H
receives each ordered event batch (all insertions first, then weight
increases and deletions) once; every tree then repairs itself once per batch
with :meth:`MonotoneEsTree.apply_batch`. Levels never decrease; insertions
only refresh neighbor bookkeeping. The depth bound is the tree's only depth
input: a level that would pass it is INF. The randomized index picks it
(``randomized_apsp.depth_bound_floor``) so that over the (1, 2, ceil(2/eps))-
locally persevering emulator a level is a (1 + eps, 2)-approximate base-graph
distance up to Q. On an unweighted graph without insertions the levels are
exact distances up to the bound: the Even-Shiloach tree (JACM 1981).

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
after it: a node rises by one unit only while no neighbour supports it,
which puts F(L, H') above its level (levels and weights are integers), so
no level passes F(L, H'), and the repair stops at a fixpoint.
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

``level_increases`` counts level units: a rise from l to l' adds l' - l,
and a node that leaves the tree at level l adds bound + 1 - l, whether it
climbs there or drops with its side. The total depends only on the levels
before and after, so per-batch and per-event repair and the cut and
unit-raise paths report the same figure. ``ops`` counts neighbour checks; a
drop costs none.

Every weight is an integer of at least 1 (``WeightedAdjacency`` rejects
others), and so is the depth bound. Levels start from a bucket (Dial)
search over those weights, which on unit weights is a BFS and counts every
node's supports in the same pass: c(u) = |{v : level(v) + w(u, v) <=
level(u)}|. An exact tree may instead be set from its root's row of a BFS
from many roots at once (``EsTree.from_rows``): on unit weights c(u)
counts the neighbours one level lower, so the row gives the same levels
and counts. An exact tree kept to depth d deepens by continuing the search
from its nodes at level d (``EsTree.set_depth``): with unit weights only,
a node past d leans only on nodes at d or beyond, so the levels up to d,
already exact, stay. The repair raises a node without support by one unit
at a time. ``parent`` scans the node's adjacency, O(deg).
"""

from __future__ import annotations

from collections import Counter, deque

from .errors import InvalidParameters, NodeOutOfRange
from .graph_core import INF, WeightedAdjacency, cut_off


class MonotoneEsTree:
    def __init__(self, h: WeightedAdjacency, root: int, bound: int):
        """Initialize on the current state of the shared graph ``h``.

        ``bound`` is the depth the tree is kept to: a node whose level would
        pass it has level INF. ``level`` is updated in place, so a reader may
        hold on to the list.
        """
        self._setup(h.adj, root, bound)

    def _setup(self, adj: list[dict[int, int]], root: int, bound: int,
               state=None) -> None:
        """Check the parameters and set the initial levels: from ``state``,
        the levels and counts ``EsTree.from_rows`` read off the root's row,
        when given, else by the bucket search."""
        n = len(adj)
        if not 0 <= root < n:
            raise NodeOutOfRange(f"root {root} not in [0, {n})")
        self.n = n
        self.root = root
        self._set_bound(bound)
        self.level_increases = 0
        self.ops = 0
        self._adj = adj  # shared with every tree on the graph; read only
        self.level, self._count = self._search() if state is None else state

    # -- initialization ----------------------------------------------------

    def _set_bound(self, bound) -> None:
        """Keep the tree to ``bound``; the repair drops a node at it."""
        if not isinstance(bound, int) or bound < 1:
            raise InvalidParameters(f"need an integer depth bound of at least 1, got {bound!r}")
        self.bound = bound

    def _search(self, d: int = 0) -> tuple[list, list]:
        """The levels and support counts of a bucket search to the depth
        bound, which counts supports on the way: from the root, or from the
        nodes at level ``d`` > 0 of an exact tree kept to depth ``d``.

        Buckets are settled in increasing level, and every weight is at
        least 1, so a node's supports are all settled, and counted, before
        its own bucket; a lower level found later resets its count.
        """
        adj = self._adj
        bound = self.bound
        if d:
            level, count = self.level, self._count
            start = [y for y, ly in enumerate(level) if ly == d]
        else:
            level, count, start = [INF] * self.n, [0] * self.n, [self.root]
            level[self.root] = 0
        buckets = [None] * d + [start]  # every level below d is settled
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
        return level, count

    # -- queries -------------------------------------------------------------

    def level_query(self, x: int):
        """Current level of x: the distance estimate toward the root."""
        if not 0 <= x < self.n:
            raise NodeOutOfRange(f"node {x} not in [0, {self.n})")
        return self.level[x]

    def levels(self) -> list:
        return list(self.level)

    def stats(self) -> Counter:
        """The work counters, ``level_increases`` and ``ops``."""
        return Counter(level_increases=self.level_increases, ops=self.ops)

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
        before the batch, every event first updates the support counters.
        Then the side of the cut without the root drops in one pass, and one
        repair pass starts from the endpoints that lost their last support.
        A tree where no endpoint lost it returns before the repair loop.
        """
        level = self.level
        count = self._count
        seeds = []
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
        # after the event pass, which read the levels from before the batch
        raised = self._drop_side(cut) if cut is not None else set()
        if seeds:
            self._raise_levels(seeds, raised)
        return raised

    def _drop_side(self, cut) -> set[int]:
        """Set every finite level on the root-less side of a split to INF
        and its count to 0, as in a tree built after the split.

        Counted in units, as a rise to bound + 1; costs no op.
        """
        level, count = self.level, self._count
        gone = cut_off(level, self.root, cut)
        top = self.bound + 1
        for y in gone:
            self.level_increases += top - level[y]
            level[y] = INF
            count[y] = 0
        return set(gone)

    # -- level maintenance -----------------------------------------------------

    def _raise_levels(self, seeds, raised: set[int]) -> None:
        """Raise every node without support by one unit until all have one.

        Starts from the seeds, skips those the drop set to INF, and adds
        every node whose level rose to ``raised``.
        """
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
