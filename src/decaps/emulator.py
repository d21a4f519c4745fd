"""Locally persevering emulator maintained under deletions of the base graph.

The emulator H over a decremental graph G holds two kinds of edges:

* hub edges (c, y) of weight dist_G(c, y) for every hub c and every y within
  the weight cap W = ceil(2/eps) + 1, maintained by one depth-W tree per hub;
* unit edges: every G-edge with an endpoint of degree at most ceil(sqrt(n)).

The hubs come from the owner (``ApspIndexRandom`` samples them). Their
trees, a list aligned with ``hubs``, start from one all-roots BFS
(``graph_core.RootDistances``) and repair through
``es_tree.after_delete_all``. Each base-graph deletion is turned into an
ordered batch of update events (all insertions first, then weight increases
and deletions); a pair present in both kinds is reported at the collapsed
minimum weight, which is safe because both kinds can only coexist at
weight 1.

H is kept once, as one ``WeightedAdjacency`` (``h``). Since degrees only
fall and levels only rise, ``on_delete`` derives each batch from G's degrees
and the hub trees alone, applies it to ``h`` once (``apply`` checks the
whole batch before it changes H) and returns it with each event's old
weight; the monotone trees built on ``h`` read H and repair once per batch.
"""

from __future__ import annotations

import math

from .errors import InvalidEpsilon
from .es_tree import EsTree, after_delete_all
from .graph_core import (
    DELETE,
    INCREASE,
    INF,
    INSERT,
    DecrementalGraph,
    RootDistances,
    UpdateEvent,
    WeightedAdjacency,
    edge_key,
)


class LocallyPerseveringEmulator:
    def __init__(self, g: DecrementalGraph, eps: float, hubs):
        """Build H_0 over the current version of ``g`` with the given hubs.

        The emulator takes over deletions of ``g``: call :meth:`on_delete`
        instead of ``g.delete_edge``.
        """
        if not 0 < eps <= 1:
            raise InvalidEpsilon(f"eps must be in (0, 1], got {eps}")
        self.g = g
        self.eps = eps
        self.tau = math.ceil(2 / eps)
        self.weight_cap = self.tau + 1
        self.degree_threshold = s = math.ceil(math.sqrt(g.n)) if g.n else 0
        self.hubs = sorted(set(hubs))
        self._hub_set = set(self.hubs)
        rows = RootDistances(g, self.hubs)
        self._trees = [tree for block in rows.blocks()
                       for tree in EsTree.from_rows(rows, block, self.weight_cap)]

        unit = set()
        for u in range(g.n):
            if g.degree(u) <= s:
                for v in g.neighbors(u):
                    unit.add(edge_key(u, v))
        h0: dict[tuple[int, int], int] = {}
        for c, tree in zip(self.hubs, self._trees):
            level = tree.level
            for y in range(g.n):
                if y != c and level[y] is not INF:
                    h0.setdefault(edge_key(c, y), int(level[y]))
        for pair in unit:
            h0[pair] = 1
        self.h = WeightedAdjacency(g.n, h0)
        # every INSERT adds a pair that was never in H (see on_delete)
        self.edges_ever = len(h0)
        self.updates_total = 0
        # the side the last deletion split off G (DecrementalGraph.split_side);
        # H's components refine G's, so the monotone trees on H can drop it
        self.last_cut: set[int] | None = None

    def snapshot(self) -> dict[tuple[int, int], int]:
        """Current H as {sorted pair: weight}."""
        return self.h.edges()

    def on_delete(self, u: int, v: int) -> list[UpdateEvent]:
        """Delete (u, v) from G, apply the ordered event batch to H and return it.

        The side the deletion split off G, if the bounded split search found
        one, goes to every hub tree and is kept in ``last_cut`` for the
        monotone trees that repair after the batch.
        """
        g = self.g
        s = self.degree_threshold
        deg_u = g.degree(u)
        deg_v = g.degree(v)
        g.delete_edge(u, v)  # raises EdgeAbsent if missing
        cut = self.last_cut = g.split_side(u, v)
        adj = self.h.adj
        hub_set = self._hub_set

        # w's degree just dropped to s: (w, z) becomes a unit pair iff z's
        # degree is above s, and is new to H iff it is not a hub edge; such
        # a pair was never in H, since it was never a unit or a hub pair
        inserts: list[UpdateEvent] = []
        for w, deg_before in ((u, deg_u), (v, deg_v)):
            if deg_before == s + 1:
                for z in sorted(g.neighbors(w)):
                    if g.degree(z) > s and z not in adj[w]:
                        inserts.append(UpdateEvent(INSERT, *edge_key(w, z), 1))

        # a unit pair is a G-edge at level 1 and never rises; a pair of two
        # hubs rises in both trees alike and is reported from the smaller hub
        rest: list[UpdateEvent] = []
        for i, raised in after_delete_all(self._trees, u, v, cut):
            c, level = self.hubs[i], self._trees[i].level
            for y in sorted(raised):
                if y > c or y not in hub_set:
                    new = level[y]  # INF past the tree's depth, the weight cap
                    kind = DELETE if new is INF else INCREASE
                    rest.append(UpdateEvent(kind, *edge_key(c, y), new))
        # a hub endpoint's tree raises the other end, which reported (u, v)
        if min(deg_u, deg_v) <= s and u not in hub_set and v not in hub_set:
            rest.append(UpdateEvent(DELETE, *edge_key(u, v), INF))

        batch = self.h.apply(inserts + rest)
        self.edges_ever += len(inserts)
        self.updates_total += len(batch)
        return batch
