"""Locally persevering emulator maintained under deletions of the base graph.

The emulator H over a decremental graph G holds two kinds of edges:

* hub edges (c, y) of weight dist_G(c, y) for every hub c and every y within
  the weight cap W = ceil(2/eps) + 1, maintained by one depth-W tree per hub;
* unit edges: every G-edge with an endpoint of degree at most ceil(sqrt(n)).

Hubs are sampled independently with probability min(1, a*ln(n)/sqrt(n)).
Each base-graph deletion is turned into an ordered batch of update events
(all insertions first, then weight increases and deletions); a pair present
in both kinds is reported at the collapsed minimum weight, which is safe
because both kinds can only coexist at weight 1.

The emulator owns H as one ``WeightedAdjacency`` (``h``). ``on_delete``
applies each batch to it once (``WeightedAdjacency.apply`` checks the whole
batch before it changes H) and returns the batch with each event's old
weight; the monotone trees built on ``h`` read H and repair themselves once
per batch.
"""

from __future__ import annotations

import math
import random

from .errors import InvalidEpsilon
from .es_tree import EsTree
from .graph_core import (
    DELETE,
    INCREASE,
    INF,
    INSERT,
    DecrementalGraph,
    UpdateEvent,
    WeightedAdjacency,
    edge_key,
)


class LocallyPerseveringEmulator:
    def __init__(self, g: DecrementalGraph, eps: float, seed=None, hubs=None,
                 sampling_constant: float = 3.0):
        """Build H_0 over the current version of ``g``.

        The emulator takes over deletions of ``g``: call :meth:`on_delete`
        instead of ``g.delete_edge``. ``hubs`` injects the hub set explicitly
        (tests use this for determinism); otherwise each node is sampled with
        probability min(1, a*ln(n)/sqrt(n)).
        """
        if not 0 < eps <= 1:
            raise InvalidEpsilon(f"eps must be in (0, 1], got {eps}")
        self.g = g
        self.eps = eps
        self.tau = math.ceil(2 / eps)
        self.weight_cap = self.tau + 1
        self.degree_threshold = math.ceil(math.sqrt(g.n)) if g.n else 0
        self.sampling_constant = sampling_constant
        if hubs is None:
            rng = random.Random(seed)
            p = min(1.0, sampling_constant * math.log(g.n) / math.sqrt(g.n)) if g.n > 1 else 1.0
            hubs = [x for x in range(g.n) if rng.random() < p]
        self.hubs = sorted(set(hubs))
        self._hub_set = set(self.hubs)

        self._trees = {c: EsTree(g, c, self.weight_cap) for c in self.hubs}
        self._unit: set[tuple[int, int]] = set()
        self._hub_weight: dict[tuple[int, int], int] = {}
        s = self.degree_threshold
        for u in range(g.n):
            if g.degree(u) <= s:
                for v in g.neighbors(u):
                    self._unit.add(edge_key(u, v))
        for c in self.hubs:
            level = self._trees[c].level
            for y in range(g.n):
                if y != c and level[y] is not INF:
                    self._hub_weight.setdefault(edge_key(c, y), int(level[y]))

        self.h = WeightedAdjacency(g.n, self.snapshot())
        self._pairs_ever: set[tuple[int, int]] = set(self._unit) | set(self._hub_weight)
        self.updates_total = 0
        # the side the last deletion split off G (DecrementalGraph.split_side);
        # H's components refine G's, so the monotone trees on H can drop it
        self.last_cut: set[int] | None = None

    # -- views -------------------------------------------------------------

    def snapshot(self) -> dict[tuple[int, int], int]:
        """Current H as {sorted pair: effective weight}."""
        out = dict(self._hub_weight)
        for pair in self._unit:
            out[pair] = 1
        return out

    def weight(self, u: int, v: int):
        pair = edge_key(u, v)
        if pair in self._unit:
            return 1
        return self._hub_weight.get(pair)

    def stats(self) -> tuple[int, int]:
        """(number of edges ever contained in H, total number of updates)."""
        return len(self._pairs_ever), self.updates_total

    @property
    def edges_ever(self) -> int:
        return len(self._pairs_ever)

    # -- updates -------------------------------------------------------------

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

        pair_uv = edge_key(u, v)
        was_unit = pair_uv in self._unit
        self._unit.discard(pair_uv)

        inserts: list[UpdateEvent] = []
        for w, deg_before in ((u, deg_u), (v, deg_v)):
            if deg_before == s + 1:  # degree just dropped to the threshold
                for z in sorted(g.neighbors(w)):
                    pair = edge_key(w, z)
                    if pair in self._unit:
                        continue
                    self._unit.add(pair)
                    if pair in self._hub_weight:
                        continue  # hub edge at weight 1 already; no effective change
                    self._pairs_ever.add(pair)
                    inserts.append(UpdateEvent(INSERT, pair[0], pair[1], 1))

        rest: list[UpdateEvent] = []
        handled_uv = False
        for c in self.hubs:
            tree = self._trees[c]
            level = tree.level
            for y in sorted(tree.after_delete(u, v, cut)):
                new = level[y]
                pair = edge_key(c, y)
                old_w = self._hub_weight.get(pair)
                if old_w is None:
                    continue  # other-hub duplicate already processed
                if new is INF:  # past the tree's depth, the weight cap
                    del self._hub_weight[pair]
                    if pair in self._unit:
                        continue  # still a G-edge at weight 1; cannot happen with dist > 1
                    rest.append(UpdateEvent(DELETE, pair[0], pair[1], INF))
                elif new == old_w:
                    continue  # duplicate report from the pair's other hub
                else:
                    self._hub_weight[pair] = new
                    if pair in self._unit:
                        continue
                    rest.append(UpdateEvent(INCREASE, pair[0], pair[1], new))
                if pair == pair_uv:
                    handled_uv = True
        if was_unit and not handled_uv and pair_uv not in self._hub_weight:
            rest.append(UpdateEvent(DELETE, pair_uv[0], pair_uv[1], INF))

        batch = self.h.apply(inserts + rest)
        self.updates_total += len(batch)
        return batch
