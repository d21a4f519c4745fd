"""Randomized approximate APSP built from monotone ES-trees on a shared
locally persevering emulator.

A random center cover samples centers with probability min(1, a*ln(n)/q) and
keeps one single-source estimator per center over the emulator: a monotone
tree with range Q that answers distance queries and whose threshold reports
(nodes leaving the range-q depth bound) maintain the per-node cover lists
S_x. The APSP index layers ceil(log n) covers (layer p serves distances
2^p..2^{p+1}) above one shared emulator and adds a small-distance patch: a
monotone tree rooted at every node with range ~(4+16)/eps_hat. Queries
binary-search the minimal usable layer and take the minimum with the patch
estimate, giving dist <= answer <= (1+eps)*dist + 2 with high probability,
and the (2+eps, 0) wrapper answers adjacent pairs exactly from the graph's
adjacency check.

H exists once: the emulator owns its weighted adjacency and applies each
deletion's event batch to it. Every layer tree and every patch tree reads
that adjacency and keeps only its own levels and counters; each repairs once
per batch, which gives the per-event levels (see ``monotone_es_tree``).
"""

from __future__ import annotations

import math
import random

from .emulator import LocallyPerseveringEmulator
from .errors import InvalidEpsilon, InvalidRange, NodeOutOfRange, UnknownCenter
from .graph_core import INF, DecrementalGraph, UpdateEvent
from .monotone_es_tree import MonotoneEsTree, depth_bound_floor


class RandomCenterCover:
    """Approximate center cover with fixed random center locations.

    Each center keeps one range-Q tree built with ``report_threshold`` equal
    to the cover threshold b(q) = floor((1 + 2/tau) * q + 2), the depth bound
    of a range-q tree. Center j is in node x's cover list S_x while x's level
    in j's tree is at most b(q); the tree reports x in the batch that raises
    it past b(q).

    A separate range-q tree is not needed: its levels always equal the
    range-Q tree's levels cut off at b(q), T(l) = l if l <= b(q) else INF.
    Both start from the same Dijkstra levels, cut at different bounds. After
    a batch, a monotone tree's levels are the fixpoint
    L'(y) = max(L(y), min_v L'(v) + w(y, v)), set to INF past the depth
    bound. Every emulator weight is at least 1, so a minimum of at most b(q)
    is attained at a neighbour v with L'(v) < b(q), where T(L'(v)) = L'(v),
    and a minimum above b(q) stays above it when the terms are cut off.
    Since T commutes with max, induction on the level value gives
    L'_q = T(L'_Q) from L_q = T(L_Q), and a node leaves [0, b(q)] in the
    Q-tree exactly when the q-tree would drop it.
    """

    def __init__(self, g: DecrementalGraph, q: int, Q: int,
                 emulator: LocallyPerseveringEmulator | None = None,
                 eps: float | None = None, seed=None, rng: random.Random | None = None,
                 centers=None, sampling_constant: float = 3.0):
        if not 1 <= q <= Q:
            raise InvalidRange(f"need 1 <= q <= Q, got q={q}, Q={Q}")
        if emulator is None:
            if eps is None:
                raise InvalidEpsilon("need eps to build an emulator")
            emulator = LocallyPerseveringEmulator(g, eps, seed=seed)
        self.g = g
        self.q = q
        self.Q = Q
        self.emulator = emulator
        n = g.n
        if centers is None:
            if rng is None:
                rng = random.Random(seed)
            p = min(1.0, sampling_constant * math.log(n) / q) if n > 1 else 0.0
            centers = [x for x in range(n) if rng.random() < p]
        self.centers = sorted(set(centers))

        tau = emulator.tau
        self.cover_threshold = depth_bound_floor(q, 1, 2, tau)
        self._tree_Q = [MonotoneEsTree(emulator.h, c, Q, 1, 2, tau,
                                       report_threshold=self.cover_threshold)
                        for c in self.centers]
        self._cover: list[dict[int, bool]] = [dict() for _ in range(n)]
        for j, tree in enumerate(self._tree_Q):
            for x, lx in enumerate(tree.level):
                if lx <= self.cover_threshold:
                    self._cover[x][j] = True

    def delete(self, u: int, v: int) -> None:
        """Delete (u, v) from the base graph via the (owned) emulator."""
        self.on_batch(self.emulator.on_delete(u, v))

    def on_batch(self, batch) -> None:
        """Repair every center's tree after one batch the emulator applied."""
        for j, tree in enumerate(self._tree_Q):
            for x in tree.apply_batch(batch):
                self._cover[x].pop(j, None)

    def _check_center(self, j: int) -> None:
        if not 0 <= j < len(self.centers):
            raise UnknownCenter(f"center {j} does not exist")

    def location(self, j: int) -> int:
        self._check_center(j)
        return self.centers[j]

    def distance(self, j: int, x: int):
        """Estimate of dist(center j, x); never underestimates, INF past Q."""
        self._check_center(j)
        return self._tree_Q[j].level_query(x)

    def find_center(self, x: int):
        """Any center id whose estimate for x is within the cover threshold."""
        if not 0 <= x < self.g.n:
            raise NodeOutOfRange(f"node {x} not in [0, {self.g.n})")
        cov = self._cover[x]
        return next(iter(cov)) if cov else None

    def cover_list(self, x: int) -> list[int]:
        return list(self._cover[x])


class ApspIndexRandom:
    """(1+eps, 2)- and (2+eps, 0)-approximate decremental APSP."""

    def __init__(self, g: DecrementalGraph, eps: float, seed=None,
                 sampling_constant: float = 3.0, hubs=None):
        if not 0 < eps <= 1:
            raise InvalidEpsilon(f"eps must be in (0, 1], got {eps}")
        self.g = g
        self.eps = eps
        self.eps_hat = eps / 18.0
        self.rng = random.Random(seed)
        n = g.n
        # draw order: hub set first, then layer centers in layer order
        if hubs is None and n > 1:
            p_hub = min(1.0, sampling_constant * math.log(n) / math.sqrt(n))
            hubs = [x for x in range(n) if self.rng.random() < p_hub]
        elif hubs is None:
            hubs = list(range(n))
        self.emulator = LocallyPerseveringEmulator(g, self.eps_hat, hubs=hubs,
                                                   sampling_constant=sampling_constant)
        self.layers: list[RandomCenterCover] = []
        self.layer_params: list[tuple[int, int]] = []
        max_p = max(0, (n - 1).bit_length() - 1) if n > 1 else 0
        for p in range(max_p + 1):
            q_p = max(1, math.floor(self.eps_hat * (1 << p)))
            Q_p = math.ceil(self.eps_hat * (1 << p)) + 2 + (1 << (p + 1))
            self.layer_params.append((q_p, Q_p))
            self.layers.append(RandomCenterCover(
                g, q_p, Q_p, emulator=self.emulator, rng=self.rng,
                sampling_constant=sampling_constant))
        self.patch_range = math.ceil(20.0 / self.eps_hat)
        h, tau = self.emulator.h, self.emulator.tau
        self.patch = [MonotoneEsTree(h, x, self.patch_range, 1, 2, tau)
                      for x in range(n)]

    def delete(self, u: int, v: int) -> list[UpdateEvent]:
        """Delete (u, v) from the base graph; returns the emulator's event batch."""
        batch = self.emulator.on_delete(u, v)
        for layer in self.layers:
            layer.on_batch(batch)
        for tree in self.patch:
            tree.apply_batch(batch)
        return batch

    def layer_estimate(self, p: int, x: int, y: int):
        """delta_p(cen, x) + delta_p(cen, y) through a center covering x."""
        layer = self.layers[p]
        j = layer.find_center(x)
        if j is None:
            return INF
        dx = layer.distance(j, x)
        dy = layer.distance(j, y)
        return dx + dy

    def _search_layers(self, x: int, y: int):
        lo, hi = 0, len(self.layers) - 1
        while lo < hi:
            mid = (lo + hi) // 2
            layer = self.layers[mid]
            j = layer.find_center(x)
            if j is None:
                hi = mid
                continue
            est = layer.distance(j, x) + layer.distance(j, y)
            if est != INF:
                hi = mid
            else:
                lo = mid + 1
        return self.layer_estimate(lo, x, y)

    def query_1eps2(self, x: int, y: int):
        """Estimate with dist <= result <= (1+eps)*dist + 2 (whp)."""
        if not (0 <= x < self.g.n and 0 <= y < self.g.n):
            raise NodeOutOfRange(f"pair ({x}, {y}) out of range")
        if x == y:
            return 0
        patch_est = self.patch[x].level_query(y)
        layered = self._search_layers(x, y)
        return min(patch_est, layered)

    def query_2eps(self, x: int, y: int):
        """Estimate with dist <= result <= (2+eps)*dist (whp)."""
        if not (0 <= x < self.g.n and 0 <= y < self.g.n):
            raise NodeOutOfRange(f"pair ({x}, {y}) out of range")
        if x == y:
            return 0
        if self.g.has_edge(x, y):
            return 1
        return self.query_1eps2(x, y)
