"""Randomized approximate APSP built from monotone ES-trees on a shared
locally persevering emulator.

A random center cover samples its centers with probability min(1, a*ln(n)/q)
and reads a monotone tree over the emulator at each; its cover lists and
reads are ``center_cover.CenterCover``'s. The APSP index layers ceil(log n)
covers (layer p serves distances 2^p..2^{p+1}) above one shared emulator and
adds a small-distance patch with range ~(4+16)/eps_hat at every node.
Queries binary-search the minimal usable layer and take the minimum with the
patch estimate, giving dist <= answer <= (1+eps)*dist + 2 with high
probability, and the (2+eps, 0) wrapper answers adjacent pairs exactly from
the graph's adjacency check.

H exists once: the emulator owns its weighted adjacency and applies each
deletion's event batch to it. The index keeps exactly one monotone tree per
root, kept to the depth bound (``depth_bound_floor``) of the largest range
among the patch and the layers that center that root. The patch and every
layer read the tree through their own depth bound, l if l <= bound else
INF, which gives the levels a tree of their own would hold (see
``RandomCenterCover``). Each tree repairs once per batch, which gives the
per-event levels (see ``monotone_es_tree``), and returns the nodes whose
level rose; every layer updates its cover lists from those.
"""

from __future__ import annotations

import math
import random
from collections import Counter

from .center_cover import CenterCover, search_layers
from .emulator import LocallyPerseveringEmulator
from .errors import InvalidEpsilon, InvalidParameters, InvalidRange, NodeOutOfRange
from .es_tree import tree_stats
from .graph_core import INF, DecrementalGraph, UpdateEvent
from .monotone_es_tree import MonotoneEsTree


def depth_bound_floor(Q: int, tau: int) -> int:
    """floor((1 + 2/tau) * Q + 2) in exact integer arithmetic: over the
    (1, 2, tau)-locally persevering emulator a monotone tree keeps a node at
    base-graph distance d at a level of at most (1 + 2/tau) * d + 2, so at
    this depth it cuts off no node within Q. This is the paper's depth
    (alpha + beta/tau) * Q + beta with alpha 1 and beta 2."""
    return ((tau + 2) * Q + 2 * tau) // tau


def _sample_centers(n: int, q: float, rng: random.Random,
                    sampling_constant: float) -> list[int]:
    """Each node independently with probability min(1, a*ln(n)/q)."""
    p = min(1.0, sampling_constant * math.log(n) / q) if n > 1 else 0.0
    return [x for x in range(n) if rng.random() < p]


class RandomCenterCover(CenterCover):
    """Approximate center cover with fixed random center locations.

    Center j reads a monotone tree rooted at its location whose depth bound
    is at least the cover's own, ``bound`` = bound(Q) = floor((1 + 2/tau) *
    Q + 2). ``trees`` maps each root to such a tree on ``emulator.h``: the
    APSP index passes the trees it shares among its layers and its patch,
    and repairs them itself. The cover radius is b(q) = bound(q); the cover
    lists and reads are ``CenterCover``'s.

    A tree kept to a smaller depth bound b is not needed: its levels always
    equal a deeper tree's levels cut off at b, T(l) = l if l <= b else INF.
    Both start from the levels of the same bucket (Dial) search, cut at
    different bounds. After a batch, a monotone tree's levels are the
    fixpoint L'(y) = max(L(y), min_v L'(v) + w(y, v)), set to INF past the
    depth bound. Every emulator weight is at least 1, so a minimum of at
    most b is attained at a neighbour v with L'(v) < b, where
    T(L'(v)) = L'(v), and a minimum above b stays above it when the terms
    are cut off. Since T commutes with max, induction on the level value
    gives L'_b = T(L'_B) from L_b = T(L_B), and a node leaves [0, b] in the
    deeper tree exactly when the shallower tree would drop it. This holds
    for b = bound(Q), the cover's reads, and for b = b(q), its cover lists.
    """

    def __init__(self, emulator: LocallyPerseveringEmulator, q: int, Q: int,
                 centers, trees):
        if not 1 <= q <= Q:
            raise InvalidRange(f"need 1 <= q <= Q, got q={q}, Q={Q}")
        tau = emulator.tau
        super().__init__(emulator.g.n, depth_bound_floor(q, tau), depth_bound_floor(Q, tau))
        self.emulator = emulator
        self._location = sorted(set(centers))
        self._trees: list[MonotoneEsTree] = []
        for c in self._location:
            try:
                tree = trees[c]
            except LookupError:
                raise InvalidParameters(f"no tree rooted at center {c}") from None
            if tree.root != c or tree.bound < self.bound:
                raise InvalidParameters(
                    f"tree for center {c} has root {tree.root} and depth bound "
                    f"{tree.bound}; need root {c} and a bound of at least {self.bound}")
            self._trees.append(tree)
        self._levels = [tree.level for tree in self._trees]  # updated in place
        self._center_id = {c: j for j, c in enumerate(self._location)}
        for j, level in enumerate(self._levels):
            self._list(j, self._ball(level))

    def on_batch(self, raised) -> None:
        """Update the cover lists after a batch; ``raised`` maps a tree's root
        to the nodes whose level rose in it (roots that are not centers and
        trees that did not change may be missing or present)."""
        center_id = self._center_id
        self._uncover((center_id[root], nodes) for root, nodes in raised.items()
                      if root in center_id)


class ApspIndexRandom:
    """(1+eps, 2)- and (2+eps, 0)-approximate decremental APSP.

    ``trees[x]`` is the one monotone tree rooted at x, with the largest range
    among ``patch_range`` and the ranges Q_p of the layers that center x. The
    patch reads it through ``patch_bound``, layer p through its own bound.
    """

    def __init__(self, g: DecrementalGraph, eps: float, seed=None,
                 sampling_constant: float = 3.0, hubs=None):
        if not 0 < eps <= 1:
            raise InvalidEpsilon(f"eps must be in (0, 1], got {eps}")
        if not sampling_constant > 0:  # NaN too
            raise InvalidParameters(f"need a sampling constant > 0, got {sampling_constant}")
        self.g = g
        self.eps = eps
        self.eps_hat = eps / 18.0
        self.rng = random.Random(seed)
        n = g.n
        # draw order: the hubs (probability min(1, a*ln(n)/sqrt(n)), every
        # node for n <= 1) unless given, then layer centers in layer order
        if hubs is None:
            hubs = (_sample_centers(n, math.sqrt(n), self.rng, sampling_constant)
                    if n > 1 else list(range(n)))
        self.emulator = LocallyPerseveringEmulator(g, self.eps_hat, hubs)
        self.layer_params: list[tuple[int, int]] = []
        layer_centers = []
        max_p = max(0, (n - 1).bit_length() - 1) if n > 1 else 0
        for p in range(max_p + 1):
            q_p = max(1, math.floor(self.eps_hat * (1 << p)))
            Q_p = math.ceil(self.eps_hat * (1 << p)) + 2 + (1 << (p + 1))
            self.layer_params.append((q_p, Q_p))
            layer_centers.append(_sample_centers(n, q_p, self.rng, sampling_constant))
        self.patch_range = math.ceil(20.0 / self.eps_hat)
        h, tau = self.emulator.h, self.emulator.tau
        self.patch_bound = depth_bound_floor(self.patch_range, tau)
        # one tree per root, with the largest range any reader of it needs
        ranges = [self.patch_range] * n
        for (_, Q_p), centers in zip(self.layer_params, layer_centers):
            for c in centers:
                ranges[c] = max(ranges[c], Q_p)
        self.trees = [MonotoneEsTree(h, x, depth_bound_floor(ranges[x], tau))
                      for x in range(n)]
        self.layers = [RandomCenterCover(self.emulator, q_p, Q_p, centers, self.trees)
                       for (q_p, Q_p), centers in zip(self.layer_params, layer_centers)]

    def delete(self, u: int, v: int) -> list[UpdateEvent]:
        """Delete (u, v) from the base graph; returns the emulator's event batch."""
        batch = self.emulator.on_delete(u, v)
        cut = self.emulator.last_cut
        raised = {}  # root of every tree that changed -> nodes whose level rose
        for root, tree in enumerate(self.trees):
            nodes = tree.apply_batch(batch, cut)
            if nodes:
                raised[root] = nodes
        for layer in self.layers:
            layer.on_batch(raised)
        return batch

    def stats(self) -> Counter:
        """The trees' work counters, the emulator's ``emulator_events`` (its
        ``updates_total``) and its hub trees' work counters as
        ``hub_level_increases`` and ``hub_ops``."""
        stats = tree_stats(self.trees)
        hub = tree_stats(self.emulator._trees)
        stats.update(emulator_events=self.emulator.updates_total,
                     hub_level_increases=hub["level_increases"], hub_ops=hub["ops"])
        return stats

    def query_1eps2(self, x: int, y: int):
        """Estimate with dist <= result <= (1+eps)*dist + 2 (whp)."""
        n = self.g.n
        if not (0 <= x < n and 0 <= y < n):
            raise NodeOutOfRange(f"pair ({x}, {y}) out of range")
        return self._estimate(x, y)

    def query_2eps(self, x: int, y: int):
        """Estimate with dist <= result <= (2+eps)*dist (whp). ``has_edge``
        checks the pair; a self-pair is no edge, so ``_estimate`` answers 0."""
        return 1 if self.g.has_edge(x, y) else self._estimate(x, y)

    def _estimate(self, x: int, y: int):
        """``query_1eps2``'s answer for a pair already checked."""
        ly = self.trees[x].level[y]
        patch_est = ly if ly <= self.patch_bound else INF
        return min(patch_est, search_layers(self.layers, x, y))
