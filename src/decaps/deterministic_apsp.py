"""Deterministic (1+eps, 0)-approximate decremental APSP.

Three pieces:

* :class:`MovingCenters`: per-center exact trees of depth Q whose roots can be
  opened and relocated, with per-node center lists (centers whose cover-range
  ball contains the node) and counters for the number of opens and the total
  moving distance.
* :class:`DetCenterCover`: decides where to open and move centers. Each
  center j carries a collected set T^j and a radius r^j = q/2 - |T^j| (kept in
  half-units so odd q stays exact). After a deletion, at most one center sits
  in a component smaller than its radius; that center absorbs the component
  into T^j and moves across the deleted edge, then a greedy pass opens
  centers at uncovered nodes in ascending id order.
* :class:`ApspIndexDet`: an exact patch (a center at every node) up to 2^{p+2}
  for the largest scale p whose cover radius floor(eps_int * 2^p) is 0, and
  one cover per larger scale, giving the (1 + 2*eps_int) guarantee past the
  patch. The public eps is halved internally so queries satisfy
  dist <= answer <= (1+eps)*dist.

Construction runs one BFS from every root at once
(``graph_core.RootDistances``) on the graph as it stands, and sets
every tree it builds, the patch's n trees and each cover's greedy opens,
from its root's row: the levels, the support counts and the cover lists.
Opens and moves after a deletion search from their root.

A deletion costs work in proportion to what it changes, not to n:

* The candidate center is looked up in u's cover list only. A ball has
  radius r^j <= q/2 and levels are integers, so a ball that holds u puts u
  within q // 2 of its center, inside the cover radius q: u lists it.
* Component checks are bounded BFS (``DecrementalGraph.small_component``):
  only "is the component smaller than the limit" matters, so the search
  stops once the limit is reached.
* After the construction's full scan, every node is covered or marked
  small. Coverage is only lost when a node leaves a cover list, when the
  moved center's old ball is popped or a tree raises a node past the cover
  radius, so the greedy pass re-checks exactly those nodes, in ascending id
  order. Opens only add coverage, so it opens the same centers as a full
  scan would.
* A tree is repaired only when u and v sit on adjacent levels; otherwise
  the deleted edge supported neither endpoint and the repair would change
  no level.
* One split search per deletion (``DecrementalGraph.split_side``), shared by
  every layer, scans at most about 8 * ceil(sqrt(n)) nodes. When it finds
  the side the deletion cut off, every tree drops its root-less side in one
  pass instead of raising each node there one level at a time up to Q: a
  tree rooted outside the side scans the side, and one rooted inside it
  scans all n levels. A deletion that splits nothing pays only the search.
"""

from __future__ import annotations

import math

from .errors import (
    InvalidEpsilon,
    InvalidRange,
    InvariantViolation,
    NodeOutOfRange,
    RateViolation,
    UnknownCenter,
)
from .es_tree import EsTree
from .graph_core import DecrementalGraph, RootDistances
from .randomized_apsp import search_layers


class MovingCenters:
    """Exact distance trees of depth Q at movable center locations.

    ``cover_radius`` feeds the per-node center lists: node x lists center j
    while its level in j's tree is at most cover_radius. find_center returns
    the head of that list in O(1); distance queries read tree levels in O(1).
    ``_levels[j]`` is the level list of center j's current tree and ``bound``
    (= Q) its depth bound, the reads ``search_layers`` makes.

    ``rows``, the distances from every root at g's current version
    (``graph_core.RootDistances``), sets the trees opened while g stays
    at that version from their roots' rows; once g changes, every tree opened
    or moved searches from its root. The owner sets ``_rows`` to None once it
    has opened what it builds with them, which frees them.
    """

    def __init__(self, g: DecrementalGraph, cover_radius: int, Q: int,
                 rows: RootDistances | None = None):
        if Q < 1 or cover_radius < 0 or cover_radius > Q:
            raise InvalidRange(
                f"need 0 <= cover_radius <= Q and Q >= 1, got {cover_radius}, {Q}")
        self.g = g
        self.cover_radius = cover_radius
        self.Q = Q
        self.bound = Q
        self.location: list[int] = []
        self._trees: list[EsTree] = []
        self._levels: list[list] = []  # updated in place, replaced by a move
        self._cover: list[dict[int, bool]] = [dict() for _ in range(g.n)]
        self.opens = 0
        self.moving_distance = 0
        self._round_ops: set[int] = set()
        # work of the trees that move retired
        self._retired_increases = 0
        self._retired_ops = 0
        self._rows = rows

    def _check_center(self, j: int) -> None:
        if not 0 <= j < len(self.location):
            raise UnknownCenter(f"center {j} does not exist")

    def open(self, x: int) -> int:
        """Open a new center at x; returns its id."""
        if not 0 <= x < self.g.n:
            raise NodeOutOfRange(f"node {x} not in [0, {self.g.n})")
        j = len(self.location)
        tree = self._new_tree(j, x)
        self.location.append(x)
        self._trees.append(tree)
        self._levels.append(tree.level)
        self.opens += 1
        self._round_ops.add(j)
        return j

    def _new_tree(self, j: int, x: int) -> EsTree:
        """Center j's tree at x; adds j to the cover lists of its ball."""
        rows = self._rows
        if rows is not None and rows.version != self.g.version:
            rows = self._rows = None  # the graph changed since the search
        tree = EsTree(self.g, x, self.Q, rows)
        rho = self.cover_radius
        if rows is not None:
            ball = rows.within(x, rho)
        else:
            ball = [y for y, ly in enumerate(tree.level) if ly <= rho]  # INF never is
        cover = self._cover
        for y in ball:
            cover[y][j] = True
        return tree

    def move(self, j: int, x: int, distance) -> list[int]:
        """Relocate center j to x, rebuilding its tree from scratch.

        ``distance`` is the moving distance to charge: the distance between
        the old and the new location in the pre-move graph. Returns the nodes
        of the old ball, which were popped from their cover lists.
        """
        self._check_center(j)
        if not 0 <= x < self.g.n:
            raise NodeOutOfRange(f"node {x} not in [0, {self.g.n})")
        if j in self._round_ops:
            raise RateViolation(
                f"center {j} already opened or moved since the last deletion")
        self._round_ops.add(j)
        rho = self.cover_radius
        popped = [y for y, ly in enumerate(self._trees[j].level) if ly <= rho]
        for y in popped:
            self._cover[y].pop(j, None)
        self.moving_distance += distance
        self.location[j] = x
        old = self._trees[j]
        self._retired_increases += old.level_increases
        self._retired_ops += old.ops
        tree = self._trees[j] = self._new_tree(j, x)
        self._levels[j] = tree.level
        return popped

    def begin_deletion(self) -> None:
        """Open a new open/move accounting window (one per deletion)."""
        self._round_ops = set()

    def delete_edge(self, u: int, v: int) -> None:
        """Delete (u, v) from the shared graph and repair every tree."""
        self.begin_deletion()
        self.g.delete_edge(u, v)
        self.after_delete(u, v, self.g.split_side(u, v))

    def after_delete(self, u: int, v: int, cut=None) -> set[int]:
        """Repair the trees after the shared graph lost (u, v).

        ``cut`` is the side the deletion split off (``split_side``), or
        None. Returns the nodes popped from cover lists: those a tree raised
        past the cover radius. A tree is called only when u and v sit on
        adjacent levels, the one case where the edge supported an endpoint:
        a tree with a finite node on the side without its root reached that
        side through (u, v), so u and v sit on adjacent levels there too.
        Every node a tree raises or drops sat at least as high as the
        endpoint that leaned on (u, v), so only a tree where that endpoint
        sat within the cover radius can pop a node.
        """
        cover = self._cover
        rho = self.cover_radius
        freed: set[int] = set()
        for j, tree in enumerate(self._trees):
            level = tree.level
            lu, lv = level[u], level[v]
            # INF on either side gives inf or nan here, never +-1
            if lu - lv not in (1, -1):
                continue
            raised = tree.after_delete(u, v, cut)
            if lu <= rho and lv <= rho:
                for x in raised:
                    # a node already past the radius holds no entry of j
                    if level[x] > rho and cover[x].pop(j, False):
                        freed.add(x)
        return freed

    def distance(self, j: int, x: int):
        """dist(location(j), x) if at most Q, else INF; O(1)."""
        self._check_center(j)
        return self._trees[j].level_query(x)

    def find_center(self, x: int):
        """Some center whose ball of radius cover_radius holds x, else None."""
        if not 0 <= x < self.g.n:
            raise NodeOutOfRange(f"node {x} not in [0, {self.g.n})")
        cov = self._cover[x]
        return next(iter(cov)) if cov else None

    def centers(self) -> range:
        return range(len(self.location))

    @property
    def level_increases(self) -> int:
        """Level increases of every tree built here, retired ones included."""
        return self._retired_increases + sum(t.level_increases for t in self._trees)

    @property
    def ops(self) -> int:
        """Work (``ops``) of every tree built here, retired ones included."""
        return self._retired_ops + sum(t.ops for t in self._trees)


class DetCenterCover:
    """Deterministic center cover: every node in a component of size >= q has
    a center within the cover radius q after every deletion.

    Centers open more than q apart, so balls of integer radius at most
    q // 2 around them are disjoint, and every ball lies inside its center's
    cover lists, which the candidate lookup needs. ``rows``, if given, sets
    the trees of the construction's greedy pass (see ``MovingCenters``).
    """

    def __init__(self, g: DecrementalGraph, q: int, Q: int,
                 rows: RootDistances | None = None):
        if not 1 <= q <= Q:
            raise InvalidRange(f"need 1 <= q <= Q, got q={q}, Q={Q}")
        self.g = g
        self.q = q
        self.Q = Q
        self.mc = MovingCenters(g, q, Q, rows)
        self.collected: list[set[int]] = []   # T^j
        self.radius2: list[int] = []          # 2 * r^j, exact in half-units
        self._skip_small: list[bool] = [False] * g.n
        self._greedy_open(range(g.n))
        self.mc._rows = None

    # -- Alg. 3 --------------------------------------------------------------

    def _greedy_open(self, nodes) -> None:
        """Open a center at each uncovered node whose component has >= q nodes.

        Visits ``nodes`` in ascending id order.
        """
        mc = self.mc
        cover = mc._cover
        g = self.g
        q = self.q
        skip = self._skip_small
        for x in sorted(nodes):
            if skip[x] or cover[x]:
                continue
            comp = g.small_component(x, q)
            if comp is not None:
                # small components never grow back; skip every member for good
                for y in comp:
                    skip[y] = True
                continue
            j = mc.open(x)
            if j != len(self.collected):
                raise InvariantViolation(
                    f"opened center id {j}, expected {len(self.collected)}")
            self.collected.append(set())
            self.radius2.append(q)  # r^j = q/2

    def delete(self, u: int, v: int) -> None:
        """Delete (u, v) from the shared graph and restore coverage."""
        self.g.delete_edge(u, v)
        self.on_deleted(u, v, self.g.split_side(u, v))

    def on_deleted(self, u: int, v: int, cut=None) -> None:
        """Coverage maintenance once the shared graph already lost (u, v).

        ``cut`` is the side the deletion split off (``split_side``), or None;
        the trees drop it in one step.
        """
        mc = self.mc
        mc.begin_deletion()
        trees = mc._trees
        # the moving-centers trees still reflect the pre-deletion graph, so
        # level[u] in j's tree is dist_{G_i}(cen_j, u): find the (at most one)
        # center whose radius-r^j ball contained u; u's cover list holds it
        candidates = [j for j in mc._cover[u]
                      if 2 * trees[j].level[u] <= self.radius2[j]]
        if len(candidates) > 1:
            raise InvariantViolation(
                f"ball disjointness violated: {sorted(candidates)}")
        freed = set()
        if candidates:
            j = candidates[0]
            # 2 * |comp| < radius2  <=>  |comp| < ceil(radius2 / 2)
            comp = self.g.small_component(mc.location[j], (self.radius2[j] + 1) // 2)
            if comp is not None:
                y = v if u in comp else u
                move_dist = trees[j].level[y]  # still the pre-deletion distance
                self.collected[j] |= comp
                self.radius2[j] -= 2 * len(comp)
                for z in comp:
                    self._skip_small[z] = True
                freed.update(mc.move(j, y, move_dist))
        freed |= mc.after_delete(u, v, cut)
        self._greedy_open(freed)

    # -- queries ---------------------------------------------------------------

    def find_center(self, x: int):
        return self.mc.find_center(x)

    def distance(self, j: int, x: int):
        return self.mc.distance(j, x)

    def location(self, j: int) -> int:
        self.mc._check_center(j)
        return self.mc.location[j]

    def centers(self) -> range:
        return self.mc.centers()

    @property
    def opens(self) -> int:
        return self.mc.opens

    @property
    def moving_distance(self):
        return self.mc.moving_distance

    def ball(self, j: int) -> set[int]:
        """B^j = nodes within r^j of center j, recomputed by bounded BFS."""
        self.mc._check_center(j)
        r2 = self.radius2[j]
        root = self.mc.location[j]
        out = {root}
        frontier = [root]
        depth = 0
        adj = self.g._adj
        while frontier and 2 * (depth + 1) <= r2:
            depth += 1
            nxt = []
            for y in frontier:
                for z in adj[y]:
                    if z not in out:
                        out.add(z)
                        nxt.append(z)
            frontier = nxt
        return out


class ApspIndexDet:
    """An exact patch and ceil(log n) deterministic covers answering
    (1+eps)-approximate queries. ``patch`` has center x at node x and is exact
    up to ``patch_range``; ``layers[k]`` is the k-th cover, with (q, Q) in
    ``layer_params[k]``."""

    def __init__(self, g: DecrementalGraph, eps: float):
        if not 0 < eps <= 1:
            raise InvalidEpsilon(f"eps must be in (0, 1], got {eps}")
        self.g = g
        self.eps = eps
        self.eps_internal = eps / 2.0
        self.layers: list[DetCenterCover] = []
        self.layer_params: list[tuple[int, int]] = []
        # scale 0 has radius 0 (eps_internal <= 1/2); n <= 1 has no scale
        self.patch_range = 4
        n = g.n
        # every tree built here is set from one BFS from every root at once
        rows = RootDistances(g)
        max_p = max(0, (n - 1).bit_length() - 1) if n > 1 else -1
        for p in range(max_p + 1):
            q_p = math.floor(self.eps_internal * (1 << p))
            Q_p = 1 << (p + 2)
            if q_p == 0:
                # a radius-0 cover opens a center at every node and never
                # opens or moves one again: its trees are the patch's, cut off
                self.patch_range = Q_p
                continue
            self.layer_params.append((q_p, Q_p))
            self.layers.append(DetCenterCover(g, q_p, Q_p, rows))
        self.patch = MovingCenters(g, 0, self.patch_range, rows)
        for x in range(n):
            self.patch.open(x)
        self.patch._rows = None
        self._covers = [layer.mc for layer in self.layers]

    def delete(self, u: int, v: int) -> None:
        self.g.delete_edge(u, v)
        cut = self.g.split_side(u, v)
        self.patch.after_delete(u, v, cut)  # pops nothing at cover radius 0
        for layer in self.layers:
            layer.on_deleted(u, v, cut)

    @property
    def level_increases(self) -> int:
        """Level increases of every tree the index built, retired ones included."""
        return self.patch.level_increases + sum(mc.level_increases for mc in self._covers)

    @property
    def ops(self) -> int:
        """Work (``ops``) of every tree the index built, retired ones included."""
        return self.patch.ops + sum(mc.ops for mc in self._covers)

    def query(self, x: int, y: int):
        """Estimate with dist <= result <= (1+eps)*dist; INF if disconnected.

        The patch is exact up to its range; past it, ``search_layers`` answers.
        """
        if not (0 <= x < self.g.n and 0 <= y < self.g.n):
            raise NodeOutOfRange(f"pair ({x}, {y}) out of range")
        d = self.patch._levels[x][y]
        if d <= self.patch_range:
            return d
        return search_layers(self._covers, x, y)
