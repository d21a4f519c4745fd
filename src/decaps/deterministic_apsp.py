"""Deterministic (1+eps, 0)-approximate decremental APSP.

Two pieces:

* :class:`DetCenterCover`: a ``center_cover.CenterCover`` over exact trees
  of depth Q whose roots it opens and moves, with counters for the number
  of opens and the total moving distance, so one object per layer holds the
  trees, the cover lists and the ledger. Each center j carries a collected
  set T^j and a radius r^j = q/2 - |T^j| (kept in half-units so odd q stays
  exact). After a deletion, at most one center sits in a component smaller
  than its radius; that center absorbs the component into T^j and moves
  across the deleted edge, then a greedy pass opens centers at uncovered
  nodes in ascending id order.
* :class:`ApspIndexDet`: an exact patch (an exact tree at every node) up to
  2^{p+2} for the largest scale p whose cover radius floor(eps_int * 2^p)
  is 0, and one cover per larger scale, giving the (1 + 2*eps_int)
  guarantee past the patch; its query hands the covers, its ``layers``, to
  ``search_layers``. The public eps is halved internally so queries
  satisfy dist <= answer <= (1+eps)*dist.

The covers are built only once they can answer: while every finite
distance is within the patch's range, the patch is exact and ``layers``
stays empty. A cover built from scratch on G_t keeps its properties from t
on (``FullyDynamicApsp`` relies on this at every phase start), so all of
them are built at once, on the graph as it stands, when a finite distance
first passes the range:

* At construction, in the first block of rows that holds such a
  distance: ``build_covers`` builds the covers over the blocks before it,
  and they join the patch's sweep from that block on.
* In the deletion that first pushes one past it. Distances only grow, so
  its patch tree had the far node in range and drops it to INF. A cut that
  ``split_side`` found changes no distance on the root's side, so only a
  deletion without one fires; a split the capped search missed drops
  nodes the same way and builds the covers early, which is safe.

Construction is block-major (``graph_core.RootDistances``): one wide
bit-parallel BFS from as many roots as keep a level's gather within
``_SLAB`` words (all of them on small graphs) hands out their rows a block
of 64 roots at a time, in ascending blocks, with support counts read off
its bit-planes. Over each block the patch's trees are set from their rows
by one ``EsTree.from_rows`` call, and every cover runs its greedy pass
over the block's nodes, registering each open's ball from its row, then
sets the trees of its opens by one more. Covers open in ascending node
order and the decision at x reads only the cover lists of centers opened
at smaller nodes, so this opens what one pass over all nodes would. Only
one block of rows is held at a time; opens and moves after a deletion
search from their root.

A deletion costs work in proportion to what it changes, not to n:

* The candidate center is looked up in u's cover list only. A ball has
  radius r^j <= q/2 and levels are integers, so a ball that holds u puts u
  within q // 2 of its center, inside the cover radius q: u lists it.
* Component checks are bounded BFS (``DecrementalGraph.small_component``):
  only "is the component smaller than the limit" matters, so the search
  stops once the limit is reached.
* After the construction's full scan, every node is covered or in a
  component of fewer than q nodes. Coverage is only lost when a node leaves
  a cover list, when the moved center's old ball is popped or a tree raises
  a node past the cover radius, so the greedy pass re-checks exactly those
  nodes, in ascending id order. Opens only add coverage, so it opens the
  same centers as a full scan would.
* Trees are repaired through ``es_tree.after_delete_all``, which calls
  only the trees whose levels the deletion changes.
* One split search per deletion (``DecrementalGraph.split_side``), shared by
  every layer, scans at most about 8 * ceil(sqrt(n)) nodes. When it finds
  the side the deletion cut off, every tree drops its root-less side in one
  pass instead of raising each node there one level at a time up to Q.
"""

from __future__ import annotations

import math
from collections import Counter

from .center_cover import CenterCover, search_layers
from .errors import (
    InvalidEpsilon,
    InvalidRange,
    InvariantViolation,
    NodeOutOfRange,
    RateViolation,
)
from .es_tree import EsTree, after_delete_all, tree_stats
from .graph_core import INF, DecrementalGraph, RootDistances


class DetCenterCover(CenterCover):
    """Deterministic center cover: every node in a component of size >= q has
    a center within the cover radius q after every deletion.

    The cover lists and reads are ``CenterCover``'s, with ``bound`` = Q, the
    depth of the exact trees; a move replaces ``_levels[j]``. Centers open
    more than q apart, so balls of integer radius at most q // 2 around them
    are disjoint, and every ball lies inside its center's cover lists, which
    the candidate lookup needs.

    ``open`` and ``move`` search from the root. The construction's greedy
    pass opens with ``_register`` instead, the ball read off a
    ``RootDistances`` block, and ``_build_block`` sets the block's trees
    through ``EsTree.from_rows``. A cover is built only by ``build_covers``.
    """

    def __init__(self, g: DecrementalGraph, q: int, Q: int):
        if not 1 <= q <= Q:
            raise InvalidRange(f"need 1 <= q <= Q, got q={q}, Q={Q}")
        super().__init__(g.n, q, Q)
        self.g = g
        self._trees: list[EsTree] = []
        self.opens = 0
        self.moving_distance = 0
        self._round_ops: set[int] = set()
        self._retired = Counter()  # stats of the trees that moves retired
        self.collected: list[set[int]] = []   # T^j
        self.radius2: list[int] = []          # 2 * r^j, exact in half-units

    @property
    def mc(self) -> DetCenterCover:
        """``self``, where perfbench's tracer reads a layer's moving centers."""
        return self

    def open(self, x: int) -> int:
        """Open a new center at x; returns its id."""
        self._check_node(x)
        tree = EsTree(self.g, x, self.bound)
        j = self._register(x, self._ball(tree.level))
        self._trees.append(tree)
        self._levels.append(tree.level)
        return j

    def _register(self, x: int, ball) -> int:
        """A new center at x whose ball is ``ball``: its id, in the cover
        lists of the ball, with an empty T^j and r^j = q/2; its tree is set
        by ``open`` or ``_build_block``."""
        j = len(self._location)
        self._location.append(x)
        self.collected.append(set())
        self.radius2.append(self.cover_radius)
        self._list(j, ball)
        self.opens += 1
        self._round_ops.add(j)
        return j

    def move(self, j: int, x: int, distance) -> list[int]:
        """Relocate center j to x, rebuilding its tree from scratch.

        ``distance`` is the moving distance to charge: the distance between
        the old and the new location in the pre-move graph. Returns the nodes
        of the old ball, which were popped from their cover lists.
        """
        self._check_center(j)
        self._check_node(x)
        if j in self._round_ops:
            raise RateViolation(
                f"center {j} already opened or moved since the last deletion")
        self._round_ops.add(j)
        popped = self._ball(self._levels[j])
        for y in popped:
            self._cover[y].pop(j, None)
        self.moving_distance += distance
        self._location[j] = x
        self._retired.update(self._trees[j].stats())
        tree = self._trees[j] = EsTree(self.g, x, self.bound)
        self._levels[j] = tree.level
        self._list(j, self._ball(tree.level))
        return popped

    def after_delete(self, u: int, v: int, cut=None) -> set[int]:
        """Repair the trees after the shared graph lost (u, v).

        ``cut`` is the side the deletion split off (``split_side``), or
        None. Returns the nodes popped from cover lists: those a tree raised
        past the cover radius.
        """
        return self._uncover(after_delete_all(self._trees, u, v, cut))

    def stats(self) -> Counter:
        """The work counters of every tree built here, retired ones
        included, with the ``opens`` and the ``moving_distance``."""
        stats = tree_stats(self._trees)
        stats.update(self._retired, opens=self.opens,
                     moving_distance=self.moving_distance)
        return stats

    def _build_block(self, block: range, rows: RootDistances) -> None:
        """The construction's greedy pass over the nodes of ``block``, the
        current block of ``rows``; every earlier block must have had its
        pass. Each open registers its ball from its row at once, and the
        block's opens get their trees in one vectorised pass over their rows."""
        self._greedy_open(block, rows)
        trees = EsTree.from_rows(rows, self._location[len(self._trees):], self.bound)
        self._trees += trees
        self._levels += [tree.level for tree in trees]

    # -- Alg. 3 --------------------------------------------------------------

    def _greedy_open(self, nodes, rows: RootDistances | None = None) -> None:
        """Open a center at each uncovered node whose component has >= q nodes.

        Visits ``nodes`` in ascending id order. With ``rows`` (a build), the
        nodes lie in its current block and each open only registers.
        """
        cover = self._cover
        g = self.g
        q = self.cover_radius
        for x in sorted(nodes):
            if cover[x] or g.small_component(x, q) is not None:
                continue
            if rows is None:
                self.open(x)
            else:
                self._register(x, rows.within(x, q))

    def on_deleted(self, u: int, v: int, cut=None) -> None:
        """Coverage maintenance once the shared graph already lost (u, v).

        Opens a new open/move window. ``cut`` is the side the deletion split
        off (``split_side``), or None; the trees drop it in one step.
        """
        self._round_ops = set()
        trees = self._trees
        # the trees still reflect the pre-deletion graph, so level[u] in j's
        # tree is dist_{G_i}(cen_j, u): find the (at most one) center whose
        # radius-r^j ball contained u; u's cover list holds it
        candidates = [j for j in self._cover[u]
                      if 2 * trees[j].level[u] <= self.radius2[j]]
        if len(candidates) > 1:
            raise InvariantViolation(
                f"ball disjointness violated: {sorted(candidates)}")
        freed = set()
        if candidates:
            j = candidates[0]
            # 2 * |comp| < radius2  <=>  |comp| < ceil(radius2 / 2)
            comp = self.g.small_component(self._location[j], (self.radius2[j] + 1) // 2)
            if comp is not None:
                y = v if u in comp else u
                move_dist = trees[j].level[y]  # still the pre-deletion distance
                self.collected[j] |= comp
                self.radius2[j] -= 2 * len(comp)
                freed.update(self.move(j, y, move_dist))
        freed |= self.after_delete(u, v, cut)
        self._greedy_open(freed)


def build_covers(g: DecrementalGraph, scales, upto: int | None = None) -> list[DetCenterCover]:
    """One cover per (q, Q) in ``scales``, built on ``g`` as it stands: each
    cover's greedy pass over the ``RootDistances`` blocks of the roots below
    ``upto`` (every node by default). With ``upto`` < n, the caller hands
    the covers every later block through ``_build_block``."""
    rows = RootDistances(g, None if upto is None else range(upto))
    covers = [DetCenterCover(g, q, Q) for q, Q in scales]
    for block in rows.blocks():
        for cover in covers:
            cover._build_block(block, rows)
    return covers


# the name perfbench's tracer imports; it goes with the ``mc`` alias when the
# tracer next changes (ROADMAP item 4)
MovingCenters = DetCenterCover


class ApspIndexDet:
    """An exact patch and up to ceil(log n) deterministic covers answering
    (1+eps)-approximate queries. ``patch[x]`` is the exact tree rooted at x,
    kept to depth ``patch_range``; ``layers[k]`` is the k-th cover, with
    (q, Q) in its ``cover_radius`` and ``bound``; ``layers`` is empty until
    a finite distance passes ``patch_range`` (see the module docstring)."""

    def __init__(self, g: DecrementalGraph, eps: float):
        if not 0 < eps <= 1:
            raise InvalidEpsilon(f"eps must be in (0, 1], got {eps}")
        self.g = g
        self.eps = eps
        self.eps_internal = eps / 2.0
        self.layers: list[DetCenterCover] = []
        self._scales: list[tuple[int, int]] = []  # (q, Q) of each cover
        # scale 0 has radius 0 (eps_internal <= 1/2); n <= 1 has no scale
        self.patch_range = 4
        n = g.n
        max_p = max(0, (n - 1).bit_length() - 1) if n > 1 else -1
        for p in range(max_p + 1):
            q_p = math.floor(self.eps_internal * (1 << p))
            Q_p = 1 << (p + 2)
            if q_p == 0:
                # a radius-0 cover opens a center at every node and never
                # opens or moves one again: its trees are the patch's, cut off
                self.patch_range = Q_p
            else:
                self._scales.append((q_p, Q_p))
        rows = RootDistances(g)
        self.patch: list[EsTree] = []
        for block in rows.blocks():  # block-major, see the module docstring
            self.patch += EsTree.from_rows(rows, block, self.patch_range)
            if not self.layers and rows.farthest() > self.patch_range:
                self.layers = build_covers(g, self._scales, block.start)
            for layer in self.layers:
                layer._build_block(block, rows)

    def delete(self, u: int, v: int) -> None:
        self.g.delete_edge(u, v)
        cut = self.g.split_side(u, v)
        raised = after_delete_all(self.patch, u, v, cut)
        if self.layers:
            for layer in self.layers:
                layer.on_deleted(u, v, cut)
        elif cut is None and self._scales and any(
                self.patch[i].level[x] is INF for i, nodes in raised for x in nodes):
            # a node a patch tree dropped is past the range now, or cut off
            # by a split the capped search missed (see the module docstring)
            self.layers = build_covers(self.g, self._scales)

    def stats(self) -> Counter:
        """The patch trees' work counters plus every layer's ``stats``."""
        stats = tree_stats(self.patch)
        for layer in self.layers:
            stats.update(layer.stats())
        return stats

    def query(self, x: int, y: int):
        """Estimate with dist <= result <= (1+eps)*dist; INF if disconnected.

        The patch is exact up to its range; past it, ``search_layers`` answers.
        """
        if not (0 <= x < self.g.n and 0 <= y < self.g.n):
            raise NodeOutOfRange(f"pair ({x}, {y}) out of range")
        d = self.patch[x].level[y]
        if d <= self.patch_range:
            return d
        return search_layers(self.layers, x, y)
