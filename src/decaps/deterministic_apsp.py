"""Deterministic (1+eps, 0)-approximate decremental APSP.

Two pieces:

* :class:`DetCenterCover`: a ``center_cover.CenterCover`` whose centers it
  opens and moves, with counters for the number of opens and the total
  moving distance, so one object per layer holds the cover lists and the
  ledger. Each center j carries a collected set T^j and a radius r^j = q/2 -
  |T^j| (kept in half-units so odd q stays exact). After a deletion, at
  most one center sits in a component smaller than its radius; that center
  absorbs the component into T^j and moves across the deleted edge, then a
  greedy pass opens centers at uncovered nodes in ascending id order.
* :class:`ApspIndexDet`: an exact patch up to 2^{p+2} for the largest scale
  p whose cover radius floor(eps_int * 2^p) is 0, and one cover per larger
  scale, giving the (1 + 2*eps_int) guarantee past the patch; its query
  hands the covers, its ``layers``, to ``search_layers``. The public eps is
  halved internally so queries satisfy dist <= answer <= (1+eps)*dist.

The index keeps one exact tree per root, ``patch[x]``, kept to the depth of
its deepest reader: the patch's range, or the bound Q of every cover with a
center at x. Each reader cuts the levels at its own depth, which gives the
levels of a tree kept to that depth (``RandomCenterCover`` proves it for
monotone trees, and an exact tree is one). A cover owns no tree: a center
deepens the tree at the node it arrives at (``EsTree.set_depth``) and
lowers the one it leaves to the depth of its remaining readers.

The covers are built only once they can answer: while every finite
distance is within the patch's range, the patch is exact and ``layers``
stays empty. A cover built from scratch on G_t keeps its properties from t
on (``FullyDynamicApsp`` relies on this at every phase start), so all of
them are built at once, on the graph as it stands, when a finite distance
first passes the range:

* At construction, in the first block of rows that holds such a
  distance: ``build_covers`` builds the covers over the trees of the
  blocks before it, and they join the index's sweep from that block on.
* In the deletion that first pushes one past it. Distances only grow, so
  its tree had the far node in range and drops it to INF. A cut that
  ``split_side`` found changes no distance on the root's side, so only a
  deletion without one fires; a split the capped search missed drops
  nodes the same way and builds the covers early, which is safe.

Construction is block-major: one wide search from many roots
(``graph_core.RootDistances``) hands out their rows and support counts a
block of 64 roots at a time, in ascending blocks. Over each block every
cover runs its greedy pass over the block's nodes, registering each
open's ball from its row, and then one ``EsTree.from_rows`` call sets the
block's trees, each at its depth. Covers open in ascending node order and
the decision at x reads only the cover lists of centers opened at smaller
nodes, so this opens what one pass over all nodes would. Only one block
of rows is held at a time. Over trees that exist already,
``build_covers`` opens through ``open``, as a deletion does: it deepens
the tree at its node.

A deletion runs in three steps and costs work in proportion to what it
changes, not to n:

1. Every cover's ``on_deleted`` reads the levels from before the deletion:
   it finds the center that moves, pops its old ball and lowers the tree it
   leaves. The candidate is looked up in u's cover list only: a ball has
   radius r^j <= q/2 and levels are integers, so a ball that holds u puts
   u within q // 2 of its center, inside the cover radius q. Component
   checks are bounded BFS (``DecrementalGraph.small_component``), which
   stop once the limit is reached.
2. The index repairs its trees through ``es_tree.after_delete_all``, which
   calls only the trees whose levels the deletion changes. One split search
   (``DecrementalGraph.split_side``) scans at most about 8 * ceil(sqrt(n))
   nodes; when it finds the side the deletion cut off, every tree drops
   its root-less side in one pass.
3. Every cover's ``after_delete`` pops the nodes a tree raised past the
   cover radius, moves its center and re-checks, in ascending id order,
   the nodes that left a cover list: after the construction's full scan,
   every node is covered or in a component of fewer than q nodes, and
   opens only add coverage, so this opens what a full scan would.
"""

from __future__ import annotations

import math
from collections import Counter

from .center_cover import CenterCover, search_layers
from .errors import (
    InvalidEpsilon,
    InvalidParameters,
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

    The cover lists and reads are ``CenterCover``'s, with ``bound`` = Q;
    ``_levels[j]`` is the level list of ``trees[location(j)]``. Centers open
    more than q apart, so balls of integer radius at most q // 2 around
    them are disjoint, and every ball lies inside its center's cover lists,
    which the candidate lookup needs. A center lies in its own ball (r^j >=
    0 after every move), so no two sit at one node.

    ``open`` and ``move`` deepen the tree at their node. The index's sweep
    (``_build_block``) opens with ``_register`` instead, the ball read off
    a ``RootDistances`` block. A cover is built only by ``build_covers``.
    """

    def __init__(self, g: DecrementalGraph, q: int, Q: int, trees: list[EsTree],
                 peers: list[DetCenterCover], floor: int):
        if not (isinstance(q, int) and isinstance(Q, int) and 1 <= q <= Q):
            raise InvalidRange(f"need integers 1 <= q <= Q, got q={q!r}, Q={Q!r}")
        super().__init__(g.n, q, Q)
        self.g = g
        self.trees = trees    # the shared tree at every root
        self._peers = peers   # every cover reading ``trees``, this one too
        self._floor = floor   # the depth of a tree no center reads
        self._at: dict[int, int] = {}  # node -> the center there
        self._moving = None   # (j, node, distance, popped) between the steps
        self.opens = 0
        self.moving_distance = 0
        self._round_ops: set[int] = set()
        self.collected: list[set[int]] = []   # T^j
        self.radius2: list[int] = []          # 2 * r^j, exact in half-units

    @property
    def mc(self) -> DetCenterCover:
        """``self``, where perfbench's tracer reads a layer's moving centers."""
        return self

    def open(self, x: int) -> int:
        """Open a new center at x; returns its id."""
        self._check_free(x)
        level = self._deepen(x)
        j = self._register(x, self._ball(level))
        self._levels.append(level)
        return j

    def _register(self, x: int, ball) -> int:
        """A new center at x whose ball is ``ball``: its id, in the cover
        lists of the ball, with an empty T^j and r^j = q/2; its level list
        is set by ``open`` or ``_build_block``."""
        j = len(self._location)
        self._location.append(x)
        self._at[x] = j
        self.collected.append(set())
        self.radius2.append(self.cover_radius)
        self._list(j, ball)
        self.opens += 1
        self._round_ops.add(j)
        return j

    def _check_free(self, x: int, j: int | None = None) -> None:
        """Refuse a node outside the graph or one where a center other than
        j sits: a cover reads one tree per node."""
        self._check_node(x)
        if self._at.get(x, j) != j:
            raise InvalidParameters(f"center {self._at[x]} already sits at node {x}")

    def _deepen(self, x: int) -> list:
        """The level list of the tree at x, deepened to ``bound`` if it is
        shallower."""
        tree = self.trees[x]
        if tree.bound < self.bound:
            tree.set_depth(self.bound)
        return tree.level

    def _leave(self, j: int) -> list[int]:
        """Take center j off its node: pop its ball from the cover lists and
        lower the tree there to its deepest remaining reader. Returns the
        popped nodes; none if j has left already (``on_deleted``)."""
        x = self._location[j]
        if x is None:
            return []
        popped = self._ball(self._levels[j])
        for y in popped:
            self._cover[y].pop(j, None)
        self._location[j] = None
        del self._at[x]
        depth = max([self._floor] + [c.bound for c in self._peers if x in c._at])
        self.trees[x].set_depth(depth)
        return popped

    def move(self, j: int, x: int, distance) -> list[int]:
        """Relocate center j to x, deepening the tree there if needed.

        ``distance`` is the moving distance to charge: the distance between
        the old and the new location in the pre-move graph. Returns the nodes
        of the old ball, which were popped from their cover lists.
        """
        self._check_center(j)
        self._check_free(x, j)
        if j in self._round_ops:
            raise RateViolation(
                f"center {j} already opened or moved since the last deletion")
        self._round_ops.add(j)
        popped = self._leave(j)
        self.moving_distance += distance
        self._location[j] = x
        self._at[x] = j
        level = self._levels[j] = self._deepen(x)
        self._list(j, self._ball(level))
        return popped

    def stats(self) -> Counter:
        """The ``opens`` and the ``moving_distance``; the trees report to
        their owner."""
        return Counter(opens=self.opens, moving_distance=self.moving_distance)

    # -- Alg. 3 --------------------------------------------------------------

    def _greedy_open(self, nodes, rows: RootDistances | None = None) -> None:
        """Open a center at each uncovered node whose component has >= q nodes.

        Visits ``nodes`` in ascending id order. With ``rows`` (the index's
        sweep), the nodes lie in its current block and each open only
        registers.
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

    def on_deleted(self, u: int, v: int) -> None:
        """Step 1 of a deletion (see the module docstring): opens a new
        open/move window and, on the levels from before the deletion, finds
        the (at most one) center whose radius-r^j ball held u. If the
        deletion left it in a component smaller than r^j, it collects the
        component and leaves its node; ``after_delete`` moves it across the
        deleted edge."""
        self._round_ops = set()
        levels = self._levels
        candidates = [j for j in self._cover[u] if 2 * levels[j][u] <= self.radius2[j]]
        if len(candidates) > 1:
            raise InvariantViolation(
                f"ball disjointness violated: {sorted(candidates)}")
        if not candidates:
            return
        j = candidates[0]
        # 2 * |comp| < radius2  <=>  |comp| < ceil(radius2 / 2)
        comp = self.g.small_component(self._location[j], (self.radius2[j] + 1) // 2)
        if comp is None:
            return
        y = v if u in comp else u
        d = levels[j][y]  # still the pre-deletion distance
        self.collected[j] |= comp
        self.radius2[j] -= 2 * len(comp)
        self._moving = (j, y, d if d <= self.bound else INF, self._leave(j))

    def after_delete(self, raised) -> None:
        """Step 3 of a deletion: ``raised`` maps each x whose tree
        ``trees[x]`` raised nodes to them. Updates the cover lists, moves the
        center ``on_deleted`` took off its node and re-checks the nodes that
        left a cover list."""
        at = self._at
        freed = self._uncover(
            [(j, nodes) for x, nodes in raised.items() if (j := at.get(x)) is not None])
        if self._moving is not None:
            j, y, distance, popped = self._moving
            self._moving = None
            freed.update(popped)
            self.move(j, y, distance)
        self._greedy_open(freed)


def _build_block(covers: list[DetCenterCover], trees: list[EsTree], floor: int,
                 block: range, rows: RootDistances) -> None:
    """Every cover's greedy pass over ``block``, the current block of
    ``rows`` (``trees`` holds the trees of every earlier block, and every
    cover has had its pass over them), then the block's trees at the depth
    of their deepest reader, set from the rows by one ``from_rows`` call."""
    depth = {}
    for cover in covers:
        first = len(cover._location)
        cover._greedy_open(block, rows)
        for x in cover._location[first:]:
            depth[x] = max(depth.get(x, floor), cover.bound)
    trees += EsTree.from_rows(rows, block, [depth.get(x, floor) for x in block])
    for cover in covers:
        cover._levels += [trees[x].level for x in cover._location[len(cover._levels):]]


def build_covers(g: DecrementalGraph, scales, trees: list[EsTree] | None = None,
                 floor: int = 1) -> list[DetCenterCover]:
    """One cover per (q, Q) in ``scales``, in their order, built on ``g`` as
    it stands: each cover's greedy pass over the roots of ``trees`` opens
    through ``open``, which deepens the tree at its node.

    ``trees`` is an index's list of trees at the roots 0, 1, ..., kept to
    ``floor``; the index hands the covers every later root through
    ``_build_block``. Without it, the covers first get trees of depth
    ``floor`` at every node from one ``RootDistances`` sweep."""
    if trees is None:
        rows = RootDistances(g)
        trees = [tree for block in rows.blocks()
                 for tree in EsTree.from_rows(rows, block, floor)]
    covers: list[DetCenterCover] = []
    covers += [DetCenterCover(g, q, Q, trees, covers, floor) for q, Q in scales]
    for cover in covers:
        cover._greedy_open(range(len(trees)))
    return covers


# the name perfbench's tracer imports; it goes with the ``mc`` alias when the
# tracer next changes (ROADMAP item 9)
MovingCenters = DetCenterCover


class ApspIndexDet:
    """An exact patch and up to ceil(log n) deterministic covers answering
    (1+eps)-approximate queries. ``patch[x]`` is the one exact tree rooted at
    x, kept to the depth of its deepest reader (see the module docstring);
    the patch reads it up to ``patch_range``. ``layers[k]`` is the k-th
    cover, with (q, Q) in its ``cover_radius`` and ``bound``; ``layers`` is
    empty until a finite distance passes ``patch_range``."""

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
            if not self.layers and rows.farthest() > self.patch_range:
                self.layers = build_covers(g, self._scales, self.patch, self.patch_range)
            _build_block(self.layers, self.patch, self.patch_range, block, rows)

    def delete(self, u: int, v: int) -> None:
        """Delete (u, v): the three steps of the module docstring."""
        self.g.delete_edge(u, v)
        cut = self.g.split_side(u, v)
        layers = self.layers
        for layer in layers:
            layer.on_deleted(u, v)
        raised = after_delete_all(self.patch, u, v, cut)
        if layers:
            raised = dict(raised)
            for layer in layers:
                layer.after_delete(raised)
        elif cut is None and self._scales and any(
                self.patch[x].level[y] is INF for x, nodes in raised for y in nodes):
            # a node a tree dropped is past the range now, or cut off by a
            # split the capped search missed (see the module docstring)
            self.layers = build_covers(self.g, self._scales, self.patch, self.patch_range)

    def stats(self) -> Counter:
        """The trees' work counters plus every layer's ``stats``."""
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
