"""Approximate center covers, the layers of both APSP indexes, and the
layered query over them.

A cover of one distance scale keeps centers at node locations. Center j
reads a single-source tree whose levels never underestimate distance, cut
off to INF past the cover's depth bound ``bound``. Node x's cover list S_x
holds the centers whose level at x is at most the cover radius
``cover_radius``; it is a dict used as an insertion-ordered set, so
``find_center`` returns its oldest entry in O(1). ``CenterCover`` owns this
format: ``_location[j]``, the level list ``_levels[j]`` of j's tree, which
the tree updates in place, and the lists ``_cover[x]``. A subclass builds
the trees and reports, once per update, the nodes each tree raised to
``_uncover``. ``RandomCenterCover`` fixes its centers at build time;
``DetCenterCover`` opens and moves them.

Either index answers a query past its patch with ``search_layers`` over its
``layers``, after Roditty and Zwick (2012).
"""

from __future__ import annotations

from .errors import NodeOutOfRange, UnknownCenter
from .graph_core import INF


def search_layers(layers, x: int, y: int):
    """The estimate of the minimal usable layer for valid x and y; INF
    without layers. A layer is usable when x has no center or y is within
    the bound of x's first center, and estimates x's level plus y's there.
    x's level is within the cover radius, below the bound, so it needs no
    cut.
    """
    lo, hi = 0, len(layers) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        layer = layers[mid]
        cov = layer._cover[x]
        if not cov or layer._levels[next(iter(cov))][y] <= layer.bound:
            hi = mid
        else:
            lo = mid + 1
    if not layers:
        return INF
    layer = layers[lo]
    cov = layer._cover[x]
    if not cov:
        return INF
    level = layer._levels[next(iter(cov))]
    ly = level[y]
    return level[x] + ly if ly <= layer.bound else INF


class CenterCover:
    """Centers on n nodes, their levels and the per-node cover lists.

    Center j is in S_x while its level at x is at most ``cover_radius``;
    ``distance`` reads a level l as l if l <= ``bound`` else INF.
    """

    def __init__(self, n: int, cover_radius: int, bound: int):
        self.cover_radius = cover_radius
        self.bound = bound
        self._location: list[int] = []
        self._levels: list[list] = []
        self._cover: list[dict[int, bool]] = [dict() for _ in range(n)]

    @property
    def centers(self) -> list[int]:
        """Center j's location at index j (the live list, not a copy)."""
        return self._location

    def _check_center(self, j: int) -> None:
        if not 0 <= j < len(self._location):
            raise UnknownCenter(f"center {j} does not exist")

    def _check_node(self, x: int) -> None:
        if not 0 <= x < len(self._cover):
            raise NodeOutOfRange(f"node {x} not in [0, {len(self._cover)})")

    def location(self, j: int) -> int:
        """The node center j sits at."""
        self._check_center(j)
        return self._location[j]

    def distance(self, j: int, x: int):
        """Estimate of dist(location(j), x); never underestimates, INF past
        ``bound``; O(1)."""
        self._check_center(j)
        self._check_node(x)
        lx = self._levels[j][x]
        return lx if lx <= self.bound else INF

    def find_center(self, x: int):
        """Some center whose level at x is within the cover radius, else None."""
        self._check_node(x)
        cov = self._cover[x]
        return next(iter(cov)) if cov else None

    def cover_list(self, x: int) -> list[int]:
        """S_x, oldest entry first."""
        self._check_node(x)
        return list(self._cover[x])

    def _ball(self, level) -> list[int]:
        """The nodes whose level in ``level`` is within the cover radius."""
        rho = self.cover_radius
        return [y for y, ly in enumerate(level) if ly <= rho]  # INF never is

    def _list(self, j: int, nodes) -> None:
        """Put center j in the cover lists of ``nodes``."""
        cover = self._cover
        for y in nodes:
            cover[y][j] = True

    def _uncover(self, pairs) -> set[int]:
        """Update the cover lists after one update: ``pairs`` holds (j,
        nodes) for each tree j that raised ``nodes``. Returns the nodes that
        left a cover list, those raised past the cover radius."""
        cover, levels, rho = self._cover, self._levels, self.cover_radius
        freed: set[int] = set()
        for j, nodes in pairs:
            level = levels[j]
            for x in nodes:
                # a node already past the radius holds no entry of j
                if level[x] > rho and cover[x].pop(j, False):
                    freed.add(x)
        return freed
