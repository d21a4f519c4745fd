"""Classic Even-Shiloach tree: exact decremental single-source distances up
to a depth bound, over a shared ``DecrementalGraph``.

On an unweighted graph without insertions the monotone ES-tree is the classic
tree, so ``EsTree`` is a ``MonotoneEsTree`` on the graph's own adjacency,
whose weights are all 1, kept to depth bound ``depth``. A tree starts from
a BFS from its root, or from its root's row of a ``graph_core.RootDistances``
block: ``EsTree.from_rows`` sets the trees of many roots of a block in one
vectorised pass, as ``ApspIndexDet`` and the emulator's hub trees do at
build time. ``set_depth`` changes the depth a tree is kept to in place, so
one tree serves readers of several depths, as ``ApspIndexDet``'s do; a
deeper tree continues its search from its old depth, exact on unit weights.
The owner deletes an edge from the graph once and repairs its trees with
``after_delete_all``, which calls ``after_delete`` only on the trees whose
levels the deletion changes. Levels, the one-step drop of a
cut-off side and the work counters (``level_increases``, and ``ops``,
which counts neighbour checks) are the monotone tree's;
``monotone_es_tree`` shows why they are exact. Other modules read them
through ``stats`` and ``tree_stats``.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from .errors import InvalidParameters
from .graph_core import INF, DecrementalGraph, RootDistances
from .monotone_es_tree import MonotoneEsTree

__all__ = ["EsTree", "after_delete_all", "tree_stats"]


class EsTree(MonotoneEsTree):
    def __init__(self, graph: DecrementalGraph, root: int, depth: int, _state=None):
        """Build a tree on a shared unweighted graph by a BFS from ``root``.

        ``depth`` is the distance range: any node farther than ``depth`` from
        ``root`` has level infinity; ``bound`` holds it. ``_state`` is
        ``from_rows``'s alone.
        """
        self._setup(graph._adj, root, depth, _state)

    @classmethod
    def from_rows(cls, rows: RootDistances, roots: list[int],
                  depth: int | list[int]) -> list[EsTree]:
        """The trees of ``roots``, all in the current block of ``rows``, to
        ``depth``, one for all or one per root, set from their rows in one
        vectorised pass instead of a search each. Raises
        ``InvalidParameters`` before it builds a tree if a root is not in
        the block, the graph has changed or ``depth`` is a list of another
        length."""
        if np.ndim(depth) and len(depth) != len(roots):
            raise InvalidParameters(f"need {len(roots)} depths, got {len(depth)}")
        depths = np.broadcast_to(depth, len(roots)).tolist()
        return [cls(rows.graph, x, d, _state=state)
                for x, d, state in zip(roots, depths, rows.starts(roots, depths))]

    def set_depth(self, depth: int) -> None:
        """Keep the tree to ``depth`` from now on, in the same ``level`` and
        ``_count`` lists, so every reader's list stays valid. A deeper tree
        continues its search from the nodes at its old depth on the graph
        as it stands (``MonotoneEsTree._search``); a shallower one sets
        every level past ``depth`` to INF and its count to 0, the state of
        a tree kept to ``depth``. Neither counts as work."""
        old = self.bound
        self._set_bound(depth)
        if depth > old:
            self._search(old)
        elif depth < old:
            level, count = self.level, self._count
            for y, ly in enumerate(level):
                if ly > depth:  # INF too
                    level[y] = INF
                    count[y] = 0

    def after_delete(self, u: int, v: int, cut=None) -> set[int]:
        """Repair levels after (u, v) was removed from the shared graph.

        ``cut`` is the side this deletion split off the graph
        (``DecrementalGraph.split_side``), or None. Returns the nodes whose
        level rose. ``after_delete_all`` shows why the repair is complete.
        """
        if cut is not None:
            return self._drop_side(cut)
        level = self.level
        lu, lv = level[u], level[v]
        if lu - lv not in (1, -1):  # INF on either side gives inf or nan
            return set()
        hi = u if lu > lv else v
        self._count[hi] -= 1
        raised: set[int] = set()
        self._raise_levels((hi,), raised)  # raises hi only if it lost its last support
        return raised

    @property
    def messages(self) -> int:
        """``ops`` under its earlier name, which perfbench's tracer reads."""
        return self.ops


def after_delete_all(trees: list[EsTree], u: int, v: int,
                     cut=None) -> list[tuple[int, set[int]]]:
    """Repair ``trees`` after their shared graph lost (u, v), with ``cut``
    as in ``EsTree.after_delete``; returns (i, raised) for each tree
    ``trees[i]`` that raised a node, in index order.

    Levels are exact, so unless u and v sit on adjacent levels the edge
    supported neither endpoint and no level changes; otherwise it supported
    only the higher one. Without a cut, a tree where that endpoint keeps
    another support only has its count lowered here and is not called.
    With a cut, a tree with a finite node on the side without its root
    reached it through (u, v): u and v sit on adjacent levels, the lower
    one on the root's side, where it leaned on no node of the other side.
    So no support on the root's side changes, and dropping the other side
    is the whole repair; a tree skipped with a cut has nothing to drop.
    """
    out = []
    for i, tree in enumerate(trees):
        level = tree.level
        lu, lv = level[u], level[v]
        if lu - lv not in (1, -1):
            continue
        if cut is None:
            count = tree._count
            hi = u if lu > lv else v
            if count[hi] > 1:
                count[hi] -= 1
                continue
        raised = tree.after_delete(u, v, cut)
        if raised:
            out.append((i, raised))
    return out


def tree_stats(trees) -> Counter:
    """The sum of ``stats`` over ``trees``, without a dict per tree."""
    return Counter(level_increases=sum(t.level_increases for t in trees),
                   ops=sum(t.ops for t in trees))
