"""Classic Even-Shiloach tree: exact decremental single-source distances up
to a depth bound, over a shared ``DecrementalGraph``.

On an unweighted graph without insertions the monotone ES-tree is the classic
tree, so ``EsTree`` is a ``MonotoneEsTree`` on the graph's own adjacency,
whose weights are all 1, with alpha 1, beta 0 and tau 1: its depth bound is
``depth``. The owner deletes an edge from the graph once and calls
``after_delete`` on every tree, which repairs through one DELETE event.
Levels, the one-step drop of a cut-off side and the work counters
(``level_increases``, ``ops``) are the monotone tree's; ``monotone_es_tree``
shows why they are exact.
"""

from __future__ import annotations

from .graph_core import DELETE, INF, DecrementalGraph
from .monotone_es_tree import COUNTER, HEAP, MonotoneEsTree

__all__ = ["COUNTER", "HEAP", "EsTree"]


class EsTree(MonotoneEsTree):
    def __init__(self, graph: DecrementalGraph, root: int, depth: int,
                 backend: str = COUNTER):
        """Build a tree on a shared unweighted graph.

        ``depth`` is the distance range: any node farther than ``depth`` from
        ``root`` has level infinity; ``bound`` holds it.
        """
        self._setup(graph._adj, root, depth, 1, 0, 1, backend)

    def after_delete(self, u: int, v: int, cut=None) -> set[int]:
        """Repair levels after (u, v) was removed from the shared graph.

        ``cut`` is the side this deletion split off the graph
        (``DecrementalGraph.split_side``), or None. Returns the nodes whose
        level rose.
        """
        if cut is not None:
            # every path to the root from the endpoint on the side without
            # it ran through the other endpoint, which therefore sat a level
            # lower and did not lean on it: no support on the root's side
            # changes, and dropping the other side is the whole repair
            return self._drop_side(cut)
        return self._apply(((DELETE, u, v, INF, 1),))

    @property
    def messages(self) -> int:
        """``ops`` under its earlier name, which perfbench's tracer reads."""
        return self.ops
