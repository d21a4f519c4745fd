"""Classic Even-Shiloach tree: exact decremental single-source distances up
to a depth bound, over a shared ``DecrementalGraph``.

On an unweighted graph without insertions the monotone ES-tree is the classic
tree, so ``EsTree`` is a ``MonotoneEsTree`` on the graph's own adjacency,
whose weights are all 1, kept to depth bound ``depth``. A tree starts from
a BFS from its root, or, when the owner builds many trees at one graph
version, from a ``TreeStart`` that ``graph_core.RootDistances`` sets for a
block of roots in one vectorised pass: ``ApspIndexDet`` and the emulator's
hub trees build block by block that way, and the index's later opens and
moves search. The owner deletes
an edge from the graph once and calls ``after_delete`` on every tree, which
repairs through one DELETE event.
Levels, the one-step drop of a cut-off side and the work counters
(``level_increases``, and ``ops``, which counts neighbour checks) are the
monotone tree's; ``monotone_es_tree`` shows why they are exact.
"""

from __future__ import annotations

from .errors import InvalidParameters
from .graph_core import DELETE, INF, DecrementalGraph, TreeStart
from .monotone_es_tree import MonotoneEsTree

__all__ = ["EsTree"]


class EsTree(MonotoneEsTree):
    def __init__(self, graph: DecrementalGraph, root: int, depth: int,
                 start: TreeStart | None = None):
        """Build a tree on a shared unweighted graph.

        ``depth`` is the distance range: any node farther than ``depth`` from
        ``root`` has level infinity; ``bound`` holds it. With ``start``, the
        state ``RootDistances.starts`` set for this root and depth at the
        graph's current version, the tree takes it instead of searching.
        """
        if start is not None and (start.graph is not graph or start.version != graph.version):
            raise InvalidParameters(
                f"the distances are not of this graph at its version {graph.version}")
        self._setup(graph._adj, root, depth, start)

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
