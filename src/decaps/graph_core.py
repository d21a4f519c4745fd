"""Versioned decremental graph, deletion traces, and the update-event vocabulary.

Nodes are dense integer ids 0..n-1. The edge set only shrinks; every applied
deletion bumps the version counter by one. Both graphs keep one adjacency
shape, ``adj[u]`` mapping each neighbor of u to the edge weight, so one tree
engine reads either: ``DecrementalGraph`` stores weight 1 on every edge, and
has_edge (needed by the (2+eps, 0) query wrapper) is a constant-time
membership test. ``WeightedAdjacency`` is the weighted graph that update
events act on: the emulator owns one, and every monotone tree reads it.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Iterable, NamedTuple

from .errors import (
    DuplicateEdge,
    EdgeAbsent,
    InvalidParameters,
    NodeOutOfRange,
    NonIncreasingWeight,
    OrderViolation,
    SelfLoop,
    UnknownEdge,
)

INF = math.inf

INSERT = "insert"
DELETE = "delete"
INCREASE = "increase"


class UpdateEvent(NamedTuple):
    """One update of a dynamic weighted graph.

    kind is one of INSERT, DELETE, INCREASE. For INSERT and INCREASE the
    weight field carries the new weight; for DELETE it is INF. ``old`` is the
    weight just before the event, None for INSERT; WeightedAdjacency.apply
    fills it in.
    """

    kind: str
    u: int
    v: int
    weight: float
    old: float | None = None


def edge_key(u: int, v: int) -> tuple[int, int]:
    """Canonical (min, max) key for an undirected edge."""
    return (u, v) if u < v else (v, u)


def cut_off(level: list, root: int, side: set[int]) -> list[int]:
    """The nodes at a finite ``level`` on the side of a split without ``root``.

    ``side`` is one side of the split (``DecrementalGraph.split_side``).
    Rooted outside it, a tree scans only the side; rooted inside, it scans
    every node.
    """
    if root in side:
        return [y for y, ly in enumerate(level) if ly is not INF and y not in side]
    return [y for y in side if level[y] is not INF]


class DecrementalGraph:
    """Unweighted undirected graph under a sequence of single-edge deletions."""

    __slots__ = ("n", "version", "m0", "_adj", "_m")

    def __init__(self, n: int):
        if n < 0:
            raise NodeOutOfRange(f"negative node count {n}")
        self.n = n
        self.version = 0
        self.m0 = 0
        self._m = 0
        self._adj: list[dict[int, int]] = [dict() for _ in range(n)]  # weight 1

    @classmethod
    def from_edge_list(cls, n: int, edges: Iterable[tuple[int, int]]) -> "DecrementalGraph":
        g = cls(n)
        for u, v in edges:
            g._check_node(u)
            g._check_node(v)
            if u == v:
                raise SelfLoop(f"self-loop at node {u}")
            if v in g._adj[u]:
                raise DuplicateEdge(f"duplicate edge ({u}, {v})")
            g._adj[u][v] = 1
            g._adj[v][u] = 1
            g._m += 1
        g.m0 = g._m
        return g

    def _check_node(self, x: int) -> None:
        if not 0 <= x < self.n:
            raise NodeOutOfRange(f"node {x} not in [0, {self.n})")

    @property
    def m(self) -> int:
        """Current number of edges."""
        return self._m

    def has_edge(self, u: int, v: int) -> bool:
        self._check_node(u)
        self._check_node(v)
        return v in self._adj[u]

    def degree(self, u: int) -> int:
        self._check_node(u)
        return len(self._adj[u])

    def neighbors(self, u: int):
        """Current neighbors of u, a live set-like view."""
        self._check_node(u)
        return self._adj[u].keys()

    def neighbors_sorted(self, u: int) -> list[int]:
        return sorted(self.neighbors(u))

    def delete_edge(self, u: int, v: int) -> None:
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise SelfLoop(f"self-loop at node {u}")
        if v not in self._adj[u]:
            raise EdgeAbsent(f"edge ({u}, {v}) not present at version {self.version}")
        del self._adj[u][v]
        del self._adj[v][u]
        self._m -= 1
        self.version += 1

    def component_of(self, x: int) -> set[int]:
        """BFS-computed connected component of x at the current version."""
        return self.small_component(x, self.n + 1)  # no component reaches n + 1

    def small_component(self, x: int, limit: int) -> set[int] | None:
        """x's component if it has fewer than ``limit`` nodes, else None.

        The BFS stops as soon as it has seen ``limit`` nodes, so it scans the
        adjacency of fewer than ``limit`` nodes whatever the component's size.
        """
        self._check_node(x)
        if limit <= 1:
            return None
        seen = {x}
        queue = deque((x,))
        adj = self._adj
        while queue:
            y = queue.popleft()
            for z in adj[y]:
                if z not in seen:
                    seen.add(z)
                    if len(seen) >= limit:
                        return None
                    queue.append(z)
        return seen

    def split_side(self, u: int, v: int) -> set[int] | None:
        """The side a deletion of (u, v) cut off, or None.

        Call it right after (u, v) was deleted. Two BFS run in lockstep, one
        node at a time, from u and from v. The first whose queue runs dry
        has found its whole component, which holds only one of u and v: that
        node set is returned. A node seen by both searches means u and v are
        still connected, and the result is None. A search that has seen more
        than 4 * ceil(sqrt(n)) nodes stops; once both have stopped the
        result is None too. So the search scans at most about
        8 * ceil(sqrt(n)) nodes, and a returned side has at most
        4 * ceil(sqrt(n)).
        """
        self._check_node(u)
        self._check_node(v)
        cap = 4 * (math.isqrt(self.n - 1) + 1)  # 4 * ceil(sqrt(n)) for n >= 1
        adj = self._adj
        seen_u, seen_v = {u}, {v}
        sides = [(seen_u, deque((u,)), seen_v), (seen_v, deque((v,)), seen_u)]
        i = 0
        while True:
            seen, queue, other = sides[i]
            if not queue:
                return seen
            for z in adj[queue.popleft()]:
                if z not in seen:
                    if z in other:
                        return None
                    seen.add(z)
                    queue.append(z)
            if len(seen) > cap:
                del sides[i]
                if not sides:
                    return None
                i = 0
            elif len(sides) == 2:
                i = 1 - i

    def component_size(self, x: int) -> int:
        return len(self.component_of(x))

    def edges(self) -> list[tuple[int, int]]:
        """Current edges as sorted (u, v) pairs with u < v."""
        out = []
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    out.append((u, v))
        out.sort()
        return out

    def copy(self) -> "DecrementalGraph":
        """Independent snapshot at the current version (version resets to 0)."""
        return DecrementalGraph.from_edge_list(self.n, self.edges())

    def apply_trace(self, trace: "DeletionTrace") -> None:
        for u, v in trace:
            self.delete_edge(u, v)


class WeightedAdjacency:
    """Weighted undirected graph changed only by whole event batches.

    ``adj[u]`` maps each neighbor of u to the edge weight, at least 1.
    Readers share the lists and never write them; :meth:`apply` is the only
    writer.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: dict[tuple[int, int], int]):
        self.n = n
        self.adj: list[dict[int, int]] = [dict() for _ in range(n)]
        for (u, v), w in edges.items():
            if not w >= 1:
                raise InvalidParameters(f"edge weight must be >= 1, got {w}")
            self.adj[u][v] = w
            self.adj[v][u] = w

    def edges(self) -> dict[tuple[int, int], int]:
        """Current edges as {(u, v) with u < v: weight}."""
        return {(u, v): w for u in range(self.n) for v, w in self.adj[u].items() if u < v}

    def apply(self, events) -> list[UpdateEvent]:
        """Check a whole ordered batch, then apply it; returns it with ``old`` set.

        The batch holds insertions first, then weight increases and
        deletions. Every event is checked against the graph as the earlier
        events of the batch leave it (order, kind, node range, no self-loop,
        edge present or absent, inserted weight at least 1, weight strictly
        increasing) before the first one is applied, so a rejected batch
        leaves the graph unchanged.
        """
        adj = self.adj
        pending: dict[tuple[int, int], int | None] = {}
        out: list[UpdateEvent] = []
        saw_non_insert = False
        for kind, u, v, w, _ in events:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise NodeOutOfRange(f"edge ({u}, {v}) not in [0, {self.n})")
            if u == v:
                raise SelfLoop(f"self-loop at node {u}")
            key = edge_key(u, v)
            old = pending[key] if key in pending else adj[u].get(v)
            if kind == INSERT:
                if saw_non_insert:
                    raise OrderViolation(
                        f"insert of ({u}, {v}) after a non-insert event in one batch")
                if old is not None:
                    raise UnknownEdge(f"insert of edge ({u}, {v}) which is already present")
                if not w >= 1:
                    raise InvalidParameters(f"edge weight must be >= 1, got {w}")
                pending[key] = w
            elif kind == INCREASE or kind == DELETE:
                saw_non_insert = True
                if old is None:
                    raise UnknownEdge(f"{kind} of absent edge ({u}, {v})")
                if kind == INCREASE and not w > old:
                    raise NonIncreasingWeight(
                        f"weight of ({u}, {v}) must increase past {old}, got {w}")
                pending[key] = None if kind == DELETE else w
            else:
                raise UnknownEdge(f"unknown event kind {kind!r}")
            out.append(UpdateEvent(kind, u, v, w, old))
        for kind, u, v, w, _ in out:
            if kind == DELETE:
                del adj[u][v]
                del adj[v][u]
            else:
                adj[u][v] = w
                adj[v][u] = w
        return out


class DeletionTrace:
    """Ordered list of edge deletions; pair i must exist when applied to G_{i-1}."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: Iterable[tuple[int, int]]):
        self.pairs = [(int(u), int(v)) for u, v in pairs]

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)

    def __getitem__(self, i):
        return self.pairs[i]

    def prefix(self, k: int) -> "DeletionTrace":
        return DeletionTrace(self.pairs[:k])


# --- file formats ----------------------------------------------------------
#
# Edge-list file: first line "n m", then m lines "u v".
# Trace file: k lines "u v" in deletion order.
# Whitespace-delimited decimal, LF-terminated.


def write_edge_list(g: DecrementalGraph, path: str) -> None:
    edges = g.edges()
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(f"{g.n} {len(edges)}\n")
        for u, v in edges:
            fh.write(f"{u} {v}\n")


def read_edge_list(path: str) -> DecrementalGraph:
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) < 2:
        raise ValueError(f"{path}: missing 'n m' header")
    n, m = int(tokens[0]), int(tokens[1])
    body = tokens[2:]
    if len(body) != 2 * m:
        raise ValueError(f"{path}: expected {2 * m} endpoints, got {len(body)}")
    edges = [(int(body[2 * i]), int(body[2 * i + 1])) for i in range(m)]
    return DecrementalGraph.from_edge_list(n, edges)


def write_trace(trace: DeletionTrace, path: str) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for u, v in trace:
            fh.write(f"{u} {v}\n")


def read_trace(path: str) -> DeletionTrace:
    with open(path, "r", encoding="ascii") as fh:
        tokens = fh.read().split()
    if len(tokens) % 2:
        raise ValueError(f"{path}: odd number of endpoints")
    return DeletionTrace(
        (int(tokens[2 * i]), int(tokens[2 * i + 1])) for i in range(len(tokens) // 2)
    )
