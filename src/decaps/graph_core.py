"""Versioned decremental graph, deletion traces, and the update-event vocabulary.

Nodes are dense integer ids 0..n-1. The edge set only shrinks; every applied
deletion bumps the version counter by one. Both graphs keep one adjacency
shape, ``adj[u]`` mapping each neighbor of u to the edge weight, so one tree
engine reads either: ``DecrementalGraph`` stores weight 1 on every edge, and
has_edge (needed by the (2+eps, 0) query wrapper) is a constant-time
membership test. ``WeightedAdjacency`` is the weighted graph that update
events act on: the emulator owns one, and every monotone tree reads it.
``RootDistances`` runs one bit-parallel BFS from many roots at once, at one
version of a ``DecrementalGraph``, and hands out the distances and support
counts it reads off that search's bit-planes a block of roots at a time:
the deterministic index and the emulator's hub trees set the exact trees
they build at construction from each block's rows, many trees in one
vectorised pass (``EsTree.from_rows``), and hold one block of rows at a
time. A level's gather stays within ``_SLAB`` words (one per edge at
least), and no temporary holds an integer per pair of nodes.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import chain
from typing import Iterable, NamedTuple

import numpy as np

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
        adj = g._adj
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                g._check_node(u)
                g._check_node(v)
            if u == v:
                raise SelfLoop(f"self-loop at node {u}")
            if v in adj[u]:
                raise DuplicateEdge(f"duplicate edge ({u}, {v})")
            adj[u][v] = 1
            adj[v][u] = 1
            m += 1
        g._m = g.m0 = m
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


# the (edge, word) pairs one level of a search gathers, and the (edge, root)
# pairs one slab of a block's counts sums
_SLAB = 1 << 15
_BLOCK = 64       # roots one block hands out
_WORD = np.dtype("<u8")  # little-endian, so unpackbits reads bit i as root i


class RootDistances:
    """Distances from ``roots``, ascending distinct nodes of a
    ``DecrementalGraph`` (every node by default), at one version: ``blocks``,
    ``starts``, ``within`` and ``farthest`` raise ``InvalidParameters`` once
    the graph has changed. Only this module reads the rows; trees are set
    from them through ``EsTree.from_rows``.

    ``blocks`` hands out the roots in ascending blocks of ``_BLOCK``. While a
    block is current, ``dist[i, y]`` is the distance from its i-th root to y,
    or ``unreached`` if y is not in that root's component: int16 below 32,767
    nodes. ``unreached`` is the dtype's largest value, above every distance;
    ``starts``, ``within`` and ``farthest`` cut at unreached - 1 at most, so
    no depth bound, n or more included, gives an unreached node a finite
    level.
    ``count[i, y]``, of the same dtype, is the number of y's neighbours one
    level below y from the i-th root: the support count of y in that root's
    exact tree at any depth bound y's level is within. A block of b roots
    takes 4 b n bytes below 32,767 nodes.

    One bit-parallel, level-synchronous search runs from many blocks of
    roots at once: each node holds W words of root bits, bit i set once the
    search's i-th root has reached it. One level ORs, for every node, the
    frontier words of its neighbours in one ``reduceat`` over the neighbour
    arrays and keeps the bits not seen before. W is the most words that keep
    this gather within ``_SLAB`` words (one word at least), rounded down to
    whole blocks. The distances are kept in bit-planes: plane j holds the
    new bits of every level whose number has bit j set. Each block unpacks
    its ``dist`` from the search's planes and ``seen`` words, and reads its
    counts off them too: for every edge (y, z), z's planes plus one, added
    bit-sliced, equal y's exactly on the bits of the roots with d(z) + 1 =
    d(y); a carry out of the top plane or an unreached end matches nothing.
    Those bits are unpacked and summed per node, about ``_SLAB`` (edge,
    root) pairs at a time. No temporary holds an integer per (root, node)
    pair: a search keeps n W words per plane and for ``seen``, a level
    gathers ``_SLAB`` words at most (one per edge if that is more), and a
    block adds its rows and counts.
    """

    __slots__ = ("graph", "version", "roots", "dist", "count", "unreached", "_dtype",
                 "_all_roots", "_src", "_dst", "_heads", "_has_edges")

    def __init__(self, g: DecrementalGraph, roots: list[int] | None = None):
        n = g.n
        adj = g._adj
        if roots is None:
            roots = range(n)
        elif any(not 0 <= x < n for x in roots):
            raise NodeOutOfRange(f"a root of {roots} is not in [0, {n})")
        elif any(x >= y for x, y in zip(roots, roots[1:])):
            raise InvalidParameters(f"the roots {roots} are not strictly ascending")
        self._all_roots = roots
        deg = np.fromiter(map(len, adj), np.intp, count=n)
        self.graph = g
        self.version = g.version
        # edge i runs from src[i] to dst[i]; the edges out of y are
        # dst[start[y]:start[y + 1]]
        start = np.zeros(n + 1, np.intp)
        np.cumsum(deg, out=start[1:])
        self._dst = np.fromiter(chain.from_iterable(adj), np.intp, count=int(start[-1]))
        self._src = np.repeat(np.arange(n, dtype=np.intp), deg)
        # reduceat gives an empty segment the element at its index, not 0,
        # and has no index past the last edge: reduce only the nodes with edges
        self._has_edges = deg > 0
        self._heads = start[:-1][self._has_edges]
        self._dtype = dtype = np.int16 if n < np.iinfo(np.int16).max else np.int32
        self.unreached = int(np.iinfo(dtype).max)
        self.roots = range(0)
        self.dist = self.count = None

    def blocks(self):
        """Hand out the roots in ascending blocks; yields each block's roots
        (a slice of ``roots``) while its distances are current, and frees
        the last one."""
        roots = self._all_roots
        # one level gathers words per edge: at most _SLAB words, or one per edge
        words = max(1, _SLAB // max(1, len(self._dst)))
        per = max(1, 64 * words // _BLOCK) * _BLOCK  # whole blocks, one at least
        slabs = self._slabs()
        for lo in range(0, len(roots), per):
            self.dist = self.count = seen = planes = None  # one search at a time
            self._check_version()
            search = roots[lo:lo + per]
            seen, planes = self._search(search)
            for at in range(0, len(search), _BLOCK):
                self.dist = self.count = None  # at most one block at a time
                self._check_version()
                self._unpack(seen, planes, at, search[at:at + _BLOCK], slabs)
                yield self.roots
        self.roots, self.dist, self.count = range(0), None, None

    def _slabs(self) -> list[tuple]:
        """The count slabs: runs of the nodes with edges, each with about
        ``_SLAB // _BLOCK`` edges (one node at least), as (nodes, their
        segment heads within the slab, first edge, edge past the last)."""
        heads, m = self._heads, len(self._dst)
        cuts = np.searchsorted(heads, np.arange(0, m, max(1, _SLAB // _BLOCK))).tolist()
        cuts.append(len(heads))
        nodes, ends = np.flatnonzero(self._has_edges), np.append(heads, m)
        return [(nodes[k0:k1], heads[k0:k1] - ends[k0], ends[k0], ends[k1])
                for k0, k1 in zip(cuts, cuts[1:]) if k0 < k1]

    def _search(self, roots) -> tuple[np.ndarray, list[np.ndarray]]:
        """The ``seen`` words and bit-planes of one search from ``roots``."""
        dst, heads, has_edges = self._dst, self._heads, self._has_edges
        bit = np.arange(len(roots), dtype=_WORD)
        seen = np.zeros((self.graph.n, -(-len(roots) // 64)), _WORD)
        seen[list(roots), bit >> 6] = np.left_shift(1, bit & 63, dtype=_WORD)
        front, planes, k = seen.copy(), [], 1
        while True:
            new = np.zeros_like(seen)
            new[has_edges] = np.bitwise_or.reduceat(np.take(front, dst, axis=0), heads, axis=0)
            new &= ~seen
            if not new.any():
                return seen, planes
            seen |= new
            if k.bit_length() > len(planes):
                planes.append(np.zeros_like(seen))
            for j, plane in enumerate(planes):
                if k >> j & 1:
                    plane |= new
            front, k = new, k + 1

    def _unpack(self, seen, planes, at: int, roots, slabs) -> None:
        """Set ``dist`` and ``count`` of the block ``roots``, the search's
        roots from its ``at``-th on."""
        n, b = self.graph.n, len(roots)
        w0, w1 = at >> 6, ((at + b - 1) >> 6) + 1  # the words that hold the block
        off = at - 64 * w0
        seen, planes = seen[:, w0:w1], [plane[:, w0:w1] for plane in planes]

        def bits(words):  # every row's bits of the block's words, one column per root
            return np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")

        self.roots = roots
        dist = np.zeros((n, b), self._dtype)
        for j, plane in enumerate(planes):
            dist |= np.left_shift(bits(plane)[:, off:off + b], j, dtype=self._dtype)
        dist[bits(seen)[:, off:off + b] == 0] = self.unreached
        # per edge (y, z), the roots with d(z) + 1 == d(y): add one to z's
        # planes bit-sliced and compare with y's; an unreached end or a carry
        # out of the top plane matches nothing
        src, dst = self._src, self._dst
        hit = np.take(seen, src, axis=0) & np.take(seen, dst, axis=0)
        carry = ~np.zeros_like(hit)
        for plane in planes:
            z = np.take(plane, dst, axis=0)
            differ = z ^ carry
            differ ^= np.take(plane, src, axis=0)
            hit &= ~differ
            carry &= z
        hit &= ~carry
        # sum each node's edges in lanes of the distance dtype, four or two
        # to a uint64: a lane sums at most n - 1 bits, so no carry leaves it
        count = np.zeros((n, b), self._dtype)
        for nodes, heads, e0, e1 in slabs:
            lanes = bits(hit[e0:e1]).astype(self._dtype).view(np.uint64)
            sums = np.add.reduceat(lanes, heads, axis=0).view(self._dtype)
            count[nodes] = sums[:, off:off + b]
        self.dist, self.count = dist.T, count.T

    def _check_version(self) -> None:
        if self.graph.version != self.version:
            raise InvalidParameters(f"the rows are of version {self.version}, not the graph's")

    def _row(self, root: int) -> int:
        self._check_version()
        if root not in self.roots:
            raise InvalidParameters(f"root {root} is not in the current block {self.roots}")
        return self.roots.index(root)

    def starts(self, roots: list[int], bound: int) -> list[tuple[list, list]]:
        """The states of the exact trees of ``roots``, all in the current
        block, cut at ``bound``, set in one vectorised pass: per tree the
        levels (ints, INF past the bound or out of reach) and, per node, the
        number of neighbours one level lower (0 past the bound)."""
        if not roots:
            return []
        at = [self._row(x) for x in roots]
        rows = self.dist[at]
        past = rows > min(bound, self.unreached - 1)
        level = rows.astype(object)
        level[past] = INF
        count = self.count[at]
        count[past] = 0
        return list(zip(level.tolist(), count.tolist()))

    def within(self, root: int, radius: int) -> list[int]:
        """The nodes at distance at most ``radius`` from ``root``, a root of
        the current block, ascending."""
        row = self.dist[self._row(root)]
        return np.flatnonzero(row <= min(radius, self.unreached - 1)).tolist()

    def farthest(self) -> int:
        """The largest finite distance from a root of the current block."""
        self._check_version()
        dist = self.dist
        return int(dist.max(initial=0, where=dist < self.unreached))


def _check_weight(w) -> None:
    # the trees' bucket search and unit raises need integer levels
    if not (isinstance(w, int) and w >= 1):
        raise InvalidParameters(f"edge weight must be an integer >= 1, got {w!r}")


class WeightedAdjacency:
    """Weighted undirected graph changed only by whole event batches.

    ``adj[u]`` maps each neighbor of u to the edge weight, an integer of at
    least 1. Readers share the lists and never write them; :meth:`apply` is
    the only writer.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, edges: dict[tuple[int, int], int]):
        self.n = n
        self.adj: list[dict[int, int]] = [dict() for _ in range(n)]
        adj = self.adj
        for (u, v), w in edges.items():
            if not (0 <= u < n and 0 <= v < n):
                raise NodeOutOfRange(f"edge ({u}, {v}) not in [0, {n})")
            if u == v:
                raise SelfLoop(f"self-loop at node {u}")
            if v in adj[u]:
                raise DuplicateEdge(f"duplicate edge ({u}, {v})")
            _check_weight(w)
            adj[u][v] = w
            adj[v][u] = w

    def edges(self) -> dict[tuple[int, int], int]:
        """Current edges as {(u, v) with u < v: weight}."""
        return {(u, v): w for u in range(self.n) for v, w in self.adj[u].items() if u < v}

    def apply(self, events) -> list[UpdateEvent]:
        """Check a whole ordered batch, then apply it; returns it with ``old`` set.

        The batch holds insertions first, then weight increases and
        deletions. Every event is checked against the graph as the earlier
        events of the batch leave it (order, kind, node range, no self-loop,
        edge present or absent, new weight an integer of at least 1, weight
        strictly increasing) before the first one is applied, so a rejected
        batch leaves the graph unchanged.
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
                _check_weight(w)
                pending[key] = w
            elif kind == INCREASE or kind == DELETE:
                saw_non_insert = True
                if old is None:
                    raise UnknownEdge(f"{kind} of absent edge ({u}, {v})")
                if kind == INCREASE:
                    _check_weight(w)
                    if not w > old:
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
