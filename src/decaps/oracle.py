"""Independent brute-force ground truth.

Plain BFS/Dijkstra all-pairs distances per graph version, an incremental
numpy-backed BFS oracle for long traces, the (alpha, beta)-stretch checker,
and the brute-force locally-persevering verifier for tiny graphs.

Everything here is deliberately independent of the maintained data
structures: distances are recomputed from scratch from the raw adjacency.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush

import numpy as np

from .errors import ShapeMismatch, TooLarge
from .graph_core import INF, DecrementalGraph


def bfs_levels(g: DecrementalGraph, root: int) -> list:
    """Exact unweighted distances from root; INF for unreachable nodes."""
    dist = [INF] * g.n
    dist[root] = 0
    queue = deque((root,))
    adj = g._adj
    while queue:
        y = queue.popleft()
        d = dist[y] + 1
        for z in adj[y]:
            if dist[z] is INF:
                dist[z] = d
                queue.append(z)
    return dist


def bfs_apsp(g: DecrementalGraph) -> np.ndarray:
    """Exact unweighted distance matrix, np.inf for disconnected pairs."""
    out = np.full((g.n, g.n), np.inf)
    for x in range(g.n):
        out[x] = bfs_levels(g, x)
    return out


def dijkstra_apsp(g: DecrementalGraph) -> np.ndarray:
    """Second, independent implementation: Dijkstra at unit weights.

    Used only to cross-check bfs_apsp; the two must agree exactly.
    """
    return weighted_apsp(g.n, dict.fromkeys(g.edges(), 1))


def weighted_apsp(n: int, weighted_edges: dict) -> np.ndarray:
    """Dijkstra APSP over an undirected weighted edge dict {(u, v): w}."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (u, v), w in weighted_edges.items():
        adj[u].append((v, w))
        adj[v].append((u, w))
    out = np.full((n, n), np.inf)
    for x in range(n):
        dist = [INF] * n
        dist[x] = 0
        heap = [(0, x)]
        while heap:
            d, y = heappop(heap)
            if d > dist[y]:
                continue
            for z, w in adj[y]:
                nd = d + w
                if nd < dist[z]:
                    dist[z] = nd
                    heappush(heap, (nd, z))
        out[x] = dist
    return out


class NumpyBfsOracle:
    """Incremental BFS oracle over a boolean adjacency matrix.

    Mirrors a DecrementalGraph and recomputes single-source levels with dense
    frontier sweeps; much faster than per-edge Python BFS when the same graph
    is probed after every deletion of a long trace.
    """

    def __init__(self, g: DecrementalGraph):
        self.n = g.n
        self.adj = np.zeros((g.n, g.n), dtype=bool)
        for u, v in g.edges():
            self.adj[u, v] = True
            self.adj[v, u] = True

    def note_delete(self, u: int, v: int) -> None:
        self.adj[u, v] = False
        self.adj[v, u] = False

    def levels(self, root: int) -> np.ndarray:
        dist = np.full(self.n, np.inf)
        dist[root] = 0
        frontier = np.zeros(self.n, dtype=bool)
        frontier[root] = True
        seen = frontier.copy()
        d = 0
        while frontier.any():
            d += 1
            nxt = self.adj[frontier].any(axis=0) & ~seen
            if not nxt.any():
                break
            dist[nxt] = d
            seen |= nxt
            frontier = nxt
        return dist

    def apsp(self) -> np.ndarray:
        return np.vstack([self.levels(x) for x in range(self.n)])


@dataclass
class StretchReport:
    """Outcome of checking estimates against ground truth: how many pairs
    failed, and the records of the first 64."""

    failure_count: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0


def check_stretch(estimates: np.ndarray, truth: np.ndarray, alpha: float,
                  beta: float, distance_range=INF, context=None) -> StretchReport:
    """Apply the range-conditional (alpha, beta) sandwich to two matrices.

    A pair passes when dist <= estimate, and estimate <= alpha*dist + beta
    whenever dist <= distance_range. Estimates of infinity pass exactly when
    the range condition does not apply.
    """
    est = np.asarray(estimates, dtype=float)
    tru = np.asarray(truth, dtype=float)
    if est.shape != tru.shape:
        raise ShapeMismatch(f"estimates {est.shape} vs truth {tru.shape}")
    under = est < tru
    in_range = tru <= distance_range
    with np.errstate(invalid="ignore"):
        over = in_range & (est > alpha * tru + beta)
    bad = under | over
    report = StretchReport(failure_count=int(bad.sum()))
    for u, v in np.argwhere(bad)[:64]:
        report.failures.append({
            "pair": (int(u), int(v)),
            "dist": float(tru[u, v]),
            "estimate": float(est[u, v]),
            "bound": float(alpha * tru[u, v] + beta) if np.isfinite(tru[u, v]) else INF,
            "context": context,
        })
    return report


# -- locally persevering brute force -----------------------------------------


def _contained_shortest_path(n, g_edges, h_weights, x, y, d) -> bool:
    """Is some length-d x-y path made entirely of weight-1 H-edges?

    Weight-1 edges of H are edges of the current G, so such a path is a
    shortest G-path contained in (H, w).
    """
    unit = [set() for _ in range(n)]
    for (u, v), w in h_weights.items():
        if w == 1 and v in g_edges[u]:
            unit[u].add(v)
            unit[v].add(u)
    dist = [INF] * n
    dist[x] = 0
    queue = deque((x,))
    while queue:
        a = queue.popleft()
        for b in unit[a]:
            if dist[b] is INF:
                dist[b] = dist[a] + 1
                queue.append(b)
    return dist[y] == d


def _persevering_path_exists(n, snapshots, t1, x, y, bounds) -> bool:
    """Search for one x-y path using edges present at every time <= t1 whose
    per-time weights satisfy w_t(path) <= bounds[t] for all t <= t1.

    Weight vectors are explored with dominance pruning; path weights are
    capped just above the largest bound so the state space stays tiny.
    """
    times = range(t1 + 1)
    persevering: dict[tuple[int, int], tuple] = {}
    for key in snapshots[0]:
        vec = []
        ok = True
        for t in times:
            w = snapshots[t].get(key)
            if w is None or (vec and w < vec[-1]):
                ok = False
                break
            vec.append(w)
        if ok:
            persevering[key] = tuple(vec)
    adj: list[list[tuple[int, tuple]]] = [[] for _ in range(n)]
    for (u, v), vec in persevering.items():
        adj[u].append((v, vec))
        adj[v].append((u, vec))
    cap = max((b for b in bounds if b is not INF), default=0)
    start = tuple([0] * (t1 + 1))
    frontier: dict[int, list[tuple]] = {x: [start]}
    queue = deque(((x, start),))
    while queue:
        node, acc = queue.popleft()
        if node == y:
            return True
        for nxt, vec in adj[node]:
            cand = tuple(a + w for a, w in zip(acc, vec))
            if any(c > b for c, b in zip(cand, bounds)):
                continue
            if cap and any(c > cap for c in cand):
                continue
            known = frontier.setdefault(nxt, [])
            if any(all(k <= c for k, c in zip(old, cand)) for old in known):
                continue
            known[:] = [old for old in known
                        if not all(c <= o for c, o in zip(cand, old))]
            known.append(cand)
            queue.append((nxt, cand))
    return False


DEF8_NODE_CAP = 12  # the most nodes check_locally_persevering takes


def check_locally_persevering(n: int, initial_edges, trace, h_snapshots,
                              alpha: float, beta: float, tau: int):
    """Brute-force check of the locally-persevering emulator conditions.

    ``h_snapshots`` is a list, one entry per version 0..k, of dicts mapping
    sorted edge pairs to weights. Returns (ok, counterexample) where the
    counterexample carries the violating pair, time, and reason.

    Exponential in spirit; refuses graphs of more than DEF8_NODE_CAP nodes.
    """
    if n > DEF8_NODE_CAP:
        raise TooLarge(f"brute-force checker capped at {DEF8_NODE_CAP} nodes, got {n}")
    k = len(trace)
    if len(h_snapshots) != k + 1:
        raise ShapeMismatch(f"need {k + 1} emulator snapshots, got {len(h_snapshots)}")

    g = DecrementalGraph.from_edge_list(n, initial_edges)
    g_adj_t = []
    dist_t = []
    for i in range(k + 1):
        if i:
            g.delete_edge(*trace[i - 1])
        g_adj_t.append([set(s) for s in g._adj])
        dist_t.append(bfs_apsp(g))

    # condition (1): H never underestimates G, at every time
    for t in range(k + 1):
        hd = weighted_apsp(n, h_snapshots[t])
        bad = hd < dist_t[t] - 1e-9
        if bad.any():
            u, v = map(int, np.argwhere(bad)[0])
            return False, {"pair": (u, v), "time": t, "reason": "underestimate",
                           "h_dist": float(hd[u, v]), "g_dist": float(dist_t[t][u, v])}

    # condition (2): per pair, find a witness split t1 < t2
    for x in range(n):
        for y in range(x + 1, n):
            if dist_t[0][x, y] > tau:
                continue  # never local: distances only grow
            # t2 = first time the pair leaves the locality radius
            t2 = k + 1
            for i in range(k + 1):
                if dist_t[i][x, y] > tau:
                    t2 = i
                    break
            # latest time in [1, t2) lacking a contained shortest path
            t1 = 0
            for i in range(min(t2, k + 1) - 1, 0, -1):
                d = dist_t[i][x, y]
                if d <= tau and not _contained_shortest_path(
                        n, g_adj_t[i], h_snapshots[i], x, y, int(d)):
                    t1 = i
                    break
            bounds = []
            for t in range(t1 + 1):
                d = dist_t[t][x, y]
                bounds.append(alpha * d + beta if np.isfinite(d) else INF)
            if not _persevering_path_exists(n, h_snapshots, t1, x, y, bounds):
                return False, {"pair": (x, y), "time": t1,
                               "reason": "no persevering path", "t2": t2}
    return True, None
