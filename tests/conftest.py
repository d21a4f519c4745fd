import math
import random

import pytest

from decaps.emulator import LocallyPerseveringEmulator
from decaps.es_tree import after_delete_all
from decaps.graph_core import INF, DecrementalGraph
from decaps.monotone_es_tree import MonotoneEsTree
from decaps.randomized_apsp import RandomCenterCover, _sample_centers, depth_bound_floor

# Figure-style 6-node example used throughout: r=0, a=1, b=2, c=3, d=4, e=5.
FIG_EDGES = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 2), (2, 5), (3, 5), (4, 5)]
R, A, B, C, D, E = range(6)


@pytest.fixture
def fig_graph():
    return DecrementalGraph.from_edge_list(6, FIG_EDGES)


def random_graph(rng: random.Random, n: int, m: int) -> DecrementalGraph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    return DecrementalGraph.from_edge_list(n, sorted(pairs[:m]))


def random_graph_and_trace(rng: random.Random, n: int, m: int):
    g = random_graph(rng, n, min(m, n * (n - 1) // 2))
    order = g.edges()
    rng.shuffle(order)
    return g, order


def sampled_hubs(n: int, seed=None) -> list[int]:
    """The hubs ``ApspIndexRandom(g, eps, seed)`` draws first from its rng:
    each node with probability min(1, 3*ln(n)/sqrt(n)), every node for n <= 1."""
    if n <= 1:
        return list(range(n))
    return _sample_centers(n, math.sqrt(n), random.Random(seed), 3.0)


def standalone_cover(g, q: int, Q: int, eps: float, hubs=None, seed=None,
                     centers=None) -> RandomCenterCover:
    """A random cover that owns its emulator on ``g`` and a range-Q tree per
    center. The hubs are ``sampled_hubs(g.n, seed)`` unless given; the
    centers are sampled from another ``random.Random(seed)`` unless given."""
    if hubs is None:
        hubs = sampled_hubs(g.n, seed)
    em = LocallyPerseveringEmulator(g, eps, hubs)
    if centers is None:
        centers = _sample_centers(g.n, q, random.Random(seed), 3.0)
    trees = {c: MonotoneEsTree(em.h, c, depth_bound_floor(Q, em.tau)) for c in centers}
    return RandomCenterCover(em, q, Q, centers, trees)


def delete_edge(structure, u: int, v: int) -> None:
    """Delete (u, v) under a cover that no index owns, the way an index does.

    A ``RandomCenterCover`` (from ``standalone_cover``): the emulator's
    batch, every tree's repair, then ``on_batch``. A ``DetCenterCover``: the
    graph deletion and ``split_side``, then ``on_deleted``, the repair of
    every tree the cover reads and ``after_delete``.
    """
    if isinstance(structure, RandomCenterCover):
        em = structure.emulator
        batch = em.on_delete(u, v)
        structure.on_batch({c: tree.apply_batch(batch, em.last_cut)
                            for c, tree in zip(structure.centers, structure._trees)})
        return
    g = structure.g
    g.delete_edge(u, v)
    cut = g.split_side(u, v)
    structure.on_deleted(u, v)
    structure.after_delete(dict(after_delete_all(structure.trees, u, v, cut)))


def tree_state(t):
    """A tree's root, depth, levels, support counts and work counters."""
    return t.root, t.bound, t.levels(), list(t._count), t.level_increases, t.ops


def cut_state(t, bound: int):
    """The root, levels and support counts of a tree kept to ``bound``, read
    off ``t``, an exact tree at least as deep: levels past ``bound`` read
    INF and their counts 0."""
    past = [ly > bound for ly in t.level]
    return (t.root, [INF if p else ly for p, ly in zip(past, t.level)],
            [0 if p else c for p, c in zip(past, t._count)])


def cover_state(layer):
    """Everything a deletion may change in a ``DetCenterCover``: its
    centers, their trees read through their locations and cut at the
    cover's bound, cover lists, counters and ledger."""
    trees = [layer.trees[x] for x in layer._location]
    return (layer._location, [cut_state(t, layer.bound) for t in trees],
            [t.level is level for t, level in zip(trees, layer._levels)],
            layer._cover, layer.opens, layer.moving_distance, layer.stats(),
            layer.collected, layer.radius2)


def det_state(idx):
    """Everything a deletion may change in an ``ApspIndexDet``: its graph,
    its exact patch and every cover layer."""
    return (idx.g.edges(), idx.g.version, [tree_state(t) for t in idx.patch],
            [cover_state(layer) for layer in idx.layers])


def reference_search(layers, x: int, y: int):
    """The layered binary search through ``CenterCover``'s checked public
    reads, ``find_center`` and ``distance``, for a layer of either index:
    the reference for ``center_cover.search_layers``, which reads the cover
    lists and level lists directly."""
    lo, hi = 0, len(layers) - 1
    while lo < hi:
        mid = (lo + hi) // 2
        layer = layers[mid]
        j = layer.find_center(x)
        if j is None or layer.distance(j, x) + layer.distance(j, y) != INF:
            hi = mid
        else:
            lo = mid + 1
    j = layers[lo].find_center(x) if layers else None
    if j is None:
        return INF
    return layers[lo].distance(j, x) + layers[lo].distance(j, y)


def fixpoint_levels(adj, root: int, bound: int, before: list) -> list:
    """The levels a monotone tree must hold after a batch, by definition.

    ``adj`` is the graph after the batch (``adj[y]`` maps each neighbour to
    the weight) and ``before`` the levels before it. Returns the least
    fixpoint L' at or above L = ``before`` of
    L'(y) = T(max(L(y), min_v L'(v) + w(y, v))) for y other than the root,
    where T cuts a level past ``bound`` off to INF: iterated from L until
    nothing changes. Independent of the engine's counters, cut drop and
    unit raises.
    """
    level = list(before)
    changed = True
    while changed:
        changed = False
        for y, nbrs in enumerate(adj):
            if y == root:
                continue
            new = max(before[y], min((level[v] + w for v, w in nbrs.items()), default=INF))
            if new > bound:
                new = INF
            if new != level[y]:
                level[y] = new
                changed = True
    return level
