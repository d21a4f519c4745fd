import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaps import graph_core
from decaps.errors import InvalidParameters, NodeOutOfRange, NonIncreasingWeight, UnknownEdge
from decaps.es_tree import EsTree, after_delete_all
from decaps.graph_core import (
    DELETE,
    INCREASE,
    INF,
    DecrementalGraph,
    RootDistances,
    UpdateEvent,
    WeightedAdjacency,
)
from decaps.monotone_es_tree import MonotoneEsTree
from decaps.oracle import bfs_levels

from conftest import random_graph_and_trace, tree_state

# the engine under test, named in test ids by its repair path: per-node
# support counters with one-unit raises
COUNTER_ENGINE = pytest.mark.parametrize("make_tree", [EsTree], ids=["counter"])


@COUNTER_ENGINE
def test_init_fig_levels(make_tree, fig_graph):
    t = make_tree(fig_graph, 0, 3)
    assert [t.level_query(x) for x in range(6)] == [0, 1, 1, 1, 2, 2]


@COUNTER_ENGINE
def test_init_depth_cutoff(make_tree):
    g = DecrementalGraph.from_edge_list(3, [(0, 1), (1, 2)])
    t = make_tree(g, 0, 1)
    assert t.level_query(1) == 1
    assert t.level_query(2) is INF


@COUNTER_ENGINE
def test_init_disconnected(make_tree):
    g = DecrementalGraph.from_edge_list(3, [(0, 1)])
    t = make_tree(g, 0, 3)
    assert t.level_query(2) is INF


def test_init_errors(fig_graph):
    with pytest.raises(NodeOutOfRange):
        EsTree(fig_graph, 9, 3)
    with pytest.raises(NodeOutOfRange):
        EsTree(fig_graph, 0, 3).level_query(17)


@COUNTER_ENGINE
def test_fig_deletion_levels_and_messages(make_tree, fig_graph):
    t = make_tree(fig_graph, 0, 3)
    fig_graph.delete_edge(0, 1)
    raised = t.after_delete(0, 1)
    assert t.level_query(1) == 2
    assert t.level_query(4) == 3
    assert raised == {1, 4}
    assert t.messages == t.ops  # the earlier name of the work counter
    assert t.ops == 5  # the raised a and d check 3 + 2 neighbors


@COUNTER_ENGINE
def test_deletion_dropping_node(make_tree):
    g = DecrementalGraph.from_edge_list(3, [(0, 1), (1, 2)])
    t = make_tree(g, 0, 3)
    g.delete_edge(1, 2)
    assert t.after_delete(1, 2) == {2}
    assert t.level_query(2) is INF


@COUNTER_ENGINE
def test_cycle_reroute(make_tree):
    g = DecrementalGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    t = make_tree(g, 0, 4)
    g.delete_edge(0, 1)
    t.after_delete(0, 1)
    assert t.level_query(1) == 3  # via 0-3-2-1


def test_level_query_root_and_after_deletion(fig_graph):
    t = EsTree(fig_graph, 0, 3)
    assert t.level_query(0) == 0
    fig_graph.delete_edge(0, 1)
    t.after_delete(0, 1)
    assert t.level_query(4) == 3


def test_report_threshold_below_depth():
    # a reader with a threshold below the depth (a cover radius) finds the
    # nodes that crossed it among the raised ones
    def crossed(tree, raised, before, threshold):
        return {x for x in raised if before[x] <= threshold < tree.level[x]}

    g = DecrementalGraph.from_edge_list(5, [(i, i + 1) for i in range(4)])
    t = EsTree(g, 0, 4)
    before = t.levels()
    g.delete_edge(0, 1)
    raised = t.after_delete(0, 1)
    assert raised == {1, 2, 3, 4}
    # only nodes previously at level <= 2 cross the threshold; 3 and 4 were
    # already beyond it before the deletion
    assert crossed(t, raised, before, 2) == {1, 2}

    g2 = DecrementalGraph.from_edge_list(5, [(i, i + 1) for i in range(4)] + [(0, 2)])
    t2 = EsTree(g2, 0, 4)
    before = t2.levels()
    g2.delete_edge(0, 2)
    raised2 = t2.after_delete(0, 2)
    assert raised2 == {2, 3, 4}
    assert crossed(t2, raised2, before, 2) == {3}  # 3 moves from 2 to 3; 4 was at 3
    assert t2.level_query(4) == 4


def test_weighted_increase_and_delete():
    # the exact tree on a weighted graph: a monotone tree with beta 0
    h = WeightedAdjacency(4, {(0, 1): 2, (1, 2): 1, (0, 3): 5, (3, 2): 1})
    t = MonotoneEsTree(h, 0, 10)
    assert t.bound == 10
    assert t.levels() == [0, 2, 3, 4]
    t.apply_batch(h.apply([UpdateEvent(INCREASE, 1, 2, 10)]))
    assert t.levels() == [0, 2, 6, 5]
    t.apply_batch(h.apply([UpdateEvent(DELETE, 0, 1, INF)]))
    assert t.levels() == [0, INF, 6, 5]
    with pytest.raises(UnknownEdge):
        h.apply([UpdateEvent(DELETE, 0, 1, INF)])
    with pytest.raises(NonIncreasingWeight):
        h.apply([UpdateEvent(INCREASE, 0, 3, 4)])
    assert t.levels() == [0, INF, 6, 5]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_exactness_per_deletion(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(2, 24))
    m = data.draw(st.integers(0, 3 * n))
    g, order = random_graph_and_trace(rng, n, m)
    root = data.draw(st.integers(0, n - 1))
    Q = data.draw(st.sampled_from([1, 2, 3, n]))
    t = EsTree(g, root, Q)
    for u, v in order:
        before = t.levels()
        g.delete_edge(u, v)
        raised = t.after_delete(u, v)
        truth = bfs_levels(g, root)
        expected = [d if d <= Q else INF for d in truth]
        assert t.levels() == expected
        assert raised == {x for x in range(n) if expected[x] != before[x]}


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_monotonicity_and_work_bound(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(3, 20))
    g, order = random_graph_and_trace(rng, n, 3 * n)
    root = 0
    Q = data.draw(st.sampled_from([2, 4, n]))
    deg0 = [g.degree(x) for x in range(n)]
    init_levels = None
    t = EsTree(g, root, Q)
    init_levels = t.levels()
    prev = t.levels()
    for u, v in order:
        g.delete_edge(u, v)
        t.after_delete(u, v)
        cur = t.levels()
        assert all(a >= b for a, b in zip(cur, prev))
        prev = cur
    final = t.levels()
    charge_bound = sum(
        deg0[x] * (min(Q, final[x] if final[x] is not INF else Q)
                   - min(Q, init_levels[x] if init_levels[x] is not INF else Q))
        for x in range(n))
    assert t.ops <= charge_bound + 2 * len(order)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_after_delete_all_equals_every_tree_repaired(data):
    # the call over many trees skips trees whose levels the deletion cannot
    # change and counts a support down in place; calling every tree on a
    # second copy of the graph must leave the same state. Full traces of
    # sparse graphs split components, and each deletion hands its cut.
    seed = data.draw(st.integers(0, 10**6))
    n = data.draw(st.integers(2, 24))
    m = data.draw(st.integers(0, 2 * n))
    bounds = data.draw(st.lists(st.integers(1, n), min_size=n, max_size=n))
    graphs = [random_graph_and_trace(random.Random(seed), n, m) for _ in range(2)]
    order = graphs[0][1]
    together, alone = ([EsTree(g, x, b) for x, b in enumerate(bounds)] for g, _ in graphs)
    for u, v in order:
        cuts = []
        for g, _ in graphs:
            g.delete_edge(u, v)
            cuts.append(g.split_side(u, v))
        assert cuts[0] == cuts[1]
        cut = cuts[0]
        got = after_delete_all(together, u, v, cut)
        each = [t.after_delete(u, v, cut) for t in alone]
        assert got == [(i, raised) for i, raised in enumerate(each) if raised]
        assert [tree_state(t) for t in together] == [tree_state(t) for t in alone]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_after_delete_matches_the_delete_event(data):
    # the exact tree's own repair against the monotone tree's event pass on
    # the one DELETE event, over a weighted mirror of the graph
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(2, 24))
    g, order = random_graph_and_trace(rng, n, data.draw(st.integers(0, 3 * n)))
    h = WeightedAdjacency(n, dict.fromkeys(g.edges(), 1))
    root = data.draw(st.integers(0, n - 1))
    bound = data.draw(st.integers(1, n))
    exact, mirror = EsTree(g, root, bound), MonotoneEsTree(h, root, bound)
    assert tree_state(exact) == tree_state(mirror)
    for u, v in order:
        g.delete_edge(u, v)
        batch = h.apply([UpdateEvent(DELETE, u, v, INF)])
        assert exact.after_delete(u, v) == mirror.apply_batch(batch)
        assert tree_state(exact) == tree_state(mirror)


def components_graph(rng: random.Random, n: int) -> DecrementalGraph:
    """Random edges inside a random split of the nodes into groups, so the
    graph has several components, often isolated nodes among them."""
    groups = [[] for _ in range(rng.randint(1, max(1, n // 3)))]
    for x in range(n):
        rng.choice(groups).append(x)
    edges = []
    for group in groups:
        pairs = [(u, v) for i, u in enumerate(group) for v in group[i + 1:]]
        edges += rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * len(group))))
    return DecrementalGraph.from_edge_list(n, sorted(edges))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_tree_set_from_row_equals_searched_tree(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 40))
    # isolated nodes at the end too: no edge follows their empty segments
    g = components_graph(rng, n)
    n += data.draw(st.integers(0, 2))
    g = DecrementalGraph.from_edge_list(n, g.edges())
    # blocks of one root, of a few, and of more roots than there are nodes
    size = data.draw(st.sampled_from([1, 2, 7, n, n + 3]))
    # depth bounds below, at and above n, one for all roots or one per root
    bounds = [1, 2, max(1, n - 1), n, n + 1, 3 * n]
    depth = data.draw(st.sampled_from(bounds))
    per_root = data.draw(st.booleans())
    rows = RootDistances(g)
    trees = {}
    with mock.patch.object(graph_core, "_BLOCK", size):
        for block in rows.blocks():
            assert len(block) == min(size, n - block.start)
            roots = [x for x in block if rng.random() < 0.7]
            depths = [rng.choice(bounds) if per_root else depth for _ in roots]
            built = EsTree.from_rows(rows, roots, depths if per_root else depth)
            for x, d, from_row in zip(roots, depths, built):
                trees[x] = from_row
                searched = EsTree(g, x, d)
                assert from_row.bound == d
                for a, b in zip(from_row.level, searched.level):
                    assert a is INF if b is INF else type(a) is int and a == b
                assert from_row._count == searched._count
                assert rows.within(x, d) == [
                    y for y, ly in enumerate(searched.level) if ly is not INF]
    assert rows.dist is None  # the last block is freed
    if not trees:
        return
    root = data.draw(st.sampled_from(sorted(trees)))
    from_row = trees[root]
    searched = EsTree(g, root, from_row.bound)
    order = g.edges()
    rng.shuffle(order)
    for u, v in order[:data.draw(st.integers(0, 6))]:
        g.delete_edge(u, v)
        cut = g.split_side(u, v) if data.draw(st.booleans()) else None
        assert from_row.after_delete(u, v, cut) == searched.after_delete(u, v, cut)
        assert from_row.levels() == searched.levels()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_set_depth_gives_a_fresh_tree_in_the_same_lists(data):
    # one to three depth changes between deletions, each deeper, shallower
    # or the same, after a cut dropped or raised unit by unit, so a search
    # continued from the old depth may start from a tree another one set:
    # the state of a tree searched at that depth, in the lists readers
    # hold, and no work counted
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 30))
    g, order = random_graph_and_trace(rng, n, 2 * n)
    root = rng.randrange(n)
    tree = EsTree(g, root, data.draw(st.integers(1, n + 1)))
    level, count = tree.level, tree._count
    for u, v in order:
        g.delete_edge(u, v)
        tree.after_delete(u, v, g.split_side(u, v) if data.draw(st.booleans()) else None)
        for depth in data.draw(st.lists(st.integers(1, n + 1), min_size=1, max_size=3)):
            work = tree.stats()
            tree.set_depth(depth)
            fresh = EsTree(g, root, depth)
            assert tree.level is level and tree._count is count
            assert tree.bound == depth
            assert tree.level == fresh.level and tree._count == fresh._count
            assert tree.stats() == work
    bound = tree.bound
    for depth in (0, 2.5, math.inf, "3"):
        with pytest.raises(InvalidParameters):
            tree.set_depth(depth)
    assert tree.bound == bound


def test_a_depth_bound_must_be_a_positive_integer():
    # the repair drops a node only at a level equal to the bound: at the
    # bound 2.5 or INF, the path 0-1-2-3 losing (0, 1) raised its nodes
    # forever
    path = DecrementalGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    for bound in (0, 2.5, math.inf, 3.0, None):
        with pytest.raises(InvalidParameters):
            EsTree(path, 0, bound)
        with pytest.raises(InvalidParameters):
            MonotoneEsTree(WeightedAdjacency(4, {}), 0, bound)
    tree = EsTree(path, 0, 3)
    path.delete_edge(0, 1)
    assert tree.after_delete(0, 1) == {1, 2, 3}
    assert tree.levels() == [0, INF, INF, INF]
    # one depth for all roots, or exactly one per root
    rows = RootDistances(path)
    next(rows.blocks())
    for depths in ([3], (3, 3, 3, 3, 3), [2.5, 3, 3, 3]):
        with pytest.raises(InvalidParameters):
            EsTree.from_rows(rows, [0, 1, 2, 3], depths)
    assert [t.bound for t in EsTree.from_rows(rows, [0, 1, 2, 3], [1, 2, 3, 4])] == [1, 2, 3, 4]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_root_distances_across_words(data):
    # a search holds one word of root bits per 64 roots: blocks of one root,
    # of a word less one, of a word, one past it and of more than two words,
    # on up to 142 nodes, so a block spans one to three words; searches one
    # or two words wide (at least one block each), or as wide as _SLAB
    # allows, so the roots span one to three searches; a path of 129 nodes
    # or more needs 8 bit-planes, a long carry chain in the counts' increment
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.sampled_from([0, 1]) | st.integers(2, 140))
    shape = data.draw(st.sampled_from(["components", "path", "edgeless"]))
    if shape == "components":
        edges = components_graph(rng, n).edges()
    elif shape == "path":  # long levels fill many bit-planes
        order = rng.sample(range(n), n)
        edges = list(zip(order, order[1:]))
    else:
        edges = []
    # isolated nodes at the end too: no edge follows their empty segments
    n += data.draw(st.integers(0, 2))
    g = DecrementalGraph.from_edge_list(n, edges)
    roots = None
    if data.draw(st.booleans()):
        roots = sorted(rng.sample(range(n), rng.randint(0, n)))
    size = data.draw(st.sampled_from([1, 63, 64, 65, 130]))
    words = data.draw(st.sampled_from([1, 2, None]))
    # a search's width is _SLAB // (2 m) words; the count slabs shrink with it
    slab = graph_core._SLAB if words is None else words * max(1, 2 * len(edges))
    rows = RootDistances(g, roots)
    searched, expected = [], list(range(n)) if roots is None else roots
    with mock.patch.object(graph_core, "_BLOCK", size), \
            mock.patch.object(graph_core, "_SLAB", slab):
        for block in rows.blocks():
            assert len(block) == min(size, len(expected) - len(searched))
            searched += block
            for i, x in enumerate(block):
                level = bfs_levels(g, x)
                assert rows.dist[i].tolist() == [
                    rows.unreached if d is INF else d for d in level]
                assert rows.count[i].tolist() == [
                    0 if d is INF else sum(level[z] == d - 1 for z in g.neighbors(y))
                    for y, d in enumerate(level)]
    assert searched == expected


def test_tree_rejects_rows_of_another_graph_or_version(fig_graph):
    with pytest.raises(NodeOutOfRange):
        RootDistances(fig_graph, [0, 6])
    for roots in ([2, 0, 2], [1, 1], [3, 1]):  # a repeated root would overwrite its own bit
        with pytest.raises(InvalidParameters):
            RootDistances(fig_graph, roots)
    # from_rows refuses before it builds any tree: a spy counts the builds
    setup = mock.patch.object(EsTree, "_setup", autospec=True, side_effect=EsTree._setup)
    rows = RootDistances(fig_graph)
    with mock.patch.object(graph_core, "_BLOCK", 3), setup as built:
        blocks = rows.blocks()
        next(blocks)
        with pytest.raises(InvalidParameters):
            rows.starts([3], 3)  # a root of another block
        with pytest.raises(InvalidParameters):
            EsTree.from_rows(rows, [0, 3], 3)
        assert built.call_count == 0
        assert [t.root for t in EsTree.from_rows(rows, [2, 0], 3)] == [2, 0]
        with pytest.raises(NodeOutOfRange):
            EsTree(fig_graph, -1, 3)
        with pytest.raises(InvalidParameters):
            EsTree(fig_graph, 0, 0)
        next(blocks)
        built.reset_mock()
        with pytest.raises(InvalidParameters):
            rows.within(0, 1)  # the block has passed
        with pytest.raises(InvalidParameters):
            EsTree.from_rows(rows, [0], 3)
        assert built.call_count == 0
    rows = RootDistances(fig_graph)
    next(rows.blocks())
    fig_graph.delete_edge(0, 1)  # the graph moves on while the block is current
    with pytest.raises(InvalidParameters):
        rows.within(0, 1)
    with pytest.raises(InvalidParameters):
        rows.starts([0], 3)
    with pytest.raises(InvalidParameters):
        rows.farthest()
    with setup as built:
        with pytest.raises(InvalidParameters):
            EsTree.from_rows(rows, [0], 3)
        assert built.call_count == 0
    # one search holds every root of the path 0-1-2-3; once the graph has
    # moved on, the next block refuses before it unpacks or searches
    path = DecrementalGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    rows = RootDistances(path)
    with mock.patch.object(graph_core, "_BLOCK", 1), \
            mock.patch.object(RootDistances, "_search", autospec=True,
                              side_effect=RootDistances._search) as search:
        blocks = rows.blocks()
        assert next(blocks) == range(1) and search.call_count == 1
        path.delete_edge(1, 2)
        with pytest.raises(InvalidParameters):
            next(blocks)
        assert search.call_count == 1
