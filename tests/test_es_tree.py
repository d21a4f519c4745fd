import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaps.errors import NodeOutOfRange, NonIncreasingWeight, UnknownEdge
from decaps.es_tree import COUNTER, HEAP, EsTree
from decaps.graph_core import (
    DELETE,
    INCREASE,
    INF,
    DecrementalGraph,
    UpdateEvent,
    WeightedAdjacency,
)
from decaps.monotone_es_tree import MonotoneEsTree
from decaps.oracle import bfs_levels

from conftest import random_graph_and_trace

BACKENDS = [COUNTER, HEAP]


@pytest.mark.parametrize("backend", BACKENDS)
def test_init_fig_levels(backend, fig_graph):
    t = EsTree(fig_graph, 0, 3, backend=backend)
    assert [t.level_query(x) for x in range(6)] == [0, 1, 1, 1, 2, 2]


@pytest.mark.parametrize("backend", BACKENDS)
def test_init_depth_cutoff(backend):
    g = DecrementalGraph.from_edge_list(3, [(0, 1), (1, 2)])
    t = EsTree(g, 0, 1, backend=backend)
    assert t.level_query(1) == 1
    assert t.level_query(2) is INF


@pytest.mark.parametrize("backend", BACKENDS)
def test_init_disconnected(backend):
    g = DecrementalGraph.from_edge_list(3, [(0, 1)])
    t = EsTree(g, 0, 3, backend=backend)
    assert t.level_query(2) is INF


def test_init_errors(fig_graph):
    with pytest.raises(NodeOutOfRange):
        EsTree(fig_graph, 9, 3)
    with pytest.raises(NodeOutOfRange):
        EsTree(fig_graph, 0, 3).level_query(17)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fig_deletion_levels_and_messages(backend, fig_graph):
    t = EsTree(fig_graph, 0, 3, backend=backend)
    work = t.ops  # the heap backend counts its initial heap entries
    fig_graph.delete_edge(0, 1)
    raised = t.after_delete(0, 1)
    assert t.level_query(1) == 2
    assert t.level_query(4) == 3
    assert raised == {1, 4}
    assert t.messages == t.ops  # the earlier name of the work counter
    if backend == COUNTER:
        assert t.ops - work == 5  # the raised a and d check 3 + 2 neighbors


@pytest.mark.parametrize("backend", BACKENDS)
def test_deletion_dropping_node(backend):
    g = DecrementalGraph.from_edge_list(3, [(0, 1), (1, 2)])
    t = EsTree(g, 0, 3, backend=backend)
    g.delete_edge(1, 2)
    assert t.after_delete(1, 2) == {2}
    assert t.level_query(2) is INF


@pytest.mark.parametrize("backend", BACKENDS)
def test_cycle_reroute(backend):
    g = DecrementalGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    t = EsTree(g, 0, 4, backend=backend)
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
    for backend in BACKENDS:
        h = WeightedAdjacency(4, {(0, 1): 2, (1, 2): 1, (0, 3): 5, (3, 2): 1})
        t = MonotoneEsTree(h, 0, 10, 1, 0, 1, backend=backend)
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
def test_exactness_and_backend_equality(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(2, 24))
    m = data.draw(st.integers(0, 3 * n))
    g1, order = random_graph_and_trace(rng, n, m)
    g2 = g1.copy()
    root = data.draw(st.integers(0, n - 1))
    Q = data.draw(st.sampled_from([1, 2, 3, n]))
    t1 = EsTree(g1, root, Q, backend=COUNTER)
    t2 = EsTree(g2, root, Q, backend=HEAP)
    for u, v in order:
        g1.delete_edge(u, v)
        d1 = t1.after_delete(u, v)
        g2.delete_edge(u, v)
        d2 = t2.after_delete(u, v)
        assert d1 == d2
        # both backends count level units, a drop as a rise to Q + 1
        assert t1.level_increases == t2.level_increases
        truth = bfs_levels(g1, root)
        expected = [d if d <= Q else INF for d in truth]
        assert t1.levels() == expected
        assert t2.levels() == expected


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
    t = EsTree(g, root, Q, backend=COUNTER)
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
