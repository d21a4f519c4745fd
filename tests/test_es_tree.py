import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaps.errors import EdgeAbsent, NodeOutOfRange, NonIncreasingWeight
from decaps.es_tree import COUNTER, HEAP, EsTree
from decaps.graph_core import INF, DecrementalGraph
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
    dropped = t.increase_or_delete(0, 1)
    assert t.level_query(1) == 2
    assert t.level_query(4) == 3
    assert t.messages == 5  # level changes of a and d notify 3 + 2 neighbors
    assert dropped == set()


@pytest.mark.parametrize("backend", BACKENDS)
def test_deletion_dropping_node(backend):
    g = DecrementalGraph.from_edge_list(3, [(0, 1), (1, 2)])
    t = EsTree(g, 0, 3, backend=backend)
    dropped = t.increase_or_delete(1, 2)
    assert dropped == {2}
    assert t.level_query(2) is INF


@pytest.mark.parametrize("backend", BACKENDS)
def test_cycle_reroute(backend):
    g = DecrementalGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    t = EsTree(g, 0, 4, backend=backend)
    t.increase_or_delete(0, 1)
    assert t.level_query(1) == 3  # via 0-3-2-1


def test_level_query_root_and_after_deletion(fig_graph):
    t = EsTree(fig_graph, 0, 3)
    assert t.level_query(0) == 0
    fig_graph.delete_edge(0, 1)
    t.after_delete(0, 1)
    assert t.level_query(4) == 3


def test_report_threshold_below_depth():
    g = DecrementalGraph.from_edge_list(5, [(i, i + 1) for i in range(4)])
    t = EsTree(g, 0, 4, report_threshold=2)
    g.delete_edge(0, 1)
    dropped = t.after_delete(0, 1)
    # only nodes previously at level <= 2 cross the threshold; 3 and 4 were
    # already beyond it before the deletion
    assert dropped == {1, 2}

    g2 = DecrementalGraph.from_edge_list(5, [(i, i + 1) for i in range(4)] + [(0, 2)])
    t2 = EsTree(g2, 0, 4, report_threshold=2)
    g2.delete_edge(0, 2)
    dropped2 = t2.after_delete(0, 2)
    assert dropped2 == {3}  # 3 moves from level 2 to level 3; 4 was already at 3
    assert t2.level_query(4) == 4


def test_weighted_increase_and_delete():
    t = EsTree.from_weighted(4, [(0, 1, 2), (1, 2, 1), (0, 3, 5), (3, 2, 1)], 0, 10)
    assert t.levels() == [0, 2, 3, 4]
    t.increase_or_delete(1, 2, 10)
    assert t.levels() == [0, 2, 6, 5]
    t.increase_or_delete(0, 1, INF)
    assert t.levels() == [0, INF, 6, 5]
    with pytest.raises(EdgeAbsent):
        t.increase_or_delete(0, 1, INF)
    with pytest.raises(NonIncreasingWeight):
        t.increase_or_delete(0, 3, 4)


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
    assert t.messages <= charge_bound + 2 * len(order)
