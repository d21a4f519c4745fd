import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaps.errors import DuplicateEdge, EdgeAbsent, NodeOutOfRange, SelfLoop
from decaps.graph_core import (
    INF,
    DecrementalGraph,
    DeletionTrace,
    WeightedAdjacency,
    read_edge_list,
    read_trace,
    write_edge_list,
    write_trace,
)
from decaps.oracle import bfs_apsp, bfs_levels

from conftest import FIG_EDGES, random_graph


def test_from_edge_list_cycle():
    g = DecrementalGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert [g.degree(x) for x in range(4)] == [2, 2, 2, 2]
    assert g.version == 0 and g.m0 == 4


def test_from_edge_list_fig_degrees(fig_graph):
    assert fig_graph.degree(1) == 4  # node a
    assert fig_graph.degree(5) == 4  # node e


def test_from_edge_list_empty():
    g = DecrementalGraph.from_edge_list(3, [])
    assert [len(g.component_of(x)) for x in range(3)] == [1, 1, 1]


def test_from_edge_list_errors():
    with pytest.raises(SelfLoop):
        DecrementalGraph.from_edge_list(2, [(1, 1)])
    with pytest.raises(DuplicateEdge):
        DecrementalGraph.from_edge_list(3, [(0, 1), (1, 0)])
    with pytest.raises(NodeOutOfRange):
        DecrementalGraph.from_edge_list(3, [(0, 3)])


def test_weighted_adjacency_rejects_node_out_of_range():
    with pytest.raises(NodeOutOfRange):
        WeightedAdjacency(2, {(0, 5): 1})
    with pytest.raises(NodeOutOfRange):
        WeightedAdjacency(2, {(-1, 1): 1})


def test_weighted_adjacency_rejects_self_loop():
    # a stored self-loop would hide from edges() and no event could delete it
    with pytest.raises(SelfLoop):
        WeightedAdjacency(3, {(1, 1): 1, (0, 1): 1, (1, 2): 1})


def test_weighted_adjacency_rejects_duplicate_edge():
    # both orientations of one edge: the later weight would silently win
    with pytest.raises(DuplicateEdge):
        WeightedAdjacency(2, {(0, 1): 1, (1, 0): 3})
    h = WeightedAdjacency(3, {(1, 0): 2, (1, 2): 1})
    assert h.edges() == {(0, 1): 2, (1, 2): 1}


def test_delete_edge_fig_distances(fig_graph):
    fig_graph.delete_edge(0, 1)
    dist = bfs_levels(fig_graph, 0)
    assert dist[1] == 2 and dist[4] == 3
    assert fig_graph.version == 1


def test_delete_edge_disconnects():
    g = DecrementalGraph.from_edge_list(3, [(0, 1), (1, 2)])
    g.delete_edge(0, 1)
    assert g.component_of(0) == {0}
    assert g.component_of(1) == {1, 2}


def test_delete_edge_absent():
    g = DecrementalGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(EdgeAbsent):
        g.delete_edge(0, 2)
    with pytest.raises(SelfLoop):
        g.delete_edge(1, 1)
    assert g.m == 4


def test_components_path():
    g = DecrementalGraph.from_edge_list(5, [(i, i + 1) for i in range(4)])
    assert all(len(g.component_of(x)) == 5 for x in range(5))
    g.delete_edge(1, 2)
    assert len(g.component_of(0)) == 2
    assert len(g.component_of(4)) == 3


def test_component_out_of_range():
    g = DecrementalGraph.from_edge_list(2, [])
    with pytest.raises(NodeOutOfRange):
        g.component_of(2)


def test_adjacency_and_has_edge(fig_graph):
    assert fig_graph.degree(1) == 4 and sorted(fig_graph.neighbors(1)) == [0, 2, 4, 5]
    fig_graph.delete_edge(0, 1)
    assert fig_graph.degree(1) == 3
    assert not fig_graph.has_edge(0, 1)
    assert fig_graph.has_edge(1, 5)
    empty = DecrementalGraph.from_edge_list(1, [])
    assert empty.degree(0) == 0


def test_has_edge_beyond_bitset_limit():
    # has_edge is neighbor-set membership at any n
    n = 5000
    g = DecrementalGraph.from_edge_list(n, [(0, 1), (4998, 4999)])
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)
    g.delete_edge(0, 1)
    assert not g.has_edge(0, 1)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_distances_nondecreasing_and_membership(data):
    n = data.draw(st.integers(2, 16))
    density = data.draw(st.floats(0.1, 0.9))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    m = int(density * n * (n - 1) // 2)
    g = random_graph(rng, n, m)
    order = g.edges()
    rng.shuffle(order)
    prev = bfs_apsp(g)
    sizes = [len(g.component_of(x)) for x in range(n)]
    for u, v in order:
        g.delete_edge(u, v)
        cur = bfs_apsp(g)
        assert np.all(cur >= prev - 1e-9)
        new_sizes = [len(g.component_of(x)) for x in range(n)]
        assert all(a <= b for a, b in zip(new_sizes, sizes))
        for x in range(n):
            for y in g.neighbors(x):
                assert g.has_edge(x, y)
        assert not g.has_edge(u, v)
        prev, sizes = cur, new_sizes


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_small_component_matches_component_of(data):
    n = data.draw(st.integers(1, 16))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = random_graph(rng, n, data.draw(st.integers(0, n * (n - 1) // 2)))
    order = g.edges()
    rng.shuffle(order)
    for step in range(len(order) + 1):
        for x in range(n):
            comp = {y for y, d in enumerate(bfs_levels(g, x)) if d is not INF}
            assert g.component_of(x) == comp
            for limit in range(-1, n + 2):
                want = comp if len(comp) < limit else None
                assert g.small_component(x, limit) == want
        if step < len(order):
            g.delete_edge(*order[step])
    with pytest.raises(NodeOutOfRange):
        g.small_component(n, 3)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_split_side_is_the_cut_off_component(data):
    # n <= 30 keeps every side within the cap 4 * ceil(sqrt(n)) >= n / 2
    n = data.draw(st.integers(2, 30))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    g = random_graph(rng, n, data.draw(st.integers(1, 2 * n)))
    order = g.edges()
    rng.shuffle(order)
    for u, v in order:
        g.delete_edge(u, v)
        side = g.split_side(u, v)
        comp_u = g.component_of(u)
        if v in comp_u:
            assert side is None
        else:
            assert side in (comp_u, g.component_of(v))


def test_split_side_none_without_split_and_past_cap():
    # a cycle stays connected: the searches meet
    g = DecrementalGraph.from_edge_list(6, [(i, (i + 1) % 6) for i in range(6)])
    g.delete_edge(0, 1)
    assert g.split_side(0, 1) is None
    # paths of 100 nodes: cap 4 * 10 = 40
    n = 100

    def path():
        return DecrementalGraph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])

    g = path()
    g.delete_edge(39, 40)  # 0..39 holds the cap exactly, 40..99 passes it
    assert g.split_side(39, 40) == set(range(40))
    g = path()
    g.delete_edge(40, 41)  # 41 and 59 nodes: both past the cap
    assert g.split_side(40, 41) is None
    g = path()
    g.delete_edge(49, 50)  # both sides hold 50 > 40 nodes
    assert g.split_side(49, 50) is None
    g.delete_edge(89, 90)  # 90..99 is cut off
    assert g.split_side(89, 90) == set(range(90, 100))
    g.delete_edge(9, 10)  # 0..9 closes before 10..49 does
    assert g.split_side(9, 10) == set(range(10))
    g.delete_edge(98, 99)  # an isolated node
    assert g.split_side(98, 99) == {99}
    g.delete_edge(0, 1)
    assert g.split_side(0, 1) == {0}
    with pytest.raises(NodeOutOfRange):
        g.split_side(0, n)
    # a star of 50 leaves at 0 passes the cap 32 in one step; the search from
    # the other side goes on alone and closes the 11-node path 51..61
    star = [(0, i) for i in range(1, 51)]
    g = DecrementalGraph.from_edge_list(62, star + [(0, 51)] + [(i, i + 1) for i in range(51, 61)])
    g.delete_edge(0, 51)
    assert g.split_side(0, 51) == set(range(51, 62))


def test_version_counts_deletions(fig_graph):
    for i, (u, v) in enumerate(FIG_EDGES, start=1):
        fig_graph.delete_edge(u, v)
        assert fig_graph.version == i
    assert fig_graph.m == 0


def test_copy_independent(fig_graph):
    h = fig_graph.copy()
    fig_graph.delete_edge(0, 1)
    assert h.has_edge(0, 1)
    assert h.version == 0


def test_file_round_trip(tmp_path, fig_graph):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    write_edge_list(fig_graph, str(gpath))
    back = read_edge_list(str(gpath))
    assert back.n == fig_graph.n and back.edges() == fig_graph.edges()
    first_line = gpath.read_text().splitlines()[0]
    assert first_line == f"{fig_graph.n} {fig_graph.m}"

    trace = DeletionTrace([(0, 1), (3, 5)])
    write_trace(trace, str(tpath))
    assert list(read_trace(str(tpath))) == [(0, 1), (3, 5)]
