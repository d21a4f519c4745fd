import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaps.emulator import LocallyPerseveringEmulator
from decaps.errors import (
    InvalidParameters,
    NodeOutOfRange,
    NonIncreasingWeight,
    OrderViolation,
    SelfLoop,
    UnknownEdge,
)
from decaps.graph_core import (
    DELETE,
    INCREASE,
    INF,
    INSERT,
    DecrementalGraph,
    UpdateEvent,
    WeightedAdjacency,
    edge_key,
)
from decaps.monotone_es_tree import MonotoneEsTree
from decaps.oracle import bfs_levels, weighted_apsp
from decaps.randomized_apsp import depth_bound_floor

from conftest import fixpoint_levels, random_graph_and_trace

# the engine under test, named in test ids by its repair path: per-node
# support counters with one-unit raises
COUNTER_ENGINE = pytest.mark.parametrize("make_tree", [MonotoneEsTree], ids=["counter"])


def path_h(length):
    return WeightedAdjacency(length + 1, {(i, i + 1): 1 for i in range(length)})


def test_depth_bound():
    # tau=4: bound = (1 + 2/4) * Q + 2
    assert depth_bound_floor(10, 4) == 17
    assert depth_bound_floor(5, 2) == 12  # (1+1)*5+2
    assert depth_bound_floor(7, 3) == 13  # floor(11.66... + 2)
    t = MonotoneEsTree(path_h(3), 0, 12)
    assert t.bound == 12


@COUNTER_ENGINE
def test_init_unit_path(make_tree):
    t = make_tree(path_h(3), 0, depth_bound_floor(5, 2))
    assert t.levels() == [0, 1, 2, 3]


@COUNTER_ENGINE
def test_init_beyond_bound(make_tree):
    t = make_tree(path_h(7), 0, 4)
    assert t.levels() == [0, 1, 2, 3, 4, INF, INF, INF]


def test_init_invalid_parameters():
    with pytest.raises(InvalidParameters):
        MonotoneEsTree(path_h(2), 0, 0)
    with pytest.raises(InvalidParameters):
        MonotoneEsTree(path_h(2), 0, -3)


@COUNTER_ENGINE
def test_pure_inserts_change_no_levels(make_tree):
    h = path_h(4)
    t = make_tree(h, 0, depth_bound_floor(6, 2))
    before = t.levels()
    t.apply_batch(h.apply([UpdateEvent(INSERT, 0, 4, 1), UpdateEvent(INSERT, 0, 3, 1)]))
    assert t.levels() == before


@COUNTER_ENGINE
def test_insert_then_noninsert_order_enforced(make_tree):
    h = path_h(4)
    t = make_tree(h, 0, depth_bound_floor(6, 2))
    levels = t.levels()
    edges = h.edges()
    with pytest.raises(OrderViolation):
        h.apply([
            UpdateEvent(DELETE, 0, 1, INF),
            UpdateEvent(INSERT, 0, 4, 1),
        ])
    # rejected before any event applied: the delete of (0, 1) did not happen
    assert t.levels() == levels
    assert h.edges() == edges
    # and the tree still repairs like a fresh one
    fresh_h = path_h(4)
    fresh = make_tree(fresh_h, 0, depth_bound_floor(6, 2))
    batch = [UpdateEvent(DELETE, 0, 1, INF)]
    assert t.apply_batch(h.apply(batch)) == fresh.apply_batch(fresh_h.apply(batch))
    assert t.levels() == fresh.levels()


@COUNTER_ENGINE
def test_rejected_batch_changes_nothing(make_tree):
    # the first event is valid, the second names an absent edge: the whole
    # batch is refused before (0, 1) is deleted, so no tree sees a change
    h = path_h(4)
    trees = [make_tree(h, root, depth_bound_floor(6, 2)) for root in range(5)]
    levels = [t.levels() for t in trees]
    edges = h.edges()
    with pytest.raises(UnknownEdge):
        h.apply([UpdateEvent(DELETE, 0, 1, INF), UpdateEvent(INCREASE, 0, 3, 5)])
    assert h.edges() == edges
    assert [t.levels() for t in trees] == levels
    assert trees[0].levels() == [0, 1, 2, 3, 4]


@COUNTER_ENGINE
def test_stretched_node_stays_fixed(make_tree):
    # path 0-1-2-3-4; insert a light edge (0,4): node 4 becomes stretched
    h = path_h(4)
    t = make_tree(h, 0, depth_bound_floor(6, 2))
    t.apply_batch(h.apply([UpdateEvent(INSERT, 0, 4, 1)]))
    assert t.level_query(4) == 4
    assert (4, 0) in t.stretched_edges()
    # increases elsewhere leave the stretched node's level untouched
    t.apply_batch(h.apply([UpdateEvent(INCREASE, 2, 3, 5)]))
    assert t.level_query(4) == 4
    assert (4, 0) in t.stretched_edges()
    assert t.level_query(3) == 5  # re-routed through the stretched node: 4 + 1


@COUNTER_ENGINE
def test_unknown_edge_and_bad_weight(make_tree):
    h = path_h(3)
    t = make_tree(h, 0, depth_bound_floor(5, 2))
    edges = h.edges()
    with pytest.raises(UnknownEdge):
        h.apply([UpdateEvent(INCREASE, 0, 3, 5)])
    with pytest.raises(UnknownEdge):
        h.apply([UpdateEvent(INSERT, 0, 1, 1)])
    with pytest.raises(UnknownEdge):
        h.apply([UpdateEvent(DELETE, 1, 2, INF), UpdateEvent(DELETE, 2, 1, INF)])
    with pytest.raises(UnknownEdge):
        h.apply([UpdateEvent("merge", 0, 1, 1)])
    with pytest.raises(NonIncreasingWeight):
        h.apply([UpdateEvent(INCREASE, 0, 1, 1)])
    with pytest.raises(NonIncreasingWeight):
        h.apply([UpdateEvent(INCREASE, 0, 1, 3), UpdateEvent(INCREASE, 1, 0, 2)])
    with pytest.raises(NodeOutOfRange):
        h.apply([UpdateEvent(INSERT, 0, 4, 1)])
    with pytest.raises(InvalidParameters):
        h.apply([UpdateEvent(INSERT, 0, 2, 0)])
    with pytest.raises(SelfLoop):
        h.apply([UpdateEvent(INSERT, 2, 2, 1)])
    assert h.edges() == edges
    assert t.levels() == [0, 1, 2, 3]
    # later events see the earlier ones; old weights come from H
    batch = h.apply([UpdateEvent(INSERT, 0, 2, 1), UpdateEvent(INCREASE, 0, 1, 3),
                     UpdateEvent(INCREASE, 1, 0, 4), UpdateEvent(DELETE, 2, 0, INF)])
    assert [ev.old for ev in batch] == [None, 1, 3, 1]
    assert h.edges() == {(0, 1): 4, (1, 2): 1, (2, 3): 1}
    t.apply_batch(batch)
    assert t.levels() == [0, 4, 5, 6]


def test_non_integer_weights_rejected():
    # the bucket search and the unit raises need integer weights: H refuses
    # others when it is built and in whole batches, before any change
    for w in (1.5, 2.0):
        with pytest.raises(InvalidParameters):
            WeightedAdjacency(2, {(0, 1): w})
    h = WeightedAdjacency(4, {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1})
    t = MonotoneEsTree(h, 0, 6)
    edges = h.edges()
    for batch in ([UpdateEvent(INCREASE, 2, 3, 3), UpdateEvent(INCREASE, 0, 1, 2.5)],
                  [UpdateEvent(INSERT, 0, 2, 1.5)],
                  [UpdateEvent(INCREASE, 0, 1, INF)]):
        with pytest.raises(InvalidParameters):
            h.apply(batch)
        assert h.edges() == edges
    assert t.levels() == [0, 1, 2, 1]
    t.apply_batch(h.apply([UpdateEvent(INCREASE, 0, 1, 3)]))
    assert t.levels() == [0, 3, 2, 1]


@COUNTER_ENGINE
def test_matches_classic_tree_without_insertions(make_tree):
    # low-degree graph, no hubs: the emulator is the graph itself and never
    # inserts, so the monotone tree must hold H's exact distances, cut off at
    # its bound, step by step
    rng = random.Random(5)
    g = DecrementalGraph.from_edge_list(
        8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7), (2, 6)])
    em = LocallyPerseveringEmulator(g, 1.0, hubs=[])
    Q = 8
    mono = make_tree(em.h, 0, depth_bound_floor(Q, em.tau))

    def exact():
        dist = weighted_apsp(8, em.h.edges())[0]
        return [int(d) if d <= mono.bound else INF for d in dist]

    assert mono.levels() == exact()
    order = g.edges()
    rng.shuffle(order)
    for u, v in order:
        batch = em.on_delete(u, v)
        assert all(ev.kind == DELETE for ev in batch)
        mono.apply_batch(batch)
        assert mono.levels() == exact()


@COUNTER_ENGINE
def test_root_level_and_lower_bound(make_tree, fig_graph):
    em = LocallyPerseveringEmulator(fig_graph, 1.0, hubs=[1, 5])
    t = make_tree(em.h, 0, depth_bound_floor(4, em.tau))
    assert t.level_query(0) == 0
    for u, v in list(fig_graph.edges()):
        t.apply_batch(em.on_delete(u, v))
        assert t.level_query(0) == 0
        truth = bfs_levels(fig_graph, 0)
        for x in range(6):
            assert t.level_query(x) >= truth[x] or truth[x] is INF


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_reference_levels_and_invariants(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(3, 14))
    g, order = random_graph_and_trace(rng, n, 3 * n)
    eps = data.draw(st.sampled_from([0.5, 1.0]))
    hubs = sorted(rng.sample(range(n), data.draw(st.integers(0, n))))
    em = LocallyPerseveringEmulator(g, eps, hubs=hubs)
    root = data.draw(st.integers(0, n - 1))
    Q = data.draw(st.sampled_from([2, 4, n]))
    t = MonotoneEsTree(em.h, root, depth_bound_floor(Q, em.tau))
    # the same tree on a second copy of H that takes one event at a time
    h_single = WeightedAdjacency(n, em.snapshot())
    single = MonotoneEsTree(h_single, root, depth_bound_floor(Q, em.tau))
    inserted_pairs = set()
    prev = t.levels()
    for u, v in order:
        batch = em.on_delete(u, v)
        inserted_pairs |= {edge_key(ev.u, ev.v) for ev in batch if ev.kind == INSERT}
        raised = t.apply_batch(batch)
        cur = t.levels()
        # the least fixpoint at or above the levels before the batch
        assert cur == fixpoint_levels(em.h.adj, root, t.bound, prev)
        assert raised == {x for x in range(n) if cur[x] != prev[x]}
        # per-batch repair equals per-event repair
        single_raised = set()
        for ev in batch:
            single_raised |= single.apply_batch(h_single.apply([ev]))
        assert h_single.edges() == em.h.edges() == em.snapshot()
        assert single.levels() == cur
        assert single_raised == raised
        assert single.level_increases == t.level_increases
        # monotonicity
        assert all(a >= b for a, b in zip(cur, prev))
        prev = cur
        # stretched edges trace back to insert events
        for a, b in t.stretched_edges():
            assert edge_key(a, b) in inserted_pairs
        # tree-edge inequality through retrievable parents
        for x in range(n):
            p = t.parent(x)
            if p is not None:
                assert t.level_query(x) >= t.level_query(p) + em.h.adj[x][p]


@COUNTER_ENGINE
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_threshold_reports_match_truncated_tree(make_tree, data):
    # a range-Q tree stands in for a range-q tree: its levels cut off at
    # bound(q) are the q-tree's levels, apply_batch returns exactly the nodes
    # whose level rose, and those that rose past bound(q) are exactly the
    # nodes the q-tree drops. Sparse graphs, few hubs and a small q put nodes
    # at bound(q) that the Q-tree keeps after they cross it.
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(4, 16))
    g, order = random_graph_and_trace(rng, n, data.draw(st.integers(n, 2 * n)))
    eps = data.draw(st.sampled_from([0.5, 1.0]))
    hubs = sorted(rng.sample(range(n), data.draw(st.integers(0, n // 3))))
    em = LocallyPerseveringEmulator(g, eps, hubs=hubs)
    root = data.draw(st.integers(0, n - 1))
    q = data.draw(st.integers(1, 3))
    Q = q + data.draw(st.integers(0, n))
    small = make_tree(em.h, root, depth_bound_floor(q, em.tau))
    big = make_tree(em.h, root, depth_bound_floor(Q, em.tau))

    def truncated():
        return [lx if lx <= small.bound else INF for lx in big.levels()]

    assert truncated() == small.levels()
    for u, v in order:
        before = big.levels()
        small_before = small.levels()
        batch = em.on_delete(u, v)
        raised = big.apply_batch(batch)
        small_raised = small.apply_batch(batch)
        after = big.levels()
        assert raised == {x for x in range(n) if after[x] != before[x]}
        assert all(after[x] > before[x] for x in raised)
        assert truncated() == small.levels()
        assert small_raised == {x for x in raised if before[x] <= small.bound}
        assert {x for x in raised if before[x] <= small.bound < after[x]} == {
            x for x, lx in enumerate(small.levels())
            if lx is INF and small_before[x] is not INF}


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_sandwich_on_reliable_emulator(data):
    # with every node a hub the emulator is locally persevering surely, so the
    # two-sided estimate bound must hold deterministically
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(2, 12))
    g, order = random_graph_and_trace(rng, n, 3 * n)
    eps = data.draw(st.sampled_from([0.5, 1.0]))
    em = LocallyPerseveringEmulator(g, eps, hubs=list(range(n)))
    root = data.draw(st.integers(0, n - 1))
    Q = n
    t = MonotoneEsTree(em.h, root, depth_bound_floor(Q, em.tau))
    for u, v in order:
        t.apply_batch(em.on_delete(u, v))
        truth = bfs_levels(g, root)
        for x in range(n):
            lx = t.level_query(x)
            if truth[x] is INF:
                continue
            assert lx >= truth[x]
            assert lx <= (1 + 2 / em.tau) * truth[x] + 2 + 1e-9
