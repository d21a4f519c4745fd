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
from decaps.monotone_es_tree import COUNTER, HEAP, MonotoneEsTree, depth_bound_floor
from decaps.oracle import bfs_levels, weighted_apsp

from conftest import random_graph_and_trace

BACKENDS = [HEAP, COUNTER]


def path_h(length):
    return WeightedAdjacency(length + 1, {(i, i + 1): 1 for i in range(length)})


def test_depth_bound():
    # alpha=1, beta=2, tau=4: bound = (1 + 2/4) * Q + 2
    assert depth_bound_floor(10, 1, 2, 4) == 17
    assert depth_bound_floor(5, 1, 2, 2) == 12  # (1+1)*5+2
    t = MonotoneEsTree(path_h(3), 0, 5, 1, 2, 2)
    assert t.bound == 12


@pytest.mark.parametrize("backend", BACKENDS)
def test_init_unit_path(backend):
    t = MonotoneEsTree(path_h(3), 0, 5, 1, 2, 2, backend=backend)
    assert t.levels() == [0, 1, 2, 3]


@pytest.mark.parametrize("backend", BACKENDS)
def test_init_beyond_bound(backend):
    t = MonotoneEsTree(path_h(7), 0, 1, 1, 2, 2, backend=backend)
    # bound = (1+1)*1+2 = 4
    assert t.levels() == [0, 1, 2, 3, 4, INF, INF, INF]


def test_init_invalid_parameters():
    with pytest.raises(InvalidParameters):
        MonotoneEsTree(path_h(2), 0, 0, 1, 2, 2)
    with pytest.raises(InvalidParameters):
        MonotoneEsTree(path_h(2), 0, 3, 1, 2, 0)


@pytest.mark.parametrize("backend", BACKENDS)
def test_pure_inserts_change_no_levels(backend):
    h = path_h(4)
    t = MonotoneEsTree(h, 0, 6, 1, 2, 2, backend=backend)
    before = t.levels()
    t.apply_batch(h.apply([UpdateEvent(INSERT, 0, 4, 1), UpdateEvent(INSERT, 0, 3, 1)]))
    assert t.levels() == before


@pytest.mark.parametrize("backend", BACKENDS)
def test_insert_then_noninsert_order_enforced(backend):
    h = path_h(4)
    t = MonotoneEsTree(h, 0, 6, 1, 2, 2, backend=backend)
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
    fresh = MonotoneEsTree(fresh_h, 0, 6, 1, 2, 2, backend=backend)
    batch = [UpdateEvent(DELETE, 0, 1, INF)]
    assert t.apply_batch(h.apply(batch)) == fresh.apply_batch(fresh_h.apply(batch))
    assert t.levels() == fresh.levels()


@pytest.mark.parametrize("backend", BACKENDS)
def test_rejected_batch_changes_nothing(backend):
    # the first event is valid, the second names an absent edge: the whole
    # batch is refused before (0, 1) is deleted, so no tree sees a change
    h = path_h(4)
    trees = [MonotoneEsTree(h, root, 6, 1, 2, 2, backend=backend) for root in range(5)]
    levels = [t.levels() for t in trees]
    edges = h.edges()
    with pytest.raises(UnknownEdge):
        h.apply([UpdateEvent(DELETE, 0, 1, INF), UpdateEvent(INCREASE, 0, 3, 5)])
    assert h.edges() == edges
    assert [t.levels() for t in trees] == levels
    assert trees[0].levels() == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("backend", BACKENDS)
def test_stretched_node_stays_fixed(backend):
    # path 0-1-2-3-4; insert a light edge (0,4): node 4 becomes stretched
    h = path_h(4)
    t = MonotoneEsTree(h, 0, 6, 1, 2, 2, backend=backend)
    t.apply_batch(h.apply([UpdateEvent(INSERT, 0, 4, 1)]))
    assert t.level_query(4) == 4
    assert (4, 0) in t.stretched_edges()
    # increases elsewhere leave the stretched node's level untouched
    t.apply_batch(h.apply([UpdateEvent(INCREASE, 2, 3, 5)]))
    assert t.level_query(4) == 4
    assert (4, 0) in t.stretched_edges()
    assert t.level_query(3) == 5  # re-routed through the stretched node: 4 + 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_unknown_edge_and_bad_weight(backend):
    h = path_h(3)
    t = MonotoneEsTree(h, 0, 5, 1, 2, 2, backend=backend)
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_matches_classic_tree_without_insertions(backend):
    # low-degree graph, no hubs: the emulator is the graph itself and never
    # inserts, so the monotone tree must hold H's exact distances, cut off at
    # its bound, step by step
    rng = random.Random(5)
    g = DecrementalGraph.from_edge_list(
        8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (0, 7), (2, 6)])
    em = LocallyPerseveringEmulator(g, 1.0, hubs=[])
    Q = 8
    mono = MonotoneEsTree(em.h, 0, Q, 1, 2, em.tau, backend=backend)

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


@pytest.mark.parametrize("backend", BACKENDS)
def test_root_level_and_lower_bound(backend, fig_graph):
    em = LocallyPerseveringEmulator(fig_graph, 1.0, hubs=[1, 5])
    t = MonotoneEsTree(em.h, 0, 4, 1, 2, em.tau, backend=backend)
    assert t.level_query(0) == 0
    for u, v in list(fig_graph.edges()):
        t.apply_batch(em.on_delete(u, v))
        assert t.level_query(0) == 0
        truth = bfs_levels(fig_graph, 0)
        for x in range(6):
            assert t.level_query(x) >= truth[x] or truth[x] is INF


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_backend_equality_and_invariants(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(3, 14))
    g, order = random_graph_and_trace(rng, n, 3 * n)
    eps = data.draw(st.sampled_from([0.5, 1.0]))
    hubs = sorted(rng.sample(range(n), data.draw(st.integers(0, n))))
    em = LocallyPerseveringEmulator(g, eps, hubs=hubs)
    root = data.draw(st.integers(0, n - 1))
    Q = data.draw(st.sampled_from([2, 4, n]))
    th = MonotoneEsTree(em.h, root, Q, 1, 2, em.tau, backend=HEAP)
    tc = MonotoneEsTree(em.h, root, Q, 1, 2, em.tau, backend=COUNTER)
    # the same trees on a second copy of H that takes one event at a time
    h_single = WeightedAdjacency(n, em.snapshot())
    singles = [MonotoneEsTree(h_single, root, Q, 1, 2, em.tau, backend=b) for b in BACKENDS]
    inserted_pairs = set()
    prev = th.levels()
    for u, v in order:
        batch = em.on_delete(u, v)
        inserted_pairs |= {edge_key(ev.u, ev.v) for ev in batch if ev.kind == INSERT}
        dh = th.apply_batch(batch)
        dc = tc.apply_batch(batch)
        # backend equivalence, level by level and for the raised nodes
        assert th.levels() == tc.levels()
        assert dh == dc
        assert th.level_increases == tc.level_increases
        # per-batch repair equals per-event repair
        single_reports = [set(), set()]
        for ev in batch:
            one = h_single.apply([ev])
            for reports, tree in zip(single_reports, singles):
                reports |= tree.apply_batch(one)
        assert h_single.edges() == em.h.edges() == em.snapshot()
        for reports, single, tree in zip(single_reports, singles, (th, tc)):
            assert single.levels() == tree.levels()
            assert reports == dh
            assert single.level_increases == tree.level_increases
        cur = th.levels()
        # monotonicity
        assert all(a >= b for a, b in zip(cur, prev))
        prev = cur
        # stretched edges trace back to insert events
        for a, b in th.stretched_edges():
            assert edge_key(a, b) in inserted_pairs
        # tree-edge inequality through retrievable parents
        for backend_tree in (th, tc):
            for x in range(n):
                p = backend_tree.parent(x)
                if p is not None:
                    w = em.h.adj[x][p]
                    assert backend_tree.level_query(x) >= backend_tree.level_query(p) + w


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_threshold_reports_match_truncated_tree(backend, data):
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
    small = MonotoneEsTree(em.h, root, q, 1, 2, em.tau, backend=backend)
    big = MonotoneEsTree(em.h, root, Q, 1, 2, em.tau, backend=backend)

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
    t = MonotoneEsTree(em.h, root, Q, 1, 2, em.tau)
    for u, v in order:
        t.apply_batch(em.on_delete(u, v))
        truth = bfs_levels(g, root)
        for x in range(n):
            lx = t.level_query(x)
            if truth[x] is INF:
                continue
            assert lx >= truth[x]
            assert lx <= (1 + 2 / em.tau) * truth[x] + 2 + 1e-9
