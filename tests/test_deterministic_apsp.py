import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaps.deterministic_apsp import ApspIndexDet, DetCenterCover, MovingCenters
from decaps.errors import (
    InvalidEpsilon,
    InvalidRange,
    NodeOutOfRange,
    RateViolation,
    UnknownCenter,
)
from decaps.graph_core import INF, DecrementalGraph
from decaps.harness import ExperimentConfig, build_graph, generate_trace, gnm_graph
from decaps.oracle import bfs_apsp, bfs_levels

from conftest import random_graph_and_trace


def fig3_path(q):
    """Path v_0..v_{q+1} plus the shortcut (v_{q/2-1}, v_{q+1})."""
    n = q + 2
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((q // 2 - 1, q + 1))
    return DecrementalGraph.from_edge_list(n, sorted(set(edges)))


def test_mc_open_distance_zero(fig_graph):
    mc = MovingCenters(fig_graph, 2, 4)
    j = mc.open(3)
    assert mc.distance(j, 3) == 0
    assert mc.find_center(3) == j


def test_mc_validation(fig_graph):
    with pytest.raises(InvalidRange):
        MovingCenters(fig_graph, 5, 4)
    mc = MovingCenters(fig_graph, 2, 4)
    with pytest.raises(UnknownCenter):
        mc.distance(0, 1)
    j = mc.open(0)
    with pytest.raises(NodeOutOfRange):
        mc.open(99)
    with pytest.raises(NodeOutOfRange):
        mc.find_center(-1)


def test_mc_rate_violation(fig_graph):
    mc = MovingCenters(fig_graph, 2, 4)
    j = mc.open(0)
    with pytest.raises(RateViolation):
        mc.move(j, 5, bfs_levels(fig_graph, 0)[5])
    mc.delete_edge(0, 1)
    mc.move(j, 5, bfs_levels(fig_graph, 0)[5])  # fine after a deletion
    with pytest.raises(RateViolation):
        mc.move(j, 2, bfs_levels(fig_graph, 5)[2])


def test_mc_move_across_components():
    g = DecrementalGraph.from_edge_list(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    mc = MovingCenters(g, 2, 3)
    j = mc.open(0)
    assert mc.find_center(2) == j
    mc.delete_edge(0, 1)
    # different component: the moving distance becomes infinite
    mc.move(j, 4, bfs_levels(g, mc.location[j])[4])
    assert mc.moving_distance == INF
    assert mc.find_center(2) is None
    assert mc.find_center(0) is None
    for x in (3, 4, 5):
        assert mc.find_center(x) == j
    assert mc.distance(j, 1) is INF


def test_cc_init_path_single_center():
    g = fig3_path(4)
    cov = DetCenterCover(g, 4, 16)
    assert cov.opens == 1
    assert cov.location(0) == 0  # first uncovered node in scan order
    for x in range(g.n):
        assert cov.find_center(x) is not None


def test_cc_init_small_components_no_centers():
    g = DecrementalGraph.from_edge_list(6, [(0, 1), (2, 3), (4, 5)])
    cov = DetCenterCover(g, 3, 6)
    assert cov.opens == 0
    assert all(cov.find_center(x) is None for x in range(6))


def test_cc_init_complete_graph_one_center():
    n = 7
    g = DecrementalGraph.from_edge_list(n, [(u, v) for u in range(n)
                                            for v in range(u + 1, n)])
    cov = DetCenterCover(g, 2, 8)
    assert cov.opens == 1
    truth = bfs_apsp(g)
    for x in range(n):
        j = cov.find_center(x)
        assert truth[x, cov.location(j)] <= 2


def test_cc_validation(fig_graph):
    with pytest.raises(InvalidRange):
        DetCenterCover(fig_graph, 0, 4)
    with pytest.raises(InvalidRange):
        DetCenterCover(fig_graph, 5, 4)


def test_cc_rejects_cover_radius_below_half_q():
    # below q // 2 u's cover list may miss the ball holding u; below
    # 2 * (q // 2) two centers' balls may overlap
    g = fig3_path(8)
    for q, rho in ((4, 1), (5, 1), (8, 3), (2, 1), (4, 3), (5, 3), (8, 7)):
        with pytest.raises(InvalidRange):
            DetCenterCover(g, q, 16, cover_radius=rho)
    for q, rho in ((1, 0), (2, 2), (3, 2), (5, 4), (8, 8)):
        DetCenterCover(g, q, 16, cover_radius=rho)


def test_cc_fig3_open_then_move():
    q = 8
    g = fig3_path(q)  # v0..v9 with shortcut (3, 9)
    cov = DetCenterCover(g, q, 4 * q)
    assert cov.opens == 1 and cov.location(0) == 0

    # severing the shortcut uncovers v9: a second center opens there
    cov.delete(q // 2 - 1, q + 1)
    assert cov.opens == 2
    assert cov.location(1) == q + 1
    assert cov.find_center(q + 1) == 1

    # Fig. 3(d): deleting (v_{q/4}, v_{q/4+1}) strands {v0..v_{q/4}} with
    # center 0, which collects them and moves to v_{q/4+1}
    cov.delete(q // 4, q // 4 + 1)
    assert cov.collected[0] == {0, 1, 2}
    assert cov.radius2[0] == q - 2 * 3  # r = q/2 - 3, in half-units
    assert cov.location(0) == q // 4 + 1
    assert cov.distance(0, q // 4 + 1) == 0
    # confinement: the move never left the collected set
    assert cov.moving_distance <= g.n


def test_cc_delete_far_from_balls_is_quiet():
    g = fig3_path(8)
    cov = DetCenterCover(g, 4, 16)
    opens_before = cov.opens
    moves_before = cov.moving_distance
    collected_before = [set(s) for s in cov.collected]
    cov.delete(8, 9)  # v9 stays covered through the chord; no ball shrinks
    assert cov.opens == opens_before
    assert cov.moving_distance == moves_before
    assert [set(s) for s in cov.collected] == collected_before


def test_cc_queries_against_oracle():
    rng = random.Random(12)
    g, order = random_graph_and_trace(rng, 18, 40)
    q = 3
    cov = DetCenterCover(g, q, 12)
    for u, v in order:
        cov.delete(u, v)
        truth = bfs_apsp(g)
        for x in range(18):
            j = cov.find_center(x)
            if g.component_size(x) >= q:
                assert j is not None
            if j is not None:
                assert truth[x, cov.location(j)] <= q
                d = cov.distance(j, x)
                assert d == truth[cov.location(j), x] or (
                    d is INF and truth[cov.location(j), x] > cov.Q)


def test_cover_radius_zero_opens_everywhere():
    g = DecrementalGraph.from_edge_list(5, [(0, 1), (1, 2), (3, 4)])
    cov = DetCenterCover(g, 1, 4, cover_radius=0)
    assert cov.opens == 5
    for x in range(5):
        j = cov.find_center(x)
        assert cov.location(j) == x
        assert cov.distance(j, x) == 0


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_cover_ledger_invariants(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(4, 20))
    g, order = random_graph_and_trace(rng, n, 3 * n)
    q = data.draw(st.sampled_from([2, 3, 4]))
    cov = DetCenterCover(g, q, 4 * q)
    prev_bt = {}
    for u, v in order:
        cov.delete(u, v)
        seen = set()
        for j in cov.centers():
            # radius formula in half-units
            assert cov.radius2[j] == cov.q - 2 * len(cov.collected[j])
            ball = cov.ball(j)
            assert not ball & cov.collected[j]
            both = ball | cov.collected[j]
            assert not both & seen, "pairwise disjointness"
            seen |= both
            assert 2 * len(both) >= cov.q, "largeness"
            if j in prev_bt:
                assert both <= prev_bt[j], "shrinking"
            prev_bt[j] = both
        assert cov.opens <= 2 * n / q
        assert cov.moving_distance <= n
        for x in range(n):
            if g.component_size(x) >= q:
                assert cov.find_center(x) is not None, "coverage"


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_incremental_greedy_matches_full_scan(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(2, 20))
    g, order = random_graph_and_trace(rng, n, data.draw(st.integers(n, 3 * n)))
    q = data.draw(st.integers(1, 4))
    rho = data.draw(st.integers(2 * (q // 2), q))
    cov = DetCenterCover(g, q, 4 * q, cover_radius=rho)
    mc = cov.mc
    for u, v in order:
        # the trees still hold the pre-deletion levels, as in on_deleted
        def in_ball(j):
            d = mc.distance(j, u)
            return d is not INF and 2 * d <= cov.radius2[j]
        scanned = [j for j in mc.centers() if in_ball(j)]
        listed = sorted(j for j in mc._cover[u] if in_ball(j))
        assert listed == scanned
        cov.delete(u, v)
        opens = cov.opens
        cov._greedy_open(range(g.n))  # full scan over every node
        assert cov.opens == opens


# Work counters of ApspIndexDet(eps=0.5) over full traces, recorded with the
# full-scan deletion path (every tree repaired, every node re-checked):
# per-layer opens and moving distance, and level increases and ops summed
# over every tree built. The ops (a repair's neighbour checks) were recorded
# once the exact trees became unit-weight monotone trees; the messages they
# replace, one per neighbour of a raised node, read 26,200 and 356,017.
PINNED_COUNTERS = [
    ("grid", "adversarial-path-peel",
     [100, 100, 100, 39, 12, 5, 2], [0, 0, 0, 0, 12, 15, 14], 308960, 23267),
    ("gnm", "random",
     [120, 120, 120, 52, 23, 7, 2], [0, 0, 0, 0, 23, 19, 10], 576957, 316512),
]


@pytest.mark.parametrize("graph, order, opens, moving, increases, ops",
                         PINNED_COUNTERS)
def test_det_apsp_counters_pinned(graph, order, opens, moving, increases, ops):
    if graph == "grid":
        g = build_graph(ExperimentConfig("det_apsp", generator="grid:10:10"))
        trace = generate_trace(g, order)
    else:
        g = gnm_graph(120, 360, seed=1)
        trace = generate_trace(g, order, seed=1)
    idx = ApspIndexDet(g, 0.5)
    trees = {}  # every tree that ever lived, kept alive so ids stay unique

    def collect():
        for layer in idx.layers:
            for tree in layer.mc._trees:
                trees[id(tree)] = tree
    collect()
    for u, v in trace:
        idx.delete(u, v)
        collect()
    assert [layer.opens for layer in idx.layers] == opens
    assert [layer.moving_distance for layer in idx.layers] == moving
    assert sum(t.level_increases for t in trees.values()) == increases
    assert sum(t.ops for t in trees.values()) == ops
    # the index's own tallies count the trees that moves retired
    assert idx.level_increases == increases
    assert idx.ops == ops


def test_det_apsp_validation(fig_graph):
    with pytest.raises(InvalidEpsilon):
        ApspIndexDet(fig_graph, 0)
    with pytest.raises(InvalidEpsilon):
        ApspIndexDet(fig_graph, 1.0001)


def test_det_apsp_layer_parameters():
    g = DecrementalGraph.from_edge_list(40, [(i, i + 1) for i in range(39)])
    idx = ApspIndexDet(g, 0.5)
    for q_p, Q_p in idx.layer_params:
        assert 1 <= q_p <= Q_p
    # layers cover scales up to 2^floor(log2 n)
    assert len(idx.layers) == 6


def test_det_apsp_query_basics():
    g = DecrementalGraph.from_edge_list(9, [(i, i + 1) for i in range(8)])
    idx = ApspIndexDet(g, 0.5)
    truth = bfs_apsp(g)
    assert idx.query(4, 4) == 0
    for x in range(9):
        for y in range(9):
            est = idx.query(x, y)
            assert truth[x, y] <= est <= (1 + 0.5) * truth[x, y] + 1e-9 or (
                truth[x, y] == 0 and est == 0)
    idx.delete(3, 4)
    assert idx.query(0, 8) == INF


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_det_apsp_full_trace_sandwich(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(2, 20))
    g, order = random_graph_and_trace(rng, n, 3 * n)
    eps = data.draw(st.sampled_from([0.25, 0.5, 1.0]))
    idx = ApspIndexDet(g, eps)
    for u, v in order:
        idx.delete(u, v)
        truth = bfs_apsp(g)
        for x in range(n):
            for y in range(n):
                est = idx.query(x, y)
                d = truth[x, y]
                assert est >= d - 1e-9, "underestimate"
                if np.isfinite(d):
                    assert est <= (1 + eps) * d + 1e-9
                else:
                    assert est == INF
