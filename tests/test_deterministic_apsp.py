import gc
import hashlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaps.deterministic_apsp import ApspIndexDet, build_covers
from decaps.es_tree import EsTree
from decaps.errors import (
    EdgeAbsent,
    InvalidEpsilon,
    InvalidParameters,
    InvalidRange,
    NodeOutOfRange,
    RateViolation,
    SelfLoop,
    UnknownCenter,
)
from decaps.graph_core import INF, DecrementalGraph, RootDistances
from decaps.harness import (
    ExperimentConfig,
    audit_det_cover,
    build_graph,
    generate_trace,
    gnm_graph,
)
from decaps.oracle import bfs_apsp, bfs_levels, check_stretch
from decaps.center_cover import search_layers

from conftest import (
    cover_state,
    delete_edge,
    det_state,
    random_graph_and_trace,
    reference_search,
)


def patch_level(idx, x, y):
    """The patch's level of y from x: the tree at x cut at ``patch_range``."""
    level = idx.patch[x].level_query(y)
    return level if level <= idx.patch_range else INF


def fig3_path(q):
    """Path v_0..v_{q+1} plus the shortcut (v_{q/2-1}, v_{q+1})."""
    n = q + 2
    edges = [(i, i + 1) for i in range(n - 1)]
    edges.append((q // 2 - 1, q + 1))
    return DecrementalGraph.from_edge_list(n, sorted(set(edges)))


def test_mc_open_distance_zero(fig_graph):
    # q above every component size: the build opens nothing
    mc = build_covers(fig_graph, [(7, 7)])[0]
    assert mc.opens == 0
    j = mc.open(3)
    assert mc.distance(j, 3) == 0
    assert mc.find_center(3) == j
    assert mc.collected[j] == set() and mc.radius2[j] == 7


def test_mc_validation(fig_graph):
    with pytest.raises(InvalidRange):
        build_covers(fig_graph, [(5, 4)])
    mc = build_covers(fig_graph, [(7, 7)])[0]
    with pytest.raises(UnknownCenter):
        mc.distance(0, 1)
    mc.open(0)
    with pytest.raises(NodeOutOfRange):
        mc.open(99)
    with pytest.raises(NodeOutOfRange):
        mc.find_center(-1)


def test_mc_rate_violation(fig_graph):
    mc = build_covers(fig_graph, [(7, 7)])[0]
    j = mc.open(0)
    with pytest.raises(RateViolation):
        mc.move(j, 5, bfs_levels(fig_graph, 0)[5])
    # 0 keeps its component of 6 nodes, so the deletion moves nothing
    delete_edge(mc, 0, 1)
    assert mc.location(j) == 0 and mc.moving_distance == 0
    mc.move(j, 5, bfs_levels(fig_graph, 0)[5])  # fine after a deletion
    with pytest.raises(RateViolation):
        mc.move(j, 2, bfs_levels(fig_graph, 5)[2])


def test_mc_one_center_per_node():
    # a cover reads the one tree at each node, so no two centers share one
    g = DecrementalGraph.from_edge_list(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    mc = build_covers(g, [(4, 4)])[0]
    i, j = mc.open(0), mc.open(3)
    with pytest.raises(InvalidParameters):
        mc.open(0)
    with pytest.raises(InvalidParameters):
        mc.move(j, 0, INF)
    assert mc.centers == [0, 3] and (mc.opens, mc.moving_distance) == (2, 0)
    delete_edge(mc, 1, 2)
    mc.move(i, 0, 0)  # a move to its own node
    assert mc.centers == [0, 3] and mc.find_center(1) == i and mc.find_center(2) is None


def test_mc_move_across_components():
    g = DecrementalGraph.from_edge_list(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    mc = build_covers(g, [(4, 4)])[0]
    assert mc.opens == 0
    j = mc.open(0)
    assert mc.find_center(2) == j
    # {0, 1} is not smaller than r^j = 2, so the deletion moves nothing
    delete_edge(mc, 1, 2)
    assert mc.location(j) == 0 and mc.find_center(2) is None
    # different component: the moving distance becomes infinite
    mc.move(j, 4, bfs_levels(g, mc.location(j))[4])
    assert mc.moving_distance == INF
    assert mc.find_center(1) is None
    assert mc.find_center(0) is None
    for x in (3, 4, 5):
        assert mc.find_center(x) == j
    assert mc.distance(j, 1) is INF


def test_cc_init_path_single_center():
    g = fig3_path(4)
    cov = build_covers(g, [(4, 16)])[0]
    assert cov.opens == 1
    assert cov.location(0) == 0  # first uncovered node in scan order
    for x in range(g.n):
        assert cov.find_center(x) is not None


def test_cc_init_small_components_no_centers():
    g = DecrementalGraph.from_edge_list(6, [(0, 1), (2, 3), (4, 5)])
    cov = build_covers(g, [(3, 6)])[0]
    assert cov.opens == 0
    assert all(cov.find_center(x) is None for x in range(6))


def test_cc_init_complete_graph_one_center():
    n = 7
    g = DecrementalGraph.from_edge_list(n, [(u, v) for u in range(n)
                                            for v in range(u + 1, n)])
    cov = build_covers(g, [(2, 8)])[0]
    assert cov.opens == 1
    truth = bfs_apsp(g)
    for x in range(n):
        j = cov.find_center(x)
        assert truth[x, cov.location(j)] <= 2


def test_cc_validation(fig_graph):
    # a non-integer Q would become a tree's depth bound, and q its ball's
    for scale in [(0, 4), (5, 4), (2.5, 8), (2, 8.0), (2, math.inf)]:
        with pytest.raises(InvalidRange):
            build_covers(fig_graph, [scale])


def test_cc_fig3_open_then_move():
    q = 8
    g = fig3_path(q)  # v0..v9 with shortcut (3, 9)
    cov = build_covers(g, [(q, 4 * q)])[0]
    assert cov.opens == 1 and cov.location(0) == 0

    # severing the shortcut uncovers v9: a second center opens there
    delete_edge(cov, q // 2 - 1, q + 1)
    assert cov.opens == 2
    assert cov.location(1) == q + 1
    assert cov.find_center(q + 1) == 1

    # Fig. 3(d): deleting (v_{q/4}, v_{q/4+1}) strands {v0..v_{q/4}} with
    # center 0, which collects them and moves to v_{q/4+1}
    delete_edge(cov, q // 4, q // 4 + 1)
    assert cov.collected[0] == {0, 1, 2}
    assert cov.radius2[0] == q - 2 * 3  # r = q/2 - 3, in half-units
    assert cov.location(0) == q // 4 + 1
    assert cov.distance(0, q // 4 + 1) == 0
    # confinement: the move never left the collected set
    assert cov.moving_distance <= g.n


def test_cc_delete_far_from_balls_is_quiet():
    g = fig3_path(8)
    cov = build_covers(g, [(4, 16)])[0]
    opens_before = cov.opens
    moves_before = cov.moving_distance
    collected_before = [set(s) for s in cov.collected]
    delete_edge(cov, 8, 9)  # v9 stays covered through the chord; no ball shrinks
    assert cov.opens == opens_before
    assert cov.moving_distance == moves_before
    assert [set(s) for s in cov.collected] == collected_before


def test_cc_queries_against_oracle():
    rng = random.Random(12)
    g, order = random_graph_and_trace(rng, 18, 40)
    q = 3
    cov = build_covers(g, [(q, 12)])[0]
    for u, v in order:
        delete_edge(cov, u, v)
        truth = bfs_apsp(g)
        for x in range(18):
            j = cov.find_center(x)
            if len(g.component_of(x)) >= q:
                assert j is not None
            if j is not None:
                assert truth[x, cov.location(j)] <= q
                d = cov.distance(j, x)
                assert d == truth[cov.location(j), x] or (
                    d is INF and truth[cov.location(j), x] > cov.bound)


def test_cover_radius_zero_opens_everywhere():
    # the exact patch: an exact tree rooted at every node, kept to the
    # patch's range, which answers every pair within it
    g = DecrementalGraph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    idx = ApspIndexDet(g, 0.25)
    patch = idx.patch
    assert idx.patch_range == 16 and not idx.layers  # scales 0 to 2, radius 0
    assert len(patch) == 5
    for deletion in [None, (1, 2), (3, 4), (0, 1)]:
        if deletion is not None:
            idx.delete(*deletion)
        truth = bfs_apsp(g)
        for x, tree in enumerate(patch):
            assert tree.root == x and tree.bound == idx.patch_range
            assert tree.levels() == list(truth[x])
            assert [idx.query(x, y) for y in range(5)] == list(truth[x])


@settings(max_examples=10, deadline=None)
@given(st.data())
def test_cover_ledger_invariants(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(4, 20))
    g, order = random_graph_and_trace(rng, n, 3 * n)
    q = data.draw(st.sampled_from([2, 3, 4]))
    cov = build_covers(g, [(q, 4 * q)])[0]
    prev_bt = {}
    for u, v in order:
        delete_edge(cov, u, v)
        seen = set()
        for j in range(len(cov.centers)):
            # radius formula in half-units
            assert cov.radius2[j] == q - 2 * len(cov.collected[j])
            # B^j: the nodes within r^j of center j
            ball = {y for y, d in enumerate(bfs_levels(g, cov.location(j)))
                    if 2 * d <= cov.radius2[j]}
            assert not ball & cov.collected[j]
            both = ball | cov.collected[j]
            assert not both & seen, "pairwise disjointness"
            seen |= both
            assert 2 * len(both) >= q, "largeness"
            if j in prev_bt:
                assert both <= prev_bt[j], "shrinking"
            prev_bt[j] = both
        assert cov.opens <= 2 * n / q
        assert cov.moving_distance <= n
        for x in range(n):
            if len(g.component_of(x)) >= q:
                assert cov.find_center(x) is not None, "coverage"


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_incremental_greedy_matches_full_scan(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(2, 20))
    g, order = random_graph_and_trace(rng, n, data.draw(st.integers(n, 3 * n)))
    q = data.draw(st.integers(1, 4))
    cov = build_covers(g, [(q, 4 * q)])[0]
    for u, v in order:
        # the trees still hold the pre-deletion levels, as in on_deleted
        def in_ball(j):
            d = cov.distance(j, u)
            return d is not INF and 2 * d <= cov.radius2[j]
        scanned = [j for j in range(len(cov.centers)) if in_ball(j)]
        listed = sorted(j for j in cov._cover[u] if in_ball(j))
        assert listed == scanned
        delete_edge(cov, u, v)
        opens = cov.opens
        cov._greedy_open(range(g.n))  # full scan over every node
        assert cov.opens == opens


# Work counters of ApspIndexDet(eps=0.5) over full traces, recorded with the
# full-scan deletion path (every tree repaired, every node re-checked):
# per-layer opens and moving distance, and level increases and ops summed
# over every tree built. The ops (a repair's neighbour checks) were recorded
# once the exact trees became unit-weight monotone trees; the messages they
# replace, one per neighbour of a raised node, read 26,200 and 356,017.
# The exact patch replaced the two radius-0 layers: it does the work of the
# upper one, and the totals (once 308,960 and 23,267, 576,957 and 316,512)
# fell by exactly the lower one's. The grid's covers are built with the
# index; the gnm graph's distances stay within the patch's range until its
# 117th deletion, which builds them (built with the index, they read 23
# opens and 23 moving distance in layer 2, 546,385 and 260,335). One tree
# per root, shared by the patch and every cover, took the totals from
# 302,876 and 21,153, 539,944 and 236,643: a cover no longer repairs a tree
# of its own at a node the patch already roots.
PINNED_COUNTERS = [
    ("grid", "adversarial-path-peel",
     [100, 39, 12, 5, 2], [0, 0, 12, 15, 14], 244362, 12337),
    ("gnm", "random",
     [120, 52, 22, 7, 2], [0, 0, 22, 19, 10], 377437, 149414),
]


@pytest.mark.parametrize("graph, order, opens, moving, increases, ops",
                         PINNED_COUNTERS, ids=[row[0] for row in PINNED_COUNTERS])
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
        for tree in idx.patch:
            trees[id(tree)] = tree
    collect()
    for u, v in trace:
        idx.delete(u, v)
        collect()
    assert [layer.opens for layer in idx.layers] == opens
    assert [layer.moving_distance for layer in idx.layers] == moving
    # opens and moves change a tree's depth, never the tree
    assert len(trees) == g.n
    assert sum(t.level_increases for t in trees.values()) == increases
    assert sum(t.ops for t in trees.values()) == ops
    stats = idx.stats()
    assert stats["level_increases"] == increases
    assert stats["ops"] == ops
    assert (stats["opens"], stats["moving_distance"]) == (sum(opens), sum(moving))


def cycle(n):
    return DecrementalGraph.from_edge_list(n, [(i, (i + 1) % n) for i in range(n)])


def test_a_deletion_past_the_patch_range_builds_the_layers():
    # the 16-cycle's distances reach 8, the patch's range at eps 0.5, so the
    # build makes no cover; deleting (0, 15) makes dist(0, 15) = 15, and the
    # same deletion builds the covers that answer it
    idx = ApspIndexDet(cycle(16), 0.5)
    assert idx.patch_range == 8 and idx.layers == []
    assert idx.query(0, 8) == 8
    idx.delete(0, 15)
    assert idx.layers
    assert idx.patch[0].level[15] > idx.patch_range  # cut off by the patch
    assert 15 <= idx.query(0, 15) <= 1.5 * 15


def test_small_diameter_builds_no_layers():
    # G(400, 1600)'s distances stay within the patch's range
    idx = ApspIndexDet(gnm_graph(400, 1600, seed=1), 0.5)
    assert idx.layers == []
    assert idx.stats()["opens"] == 0


def clique_with_arms():
    """A clique on nodes 0-63, the first block of roots, and two arms of six
    nodes off 0 and 1: every first-block root is within 7 of every node,
    but the arm tips 69 and 75 are 13 apart."""
    edges = [(x, y) for x in range(64) for y in range(x + 1, 64)]
    edges += [(0, 64), (1, 70)] + [(x, x + 1) for x in (*range(64, 69), *range(70, 75))]
    return DecrementalGraph.from_edge_list(76, edges)


def test_a_later_block_can_trigger_the_build():
    g = clique_with_arms()
    rows = RootDistances(g)
    first = next(rows.blocks())
    assert first == range(64) and rows.dist[rows.dist < rows.unreached].max() == 7
    idx = ApspIndexDet(g, 0.5)
    assert idx.patch_range == 8 and idx.layers
    for deletion in [None, (0, 64), (2, 3)]:
        if deletion is not None:
            idx.delete(*deletion)
        truth = bfs_apsp(g)
        est = [[idx.query(x, y) for y in range(g.n)] for x in range(g.n)]
        assert check_stretch(est, truth, 1.5, 0).failure_count == 0
        assert check_stretch(est, truth, 1, 0, idx.patch_range).failure_count == 0


@pytest.mark.parametrize("trigger", ["first-block", "later-block", "deletion"])
def test_every_trigger_builds_what_build_covers_builds(trigger):
    # the 10x10 grid passes the patch's range in its first block of roots,
    # the clique with arms only in its second, and the 16-cycle only once
    # (0, 15) is deleted; each index's covers are the ones build_covers
    # builds from scratch on its graph as it stands
    if trigger == "first-block":
        idx = ApspIndexDet(build_graph(ExperimentConfig("det_apsp", generator="grid:10:10")), 0.5)
    elif trigger == "later-block":
        idx = ApspIndexDet(clique_with_arms(), 0.5)
    else:
        idx = ApspIndexDet(cycle(16), 0.5)
        assert idx.layers == []
        idx.delete(0, 15)
    assert idx.layers
    scales = [(layer.cover_radius, layer.bound) for layer in idx.layers]
    fresh = build_covers(idx.g.copy(), scales)
    assert [cover_state(layer) for layer in idx.layers] == [cover_state(c) for c in fresh]


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_layers_built_mid_trace_keep_their_ledger(seed):
    # G(30, 60) starts inside the patch's range at eps 0.5: the covers are
    # built by the deletion that first pushes a distance past it, no later,
    # and from then on keep their cover lists, ledger and guarantee (seed 2's
    # trace never leaves the range)
    g = gnm_graph(30, 60, seed)
    idx = ApspIndexDet(g, 0.5)
    assert idx.layers == []
    built = []
    for u, v in generate_trace(g, "random", seed):
        idx.delete(u, v)
        truth = bfs_apsp(g)
        if not idx.layers:
            assert truth[np.isfinite(truth)].max() <= idx.patch_range
            continue
        built.append(idx.g.version)
        assert audit_det_cover(idx, truth) is None
        for layer in idx.layers:
            for x in range(g.n):
                assert set(layer.cover_list(x)) == {
                    j for j in range(len(layer.centers))
                    if layer.distance(j, x) <= layer.cover_radius}
        est = [[idx.query(x, y) for y in range(g.n)] for x in range(g.n)]
        assert check_stretch(est, truth, 1.5, 0).failure_count == 0
    assert built and built[0] < g.m0


def test_det_apsp_validation(fig_graph):
    with pytest.raises(InvalidEpsilon):
        ApspIndexDet(fig_graph, 0)
    with pytest.raises(InvalidEpsilon):
        ApspIndexDet(fig_graph, 1.0001)


def test_rejected_deletions_change_nothing():
    g = gnm_graph(16, 30, 2)
    idx = ApspIndexDet(g, 0.5)
    absent = next((u, v) for u in range(16) for v in range(u + 1, 16)
                  if not g.has_edge(u, v))
    present = g.edges()[0]
    before = det_state(idx)
    for (u, v), error in ((absent, EdgeAbsent), ((4, 4), SelfLoop),
                          ((present[0], 16), NodeOutOfRange),
                          ((-1, present[1]), NodeOutOfRange)):
        with pytest.raises(error):
            idx.delete(u, v)
        assert det_state(idx) == before
    # the index still deletes as a fresh one does
    idx.delete(*present)
    fresh = ApspIndexDet(gnm_graph(16, 30, 2), 0.5)
    fresh.delete(*present)
    assert det_state(idx) == det_state(fresh)
    assert [[idx.query(x, y) for y in range(16)] for x in range(16)] == [
        [fresh.query(x, y) for y in range(16)] for x in range(16)]


def test_det_apsp_layer_parameters():
    g = DecrementalGraph.from_edge_list(40, [(i, i + 1) for i in range(39)])
    idx = ApspIndexDet(g, 0.5)
    for layer in idx.layers:
        assert 1 <= layer.cover_radius <= layer.bound
    # scales up to 2^floor(log2 n): 0 and 1 have radius 0 and make the
    # patch, exact up to 2^(1+2); 2 to 5 are covers of radius 1, 2, 4, 8
    assert idx.patch_range == 8
    assert [(layer.cover_radius, layer.bound) for layer in idx.layers] == [
        (1, 16), (2, 32), (4, 64), (8, 128)]
    assert len(idx.layers) == 4


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
                if d <= idx.patch_range:
                    assert est == d, "the patch is exact"
                assert est >= d - 1e-9, "underestimate"
                if np.isfinite(d):
                    assert est <= (1 + eps) * d + 1e-9
                else:
                    assert est == INF


def test_search_layers_matches_reference_search():
    # the grid peel moves centers in the top three covers, and each move
    # hands the center another node's tree, so the search must read that
    # tree's levels (test_one_shared_tree_per_root checks the level lists)
    g = build_graph(ExperimentConfig("det_apsp", generator="grid:10:10"))
    trace = generate_trace(g, "adversarial-path-peel")
    idx = ApspIndexDet(g, 0.5)
    layered = 0
    for deletion in [None, *trace]:
        if deletion is not None:
            idx.delete(*deletion)
        for x in range(0, 100, 7):
            for y in range(100):
                ref = reference_search(idx.layers, x, y)
                assert search_layers(idx.layers, x, y) == ref
                patch = patch_level(idx, x, y)
                assert idx.query(x, y) == (ref if patch is INF else patch)
                layered += patch is INF and ref is not INF
    assert sum(layer.moving_distance for layer in idx.layers) > 0 and layered > 0


# sha256 of every answer of ApspIndexDet.query, all n^2 pairs after every
# deletion, on the full random traces of G(30, 60) seeds 0-2 and the full
# 6x6 grid peel at eps 0.25, 0.5 and 1.0; recorded with one cover per scale,
# radius-0 scales included, before the exact patch replaced those
ANSWERS_SHA256 = "775832118cc35ac1aa2e80dae2901ad8b87b738ca52b83c271a50b98709320d3"


def test_det_apsp_answers_pinned():
    digest = hashlib.sha256()
    layered = 0
    for eps in (0.25, 0.5, 1.0):
        runs = []
        for seed in range(3):
            g = gnm_graph(30, 60, seed)
            runs.append((g, generate_trace(g, "random", seed)))
        g = build_graph(ExperimentConfig("det_apsp", generator="grid:6:6"))
        runs.append((g, generate_trace(g, "adversarial-path-peel")))
        for g, trace in runs:
            idx = ApspIndexDet(g, eps)
            for u, v in trace:
                idx.delete(u, v)
                answers = [[idx.query(x, y) for y in range(g.n)] for x in range(g.n)]
                digest.update(repr(answers).encode())
                layered += sum(patch_level(idx, x, y) is INF and answers[x][y] is not INF
                               for x in range(g.n) for y in range(g.n))
    assert layered > 0  # the covers answer some pairs, not only the patch
    assert digest.hexdigest() == ANSWERS_SHA256


def check_shared_trees(idx):
    """Every root's one tree holds the levels and counts of a fresh tree of
    its depth, that depth is its deepest reader's (the patch's range, or the
    bound of a cover with a center there), and every center reads the tree
    at its node."""
    g = idx.g
    for x, tree in enumerate(idx.patch):
        assert tree.root == x
        assert tree.bound == max([idx.patch_range] + [
            layer.bound for layer in idx.layers if x in layer.centers])
        fresh = EsTree(g, x, tree.bound)
        assert tree.level == fresh.level and tree._count == fresh._count
    for layer in idx.layers:
        assert all(level is idx.patch[layer.location(j)].level
                   for j, level in enumerate(layer._levels))


@pytest.mark.parametrize("graph", ["grid", "gnm", "later-block"])
def test_one_shared_tree_per_root(graph):
    # the 10x10 grid builds its covers with the index, and its peel moves
    # centers; G(120, 360) builds them in its 117th deletion; the clique
    # with arms in its second block of roots
    if graph == "grid":
        g = build_graph(ExperimentConfig("det_apsp", generator="grid:10:10"))
        trace = generate_trace(g, "adversarial-path-peel")
    elif graph == "gnm":
        g = gnm_graph(120, 360, seed=1)
        trace = generate_trace(g, "random", seed=1)
    else:
        g = clique_with_arms()
        trace = [(0, 64), (2, 3), (70, 71), (1, 70)]
    idx = ApspIndexDet(g, 0.5)
    check_shared_trees(idx)
    for u, v in trace:
        idx.delete(u, v)
        check_shared_trees(idx)
    if graph != "later-block":
        # centers moved, so trees were lowered and deepened
        assert sum(layer.moving_distance for layer in idx.layers) > 0


@pytest.mark.parametrize("shared", [False, True])
def test_scales_in_any_order_read_trees_of_their_depth(shared):
    # covers built in descending order of their bounds open what ascending
    # ones do, and every tree holds the depth of its deepest reader, whether
    # build_covers sets the trees or deepens an index's from depth 4
    g = build_graph(ExperimentConfig("det_apsp", generator="grid:10:10"))
    scales = [(1, 8), (2, 16), (4, 32)]
    trees = [EsTree(g, x, 4) for x in range(g.n)] if shared else None
    objects = list(trees) if shared else None
    covers = build_covers(g, scales[::-1], trees, 4 if shared else 1)
    ascending = build_covers(g.copy(), scales)
    assert [cover_state(c) for c in covers] == [cover_state(c) for c in ascending[::-1]]
    trees = covers[0].trees
    if shared:
        assert all(a is b for a, b in zip(trees, objects))
    for x, tree in enumerate(trees):
        assert tree.bound == max([4 if shared else 1] + [
            c.bound for c in covers if x in c.centers])
        fresh = EsTree(g, x, tree.bound)
        assert tree.level == fresh.level and tree._count == fresh._count


def test_one_tree_object_per_node():
    # the patch and every cover of the 30x30 grid read the same 900 trees
    g = build_graph(ExperimentConfig("det_apsp", generator="grid:30:30"))

    def trees():
        gc.collect()
        return sum(isinstance(obj, EsTree) for obj in gc.get_objects())
    before = trees()
    idx = ApspIndexDet(g, 0.5)
    assert idx.layers and trees() - before == g.n == len(idx.patch)


def test_build_temporaries_stay_small():
    # the all-roots search behind the build keeps no integer per (root,
    # node) pair: its bit-planes hold a bit per pair, and only one block of
    # 64 roots at a time has int16 rows and counts and the trees set from
    # them (0.5 MiB here)
    g = gnm_graph(400, 1600, 1)
    tracemalloc.start()
    try:
        index = ApspIndexDet(g, 0.5)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(index.patch) == 400
    assert peak - size < 1 << 20
