import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaps import randomized_apsp
from decaps.emulator import LocallyPerseveringEmulator
from decaps.errors import (
    EdgeAbsent,
    InvalidEpsilon,
    InvalidParameters,
    InvalidRange,
    NodeOutOfRange,
    SelfLoop,
    UnknownCenter,
)
from decaps.graph_core import INF, DecrementalGraph
from decaps.monotone_es_tree import MonotoneEsTree
from decaps.harness import generate_trace, gnm_graph
from decaps.oracle import bfs_apsp
from decaps.center_cover import search_layers
from decaps.randomized_apsp import ApspIndexRandom, RandomCenterCover, depth_bound_floor

from conftest import (
    delete_edge,
    fixpoint_levels,
    random_graph_and_trace,
    reference_search,
    standalone_cover,
)

# the engine under test, named in test ids by its repair path: per-node
# support counters with one-unit raises
COUNTER_ENGINE = pytest.mark.parametrize("make_tree", [MonotoneEsTree], ids=["counter"])


def test_cover_init_validation(fig_graph):
    em = LocallyPerseveringEmulator(fig_graph, 1.0, hubs=[])
    with pytest.raises(InvalidRange):
        RandomCenterCover(em, 0, 4, [], {})
    with pytest.raises(InvalidRange):
        RandomCenterCover(em, 5, 4, [], {})


def test_cover_full_range_covers_connected():
    rng = random.Random(2)
    for seed in range(5):
        g, _ = random_graph_and_trace(rng, 14, 28)
        cov = standalone_cover(g, 14, 14, 1.0, seed=seed)
        truth = bfs_apsp(g)
        for x in range(14):
            if len(g.component_of(x)) >= 14:
                j = cov.find_center(x)
                assert j is not None
                assert truth[x, cov.location(j)] <= 14


def test_cover_all_centers_isolated_nodes():
    g = DecrementalGraph.from_edge_list(4, [])
    cov = standalone_cover(g, 1, 2, 1.0, centers=list(range(4)))
    for x in range(4):
        assert cov.location(cov.find_center(x)) == x
        assert cov.distance(cov.find_center(x), x) == 0


def test_cover_bot_for_uncovered_small_component():
    g = DecrementalGraph.from_edge_list(2, [])
    cov = standalone_cover(g, 1, 1, 1.0, centers=[0])
    assert cov.find_center(1) is None
    assert cov.find_center(0) == 0


def test_cover_distance_contract(fig_graph):
    cov = standalone_cover(fig_graph, 2, 4, 1.0, centers=[0, 5])
    truth = bfs_apsp(fig_graph)
    for j in range(2):
        for x in range(6):
            d = cov.distance(j, x)
            assert d >= truth[cov.location(j), x]
    with pytest.raises(UnknownCenter):
        cov.distance(7, 0)
    # covered nodes: the returned center is within (1+eps)q + 2
    thresh = cov.cover_radius
    for x in range(6):
        j = cov.find_center(x)
        assert j is not None
        assert truth[x, cov.location(j)] <= thresh


def test_cover_lists_shrink_only():
    rng = random.Random(8)
    g, order = random_graph_and_trace(rng, 12, 30)
    cov = standalone_cover(g, 3, 6, 0.5, seed=1)
    sizes = [len(cov.cover_list(x)) for x in range(12)]
    for u, v in order:
        delete_edge(cov, u, v)
        cur = [len(cov.cover_list(x)) for x in range(12)]
        assert all(a <= b for a, b in zip(cur, sizes))
        sizes = cur


def test_apsp_init_validation(fig_graph):
    with pytest.raises(InvalidEpsilon):
        ApspIndexRandom(fig_graph, 0.0)
    with pytest.raises(InvalidEpsilon):
        ApspIndexRandom(fig_graph, 2.0)
    # 0 and -1 would sample no hub and no center, NaN every node
    for constant in (0, -1, math.nan):
        with pytest.raises(InvalidParameters):
            ApspIndexRandom(fig_graph, 1.0, sampling_constant=constant)


def test_apsp_layer_parameters(fig_graph):
    idx = ApspIndexRandom(fig_graph, 1.0, seed=0)
    eh = idx.eps_hat
    assert eh == pytest.approx(1 / 18)
    for p, (q_p, Q_p) in enumerate(idx.layer_params):
        assert q_p == max(1, math.floor(eh * 2 ** p))
        assert Q_p == math.ceil(eh * 2 ** p) + 2 + 2 ** (p + 1)
    assert idx.patch_range == math.ceil(20 / eh)


def test_layer_estimate_properties():
    # properties checked per layer, per deletion, against the BFS oracle;
    # all-node hubs and centers make the whp clauses deterministic
    rng = random.Random(3)
    n = 14
    g, order = random_graph_and_trace(rng, n, 3 * n)
    idx = ApspIndexRandom(g, 1.0, seed=5, hubs=list(range(n)))
    # rebuild every layer with all nodes as centers
    idx.layers = [RandomCenterCover(idx.emulator, q_p, Q_p, range(n), idx.trees)
                  for (q_p, Q_p) in idx.layer_params]

    def layer_estimate(layer, x, y):
        # delta_p(cen, x) + delta_p(cen, y) through a center covering x
        j = layer.find_center(x)
        return INF if j is None else layer.distance(j, x) + layer.distance(j, y)

    alpha = 1 + 2 / idx.emulator.tau
    beta = 2
    eps_hat = idx.eps_hat
    for u, v in order:
        idx.delete(u, v)
        truth = bfs_apsp(g)
        for p, (q_p, Q_p) in enumerate(idx.layer_params):
            for x in range(n):
                for y in range(n):
                    est = layer_estimate(idx.layers[p], x, y)
                    d = truth[x, y]
                    assert est >= d - 1e-9  # property 1: never underestimates
                    if est != INF and d >= 2 ** p:
                        bound = ((alpha + 2 * alpha * alpha * eps_hat) * d
                                 + 2 * beta + 2 * alpha * beta)
                        assert est <= bound + 1e-9  # property 2
                    if len(g.component_of(x)) >= q_p and np.isfinite(d) and d <= 2 ** (p + 1):
                        assert est != INF  # property 3 (coverage)


def test_rand_apsp_counters_pinned():
    # the benchmark's rand-gnm round: G(64, 256), first 40 random deletions
    g = gnm_graph(64, 256, 0)
    trace = generate_trace(g, "random", seed=0).pairs[:40]
    idx = ApspIndexRandom(g, 0.5, seed=0)
    for u, v in trace:
        idx.delete(u, v)
    # one tree per root; every node is a center in all six layers and no
    # layer's range exceeds the patch range, so each tree is a patch tree
    assert len(idx.trees) == g.n
    assert all(t.bound == idx.patch_bound for t in idx.trees)
    assert all(len(layer.centers) == g.n for layer in idx.layers)
    assert sum(t.level_increases for t in idx.trees) == 662
    assert sum(t.ops for t in idx.trees) == 41706
    assert [sum(len(layer.cover_list(x)) for x in range(g.n))
            for layer in idx.layers] == [3958] * 6


def test_rand_apsp_stats_sum_the_trees_and_the_emulator():
    g = gnm_graph(30, 80, 2)
    idx = ApspIndexRandom(g, 0.5, seed=2)
    for u, v in generate_trace(g, "random", seed=2).pairs[:25]:
        idx.delete(u, v)
        hubs = idx.emulator._trees
        assert idx.stats() == {
            "level_increases": sum(t.level_increases for t in idx.trees),
            "ops": sum(t.ops for t in idx.trees),
            "emulator_events": idx.emulator.updates_total,
            "hub_level_increases": sum(t.level_increases for t in hubs),
            "hub_ops": sum(t.ops for t in hubs)}
    assert min(idx.stats().values()) > 0


def test_rand_apsp_stats_count_the_hub_trees():
    # rand-gnm's graph and deletion prefix, where every node is a hub
    g = gnm_graph(64, 256, 0)
    idx = ApspIndexRandom(g, 0.5, seed=0)
    for u, v in generate_trace(g, "random", seed=0).pairs[:40]:
        idx.delete(u, v)
    hubs = idx.emulator._trees
    assert len(hubs) == g.n
    stats = idx.stats()
    assert stats["hub_level_increases"] == sum(t.level_increases for t in hubs) > 0
    assert stats["hub_ops"] == sum(t.ops for t in hubs) > 0


def test_one_tree_per_root_with_largest_range():
    # at n = 300 and eps = 1 the two top layers' ranges (266, 529) straddle
    # the patch range 360; a small sampling constant leaves them few centers
    g = gnm_graph(300, 600, 0)
    idx = ApspIndexRandom(g, 1.0, seed=0, sampling_constant=0.5)
    assert len(idx.trees) == g.n
    assert len(idx.layers[-1].centers) < g.n
    assert max(Q for _, Q in idx.layer_params) > idx.patch_range
    for x, tree in enumerate(idx.trees):
        assert tree.root == x
        assert tree.bound == depth_bound_floor(max([idx.patch_range] + [
            Q for (_, Q), layer in zip(idx.layer_params, idx.layers) if x in layer.centers]),
            idx.emulator.tau)
        for layer in idx.layers:
            if x in layer.centers:
                assert layer._trees[layer.centers.index(x)] is tree


@COUNTER_ENGINE
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_cover_on_deeper_shared_trees(make_tree, data):
    # a cover that reads deeper trees through its own bound equals a cover
    # with range-Q trees of its own, and the deeper trees hold the levels of
    # the fixpoint definition; sparse graphs, few hubs and a small q put
    # nodes between the cover's bounds and the deeper trees' bounds
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(4, 16))
    g, order = random_graph_and_trace(rng, n, data.draw(st.integers(n, 2 * n)))
    eps = data.draw(st.sampled_from([0.5, 1.0]))
    hubs = sorted(rng.sample(range(n), data.draw(st.integers(0, n // 3))))
    q = data.draw(st.integers(1, 3))
    Q = q + data.draw(st.integers(0, n))
    centers = sorted(rng.sample(range(n), data.draw(st.integers(1, n))))
    g2 = DecrementalGraph.from_edge_list(n, g.edges())
    own = standalone_cover(g, q, Q, eps, hubs=hubs, centers=centers)
    em = LocallyPerseveringEmulator(g2, eps, hubs=hubs)
    # a tree at every root, centers or not, each deeper by its own margin
    deep = {x: make_tree(em.h, x, depth_bound_floor(Q + data.draw(st.integers(0, 20)),
                                                    em.tau))
            for x in range(n)}
    shared = RandomCenterCover(em, q, Q, centers, deep)

    def state(cover):
        return ([cover.cover_list(x) for x in range(n)],
                [[cover.distance(j, x) for x in range(n)] for j in range(len(centers))])

    assert state(shared) == state(own)
    for u, v in order:
        delete_edge(own, u, v)
        batch = em.on_delete(u, v)
        before = {x: tree.levels() for x, tree in deep.items()}
        raised = {x: tree.apply_batch(batch) for x, tree in deep.items()}
        for x, tree in deep.items():
            assert tree.levels() == fixpoint_levels(em.h.adj, x, tree.bound, before[x])
        shared.on_batch(raised)
        assert state(shared) == state(own)


def test_cover_rejects_unfit_trees():
    g = gnm_graph(8, 12, 1)
    em = LocallyPerseveringEmulator(g, 1.0, hubs=[0])
    fit = {x: MonotoneEsTree(em.h, x, depth_bound_floor(4, em.tau)) for x in range(8)}
    RandomCenterCover(em, 2, 4, [1, 3], fit)
    shallow = dict(fit)
    shallow[3] = MonotoneEsTree(em.h, 3, depth_bound_floor(3, em.tau))
    with pytest.raises(InvalidParameters):
        RandomCenterCover(em, 2, 4, [1, 3], shallow)
    with pytest.raises(InvalidParameters):
        RandomCenterCover(em, 2, 4, [1, 3], {1: fit[1]})
    with pytest.raises(InvalidParameters):
        RandomCenterCover(em, 2, 4, [1, 3], {1: fit[1], 3: fit[2]})


def test_rejected_deletions_change_nothing():
    g = gnm_graph(12, 20, 3)
    idx = ApspIndexRandom(g, 0.5, seed=1)
    absent = next((u, v) for u in range(12) for v in range(u + 1, 12)
                  if not g.has_edge(u, v))
    present = g.edges()[0]

    def state():
        return (g.edges(), idx.emulator.h.edges(),
                [(t.levels(), t.level_increases, t.ops) for t in idx.trees],
                [[layer.cover_list(x) for x in range(12)] for layer in idx.layers])

    before = state()
    for (u, v), error in ((absent, EdgeAbsent), ((4, 4), SelfLoop),
                          ((present[0], 12), NodeOutOfRange),
                          ((-1, present[1]), NodeOutOfRange)):
        with pytest.raises(error):
            idx.delete(u, v)
        assert state() == before
    # the index still deletes as a fresh one does
    idx.delete(*present)
    fresh_g = gnm_graph(12, 20, 3)
    fresh = ApspIndexRandom(fresh_g, 0.5, seed=1)
    fresh.delete(*present)
    assert state() == (fresh_g.edges(), fresh.emulator.h.edges(),
                       [(t.levels(), t.level_increases, t.ops) for t in fresh.trees],
                       [[layer.cover_list(x) for x in range(12)] for layer in fresh.layers])


def _path_index(sampling_constant):
    # on a 400-node path with eps = 1 the top layer's range 529 exceeds the
    # patch range 360, so its centers' trees hold levels past the patch's
    # bound, and far pairs are answered by a layer, not the patch
    n = 400
    g = DecrementalGraph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
    idx = ApspIndexRandom(g, 1.0, seed=3, sampling_constant=sampling_constant)
    assert len(idx.layers[-1].centers) < n
    return idx


def test_query_matches_reference_search():
    # a small sampling constant leaves nodes without a center in some layers
    idx = _path_index(0.05)
    n = idx.g.n
    # every 10th node, and the ends, where far pairs lie past the patch range
    sources = sorted({*range(0, n, 10), *range(20), *range(n - 20, n)})
    uncovered = layered = 0
    # deleting an end edge drops one node from every tree; deleting
    # (359, 360) cuts off the 39-node tail 360..398, within the split
    # search's cap 4 * ceil(sqrt(400)) = 80, so every tree drops it at once
    for deletion in [None, (398, 399), (0, 1), (359, 360)]:
        if deletion is not None:
            idx.delete(*deletion)
        for x in sources:
            uncovered += any(layer.find_center(x) is None for layer in idx.layers)
            for y in range(n):
                ref = reference_search(idx.layers, x, y) if x != y else 0
                if x != y:
                    assert search_layers(idx.layers, x, y) == ref
                patch = idx.trees[x].level_query(y)
                patch = patch if patch <= idx.patch_bound else INF
                assert idx.query_1eps2(x, y) == min(patch, ref)
                layered += ref < patch
    assert uncovered > 0 and layered > 0


def test_patch_reads_through_its_own_bound(monkeypatch):
    # the patch answer of a root whose tree is deeper than the patch range
    # equals a range-patch_range tree of its own; those trees get no cut,
    # so they raise a cut-off node one unit at a time where the index's
    # trees drop it in one step
    idx = _path_index(0.3)
    n = idx.g.n
    em = idx.emulator
    deep = [x for x, tree in enumerate(idx.trees) if tree.bound > idx.patch_bound]
    own = {x: MonotoneEsTree(em.h, x, depth_bound_floor(idx.patch_range, em.tau)) for x in deep}
    monkeypatch.setattr(randomized_apsp, "search_layers", lambda layers, x, y: INF)
    past_patch = 0
    for deletion in [None, (398, 399), (0, 1), (359, 360)]:
        if deletion is not None:
            batch = idx.delete(*deletion)
            for tree in own.values():
                tree.apply_batch(batch)
        for x in deep:
            level = idx.trees[x].level
            for y in range(n):
                if x != y:
                    assert idx.query_1eps2(x, y) == own[x].level[y]
                past_patch += idx.patch_bound < level[y] < INF
    assert past_patch > 0


def test_query_adjacent():
    rng = random.Random(4)
    g, _ = random_graph_and_trace(rng, 10, 20)
    idx = ApspIndexRandom(g, 0.5, seed=2)
    for u, v in g.edges():
        assert idx.query_2eps(u, v) == 1
        assert idx.query_1eps2(u, v) <= (1 + 0.5) * 1 + 2


def test_single_edge_graph_goes_infinite():
    g = DecrementalGraph.from_edge_list(2, [(0, 1)])
    idx = ApspIndexRandom(g, 1.0, seed=0)
    assert idx.query_1eps2(0, 1) == 1
    idx.delete(0, 1)
    assert idx.query_1eps2(0, 1) == INF
    assert idx.query_2eps(0, 1) == INF


@settings(max_examples=8, deadline=None)
@given(st.data())
def test_full_trace_sandwich(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(4, 12))
    g, order = random_graph_and_trace(rng, n, 2 * n)
    eps = data.draw(st.sampled_from([0.25, 1.0]))
    idx = ApspIndexRandom(g, eps, seed=data.draw(st.integers(0, 999)),
                          hubs=list(range(n)))
    for u, v in order:
        idx.delete(u, v)
        truth = bfs_apsp(g)
        for x in range(n):
            for y in range(n):
                est = idx.query_1eps2(x, y)
                est2 = idx.query_2eps(x, y)
                d = truth[x, y]
                assert est >= d - 1e-9 and est2 >= d - 1e-9
                if np.isfinite(d):
                    assert est <= (1 + eps) * d + 2 + 1e-9
                    if d > 0:
                        assert est2 <= (2 + eps) * d + 1e-9
