import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaps.errors import InvalidEpsilon, InvalidRange, UnknownCenter
from decaps.graph_core import INF, DecrementalGraph
from decaps.harness import generate_trace, gnm_graph
from decaps.oracle import bfs_apsp
from decaps.randomized_apsp import ApspIndexRandom, RandomCenterCover

from conftest import random_graph_and_trace


def test_cover_init_validation(fig_graph):
    with pytest.raises(InvalidRange):
        RandomCenterCover(fig_graph, 0, 4, eps=1.0)
    with pytest.raises(InvalidRange):
        RandomCenterCover(fig_graph, 5, 4, eps=1.0)
    with pytest.raises(InvalidEpsilon):
        RandomCenterCover(fig_graph, 1, 4)


def test_cover_full_range_covers_connected():
    rng = random.Random(2)
    for seed in range(5):
        g, _ = random_graph_and_trace(rng, 14, 28)
        cov = RandomCenterCover(g, 14, 14, eps=1.0, seed=seed)
        truth = bfs_apsp(g)
        for x in range(14):
            if g.component_size(x) >= 14:
                j = cov.find_center(x)
                assert j is not None
                assert truth[x, cov.location(j)] <= 14


def test_cover_all_centers_isolated_nodes():
    g = DecrementalGraph.from_edge_list(4, [])
    cov = RandomCenterCover(g, 1, 2, eps=1.0, centers=list(range(4)))
    for x in range(4):
        assert cov.location(cov.find_center(x)) == x
        assert cov.distance(cov.find_center(x), x) == 0


def test_cover_bot_for_uncovered_small_component():
    g = DecrementalGraph.from_edge_list(2, [])
    cov = RandomCenterCover(g, 1, 1, eps=1.0, centers=[0])
    assert cov.find_center(1) is None
    assert cov.find_center(0) == 0


def test_cover_distance_contract(fig_graph):
    cov = RandomCenterCover(fig_graph, 2, 4, eps=1.0, centers=[0, 5])
    truth = bfs_apsp(fig_graph)
    for j in range(2):
        for x in range(6):
            d = cov.distance(j, x)
            assert d >= truth[cov.location(j), x]
    with pytest.raises(UnknownCenter):
        cov.distance(7, 0)
    # covered nodes: the returned center is within (1+eps)q + 2
    thresh = cov.cover_threshold
    for x in range(6):
        j = cov.find_center(x)
        assert j is not None
        assert truth[x, cov.location(j)] <= thresh


def test_cover_lists_shrink_only():
    rng = random.Random(8)
    g, order = random_graph_and_trace(rng, 12, 30)
    cov = RandomCenterCover(g, 3, 6, eps=0.5, seed=1)
    sizes = [len(cov.cover_list(x)) for x in range(12)]
    for u, v in order:
        cov.delete(u, v)
        cur = [len(cov.cover_list(x)) for x in range(12)]
        assert all(a <= b for a, b in zip(cur, sizes))
        sizes = cur


def test_apsp_init_validation(fig_graph):
    with pytest.raises(InvalidEpsilon):
        ApspIndexRandom(fig_graph, 0.0)
    with pytest.raises(InvalidEpsilon):
        ApspIndexRandom(fig_graph, 2.0)


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
    from decaps.randomized_apsp import RandomCenterCover as RCC
    idx.layers = [
        RCC(g, q_p, Q_p, emulator=idx.emulator, centers=list(range(n)))
        for (q_p, Q_p) in idx.layer_params
    ]
    alpha = 1 + 2 / idx.emulator.tau
    beta = 2
    eps_hat = idx.eps_hat
    for u, v in order:
        idx.delete(u, v)
        truth = bfs_apsp(g)
        for p, (q_p, Q_p) in enumerate(idx.layer_params):
            for x in range(n):
                for y in range(n):
                    est = idx.layer_estimate(p, x, y)
                    d = truth[x, y]
                    assert est >= d - 1e-9  # property 1: never underestimates
                    if est != INF and d >= 2 ** p:
                        bound = ((alpha + 2 * alpha * alpha * eps_hat) * d
                                 + 2 * beta + 2 * alpha * beta)
                        assert est <= bound + 1e-9  # property 2
                    if g.component_size(x) >= q_p and np.isfinite(d) and d <= 2 ** (p + 1):
                        assert est != INF  # property 3 (coverage)


def test_rand_apsp_counters_pinned():
    # the benchmark's rand-gnm round: G(64, 256), first 40 random deletions
    g = gnm_graph(64, 256, 0)
    trace = generate_trace(g, "random", seed=0).prefix(40)
    idx = ApspIndexRandom(g, 0.5, seed=0)
    for u, v in trace:
        idx.delete(u, v)
    assert [sum(t.level_increases for t in layer._tree_Q)
            for layer in idx.layers] == [662] * 6
    assert sum(t.level_increases for t in idx.patch) == 662
    assert [sum(len(layer.cover_list(x)) for x in range(g.n))
            for layer in idx.layers] == [3958] * 6


def test_query_identity_and_adjacent():
    rng = random.Random(4)
    g, _ = random_graph_and_trace(rng, 10, 20)
    idx = ApspIndexRandom(g, 0.5, seed=2)
    for x in range(10):
        assert idx.query_1eps2(x, x) == 0
        assert idx.query_2eps(x, x) == 0
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
