import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaps.emulator import LocallyPerseveringEmulator
from decaps.errors import EdgeAbsent, InvalidEpsilon
from decaps.graph_core import (
    DELETE,
    INCREASE,
    INF,
    INSERT,
    DecrementalGraph,
    UpdateEvent,
    edge_key,
)
from decaps.oracle import bfs_apsp, bfs_levels, weighted_apsp

from conftest import FIG_EDGES, random_graph_and_trace, sampled_hubs


def test_build_fig_with_injected_hub(fig_graph):
    em = LocallyPerseveringEmulator(fig_graph, 1.0, hubs=[5])
    assert em.tau == 2 and em.weight_cap == 3 and em.degree_threshold == 3
    snap = em.snapshot()
    # hub edges from e to everything within distance 3, at the true distance
    # (pairs that are also unit edges sit at distance exactly 1 anyway)
    dist = bfs_levels(fig_graph, 5)
    for y in range(5):
        assert snap[edge_key(5, y)] == dist[y]
    # (0,5) is hub-only at true distance 2
    assert snap[(0, 5)] == 2
    # every edge with a low-degree endpoint is a unit edge
    for u, v in FIG_EDGES:
        if fig_graph.degree(u) <= 3 or fig_graph.degree(v) <= 3:
            assert snap[edge_key(u, v)] == 1
    # (a, e) has both endpoints at degree 4, but e is a hub at distance 1
    assert snap[(1, 5)] == 1


def test_build_low_degree_no_hubs_is_identity():
    g = DecrementalGraph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    em = LocallyPerseveringEmulator(g, 0.5, hubs=[])
    assert em.snapshot() == {e: 1 for e in g.edges()}


def test_build_single_node():
    g = DecrementalGraph.from_edge_list(1, [])
    em = LocallyPerseveringEmulator(g, 1.0, hubs=[])
    assert em.snapshot() == {}


def test_build_invalid_epsilon(fig_graph):
    with pytest.raises(InvalidEpsilon):
        LocallyPerseveringEmulator(fig_graph, 0.0, hubs=[])
    with pytest.raises(InvalidEpsilon):
        LocallyPerseveringEmulator(fig_graph, 1.5, hubs=[])


def test_degree_drop_inserts():
    # wheel with chords: node 0 at degree 5, rim nodes 2..5 at degree 4,
    # so with s = ceil(sqrt(9)) = 3 the spoke edges (0,2)..(0,5) are in G but
    # not in H until a degree drops to the threshold
    star = [(0, i) for i in range(1, 6)]
    ring = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)]
    chords = [(2, 4), (3, 5)]
    g = DecrementalGraph.from_edge_list(9, star + ring + chords)
    em = LocallyPerseveringEmulator(g, 1.0, hubs=[])
    assert em.degree_threshold == 3
    snap = em.snapshot()
    assert (0, 2) not in snap and (0, 5) not in snap
    assert snap[(0, 1)] == 1  # deg(1) = 3 <= s: unit edge from the start

    batch = em.on_delete(0, 5)  # deg(5): 4 -> 3 = s, inserts 5's other edges
    inserts = [ev for ev in batch if ev.kind == INSERT]
    assert {edge_key(ev.u, ev.v) for ev in inserts} == {(3, 5), (4, 5)}
    assert all(ev.weight == 1 for ev in inserts)
    assert all(ev.kind == INSERT for ev in batch)  # (0,5) was never in H

    batch = em.on_delete(0, 4)  # both endpoints cross: 0 joins 4
    inserts = [ev for ev in batch if ev.kind == INSERT]
    assert {edge_key(ev.u, ev.v) for ev in inserts} == {(0, 2), (0, 3), (2, 4), (3, 4)}


def test_hub_edge_weight_increase_and_delete():
    # path 0-1-2-3 with hub 0; eps=1 so W=3
    g = DecrementalGraph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (1, 4)])
    em = LocallyPerseveringEmulator(g, 1.0, hubs=[0])
    assert em.h.adj[0].get(3) == 3
    batch = em.on_delete(1, 2)
    kinds = {(ev.kind, edge_key(ev.u, ev.v)): ev.weight for ev in batch}
    # 2 and 3 leave hub range entirely
    assert (DELETE, (0, 2)) in kinds
    assert (DELETE, (0, 3)) in kinds
    # the deleted edge itself was a unit edge
    assert (DELETE, (1, 2)) in kinds

    g = DecrementalGraph.from_edge_list(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    em = LocallyPerseveringEmulator(g, 1.0, hubs=[0])
    assert em.h.adj[0].get(3) == 2
    batch = em.on_delete(0, 2)  # dist(0,3) grows to 3 = W: weight increase
    kinds = {(ev.kind, edge_key(ev.u, ev.v)): ev.weight for ev in batch}
    assert kinds[(INCREASE, (0, 3))] == 3
    assert em.h.adj[0].get(3) == 3


def test_low_degree_deletion_single_event():
    g = DecrementalGraph.from_edge_list(6, [(0, 1), (2, 3), (3, 4), (4, 5)])
    em = LocallyPerseveringEmulator(g, 1.0, hubs=[])
    batch = em.on_delete(0, 1)
    assert batch == [UpdateEvent(DELETE, 0, 1, INF, 1)]


def test_on_delete_absent_edge(fig_graph):
    em = LocallyPerseveringEmulator(fig_graph, 1.0, hubs=[])
    with pytest.raises(EdgeAbsent):
        em.on_delete(0, 5)


def test_stats_fresh_and_replay(fig_graph):
    em = LocallyPerseveringEmulator(fig_graph, 1.0, hubs=[5])
    edges0 = len(em.snapshot())
    assert (em.edges_ever, em.updates_total) == (edges0, 0)

    rng = random.Random(17)
    g, order = random_graph_and_trace(rng, 20, 50)
    em = LocallyPerseveringEmulator(g, 0.5, sampled_hubs(g.n, seed=4))
    events = [ev for u, v in order for ev in em.on_delete(u, v)]
    edges_ever, updates = em.edges_ever, em.updates_total
    inserted = sum(1 for ev in events if ev.kind == INSERT)
    deleted = sum(1 for ev in events if ev.kind == DELETE)
    assert updates == len(events)
    assert updates >= inserted + deleted
    assert edges_ever >= deleted  # everything deleted from H existed in H


def test_per_hub_edge_update_count_bounded():
    rng = random.Random(23)
    for eps in (0.5, 1.0):
        g, order = random_graph_and_trace(rng, 16, 40)
        em = LocallyPerseveringEmulator(g, eps, sampled_hubs(g.n, seed=9))
        per_pair = {}
        for ev in (ev for u, v in order for ev in em.on_delete(u, v)):
            per_pair.setdefault(edge_key(ev.u, ev.v), []).append(ev.kind)
        for pair, kinds in per_pair.items():
            assert len(kinds) <= em.weight_cap + 2


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_never_underestimates_and_event_order(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(2, 14))
    g, order = random_graph_and_trace(rng, n, 3 * n)
    eps = data.draw(st.sampled_from([0.25, 0.5, 1.0]))
    em = LocallyPerseveringEmulator(g, eps, sampled_hubs(n, seed=data.draw(st.integers(0, 99))))
    for u, v in order:
        prev_weights = em.h.edges()
        batch = em.on_delete(u, v)
        seen_other = False
        for ev in batch:
            if ev.kind == INSERT:
                assert not seen_other, "insert after non-insert in one batch"
            else:
                seen_other = True
            # each pair changes at most once per batch, so its old weight is H's
            assert ev.old == prev_weights.get(edge_key(ev.u, ev.v))
        snap = em.h.edges()
        # weights never decrease while an edge stays present
        for pair, w in snap.items():
            if pair in prev_weights:
                assert w >= prev_weights[pair]
        hdist = weighted_apsp(n, snap)
        gdist = bfs_apsp(g)
        assert np.all(hdist >= gdist - 1e-9)


def reference_h(g, hubs, weight_cap: int, s: int) -> dict:
    """H built from scratch from the current G: (c, y) at dist_G(c, y) for
    every hub c and y within ``weight_cap``, every G-edge with an endpoint
    of degree at most ``s`` at weight 1, the minimum where both apply."""
    out = {}
    for c in hubs:
        for y, d in enumerate(bfs_levels(g, c)):
            if y != c and d <= weight_cap:
                out[edge_key(c, y)] = d
    for u, v in g.edges():
        if min(g.degree(u), g.degree(v)) <= s:
            out[(u, v)] = 1
    return out


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_h_matches_reference_after_every_deletion(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(2, 16))
    g, order = random_graph_and_trace(rng, n, data.draw(st.integers(n, 4 * n)))
    eps = data.draw(st.sampled_from([1 / 18, 0.25, 0.5, 1.0]))
    hubs = rng.sample(range(n), data.draw(st.integers(0, n)))
    em = LocallyPerseveringEmulator(g, eps, hubs)
    ever = set(em.h.edges())
    assert em.h.edges() == reference_h(g, hubs, em.weight_cap, em.degree_threshold)
    assert em.edges_ever == len(ever)
    for u, v in order:
        em.on_delete(u, v)
        h = em.h.edges()
        assert h == reference_h(g, hubs, em.weight_cap, em.degree_threshold)
        ever |= set(h)
        assert em.edges_ever == len(ever)
