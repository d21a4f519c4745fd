import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaps.emulator import LocallyPerseveringEmulator
from decaps.errors import ShapeMismatch, TooLarge
from decaps.graph_core import DecrementalGraph
from decaps.oracle import (
    NumpyBfsOracle,
    bfs_apsp,
    check_locally_persevering,
    check_stretch,
    dijkstra_apsp,
)

from conftest import random_graph_and_trace


def test_bfs_apsp_triangle():
    g = DecrementalGraph.from_edge_list(3, [(0, 1), (1, 2), (0, 2)])
    d = bfs_apsp(g)
    assert np.array_equal(d, np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))


def test_bfs_apsp_path():
    g = DecrementalGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    assert bfs_apsp(g)[0, 3] == 3


def test_bfs_apsp_disconnected():
    g = DecrementalGraph.from_edge_list(4, [(0, 1), (2, 3)])
    d = bfs_apsp(g)
    assert d[0, 2] == np.inf and d[1, 3] == np.inf


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_bfs_agrees_with_dijkstra(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(1, 20))
    g, _ = random_graph_and_trace(rng, n, data.draw(st.integers(0, 3 * n)))
    assert np.array_equal(bfs_apsp(g), dijkstra_apsp(g))


def test_numpy_oracle_tracks_deletions():
    rng = random.Random(1)
    g, order = random_graph_and_trace(rng, 15, 35)
    oracle = NumpyBfsOracle(g)
    for u, v in order:
        g.delete_edge(u, v)
        oracle.note_delete(u, v)
        assert np.array_equal(oracle.apsp(), bfs_apsp(g))


def test_check_stretch_pass_and_fail():
    truth = np.array([[0.0, 2.0], [2.0, 0.0]])
    ok = check_stretch(truth.copy(), truth, alpha=1.5, beta=0)
    assert ok.passed and ok.failure_count == 0

    under = truth.copy()
    under[0, 1] = 1.0
    bad = check_stretch(under, truth, alpha=2, beta=5)
    assert not bad.passed and bad.failure_count == 1
    assert bad.failures[0]["pair"] == (0, 1)

    over = truth.copy()
    over[0, 1] = 9.0
    bad = check_stretch(over, truth, alpha=1.5, beta=0, context={"version": 3})
    assert not bad.passed and bad.failure_count == 1
    assert bad.failures == [{"pair": (0, 1), "dist": 2.0, "estimate": 9.0,
                             "bound": 3.0, "context": {"version": 3}}]

    # infinity passes exactly when the truth is out of range
    est = np.array([[0.0, np.inf], [np.inf, 0.0]])
    assert check_stretch(est, truth, alpha=1, beta=0, distance_range=1).passed
    bad = check_stretch(est, truth, alpha=1, beta=0, distance_range=3)
    assert not bad.passed and bad.failure_count == 2


def test_check_stretch_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        check_stretch(np.zeros((2, 2)), np.zeros((3, 3)), 1, 0)


def _h_traces_for(g, em, order):
    snaps = [dict(em.snapshot())]
    for u, v in order:
        em.on_delete(u, v)
        snaps.append(dict(em.snapshot()))
    return snaps


def test_locally_persevering_identity_emulator():
    rng = random.Random(7)
    g, order = random_graph_and_trace(rng, 8, 16)
    initial = g.edges()
    snaps = [{e: 1 for e in g.edges()}]
    work = g.copy()
    for u, v in order:
        work.delete_edge(u, v)
        snaps.append({e: 1 for e in work.edges()})
    ok, cex = check_locally_persevering(8, initial, order, snaps, 1, 0, 3)
    assert ok, cex


def test_locally_persevering_detects_missing_edge():
    # H silently misses one G-edge with no substitute path
    g = DecrementalGraph.from_edge_list(4, [(0, 1), (1, 2), (2, 3)])
    snaps = [{(0, 1): 1, (1, 2): 1}]  # (2,3) absent from H_0
    ok, cex = check_locally_persevering(4, g.edges(), [], snaps, 1, 2, 3)
    assert not ok
    assert cex["reason"] == "no persevering path"
    assert 3 in cex["pair"]  # some pair relying on the dropped (2, 3)


def test_locally_persevering_construction_passes():
    rng = random.Random(9)
    for seed in range(4):
        g, order = random_graph_and_trace(rng, 8, 20)
        initial = g.edges()
        em = LocallyPerseveringEmulator(g, 1.0, hubs=list(range(8)))
        snaps = _h_traces_for(g, em, order)
        ok, cex = check_locally_persevering(
            8, initial, order, snaps, 1, 2, em.tau)
        assert ok, cex


def test_locally_persevering_too_large():
    g = DecrementalGraph.from_edge_list(13, [])
    with pytest.raises(TooLarge):
        check_locally_persevering(13, [], [], [{}], 1, 2, 2)
