import math
import random
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaps.deterministic_apsp import ApspIndexDet
from decaps.errors import (
    EdgeAbsent,
    EdgePresent,
    InvalidParameters,
    InvalidPhaseLength,
    NodeOutOfRange,
)
from decaps import fully_dynamic
from decaps.fully_dynamic import FullyDynamicApsp
from decaps.graph_core import INF, DecrementalGraph
from decaps.harness import ExperimentConfig, build_graph, generate_mixed_updates, gnm_graph
from decaps.oracle import bfs_apsp, bfs_levels

from conftest import det_state, random_graph_and_trace


def test_phase_length_validation(fig_graph):
    with pytest.raises(InvalidPhaseLength):
        FullyDynamicApsp(fig_graph, 0.5, 0)
    limit = math.ceil(math.sqrt(fig_graph.n))
    FullyDynamicApsp(fig_graph, 0.5, limit)  # boundary accepted
    with pytest.raises(InvalidPhaseLength):
        FullyDynamicApsp(fig_graph, 0.5, limit + 1)


def test_t_one_matches_fresh_index():
    rng = random.Random(6)
    g, _ = random_graph_and_trace(rng, 12, 30)
    fd = FullyDynamicApsp(g, 0.5, 1)
    edges = set(g.edges())
    for step in range(6):
        victim = sorted(edges)[step]
        fd.delete_set([victim])
        edges.discard(victim)
        fresh = ApspIndexDet(DecrementalGraph.from_edge_list(12, sorted(edges)), 0.5)
        for x in range(12):
            for y in range(12):
                assert fd.query(x, y) == fresh.query(x, y)


def test_insert_star_patches_through_center():
    # two far apart cliques; a star at node 4 bridges them mid-phase
    edges = [(0, 1), (1, 2), (5, 6), (6, 7)]
    g = DecrementalGraph.from_edge_list(8, edges)
    fd = FullyDynamicApsp(g, 0.5, math.ceil(math.sqrt(8)))
    assert fd.query(0, 7) == INF
    fd.insert_star(4, [(4, 2), (4, 5)])
    assert fd.query(2, 5) == 2
    assert fd.query(0, 7) == 6  # 0-1-2-4-5-6-7 through the insertion center
    assert fd.query(0, 2) == 2  # old paths still served by the decremental side


def test_deleting_phase_born_edge_skips_decremental_index():
    g = DecrementalGraph.from_edge_list(5, [(0, 1), (1, 2)])
    fd = FullyDynamicApsp(g, 0.5, 3)
    base_edges = fd.index.g.edges()
    fd.insert_star(3, [(3, 0), (3, 4)])
    fd.delete_set([(3, 0)])
    assert fd.index.g.edges() == base_edges  # decremental view untouched
    assert fd.query(0, 3) == INF or fd.query(0, 3) >= 2  # only via 3? gone now
    assert fd.query(3, 4) == 1


def test_phase_boundary_clears_insertion_centers():
    g = DecrementalGraph.from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    t = 2
    fd = FullyDynamicApsp(g, 0.5, t)
    fd.insert_star(0, [(0, 5)])
    assert list(fd.insertion_centers) == [0]
    assert fd.updates_in_phase == 1
    fd.delete_set([(2, 3)])  # second update: phase ends, index rebuilt
    assert fd.updates_in_phase == 0
    assert not fd.insertion_centers
    # the new phase's decremental view contains the inserted edge
    assert fd.index.g.has_edge(0, 5)
    assert fd.query(0, 5) == 1


def test_update_validation():
    g = DecrementalGraph.from_edge_list(4, [(0, 1)])
    fd = FullyDynamicApsp(g, 0.5, 2)
    with pytest.raises(EdgePresent):
        fd.insert_star(0, [(0, 1)])
    with pytest.raises(InvalidParameters):
        fd.insert_star(0, [(1, 2)])
    with pytest.raises(EdgeAbsent):
        fd.delete_set([(2, 3)])
    with pytest.raises(InvalidParameters):
        fd.insert_star(3, [(3, 3)])


def fd_state(fd):
    """Everything an update may change in a ``FullyDynamicApsp``."""
    return (fd._true_edges(), fd.index.g.edges(), fd.insertion_centers,
            fd.updates_in_phase, fd.stats(), det_state(fd.index))


def test_rejected_updates_change_nothing():
    def wrapper():
        fd = FullyDynamicApsp(gnm_graph(16, 30, 2), 0.5, 3)
        fd.insert_star(5, [(5, 3), (5, 12)])  # an insertion center to patch through
        return fd

    fd = wrapper()
    edges = fd._true_edges()
    present = edges[0]
    c = present[0]
    free = next(w for w in range(16) if w != c and (min(c, w), max(c, w)) not in edges)
    absent = next((u, v) for u in range(16) for v in range(u + 1, 16)
                  if c not in (u, v) and (u, v) not in edges)
    index = fd.index
    before = fd_state(fd)
    # each update is rejected whole, also where its first edge is valid
    for error, update, args in (
            (EdgeAbsent, fd.delete_set, ([absent],)),
            (EdgeAbsent, fd.delete_set, ([present, absent],)),
            (EdgeAbsent, fd.delete_set, ([(3, 3)],)),
            (NodeOutOfRange, fd.delete_set, ([present, (c, 16)],)),
            (EdgePresent, fd.insert_star, (c, [(c, free), present])),
            (InvalidParameters, fd.insert_star, (3, [(3, 3)])),
            (InvalidParameters, fd.insert_star, (c, [(c, free), absent])),
            (NodeOutOfRange, fd.insert_star, (16, [(16, 0)])),
            (NodeOutOfRange, fd.insert_star, (c, [(c, free), (c, 16)]))):
        with pytest.raises(error):
            update(*args)
        assert fd.index is index
        assert fd_state(fd) == before
    # the wrapper still updates as a fresh one does
    fresh = wrapper()
    for each in (fd, fresh):
        each.delete_set([present])
    assert fd_state(fd) == fd_state(fresh)
    assert [[fd.query(x, y) for y in range(16)] for x in range(16)] == [
        [fresh.query(x, y) for y in range(16)] for x in range(16)]


def test_phase_isolation_matches_standalone_index():
    # within one phase, the wrapped decremental index answers exactly like a
    # standalone index fed the same deletion subsequence
    rng = random.Random(21)
    g, _ = random_graph_and_trace(rng, 14, 34)
    edges = g.edges()
    fd = FullyDynamicApsp(g, 0.5, t=4)
    standalone = ApspIndexDet(DecrementalGraph.from_edge_list(14, edges), 0.5)
    for u, v in edges[:3]:  # three deletions, within the phase
        fd.delete_set([(u, v)])
        standalone.delete(u, v)
        for x in range(14):
            for y in range(14):
                assert fd.index.query(x, y) == standalone.query(x, y)


def apply_update(fd, update) -> None:
    if update[0] == "insert_star":
        fd.insert_star(update[1], update[2])
    else:
        fd.delete_set(update[1])


def test_work_counters_sum_the_phases():
    # the 6x6 grid's distances pass the patch's range at the build
    g = build_graph(ExperimentConfig("fully_dynamic", generator="grid:6:6"))
    fd = FullyDynamicApsp(g, 0.5, t=3)
    phases = [fd.index]
    for update in generate_mixed_updates(g, 20, seed=3):
        apply_update(fd, update)
        if fd.index is not phases[-1]:
            phases.append(fd.index)
    assert len(phases) == 7
    total = Counter()
    for index in phases:
        total.update(index.stats())
    stats = fd.stats()
    for key in ("level_increases", "ops", "opens", "moving_distance"):
        assert stats[key] == total[key]
    assert min(stats["level_increases"], stats["ops"], stats["opens"]) > 0


def test_phase_change_frees_the_old_index_before_the_rebuild(monkeypatch):
    g = gnm_graph(36, 90, 3)
    fd = FullyDynamicApsp(g, 0.5, t=2)
    old = weakref.ref(fd.index)
    alive = []

    def build(base, eps):
        alive.append(old() is not None)
        return ApspIndexDet(base, eps)

    monkeypatch.setattr(fully_dynamic, "ApspIndexDet", build)
    for update in generate_mixed_updates(g, 2, seed=3):
        apply_update(fd, update)
    assert alive == [False]


def test_query_identity_and_empty_insertions():
    g = DecrementalGraph.from_edge_list(4, [(0, 1), (1, 2)])
    fd = FullyDynamicApsp(g, 1.0, 2)
    assert fd.query(2, 2) == 0
    # I empty: the answer equals the decremental index's answer
    assert fd.query(0, 2) == fd.index.query(0, 2)


@settings(max_examples=6, deadline=None)
@given(st.data())
def test_mixed_trace_sandwich(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    n = data.draw(st.integers(6, 16))
    g, _ = random_graph_and_trace(rng, n, 2 * n)
    eps = data.draw(st.sampled_from([0.5, 1.0]))
    t = data.draw(st.sampled_from([1, 2, math.ceil(math.sqrt(n))]))
    fd = FullyDynamicApsp(g, eps, t)
    present = set(g.edges())
    for step in range(14):
        if step % 2 == 0 and present:
            chosen = rng.sample(sorted(present), min(len(present), 2))
            fd.delete_set(chosen)
            present -= set(chosen)
        else:
            v = rng.randrange(n)
            free = [w for w in range(n)
                    if w != v and (min(v, w), max(v, w)) not in present]
            rng.shuffle(free)
            star = [(v, w) for w in free[:2]]
            if not star:
                continue
            fd.insert_star(v, star)
            present |= {(min(a, b), max(a, b)) for a, b in star}
        check = DecrementalGraph.from_edge_list(n, sorted(present))
        truth = bfs_apsp(check)
        for x in range(n):
            for y in range(n):
                est = fd.query(x, y)
                d = truth[x, y]
                assert est >= d - 1e-9
                if np.isfinite(d):
                    assert est <= (1 + eps) * d + 1e-9
                else:
                    assert est == INF


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_center_distances_stay_exact(data):
    # sparse graphs, so that deletions often take a node's last parent in
    # some insertion center's BFS tree, and long phases, so that centers
    # see several updates
    seed = data.draw(st.integers(0, 10**6))
    n = data.draw(st.integers(4, 25))
    g, _ = random_graph_and_trace(random.Random(seed), n, data.draw(st.integers(n // 2, 2 * n)))
    fd = FullyDynamicApsp(g, 0.5, math.ceil(math.sqrt(n)))
    present = set(g.edges())
    for update in generate_mixed_updates(g, 30, seed=seed):
        apply_update(fd, update)
        inserted = update[0] == "insert_star"
        edges = {(min(a, b), max(a, b)) for a, b in update[-1]}
        present = present | edges if inserted else present - edges
        truth = DecrementalGraph.from_edge_list(n, sorted(present))
        for x, dist in fd.insertion_centers.items():
            assert dist == bfs_levels(truth, x)
