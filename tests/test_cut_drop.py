"""Dropping the side a split cut off, in one step, gives what unit raises give.

Every tree (``EsTree`` and ``MonotoneEsTree``) runs twice on the same graph:
once handed the side that each deletion cut off, once without it, and both
must hold the levels that the fixpoint definition gives. Inputs are chosen
to split often: paths, random forests, sparse G(n, n) and the grid under the
path-peel order.
"""

import random
from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from decaps.deterministic_apsp import ApspIndexDet, build_covers
from decaps.emulator import LocallyPerseveringEmulator
from decaps.es_tree import EsTree
from decaps.graph_core import INF, DecrementalGraph
from decaps.harness import ExperimentConfig, build_graph, generate_trace
from decaps.monotone_es_tree import MonotoneEsTree
from decaps.oracle import bfs_levels
from decaps.randomized_apsp import ApspIndexRandom, depth_bound_floor

from conftest import delete_edge, fixpoint_levels, random_graph, standalone_cover


def split_prone_input(data):
    kind = data.draw(st.sampled_from(["path", "forest", "sparse", "grid"]))
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    if kind == "grid":
        rows, cols = data.draw(st.integers(2, 7)), data.draw(st.integers(2, 7))
        g = build_graph(ExperimentConfig("det_apsp", generator=f"grid:{rows}:{cols}"))
        return g, list(generate_trace(g, "adversarial-path-peel"))
    # up to 90 nodes: the cap 4 * ceil(sqrt(n)) then leaves some splits with
    # both sides past it, which take the unit-raise path
    n = data.draw(st.integers(2, 90))
    if kind == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif kind == "forest":
        edges = [(rng.randrange(i), i) for i in range(1, n) if rng.random() < 0.9]
    else:
        edges = random_graph(rng, n, n).edges()
    g = DecrementalGraph.from_edge_list(n, sorted((min(e), max(e)) for e in edges))
    order = g.edges()
    rng.shuffle(order)
    return g, order


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cut_drop_matches_unit_raises(data):
    g, order = split_prone_input(data)
    n = g.n
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    roots = sorted(rng.sample(range(n), min(n, 12)))
    depth = data.draw(st.sampled_from([1, 3, n]))
    # many hubs put H edges across a split whose far end some node leans on
    hubs = sorted(rng.sample(range(n), data.draw(st.integers(0, n))))
    em = LocallyPerseveringEmulator(g, data.draw(st.sampled_from([0.5, 1.0])), hubs=hubs)
    Q = data.draw(st.sampled_from([1, 4, n]))
    pairs = []  # (tree handed the cut, tree without it)
    for root in roots:
        pairs.append((g._adj, *(EsTree(g, root, depth) for _ in range(2))))
        pairs.append((em.h.adj, *(MonotoneEsTree(em.h, root, depth_bound_floor(Q, em.tau))
                                  for _ in range(2))))
    cuts = 0
    for u, v in order:
        batch = em.on_delete(u, v)
        cut = em.last_cut
        cuts += cut is not None
        for adj, with_cut, without in pairs:
            before = with_cut.levels()
            if isinstance(with_cut, EsTree):
                assert with_cut.after_delete(u, v, cut) == without.after_delete(u, v)
                truth = bfs_levels(g, with_cut.root)
                assert with_cut.levels() == [d if d <= depth else INF for d in truth]
            else:
                assert with_cut.apply_batch(batch, cut) == without.apply_batch(batch)
            assert with_cut.levels() == without.levels()
            assert with_cut.levels() == fixpoint_levels(adj, with_cut.root, with_cut.bound,
                                                        before)
            assert with_cut.level_increases == without.level_increases
    # every trace deletes all edges, so its last deletion isolates a node
    assert cuts > 0 or not order


def test_counters_learn_of_crossing_edges_before_the_drop():
    # after (0, 4) and (2, 3), deleting (3, 4) cuts off node 4. Node 3, on
    # the root's side, sits at level 3 (stretched: insertions gave it a unit
    # edge to the root) and leans on node 4 at level 2 through the H edge
    # (3, 4). The event pass must take that support from 3's counter while 4
    # still has its old level: dropping 4 first would hide the event and
    # leave 3 counting a support it lost, which shows at the deletion of
    # (1, 3)
    g = DecrementalGraph.from_edge_list(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3),
                                            (1, 5), (2, 3), (2, 5), (3, 4)])
    em = LocallyPerseveringEmulator(g, 1.0, hubs=[4, 5])
    bound = depth_bound_floor(1, em.tau)
    with_cut, without = (MonotoneEsTree(em.h, 1, bound) for _ in range(2))
    for u, v in [(0, 4), (2, 3), (3, 4), (1, 2), (1, 5), (1, 3)]:
        batch = em.on_delete(u, v)
        before = with_cut.levels()
        assert with_cut.apply_batch(batch, em.last_cut) == without.apply_batch(batch)
        assert with_cut.levels() == without.levels()
        assert with_cut.levels() == fixpoint_levels(em.h.adj, 1, with_cut.bound, before)
    assert with_cut.levels() == without.levels() == [3, 0, 4, 4, INF, 3]


def test_a_cut_off_side_drops_without_work():
    # on a 10-node path, deleting (4, 5) cuts off 5..9: a tree rooted at 0
    # drops them in one pass, which costs no op, and counts each
    # as a rise to its depth bound + 1
    def path():
        return DecrementalGraph.from_edge_list(10, [(i, i + 1) for i in range(9)])

    g = path()
    em = LocallyPerseveringEmulator(g, 1.0, hubs=[])
    tree = MonotoneEsTree(em.h, 0, depth_bound_floor(9, em.tau))
    assert tree.apply_batch(em.on_delete(4, 5), em.last_cut) == set(range(5, 10))
    assert tree.ops == 0
    assert tree.level_increases == sum(tree.bound + 1 - x for x in range(5, 10))
    g = path()
    tree = EsTree(g, 0, 9)
    g.delete_edge(4, 5)
    assert tree.after_delete(4, 5, g.split_side(4, 5)) == set(range(5, 10))
    assert tree.ops == 0
    assert tree.level_increases == sum(10 - x for x in range(5, 10))


def test_every_entry_point_hands_the_cut_to_its_trees(monkeypatch):
    # deleting (0, 1) from a path isolates node 0: every tree repaired after
    # it, in every index and cover, and the emulator's hub trees, get {0}
    handed = []

    def spy(cls, name, arity):
        real = getattr(cls, name)

        def wrapper(self, *args):
            handed.append(args[-1] if len(args) == arity else None)
            return real(self, *args)
        monkeypatch.setattr(cls, name, wrapper)

    spy(EsTree, "after_delete", 3)
    spy(MonotoneEsTree, "apply_batch", 2)

    def path():
        return DecrementalGraph.from_edge_list(20, [(i, i + 1) for i in range(19)])

    # q above the path's 20 nodes: the build opens nothing, and a tree
    # opened after it is set by ``open``, not from a block of rows
    opened = build_covers(path(), [(21, 21)])[0]
    opened.open(10)
    # a cover that no index owns deletes through the helper that does what
    # an index does
    covers = (build_covers(path(), [(2, 8)])[0], opened,
              standalone_cover(path(), 2, 8, 1.0, centers=[0, 1, 7]))
    for delete in (ApspIndexDet(path(), 0.5).delete,
                   ApspIndexRandom(path(), 1.0, seed=0, hubs=[0, 5]).delete,
                   *[partial(delete_edge, cover) for cover in covers]):
        handed.clear()
        delete(0, 1)
        assert handed and all(cut == {0} for cut in handed)
