"""The query contract of every index: a pair with a node out of range raises
``NodeOutOfRange``, and a self-pair answers 0, also at a node that the
deletions left isolated and, for the fully dynamic index, beside an
insertion center that a node is cut off from."""

import pytest

from decaps.deterministic_apsp import ApspIndexDet
from decaps.errors import NodeOutOfRange
from decaps.fully_dynamic import FullyDynamicApsp
from decaps.graph_core import INF, edge_key
from decaps.harness import gnm_graph
from decaps.randomized_apsp import ApspIndexRandom

N = 16


def isolating_edges(g):
    """The edges whose deletion leaves nodes 0 and 1 isolated."""
    return sorted({edge_key(x, y) for x in (0, 1) for y in g.neighbors(x)})


def det_states(g):
    idx = ApspIndexDet(g, 0.5)
    yield idx.query
    for u, v in isolating_edges(g):
        idx.delete(u, v)
    assert g.degree(0) == g.degree(1) == 0
    yield idx.query


def rand_states(method):
    def states(g):
        idx = ApspIndexRandom(g, 0.5, seed=0)
        yield getattr(idx, method)
        for u, v in isolating_edges(g):
            idx.delete(u, v)
        assert g.degree(0) == g.degree(1) == 0
        yield getattr(idx, method)
    return states


def fd_states(g):
    fd = FullyDynamicApsp(g, 0.5, 4)
    yield fd.query
    fd.delete_set(isolating_edges(g))
    assert not fd._true_adj[0] and not fd._true_adj[1]
    yield fd.query
    fd.insert_star(0, [(0, 2)])  # 0 becomes an insertion center; 1 stays cut off
    assert fd.insertion_centers[0][1] is INF
    yield fd.query


@pytest.mark.parametrize("states", [
    det_states, rand_states("query_1eps2"), rand_states("query_2eps"), fd_states,
], ids=["det-query", "rand-query_1eps2", "rand-query_2eps", "fd-query"])
def test_query_contract(states):
    for query in states(gnm_graph(N, 40, seed=1)):
        for x, y in ((-1, -1), (N, N), (0, N), (-1, 0)):
            with pytest.raises(NodeOutOfRange):
                query(x, y)
        assert [query(x, x) for x in range(N)] == [0] * N
