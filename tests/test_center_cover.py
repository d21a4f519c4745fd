import ast
import random

import pytest

from decaps import deterministic_apsp
from decaps.deterministic_apsp import ApspIndexDet
from decaps.randomized_apsp import ApspIndexRandom

from conftest import random_graph_and_trace


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("make_index", [
    lambda g, seed: ApspIndexDet(g, 1.0),
    lambda g, seed: ApspIndexRandom(g, 1.0, seed=seed),
], ids=["det", "rand"])
def test_cover_lists_match_levels(make_index, seed):
    # S_x holds exactly the centers within the cover radius of x, after
    # every deletion: the invariant the cover-list upkeep keeps
    g, order = random_graph_and_trace(random.Random(seed), 30, 60)
    idx = make_index(g, seed)
    assert idx.layers
    for u, v in order:
        idx.delete(u, v)
        for layer in idx.layers:
            rho = layer.cover_radius
            for x in range(g.n):
                assert set(layer.cover_list(x)) == {
                    j for j in range(len(layer.centers)) if layer.distance(j, x) <= rho}


def test_deterministic_index_does_not_import_randomized():
    # both indexes build on center_cover; the deterministic one needs
    # nothing of the randomized one
    with open(deterministic_apsp.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module or "")
            imported |= {f"{node.module or ''}.{alias.name}" for alias in node.names}
    assert imported
    assert not [name for name in imported if "randomized_apsp" in name.split(".")]
