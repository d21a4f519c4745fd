"""Monotone ES-trees: approximate single-source distances from the emulator.

Running a normal distance tree on the emulator would break when the emulator
inserts edges; the monotone variant never lowers a level and still sandwiches
the true base-graph distance between level and (1+eps)*distance + 2.
"""

import random

from decaps import (
    INF,
    LocallyPerseveringEmulator,
    MonotoneEsTree,
    bfs_levels,
    gnm_graph,
)
from decaps.randomized_apsp import depth_bound_floor


def main():
    rng = random.Random(5)
    n = 14
    g = gnm_graph(n, 3 * n, seed=9)
    em = LocallyPerseveringEmulator(g, eps=1.0, hubs=list(range(n)))
    root = 0
    # the tree reads the emulator's own H; on_delete updates it before the
    # tree repairs itself once per batch. Its depth bound keeps every node
    # within distance n, so no level is cut off
    tree = MonotoneEsTree(em.h, root, depth_bound_floor(n, em.tau))

    order = g.edges()
    rng.shuffle(order)
    worst = 1.0
    for u, v in order:
        batch = em.on_delete(u, v)
        tree.apply_batch(batch)
        truth = bfs_levels(g, root)
        for x in range(n):
            if truth[x] is INF or truth[x] == 0:
                continue
            ratio = tree.level_query(x) / truth[x]
            worst = max(worst, ratio)
    print(f"full trace of {len(order)} deletions processed")
    print(f"levels stayed within {worst:.2f}x of the true distance "
          f"(additive slack 2 allowed by the guarantee)")
    print(f"stretched edges at the end: {tree.stretched_edges()}")
    print(f"level increases: {tree.level_increases}")


if __name__ == "__main__":
    main()
