"""Randomized approximate all-pairs distances under deletions.

One shared emulator feeds log-many layered center covers plus a
small-distance patch. Each node roots one monotone tree, which the patch and
every layer that centers the node read through their own depth bound.
Queries binary-search the layers and combine with the patch:
dist <= answer <= (1+eps)*dist + 2 whp, and the (2+eps, 0) wrapper answers
adjacent pairs exactly.
"""

import random

import numpy as np

from decaps import ApspIndexRandom, bfs_apsp, gnm_graph


def main():
    rng = random.Random(2)
    n = 12
    g = gnm_graph(n, 2 * n, seed=4)
    idx = ApspIndexRandom(g, eps=0.5, seed=21)
    print(f"n={n}, m={g.m}, eps=0.5 -> eps_hat={idx.eps_hat:.4f}, "
          f"{len(idx.layers)} layers, patch range {idx.patch_range}")
    for p, (q_p, Q_p) in enumerate(idx.layer_params):
        print(f"  layer {p}: cover range {q_p}, distance range {Q_p}, "
              f"{len(idx.layers[p].centers)} centers")
    print(f"{len(idx.trees)} monotone trees, one per root")

    order = g.edges()
    rng.shuffle(order)
    for step, (u, v) in enumerate(order):
        idx.delete(u, v)
        if step % 8 == 0:
            truth = bfs_apsp(g)
            finite = [(x, y) for x in range(n) for y in range(x + 1, n)
                      if np.isfinite(truth[x, y])]
            if not finite:
                break
            x, y = max(finite, key=lambda p_: truth[p_])
            print(f"after {step + 1} deletions: farthest pair ({x},{y}) "
                  f"dist={truth[x, y]:.0f}, estimate={idx.query_1eps2(x, y)}, "
                  f"2eps-wrapper={idx.query_2eps(x, y)}")
    em = idx.emulator
    print(f"emulator totals: {em.edges_ever} edges ever, {em.updates_total} updates")


if __name__ == "__main__":
    main()
