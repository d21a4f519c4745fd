"""The locally persevering emulator and its ordered event batches.

The emulator mirrors a decremental graph with a sparser weighted graph:
hub edges carry exact distances up to ceil(2/eps) + 1, and every edge with a
low-degree endpoint survives at weight 1. Each base deletion becomes a batch
of events, insertions first.
"""

import random

from decaps import DecrementalGraph, LocallyPerseveringEmulator, gnm_graph


def main():
    rng = random.Random(7)
    g = gnm_graph(16, 48, seed=3)
    # two hubs, so that most pairs are unit edges and degree drops insert
    em = LocallyPerseveringEmulator(g, eps=1.0, hubs=[0, 5])
    print(f"n={g.n}, m={g.m}; tau={em.tau}, weight cap={em.weight_cap}, "
          f"degree threshold={em.degree_threshold}")
    print(f"hubs: {em.hubs}")
    print(f"|E(H_0)| = {len(em.snapshot())}")

    order = g.edges()
    rng.shuffle(order)
    for u, v in order[:6]:
        batch = em.on_delete(u, v)
        kinds = [f"{ev.kind}({ev.u},{ev.v},w={ev.weight})" for ev in batch]
        print(f"delete ({u},{v}) -> {len(batch)} emulator events: {kinds}")

    for u, v in order[6:]:
        em.on_delete(u, v)
    print(f"after the full trace: edges ever in H = {em.edges_ever}, "
          f"total updates = {em.updates_total}")


if __name__ == "__main__":
    main()
