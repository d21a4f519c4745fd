"""Deterministic approximate APSP: greedy covers with moving centers.

The path scenario: one center covers a path plus a shortcut; severing the
shortcut opens a second center, and a later deletion strands the first
center's component so the center collects it and relocates across the cut.
Layer-level opens stay below 2n/q and the total moving distance below n.
"""

from decaps import ApspIndexDet, DecrementalGraph, bfs_apsp, build_covers


def delete(cov, u, v):
    """Delete (u, v) as ApspIndexDet.delete does for each of its covers: from
    the graph, then the split search, then the cover's coverage upkeep."""
    cov.g.delete_edge(u, v)
    cov.on_deleted(u, v, cov.g.split_side(u, v))


def main():
    q = 8
    n = q + 2
    edges = [(i, i + 1) for i in range(n - 1)] + [(q // 2 - 1, q + 1)]
    g = DecrementalGraph.from_edge_list(n, sorted(edges))
    cov = build_covers(g, [(q, 4 * q)])[0]
    print(f"path of {n} nodes with a shortcut; q={q}")
    print(f"initial: {cov.opens} center at node {cov.location(0)}")

    delete(cov, q // 2 - 1, q + 1)
    print(f"after cutting the shortcut: {cov.opens} centers "
          f"(new one at {cov.location(1)})")

    delete(cov, q // 4, q // 4 + 1)
    print(f"after stranding the head of the path: center 0 moved to "
          f"{cov.location(0)}, collected {sorted(cov.collected[0])}, "
          f"radius now {cov.radius2[0] / 2}")
    print(f"opens={cov.opens} (<= 2n/q = {2 * n // q}), "
          f"moving distance={cov.moving_distance} (<= n = {n})")

    # the index: an exact patch for small distances, and one cover per larger
    # scale, built once some distance passes the patch's range
    g2 = DecrementalGraph.from_edge_list(9, [(i, i + 1) for i in range(8)])
    idx = ApspIndexDet(g2, eps=0.5)
    truth = bfs_apsp(g2)
    print(f"\nlayered (1+eps,0) index on a 9-node path, eps=0.5: patch range "
          f"{idx.patch_range}, {len(idx.layers)} covers")
    for x, y in [(0, 8), (0, 4), (3, 5)]:
        print(f"  dist({x},{y}) = {truth[x, y]:.0f}, "
              f"query -> {idx.query(x, y)}")
    idx.delete(4, 5)
    print(f"  after deleting (4,5): query(0, 8) -> {idx.query(0, 8)}")

    ring = ApspIndexDet(DecrementalGraph.from_edge_list(
        16, [(i, (i + 1) % 16) for i in range(16)]), eps=0.5)
    print(f"16-node cycle: {len(ring.layers)} covers")
    ring.delete(0, 15)
    print(f"  after deleting (0,15): {len(ring.layers)} covers, "
          f"dist(0,15) = 15, query -> {ring.query(0, 15)}")


if __name__ == "__main__":
    main()
