"""Decremental graphs and the exact bounded-depth distance tree.

Builds the 6-node example used across the test suite (root r with three
children a, b, c and grandchildren d, e), deletes the edge (r, a), and shows
how the tree repairs its levels while checking exactly five neighbors. The
graph owns the edges: delete an edge there, then tell every tree on it.
"""

from decaps import INF, DecrementalGraph, EsTree

NAMES = "r a b c d e".split()
EDGES = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (1, 2), (2, 5), (3, 5), (4, 5)]


def show(tree):
    print("   levels:", {NAMES[x]: tree.level_query(x) for x in range(6)})


def delete(g, tree, u, v):
    """Delete (u, v) from the graph, repair the tree; returns the raised nodes."""
    g.delete_edge(u, v)
    return tree.after_delete(u, v, g.split_side(u, v))


def main():
    g = DecrementalGraph.from_edge_list(6, EDGES)
    print(f"graph: n={g.n}, m={g.m}, degree(a)={g.degree(1)}")

    tree = EsTree(g, root=0, depth=3)
    print("initial tree (root r, depth 3):")
    show(tree)

    print("deleting (r, a)...")
    raised = delete(g, tree, 0, 1)
    show(tree)
    print(f"   raised: {[NAMES[x] for x in sorted(raised)]}; "
          f"work: {tree.ops} neighbor checks (a checked 3 neighbors, d checked 2)")

    print("deleting (a, e) and (a, d): a keeps level 2 via b")
    for u, v in [(1, 5), (1, 4)]:
        delete(g, tree, u, v)
    show(tree)

    print("deleting (a, b) disconnects a:")
    raised = delete(g, tree, 1, 2)
    show(tree)
    print(f"   dropped: {[NAMES[x] for x in sorted(raised) if tree.level[x] is INF]}")


if __name__ == "__main__":
    main()
