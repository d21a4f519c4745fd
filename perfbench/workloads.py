"""The benchmark's workloads: seeded inputs, index construction, one update,
the query methods and the guarantee each answer is checked against.

Every workload is a closed loop run in rounds. A round builds a fresh index
on the run's generated graph, then applies ``updates_per_round`` updates;
after each update it issues ``SOURCES * TARGETS`` seeded query pairs to
every query method. The inputs depend only on the run seed, so every round of a run
repeats the same work; they are generated before any timer starts.

The truth graph is a separate ``DecrementalGraph`` that the benchmark keeps in
step with the updates itself, so the oracle never reads the index's graph.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from decaps import ApspIndexDet, ApspIndexRandom, DecrementalGraph, FullyDynamicApsp
from decaps.harness import (
    ExperimentConfig,
    build_graph,
    generate_mixed_updates,
    generate_trace,
    gnm_graph,
)

EPS = 0.5
SOURCES = 4     # query pairs after each update: SOURCES x TARGETS
TARGETS = 16


@dataclass
class RoundInputs:
    n: int
    edges: list            # initial edge list, (u, v) with u < v
    updates: list          # workload-specific update records
    pairs: list            # pairs[i]: query pairs issued after update i


def fresh_graph(inp: RoundInputs) -> DecrementalGraph:
    """A new graph of the round's initial edges (indexes mutate theirs)."""
    return DecrementalGraph.from_edge_list(inp.n, inp.edges)


def _query_pairs(rng: random.Random, n: int, count: int) -> list:
    """``SOURCES`` random sources with ``TARGETS`` random targets each, per
    update; few sources keep the oracle's BFS work small. The pairs cycle
    through the sources, so consecutive queries differ in their source as
    independent random pairs would, and no query finds its source's data
    warm from the one before."""
    out = []
    for _ in range(count):
        sources = [rng.randrange(n) for _ in range(SOURCES)]
        batch = []
        for _ in range(TARGETS):
            for x in sources:
                y = rng.randrange(n - 1)
                batch.append((x, y + (y >= x)))  # y != x
        out.append(batch)
    return out


class DecrementalWorkload:
    """A deletion-only index: ``delete(u, v)`` is the update.

    With ``seeded_graph`` false the graph and deletion order are generated
    once with seed 0, and the run seed only picks the query pairs.
    """

    name = ""
    updates_per_round = 0
    seeded_graph = True

    def __init__(self):
        self._fixed = None

    def graph_and_trace(self, seed: int):
        raise NotImplementedError

    def inputs(self, seed: int) -> RoundInputs:
        if self.seeded_graph:
            g, trace = self.graph_and_trace(seed)
        else:
            if self._fixed is None:
                self._fixed = self.graph_and_trace(0)
            g, trace = self._fixed
        updates = trace.pairs[:self.updates_per_round]
        pairs = _query_pairs(random.Random(seed), g.n, len(updates))
        return RoundInputs(g.n, g.edges(), updates, pairs)

    def apply(self, index, update) -> None:
        index.delete(*update)

    def advance_truth(self, truth: DecrementalGraph, update) -> DecrementalGraph:
        truth.delete_edge(*update)
        return truth


class DetGnm(DecrementalWorkload):
    name = "det-gnm"
    updates_per_round = 200

    def graph_and_trace(self, seed):
        g = gnm_graph(400, 1600, seed)
        return g, generate_trace(g, "random", seed)

    def build(self, g):
        return ApspIndexDet(g, EPS)

    def query_methods(self, index):
        return [("query", index.query, lambda d: (1 + EPS) * d)]


class DetGridPeel(DecrementalWorkload):
    name = "det-grid-peel"
    updates_per_round = 200
    seeded_graph = False  # the grid and the peel have no randomness

    def graph_and_trace(self, seed):
        g = build_graph(ExperimentConfig(algorithm="det_apsp", generator="grid:30:30"))
        return g, generate_trace(g, "adversarial-path-peel")

    def build(self, g):
        return ApspIndexDet(g, EPS)

    def query_methods(self, index):
        return [("query", index.query, lambda d: (1 + EPS) * d)]


class RandGnm(DecrementalWorkload):
    name = "rand-gnm"
    updates_per_round = 40
    # Deleting the last edge of a node turns into n-1 emulator deletions for
    # each of the 832 trees, about 100 times a typical deletion; a few percent
    # of random 40-deletion prefixes hold one. A seeded graph would make runs
    # bimodal, so the graph and order are fixed and the seed picks queries.
    seeded_graph = False

    def graph_and_trace(self, seed):
        g = gnm_graph(64, 256, seed)
        return g, generate_trace(g, "random", seed)

    def build(self, g):
        return ApspIndexRandom(g, EPS, seed=0)

    def query_methods(self, index):
        return [("query_1eps2", index.query_1eps2, lambda d: (1 + EPS) * d + 2),
                ("query_2eps", index.query_2eps, lambda d: (2 + EPS) * d)]


class FdMixed:
    """Star insertions and set deletions on the fully dynamic wrapper."""

    name = "fd-mixed"
    updates_per_round = 240

    def inputs(self, seed: int) -> RoundInputs:
        g = gnm_graph(144, 576, seed)
        updates = generate_mixed_updates(g, self.updates_per_round, seed=seed)
        pairs = _query_pairs(random.Random(seed), g.n, len(updates))
        return RoundInputs(g.n, g.edges(), updates, pairs)

    def build(self, g):
        return FullyDynamicApsp(g, eps=EPS, t=12)

    def apply(self, index, update) -> None:
        if update[0] == "insert_star":
            index.insert_star(update[1], update[2])
        else:
            index.delete_set(update[1])

    def advance_truth(self, truth: DecrementalGraph, update) -> DecrementalGraph:
        edges = set(truth.edges())
        if update[0] == "insert_star":
            edges |= {(min(a, b), max(a, b)) for a, b in update[2]}
        else:
            edges -= {(min(a, b), max(a, b)) for a, b in update[1]}
        return DecrementalGraph.from_edge_list(truth.n, sorted(edges))

    def query_methods(self, index):
        return [("query", index.query, lambda d: (1 + EPS) * d)]


WORKLOADS = {w.name: w for w in (DetGnm(), DetGridPeel(), RandGnm(), FdMixed())}
