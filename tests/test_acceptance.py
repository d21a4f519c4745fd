"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines as they go.
Criteria sharing one experiment grid (2+5, and 3+4+6) share module-scoped
fixtures so the underlying runs execute once.
"""

import math
import random
import time

import numpy as np
import pytest

from decaps.emulator import LocallyPerseveringEmulator
from decaps.es_tree import EsTree
from decaps.fully_dynamic import FullyDynamicApsp
from decaps.deterministic_apsp import ApspIndexDet
from decaps.graph_core import INF, INSERT, DecrementalGraph, edge_key
from decaps.harness import (
    audit_det_cover,
    generate_mixed_updates,
    generate_trace,
    gnm_graph,
)
from decaps.oracle import NumpyBfsOracle, bfs_levels, check_locally_persevering
from decaps.randomized_apsp import ApspIndexRandom


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: ES-tree exactness ----------------------------------------


def test_criterion_1_es_tree_exactness():
    t0 = time.time()
    n, m = 200, 800
    depths = (4, 16, n)
    mismatches = 0
    for seed in range(100):
        g = gnm_graph(n, m, seed=seed)
        trace = generate_trace(g, "random", seed=seed)
        trees = [EsTree(g, 0, Q, backend="counter") for Q in depths]
        oracle = NumpyBfsOracle(g)
        for u, v in trace:
            g.delete_edge(u, v)
            oracle.note_delete(u, v)
            for tree in trees:
                tree.after_delete(u, v)
            dist = oracle.levels(0)
            for Q, tree in zip(depths, trees):
                want = np.where(dist <= Q, dist, np.inf)
                got = np.asarray(tree.level, dtype=float)
                if not np.array_equal(got, want):
                    mismatches += 1
    elapsed = time.time() - t0
    report(1, mismatches == 0 and elapsed < 60,
           f"100 seeds x G(200,800) x Q in {depths}: {mismatches} mismatches, "
           f"{elapsed:.1f}s (< 60s)")


# -- criteria 2 + 5: deterministic guarantee and cover ledger ----------------

DET_EPS = (0.25, 0.5, 1.0)
DET_SIZES = (24, 32, 48)
DET_SEEDS = 50


@pytest.fixture(scope="module")
def det_grid():
    t0 = time.time()
    sandwich_failures = 0
    ledger_failures = []
    for seed in range(DET_SEEDS):
        n = DET_SIZES[seed % len(DET_SIZES)]
        m = int(2.5 * n)
        g0 = gnm_graph(n, m, seed=seed)
        trace = generate_trace(g0, "random", seed=seed)
        graphs = {eps: g0.copy() for eps in DET_EPS}
        indexes = {eps: ApspIndexDet(graphs[eps], eps) for eps in DET_EPS}
        oracle = NumpyBfsOracle(g0)
        for u, v in trace:
            oracle.note_delete(u, v)
            truth = oracle.apsp()
            for eps in DET_EPS:
                idx = indexes[eps]
                idx.delete(u, v)
                for x in range(n):
                    row = truth[x]
                    for y in range(x + 1, n):
                        est = idx.query(x, y)
                        d = row[y]
                        if est < d - 1e-9:
                            sandwich_failures += 1
                        elif np.isfinite(d):
                            if est > (1 + eps) * d + 1e-9 or est > (1 + 2 * eps) * d + 1e-9:
                                sandwich_failures += 1
                        elif est != INF:
                            sandwich_failures += 1
                detail = audit_det_cover(idx)
                if detail is not None:
                    ledger_failures.append({"seed": seed, "eps": eps, **detail})
    return {
        "elapsed": time.time() - t0,
        "sandwich_failures": sandwich_failures,
        "ledger_failures": ledger_failures,
        "runs": DET_SEEDS * len(DET_EPS),
    }


def test_criterion_2_deterministic_guarantee(det_grid):
    ok = det_grid["sandwich_failures"] == 0 and det_grid["elapsed"] < 300
    report(2, ok,
           f"{det_grid['runs']} runs (50 seeds x eps {DET_EPS}, n up to 48): "
           f"{det_grid['sandwich_failures']} sandwich failures "
           f"[dist <= est <= (1+eps)d and (1+2eps)d], {det_grid['elapsed']:.1f}s (< 300s)")


def test_criterion_5_deterministic_cover_ledger(det_grid):
    fails = det_grid["ledger_failures"]
    report(5, not fails,
           f"per-layer ledger on every run/deletion (opens <= 2n/q, M <= n, "
           f"radius formula, disjointness, largeness, coverage): "
           f"{len(fails)} violations{': ' + str(fails[:2]) if fails else ''}")


# -- criteria 3 + 4 + 6: randomized stack ------------------------------------

RAND_EPS = (0.25, 0.5, 1.0)
RAND_SEEDS = 50


def _rand_sizes(seed):
    return (10, 20) if seed % 2 == 0 else (12, 24)


def _confirm_sampling_failure(n, initial_edges, trace, snapshots, tau,
                              layer_params, centers_per_layer):
    """A failing seed must show an oracle-confirmed sampling defect."""
    ok, cex = check_locally_persevering(n, initial_edges, trace, snapshots,
                                        1, 2, tau)
    if not ok:
        return f"emulator not locally persevering: {cex}"
    g = DecrementalGraph.from_edge_list(n, initial_edges)
    for i in range(len(trace) + 1):
        if i:
            g.delete_edge(*trace[i - 1])
        for p, (q_p, _) in enumerate(layer_params):
            centers = centers_per_layer[p]
            for x in range(n):
                if g.component_size(x) < q_p:
                    continue
                if not any(bfs_levels(g, c)[x] <= q_p for c in centers):
                    return f"uncovered node {x} in layer {p} at version {i}"
    return None


@pytest.fixture(scope="module")
def rand_grid():
    t0 = time.time()
    lower_failures = 0
    seed_upper_failures = {}
    confirmations = {}
    wrapper_failures = 0
    adjacency_failures = 0
    monotonicity_failures = 0
    stretched_failures = 0
    runs = 0
    for seed in range(RAND_SEEDS):
        n, m = _rand_sizes(seed)
        for eps in RAND_EPS:
            runs += 1
            g = gnm_graph(n, m, seed=seed)
            initial_edges = g.edges()
            trace = generate_trace(g, "random", seed=seed)
            idx = ApspIndexRandom(g, eps, seed=seed)
            oracle = NumpyBfsOracle(g)
            snapshots = [dict(idx.emulator.snapshot())]
            trees = idx.trees
            prev_levels = [list(t.level) for t in trees]
            inserted = set()
            upper_bad = False
            for u, v in trace:
                batch = idx.delete(u, v)
                oracle.note_delete(u, v)
                snapshots.append(dict(idx.emulator.snapshot()))
                inserted |= {edge_key(e.u, e.v) for e in batch if e.kind == INSERT}
                # criterion 6: monotone levels, stretched edges from inserts
                for ti, tree in enumerate(trees):
                    cur = tree.level
                    if any(a < b for a, b in zip(cur, prev_levels[ti])):
                        monotonicity_failures += 1
                    prev_levels[ti] = list(cur)
                    for a, b in tree.stretched_edges():
                        if edge_key(a, b) not in inserted:
                            stretched_failures += 1
                truth = oracle.apsp()
                for x in range(n):
                    for y in range(x + 1, n):
                        d = truth[x, y]
                        est = idx.query_1eps2(x, y)
                        if est < d - 1e-9:
                            lower_failures += 1
                        pair_ok = True
                        if np.isfinite(d) and est > (1 + eps) * d + 2 + 1e-9:
                            upper_bad = True
                            pair_ok = False
                        # criterion 4: the (2+eps, 0) wrapper
                        est2 = idx.query_2eps(x, y)
                        if est2 < d - 1e-9:
                            wrapper_failures += 1
                        if d == 1 and est2 != 1:
                            adjacency_failures += 1
                        if pair_ok and np.isfinite(d) and d >= 1:
                            if est2 > (2 + eps) * d + 1e-9:
                                wrapper_failures += 1
            if upper_bad:
                key = (seed, eps)
                seed_upper_failures[key] = True
                confirmations[key] = _confirm_sampling_failure(
                    n, initial_edges, list(trace), snapshots,
                    idx.emulator.tau, idx.layer_params,
                    [layer.centers for layer in idx.layers])
    return {
        "elapsed": time.time() - t0,
        "runs": runs,
        "lower_failures": lower_failures,
        "upper_failing_runs": seed_upper_failures,
        "confirmations": confirmations,
        "wrapper_failures": wrapper_failures,
        "adjacency_failures": adjacency_failures,
        "monotonicity_failures": monotonicity_failures,
        "stretched_failures": stretched_failures,
    }


def test_criterion_3_randomized_guarantee(rand_grid):
    bad_runs = rand_grid["upper_failing_runs"]
    unconfirmed = [k for k in bad_runs if rand_grid["confirmations"].get(k) is None]
    share = len(bad_runs) / rand_grid["runs"]
    ok = (rand_grid["lower_failures"] == 0 and share <= 0.05
          and not unconfirmed and rand_grid["elapsed"] < 600)
    report(3, ok,
           f"{rand_grid['runs']} runs (a=3): {rand_grid['lower_failures']} lower-bound "
           f"failures, {len(bad_runs)} upper-bound failing runs "
           f"({share:.1%} <= 5%), unconfirmed: {len(unconfirmed)}, "
           f"{rand_grid['elapsed']:.1f}s (< 600s)")


def test_criterion_4_2eps_wrapper(rand_grid):
    ok = rand_grid["wrapper_failures"] == 0 and rand_grid["adjacency_failures"] == 0
    report(4, ok,
           f"(2+eps,0) wrapper on all criterion-3 runs: "
           f"{rand_grid['wrapper_failures']} bound violations, "
           f"{rand_grid['adjacency_failures']} non-exact adjacent answers")


def test_criterion_6_monotonicity_and_stretched_edges(rand_grid):
    ok = (rand_grid["monotonicity_failures"] == 0
          and rand_grid["stretched_failures"] == 0)
    report(6, ok,
           f"all monotone trees, every event: "
           f"{rand_grid['monotonicity_failures']} level decreases, "
           f"{rand_grid['stretched_failures']} stretched edges without an insert")


# -- criterion 7: emulator scaling -------------------------------------------


def test_criterion_7_emulator_scaling():
    t0 = time.time()
    eps = 1.0
    ratios_e = []
    ratios_u = []
    for n in (64, 128, 256, 512):
        m = 4 * n
        g = gnm_graph(n, m, seed=n)
        trace = generate_trace(g, "random", seed=n)
        em = LocallyPerseveringEmulator(g, eps, seed=n)
        for u, v in trace:
            em.on_delete(u, v)
        edges_ever, updates = em.stats()
        ratios_e.append(edges_ever / (n ** 1.5 * math.log(n)))
        ratios_u.append(updates / (n ** 1.5 * math.log(n) / eps))
    elapsed = time.time() - t0
    bounded = all(r <= 8 for r in ratios_e + ratios_u)
    stable = all(max(a, b) / min(a, b) <= 2
                 for seq in (ratios_e, ratios_u)
                 for a, b in zip(seq, seq[1:]))
    report(7, bounded and stable and elapsed < 300,
           f"n in 64..512, m=4n: edges_ever/(n^1.5 ln n) = "
           f"{[round(r, 2) for r in ratios_e]}, updates/(n^1.5 ln n / eps) = "
           f"{[round(r, 2) for r in ratios_u]} (all <= 8, consecutive within 2x), "
           f"{elapsed:.1f}s (< 300s)")


# -- criterion 8: locally persevering brute force ----------------------------


def test_criterion_8_locally_persevering_brute_force():
    t0 = time.time()
    rng = random.Random(88)
    failures = []
    for trial in range(200):
        n = 6 + trial % 5  # 6..10
        m = min(2 * n, n * (n - 1) // 2)
        g = gnm_graph(n, m, seed=trial)
        eps = (0.5, 1.0)[trial % 2]
        s = math.ceil(math.sqrt(n))
        hubs = {u for u in range(n) if g.degree(u) > s}
        hubs |= {x for x in range(n) if rng.random() < 0.3}
        initial = g.edges()
        trace = generate_trace(g, "random", seed=trial)
        em = LocallyPerseveringEmulator(g, eps, hubs=sorted(hubs))
        snaps = [dict(em.snapshot())]
        for u, v in trace:
            em.on_delete(u, v)
            snaps.append(dict(em.snapshot()))
        ok, cex = check_locally_persevering(n, initial, list(trace), snaps,
                                            1, 2, em.tau)
        if not ok:
            failures.append({"trial": trial, **(cex or {})})
    elapsed = time.time() - t0
    report(8, not failures,
           f"200 random traces, n in 6..10, injected hub sets: "
           f"{len(failures)} Def-8 violations"
           f"{': ' + str(failures[:2]) if failures else ''}, {elapsed:.1f}s")


# -- criterion 9: fully dynamic ----------------------------------------------


def test_criterion_9_fully_dynamic():
    t0 = time.time()
    eps = 0.5
    failures = 0
    checked = 0
    for n in (16, 32, 48):
        m = int(2.5 * n)
        for t in (1, 3, math.ceil(math.sqrt(n))):
            g = gnm_graph(n, m, seed=n + t)
            plan = generate_mixed_updates(g, 24, seed=n * 7 + t)
            fd = FullyDynamicApsp(g, eps, t)
            present = set(g.edges())
            for update in plan:
                if update[0] == "insert_star":
                    _, v, star = update
                    fd.insert_star(v, star)
                    present |= {(min(a, b), max(a, b)) for a, b in star}
                else:
                    fd.delete_set(update[1])
                    present -= set(update[1])
                check = DecrementalGraph.from_edge_list(n, sorted(present))
                truth = NumpyBfsOracle(check).apsp()
                for x in range(n):
                    for y in range(x + 1, n):
                        est = fd.query(x, y)
                        d = truth[x, y]
                        checked += 1
                        if est < d - 1e-9:
                            failures += 1
                        elif np.isfinite(d):
                            if est > (1 + eps) * d + 1e-9:
                                failures += 1
                        elif est != INF:
                            failures += 1
    elapsed = time.time() - t0
    report(9, failures == 0 and elapsed < 180,
           f"mixed traces, n in 16..48, t in {{1, 3, ceil(sqrt(n))}}: "
           f"{failures}/{checked} sandwich failures, {elapsed:.1f}s (< 180s)")


# -- criterion 10: work accounting -------------------------------------------


def test_criterion_10_work_accounting():
    t0 = time.time()
    n, m = 200, 800
    constants = []
    for Q in (4, 16):
        g = gnm_graph(n, m, seed=97)
        trace = generate_trace(g, "random", seed=97)
        tree = EsTree(g, 0, Q, backend="heap")
        for u, v in trace:
            g.delete_edge(u, v)
            tree.after_delete(u, v)
        constants.append(tree.ops / (m * Q))
    elapsed = time.time() - t0
    worst = max(constants)
    report(10, worst <= 16,
           f"heap-instrumented tree on G(200,800), Q in (4, 16): "
           f"measured C = {[round(c, 2) for c in constants]} "
           f"(gate: C <= 16), {elapsed:.1f}s")
