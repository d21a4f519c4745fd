"""Experiment harness: trace generation, experiment execution, invariant
auditing, and CSV/JSON reporting for every data structure in the package.

Exposed as a CLI with three subcommands::

    decaps gen   --gnm N M --seed S --out graph.txt [--trace-out t.txt ...]
    decaps run   --algo det_apsp --graph g.txt --trace t.txt --eps 0.5 ...
    decaps audit ...   (run with audit forced to full-invariants)

Exit codes: 0 pass, 2 audit failure (a replay bundle is dumped), 3 config
error. Identical configs produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .deterministic_apsp import ApspIndexDet
from .errors import AuditFailure, ConfigInvalid, GraphError
from .es_tree import EsTree
from .fully_dynamic import FullyDynamicApsp
from .graph_core import (
    INF,
    DecrementalGraph,
    DeletionTrace,
    read_edge_list,
    read_trace,
    write_edge_list,
    write_trace,
)
from .oracle import NumpyBfsOracle, check_locally_persevering
from .randomized_apsp import ApspIndexRandom

CSV_SCHEMA = "#schema=1"
CSV_HEADER = ("version,algorithm,audit_pass,level_increases,heap_ops,"
              "emulator_events,opens,moving_distance")

AUDIT_LEVELS = ("none", "stretch", "full")
FULL_AUDIT_NODE_CAP = 64
DEF8_NODE_CAP = 12


@dataclass
class ExperimentConfig:
    algorithm: str
    graph: str | None = None          # path to an edge-list file
    gnm: tuple[int, int] | None = None
    generator: str | None = None      # "path:N" or "grid:R:C"
    trace: str | None = None          # path to a trace file
    trace_order: str = "random"       # random | adversarial-path-peel
    eps: float = 0.5
    phase_t: int = 1
    q: int | None = None
    Q: int | None = None
    root: int = 0
    seed: int = 0
    audit: str = "stretch"
    out: str | None = None
    updates: int = 0                  # fully_dynamic: number of mixed updates

    def validate(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigInvalid(f"unknown algorithm {self.algorithm!r}")
        if self.audit not in AUDIT_LEVELS:
            raise ConfigInvalid(f"unknown audit level {self.audit!r}")
        sources = [s for s in (self.graph, self.gnm, self.generator) if s]
        if len(sources) != 1:
            raise ConfigInvalid("exactly one of --graph, --gnm, --path/--grid required")
        if not 0 < self.eps <= 1:
            raise ConfigInvalid(f"eps must be in (0, 1], got {self.eps}")


def build_graph(cfg: ExperimentConfig) -> DecrementalGraph:
    if cfg.graph:
        return read_edge_list(cfg.graph)
    if cfg.gnm:
        n, m = cfg.gnm
        return gnm_graph(n, m, cfg.seed)
    kind, _, rest = cfg.generator.partition(":")
    if kind == "path":
        n = int(rest)
        return DecrementalGraph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
    if kind == "grid":
        r, c = map(int, rest.split(":"))
        edges = []
        for i in range(r):
            for j in range(c):
                if j + 1 < c:
                    edges.append((i * c + j, i * c + j + 1))
                if i + 1 < r:
                    edges.append((i * c + j, (i + 1) * c + j))
        return DecrementalGraph.from_edge_list(r * c, edges)
    raise ConfigInvalid(f"unknown generator {cfg.generator!r}")


def gnm_graph(n: int, m: int, seed=0) -> DecrementalGraph:
    """Uniform random simple graph with n nodes and m edges."""
    total = n * (n - 1) // 2
    if m > total:
        raise ConfigInvalid(f"m={m} exceeds {total} possible edges")
    rng = random.Random(seed)
    chosen: set[tuple[int, int]] = set()
    while len(chosen) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u != v:
            chosen.add((min(u, v), max(u, v)))
    return DecrementalGraph.from_edge_list(n, sorted(chosen))


def generate_trace(g: DecrementalGraph, order: str = "random", seed=0,
                   root: int = 0) -> DeletionTrace:
    """Full deletion trace over g: a seeded permutation, or a peel that keeps
    deleting the first edge of a current shortest path to stress level
    increases."""
    edges = g.edges()
    if order == "random":
        rng = random.Random(seed)
        rng.shuffle(edges)
        return DeletionTrace(edges)
    if order != "adversarial-path-peel":
        raise ConfigInvalid(f"unknown trace order {order!r}")
    work = g.copy()
    out = []
    cur = root
    while work.m > 0:
        if work.degree(cur) == 0:
            cur = next(x for x in range(work.n) if work.degree(x) > 0)
        # BFS tree from cur; walk back from the farthest node and peel the
        # root-side edge of that shortest path
        parent = {cur: None}
        frontier = [cur]
        far = cur
        while frontier:
            nxt = []
            for y in frontier:
                for z in work.neighbors_sorted(y):
                    if z not in parent:
                        parent[z] = y
                        nxt.append(z)
            if nxt:
                far = nxt[-1]
            frontier = nxt
        node = far
        while parent[node] is not None and parent[parent[node]] is not None:
            node = parent[node]
        u, v = (parent[node], node) if parent[node] is not None else (cur, far)
        if parent[node] is None:  # isolated component of one node
            cur = next(x for x in range(work.n) if work.degree(x) > 0)
            continue
        work.delete_edge(u, v)
        out.append((u, v))
    return DeletionTrace(out)


def generate_mixed_updates(g: DecrementalGraph, count: int, seed=0) -> list:
    """Alternating star insertions and set deletions for the fully dynamic
    wrapper, as ("insert_star", v, edges) / ("delete_set", edges) tuples."""
    rng = random.Random(seed)
    n = g.n
    present = set(g.edges())
    updates = []
    for step in range(count):
        if step % 2 == 0 and present:
            k = min(len(present), rng.choice([1, 2]))
            chosen = rng.sample(sorted(present), k)
            present -= set(chosen)
            updates.append(("delete_set", chosen))
        else:
            v = rng.randrange(n)
            free = [w for w in range(n)
                    if w != v and (min(v, w), max(v, w)) not in present]
            rng.shuffle(free)
            star = [(v, w) for w in free[:rng.randrange(1, 4)]]
            if not star:
                if not present:
                    break
                chosen = rng.sample(sorted(present), 1)
                present -= set(chosen)
                updates.append(("delete_set", chosen))
                continue
            present |= {(min(a, b), max(a, b)) for a, b in star}
            updates.append(("insert_star", v, star))
    return updates


# -- runners -------------------------------------------------------------


def _audit_cap(cfg: ExperimentConfig, n: int) -> None:
    if cfg.audit == "full" and n > FULL_AUDIT_NODE_CAP:
        raise ConfigInvalid(
            f"audit=full requires n <= {FULL_AUDIT_NODE_CAP}, got {n}")


def _fail(cfg: ExperimentConfig, version: int, detail: dict) -> AuditFailure:
    bundle = {"config": asdict(cfg), "version": version, "detail": detail}
    return AuditFailure(f"audit failed at version {version}: {detail}", bundle)


def run_es_tree(cfg: ExperimentConfig, g: DecrementalGraph, trace: DeletionTrace):
    n = g.n
    Q = cfg.Q or n
    tree = EsTree(g, cfg.root, Q, backend="heap")
    oracle = NumpyBfsOracle(g) if cfg.audit != "none" else None
    rows = []
    for i, (u, v) in enumerate(trace, start=1):
        g.delete_edge(u, v)
        tree.after_delete(u, v)
        ok = True
        if oracle is not None:
            oracle.note_delete(u, v)
            truth = oracle.levels(cfg.root)
            want = np.where(truth <= Q, truth, np.inf)
            got = np.array(tree.levels(), dtype=float)
            if not np.array_equal(got, want):
                bad = int(np.nonzero(got != want)[0][0])
                raise _fail(cfg, i, {"node": bad, "level": float(got[bad]),
                                     "distance": float(want[bad])})
        rows.append({"version": i, "audit_pass": ok,
                     "level_increases": tree.level_increases,
                     "heap_ops": tree.ops,
                     "emulator_events": 0, "opens": 0, "moving_distance": 0})
    m = g.m0
    work_constant = tree.ops / max(1, m * Q)
    summary = {"work_constant": work_constant,
               "work_bound_ok": work_constant <= 16,
               "level_increases": tree.level_increases,
               "heap_ops": tree.ops}
    return rows, summary


def run_det_apsp(cfg: ExperimentConfig, g: DecrementalGraph, trace: DeletionTrace):
    n = g.n
    index = ApspIndexDet(g, cfg.eps)
    oracle = NumpyBfsOracle(g) if cfg.audit != "none" else None
    rows = []
    for i, (u, v) in enumerate(trace, start=1):
        index.delete(u, v)
        if oracle is not None:
            oracle.note_delete(u, v)
            truth = oracle.apsp()
            for x in range(n):
                for y in range(x + 1, n):
                    est = index.query(x, y)
                    d = truth[x, y]
                    if est < d - 1e-9 or (np.isfinite(d) and est > (1 + cfg.eps) * d + 1e-9):
                        raise _fail(cfg, i, {"pair": [x, y], "estimate": float(est),
                                             "distance": float(d)})
        if cfg.audit == "full":
            detail = audit_det_cover(index)
            if detail:
                raise _fail(cfg, i, detail)
        opens = sum(layer.opens for layer in index.layers)
        moving = sum(layer.moving_distance for layer in index.layers)
        # work of every tree the index built, those that moves retired too
        rows.append({"version": i, "audit_pass": True,
                     "level_increases": index.level_increases, "heap_ops": index.ops,
                     "emulator_events": 0, "opens": opens, "moving_distance": moving})
    ledger = {}
    for p, layer in enumerate(index.layers):
        q_p, _ = index.layer_params[p]
        ledger[f"layer{p}"] = {
            "q": q_p, "opens": layer.opens,
            "opens_bound_ok": layer.opens <= 2 * n / q_p,
            "moving_distance": layer.moving_distance,
            "moving_bound_ok": layer.moving_distance <= n,
        }
    return rows, {"bound_ledger": ledger}


def audit_det_cover(index: ApspIndexDet) -> dict | None:
    """Recompute the cover ledger from scratch; None when everything holds."""
    g = index.g
    n = g.n
    for p, layer in enumerate(index.layers):
        q_p, _ = index.layer_params[p]
        seen: set[int] = set()
        for j in layer.centers():
            if layer.radius2[j] != layer.q - 2 * len(layer.collected[j]):
                return {"layer": p, "center": j, "reason": "radius formula"}
            ball = layer.ball(j)
            if ball & layer.collected[j]:
                return {"layer": p, "center": j, "reason": "ball meets collected set"}
            both = ball | layer.collected[j]
            if both & seen:
                return {"layer": p, "center": j, "reason": "disjointness"}
            seen |= both
            if 2 * len(both) < layer.q:
                return {"layer": p, "center": j, "reason": "largeness"}
        if layer.opens > 2 * n / q_p:
            return {"layer": p, "reason": "opens bound"}
        if layer.moving_distance > n:
            return {"layer": p, "reason": "moving distance bound"}
        rho = layer.mc.cover_radius
        for x in range(n):
            if layer.find_center(x) is None and g.component_size(x) >= layer.q:
                return {"layer": p, "node": x, "reason": "coverage"}
            j = layer.find_center(x)
            if j is not None:
                d = layer.distance(j, x)
                if d is INF or d > rho:
                    return {"layer": p, "node": x, "reason": "cover radius"}
    return None


def run_rand_apsp(cfg: ExperimentConfig, g: DecrementalGraph, trace: DeletionTrace):
    n = g.n
    index = ApspIndexRandom(g, cfg.eps, seed=cfg.seed)
    oracle = NumpyBfsOracle(g) if cfg.audit != "none" else None
    keep_h = cfg.audit == "full" and n <= DEF8_NODE_CAP
    initial_edges = g.edges()
    h_snapshots = [dict(index.emulator.snapshot())] if keep_h else None
    cover_sizes = [[len(layer.cover_list(x)) for x in range(n)]
                   for layer in index.layers]
    rows = []
    for i, (u, v) in enumerate(trace, start=1):
        index.delete(u, v)
        if keep_h:
            h_snapshots.append(dict(index.emulator.snapshot()))
        if cfg.audit == "full":
            for p, layer in enumerate(index.layers):
                sizes = [len(layer.cover_list(x)) for x in range(n)]
                if any(a > b for a, b in zip(sizes, cover_sizes[p])):
                    raise _fail(cfg, i, {"layer": p, "reason": "cover list grew"})
                cover_sizes[p] = sizes
        if oracle is not None:
            oracle.note_delete(u, v)
            truth = oracle.apsp()
            for x in range(n):
                for y in range(x + 1, n):
                    est = index.query_1eps2(x, y)
                    d = truth[x, y]
                    if est < d - 1e-9:
                        raise _fail(cfg, i, {"pair": [x, y], "estimate": float(est),
                                             "distance": float(d),
                                             "reason": "underestimate"})
                    if np.isfinite(d) and est > (1 + cfg.eps) * d + 2 + 1e-9:
                        raise _fail(cfg, i, {"pair": [x, y], "estimate": float(est),
                                             "distance": float(d),
                                             "reason": "stretch bound"})
        _, updates = index.emulator.stats()
        rows.append({"version": i, "audit_pass": True,
                     "level_increases": sum(t.level_increases for t in index.trees),
                     "heap_ops": sum(t.ops for t in index.trees),
                     "emulator_events": updates, "opens": 0, "moving_distance": 0})
    summary = {"emulator_edges_ever": index.emulator.edges_ever,
               "emulator_updates_total": index.emulator.updates_total}
    if keep_h:
        ok, cex = check_locally_persevering(
            n, initial_edges, list(trace), h_snapshots, 1, 2, index.emulator.tau)
        summary["locally_persevering"] = ok
        if not ok:
            summary["locally_persevering_counterexample"] = cex
    return rows, summary


def run_fully_dynamic(cfg: ExperimentConfig, g: DecrementalGraph, trace: DeletionTrace):
    n = g.n
    count = cfg.updates or max(4, g.m)
    updates = generate_mixed_updates(g, count, seed=cfg.seed)
    fd = FullyDynamicApsp(g, cfg.eps, cfg.phase_t)
    true_edges = set(g.edges())
    rows = []
    for i, update in enumerate(updates, start=1):
        if update[0] == "insert_star":
            _, v, star = update
            fd.insert_star(v, star)
            true_edges |= {(min(a, b), max(a, b)) for a, b in star}
        else:
            _, chosen = update
            fd.delete_set(chosen)
            true_edges -= set(chosen)
        if cfg.audit != "none":
            check = DecrementalGraph.from_edge_list(n, sorted(true_edges))
            truth = NumpyBfsOracle(check).apsp()
            for x in range(n):
                for y in range(x + 1, n):
                    est = fd.query(x, y)
                    d = truth[x, y]
                    if est < d - 1e-9 or (np.isfinite(d) and est > (1 + cfg.eps) * d + 1e-9):
                        raise _fail(cfg, i, {"pair": [x, y], "estimate": float(est),
                                             "distance": float(d)})
        # work of every index the wrapper built, earlier phases' too
        rows.append({"version": i, "audit_pass": True,
                     "level_increases": fd.level_increases, "heap_ops": fd.ops,
                     "emulator_events": 0, "opens": 0, "moving_distance": 0})
    return rows, {"updates": len(updates), "phase_t": cfg.phase_t}


ALGORITHMS = {
    "es_tree": run_es_tree,
    "det_apsp": run_det_apsp,
    "rand_apsp": run_rand_apsp,
    "fully_dynamic": run_fully_dynamic,
}


# -- experiment driver -----------------------------------------------------


def _format_value(value) -> str:
    if value is True:
        return "1"
    if value is False:
        return "0"
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        if value == int(value):
            return str(int(value))
        return repr(value)
    return str(value)


def run_experiment(cfg: ExperimentConfig) -> dict:
    """Run one experiment cell; returns the JSON-ready summary.

    Writes <out>/results.csv and <out>/summary.json when cfg.out is set, and
    <out>/replay_bundle.json before re-raising on audit failure.
    """
    cfg.validate()
    g = build_graph(cfg)
    _audit_cap(cfg, g.n)
    if cfg.algorithm == "fully_dynamic":
        trace = DeletionTrace([])
    elif cfg.trace:
        trace = read_trace(cfg.trace)
    else:
        trace = generate_trace(g, cfg.trace_order, seed=cfg.seed, root=cfg.root)
    runner = ALGORITHMS[cfg.algorithm]
    try:
        rows, extra = runner(cfg, g, trace)
    except AuditFailure as exc:
        if cfg.out:
            os.makedirs(cfg.out, exist_ok=True)
            with open(os.path.join(cfg.out, "replay_bundle.json"), "w") as fh:
                json.dump(exc.bundle, fh, indent=2, sort_keys=True, default=str)
        raise
    summary = {
        "config": asdict(cfg),
        "rows": len(rows),
        "audit_pass": all(r["audit_pass"] for r in rows),
        "maxima": {
            key: max((r[key] for r in rows), default=0)
            for key in ("level_increases", "heap_ops", "emulator_events",
                        "opens", "moving_distance")
        },
    }
    summary.update(extra)
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        csv_path = os.path.join(cfg.out, "results.csv")
        with open(csv_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(CSV_SCHEMA + "\n")
            fh.write(CSV_HEADER + "\n")
            for r in rows:
                fh.write(",".join([
                    str(r["version"]), cfg.algorithm,
                    _format_value(r["audit_pass"]),
                    _format_value(r["level_increases"]),
                    _format_value(r["heap_ops"]),
                    _format_value(r["emulator_events"]),
                    _format_value(r["opens"]),
                    _format_value(r["moving_distance"]),
                ]) + "\n")
        with open(os.path.join(cfg.out, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, default=str)
    return summary


# -- CLI -------------------------------------------------------------------


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--graph", help="edge-list file ('n m' header, then 'u v' lines)")
    parser.add_argument("--gnm", nargs=2, type=int, metavar=("N", "M"),
                        help="random graph with N nodes and M edges")
    parser.add_argument("--path", type=int, metavar="N", help="path graph on N nodes")
    parser.add_argument("--grid", nargs=2, type=int, metavar=("R", "C"),
                        help="R x C grid graph")
    parser.add_argument("--seed", type=int, default=0)


def _config_from_args(args) -> ExperimentConfig:
    generator = None
    if getattr(args, "path", None):
        generator = f"path:{args.path}"
    if getattr(args, "grid", None):
        generator = f"grid:{args.grid[0]}:{args.grid[1]}"
    return ExperimentConfig(
        algorithm=args.algo,
        graph=args.graph,
        gnm=tuple(args.gnm) if args.gnm else None,
        generator=generator,
        trace=args.trace,
        trace_order=args.order,
        eps=args.eps,
        phase_t=args.phase_t,
        q=args.q,
        Q=args.Q,
        root=args.root,
        seed=args.seed,
        audit=args.audit,
        out=args.out,
        updates=args.updates,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="decaps", description="decremental shortest-paths experiment harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate graph and trace files")
    _add_common(p_gen)
    p_gen.add_argument("--out", required=True, help="edge-list output path")
    p_gen.add_argument("--trace-out", help="also write a deletion trace here")
    p_gen.add_argument("--order", default="random",
                       choices=["random", "adversarial-path-peel"])
    p_gen.add_argument("--root", type=int, default=0)

    for name in ("run", "audit"):
        p = sub.add_parser(name, help=f"{name} an experiment")
        _add_common(p)
        p.add_argument("--algo", required=True, choices=sorted(ALGORITHMS))
        p.add_argument("--trace", help="deletion trace file")
        p.add_argument("--order", default="random",
                       choices=["random", "adversarial-path-peel"])
        p.add_argument("--eps", type=float, default=0.5)
        p.add_argument("--phase-t", dest="phase_t", type=int, default=1)
        p.add_argument("--q", type=int)
        p.add_argument("--Q", type=int)
        p.add_argument("--root", type=int, default=0)
        p.add_argument("--updates", type=int, default=0,
                       help="fully_dynamic: number of mixed updates")
        p.add_argument("--audit", default="stretch", choices=list(AUDIT_LEVELS))
        p.add_argument("--out", help="output directory for results.csv/summary.json")

    args = parser.parse_args(argv)
    try:
        if args.command == "gen":
            cfg = ExperimentConfig(algorithm="es_tree", graph=args.graph,
                                   gnm=tuple(args.gnm) if args.gnm else None,
                                   generator=(f"path:{args.path}" if args.path else
                                              f"grid:{args.grid[0]}:{args.grid[1]}"
                                              if args.grid else None),
                                   seed=args.seed)
            sources = [s for s in (cfg.graph, cfg.gnm, cfg.generator) if s]
            if len(sources) != 1:
                raise ConfigInvalid("exactly one of --graph, --gnm, --path/--grid required")
            g = build_graph(cfg)
            write_edge_list(g, args.out)
            if args.trace_out:
                trace = generate_trace(g, args.order, seed=args.seed, root=args.root)
                write_trace(trace, args.trace_out)
            return 0
        cfg = _config_from_args(args)
        if args.command == "audit":
            cfg.audit = "full"
        summary = run_experiment(cfg)
        json.dump(summary, sys.stdout, indent=2, sort_keys=True, default=str)
        sys.stdout.write("\n")
        return 0
    except AuditFailure as exc:
        print(f"audit failure: {exc}", file=sys.stderr)
        return 2
    except (ConfigInvalid, GraphError, OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
