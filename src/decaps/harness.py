"""Experiment harness: trace generation, experiment execution, invariant
auditing, and CSV/JSON reporting for every data structure in the package.

Exposed as a CLI with three subcommands::

    decaps gen   --gnm N M --seed S --out graph.txt [--trace-out t.txt ...]
    decaps run   --algo det_apsp --graph g.txt --trace t.txt --eps 0.5 ...
    decaps audit ...   (run with audit forced to full-invariants)

Exit codes: 0 pass, 2 audit failure (a replay bundle is dumped; a stretch
audit runs ``oracle.check_stretch`` and names the failing pair), 3 config
error. Identical configs produce byte-identical CSV output.
"""

from __future__ import annotations

import argparse
import json
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
from .oracle import DEF8_NODE_CAP, NumpyBfsOracle, check_locally_persevering, check_stretch
from .randomized_apsp import ApspIndexRandom

CSV_SCHEMA = "#schema=2"
# the ``stats()`` keys each row writes, in column order; a key missing from a
# structure's ``stats()`` reads 0
CSV_COUNTERS = ("level_increases", "ops", "emulator_events", "opens", "moving_distance")
CSV_HEADER = "version,algorithm," + ",".join(CSV_COUNTERS)

AUDIT_LEVELS = ("none", "stretch", "full")
FULL_AUDIT_NODE_CAP = 64
SLACK = 1e-9  # added to beta, so that rounding in alpha * d fails no answer at the bound


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
        if self.updates < 0:
            raise ConfigInvalid(f"updates must be at least 0, got {self.updates}")
        if self.trace and self.algorithm == "fully_dynamic":
            raise ConfigInvalid("fully_dynamic runs mixed updates, not a deletion trace")
        # options only one algorithm reads
        if self.Q is not None and self.algorithm != "es_tree":
            raise ConfigInvalid(f"Q applies to es_tree only, not {self.algorithm}")
        if self.updates and self.algorithm != "fully_dynamic":
            raise ConfigInvalid(f"updates apply to fully_dynamic only, not {self.algorithm}")


def build_graph(cfg: ExperimentConfig) -> DecrementalGraph:
    if cfg.graph:
        return read_edge_list(cfg.graph)
    if cfg.gnm:
        n, m = cfg.gnm
        return gnm_graph(n, m, cfg.seed)
    kind, _, rest = cfg.generator.partition(":")
    try:
        sizes = [int(size) for size in rest.split(":")]
    except ValueError:
        sizes = []
    if len(sizes) != {"path": 1, "grid": 2}.get(kind):
        raise ConfigInvalid(f"generator {cfg.generator!r} is not 'path:N' or 'grid:R:C'")
    if min(sizes) < 1:
        raise ConfigInvalid(f"generator sizes must be at least 1, got {cfg.generator!r}")
    if kind == "path":
        (n,) = sizes
        return DecrementalGraph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])
    r, c = sizes
    edges = []
    for i in range(r):
        for j in range(c):
            if j + 1 < c:
                edges.append((i * c + j, i * c + j + 1))
            if i + 1 < r:
                edges.append((i * c + j, (i + 1) * c + j))
    return DecrementalGraph.from_edge_list(r * c, edges)


def gnm_graph(n: int, m: int, seed=0) -> DecrementalGraph:
    """Uniform random simple graph with n >= 1 nodes and m >= 0 edges."""
    if n < 1 or m < 0:
        raise ConfigInvalid(f"need n >= 1 and m >= 0, got n={n}, m={m}")
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
                for z in sorted(work.neighbors(y)):
                    if z not in parent:
                        parent[z] = y
                        nxt.append(z)
            if nxt:
                far = nxt[-1]
            frontier = nxt
        # cur has an edge, so far != cur and the walk ends at a child of cur
        node = far
        while parent[node] != cur:
            node = parent[node]
        work.delete_edge(cur, node)
        out.append((cur, node))
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


def _fail(cfg: ExperimentConfig, version: int, detail: dict,
          structure=None) -> AuditFailure:
    """The audit failure at ``version``, with ``structure.stats()`` if given."""
    bundle = {"config": asdict(cfg), "version": version, "detail": detail}
    if structure is not None:
        bundle["stats"] = structure.stats()
    return AuditFailure(f"audit failed at version {version}: {detail}", bundle)


def _audit_answers(cfg: ExperimentConfig, version: int, structure, query, truth,
                   checks) -> None:
    """Query each pair x < y once with ``structure``'s ``query`` and check
    the answers against ``truth`` with ``check_stretch``, once per (alpha,
    beta, distance_range) in ``checks``. Raises the audit failure of the
    first failing pair; its detail is the pair's failure record."""
    n = len(truth)
    estimates = np.array(truth)  # the pairs not queried pass as exact
    for x in range(n):
        for y in range(x + 1, n):
            estimates[x, y] = query(x, y)
    for alpha, beta, distance_range in checks:
        context = {"alpha": alpha, "beta": beta, "distance_range": distance_range}
        report = check_stretch(estimates, truth, alpha, beta, distance_range, context)
        if not report.passed:
            raise _fail(cfg, version, report.failures[0], structure)


def run_es_tree(cfg: ExperimentConfig, g: DecrementalGraph, trace: DeletionTrace):
    n = g.n
    Q = n if cfg.Q is None else cfg.Q
    tree = EsTree(g, cfg.root, Q)
    oracle = NumpyBfsOracle(g) if cfg.audit != "none" else None
    rows = []
    for i, (u, v) in enumerate(trace, start=1):
        g.delete_edge(u, v)
        tree.after_delete(u, v)
        if oracle is not None:
            oracle.note_delete(u, v)
            truth = oracle.levels(cfg.root)
            want = np.where(truth <= Q, truth, np.inf)
            got = np.array(tree.levels(), dtype=float)
            if not np.array_equal(got, want):
                bad = int(np.nonzero(got != want)[0][0])
                raise _fail(cfg, i, {"node": bad, "level": float(got[bad]),
                                     "distance": float(want[bad])}, tree)
        rows.append(tree.stats())
    work_constant = tree.stats()["ops"] / max(1, g.m0 * Q)
    return rows, {"work_constant": work_constant, "work_bound_ok": work_constant <= 16}


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
            # the patch answers exactly within its range
            _audit_answers(cfg, i, index, index.query, truth,
                           [(1 + cfg.eps, SLACK, INF), (1, 0, index.patch_range)])
        if cfg.audit == "full":
            detail = audit_det_cover(index, truth)
            if detail:
                raise _fail(cfg, i, detail, index)
        rows.append(index.stats())
    ledger = {}
    for p, layer in enumerate(index.layers):
        ledger[f"layer{p}"] = {
            "q": layer.cover_radius, "opens": layer.opens,
            "opens_bound_ok": layer.opens <= 2 * n / layer.cover_radius,
            "moving_distance": layer.moving_distance,
            "moving_bound_ok": layer.moving_distance <= n,
        }
    return rows, {"bound_ledger": ledger}


def audit_det_cover(index: ApspIndexDet, truth: np.ndarray) -> dict | None:
    """Recompute the cover ledger; None when everything holds, else the
    first failure's layer, center or node, and reason. ``truth`` is the
    oracle's distance matrix of the index's graph as it stands: ball B^j
    holds the nodes with 2 * dist <= radius2[j] from center j, and a row's
    finite entries count its node's component. The cover radius is checked
    on the trees' own distances."""
    n = index.g.n
    sizes = np.isfinite(truth).sum(axis=1)
    for p, layer in enumerate(index.layers):
        q_p = layer.cover_radius
        seen: set[int] = set()
        for j, c in enumerate(layer.centers):
            if layer.radius2[j] != q_p - 2 * len(layer.collected[j]):
                return {"layer": p, "center": j, "reason": "radius formula"}
            ball = set(np.flatnonzero(2 * truth[c] <= layer.radius2[j]).tolist())
            if ball & layer.collected[j]:
                return {"layer": p, "center": j, "reason": "ball meets collected set"}
            both = ball | layer.collected[j]
            if both & seen:
                return {"layer": p, "center": j, "reason": "disjointness"}
            seen |= both
            if 2 * len(both) < q_p:
                return {"layer": p, "center": j, "reason": "largeness"}
        if layer.opens > 2 * n / q_p:
            return {"layer": p, "reason": "opens bound"}
        if layer.moving_distance > n:
            return {"layer": p, "reason": "moving distance bound"}
        for x in range(n):
            j = layer.find_center(x)
            if j is None:
                if sizes[x] >= q_p:
                    return {"layer": p, "node": x, "reason": "coverage"}
            elif layer.distance(j, x) > q_p:
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
                    raise _fail(cfg, i, {"layer": p, "reason": "cover list grew"}, index)
                cover_sizes[p] = sizes
        if oracle is not None:
            oracle.note_delete(u, v)
            _audit_answers(cfg, i, index, index.query_1eps2, oracle.apsp(),
                           [(1 + cfg.eps, 2 + SLACK, INF)])
        rows.append(index.stats())
    summary = {"emulator_edges_ever": index.emulator.edges_ever}
    if keep_h:
        ok, cex = check_locally_persevering(
            n, initial_edges, list(trace), h_snapshots, 1, 2, index.emulator.tau)
        if not ok:
            raise _fail(cfg, cex["time"], {"check": "locally persevering", **cex})
        summary["locally_persevering"] = True
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
            _audit_answers(cfg, i, fd, fd.query, NumpyBfsOracle(check).apsp(),
                           [(1 + cfg.eps, SLACK, INF)])
        rows.append(fd.stats())
    return rows, {}


ALGORITHMS = {
    "es_tree": run_es_tree,
    "det_apsp": run_det_apsp,
    "rand_apsp": run_rand_apsp,
    "fully_dynamic": run_fully_dynamic,
}


# -- experiment driver -----------------------------------------------------


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
        "maxima": {key: max((r[key] for r in rows), default=0) for key in CSV_COUNTERS},
    }
    summary.update(extra)
    if cfg.out:
        os.makedirs(cfg.out, exist_ok=True)
        csv_path = os.path.join(cfg.out, "results.csv")
        with open(csv_path, "w", encoding="ascii", newline="\n") as fh:
            fh.write(CSV_SCHEMA + "\n")
            fh.write(CSV_HEADER + "\n")
            # every counter is an int; a failing run raised above and wrote no row
            for i, r in enumerate(rows, start=1):
                counts = ",".join(str(r[key]) for key in CSV_COUNTERS)
                fh.write(f"{i},{cfg.algorithm},{counts}\n")
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


def _generator(args) -> str | None:
    """The generator spec of ``--path`` or ``--grid``; both is a config
    error, and ``build_graph`` rejects a size below 1."""
    if args.path is not None and args.grid is not None:
        raise ConfigInvalid("give at most one of --path and --grid")
    if args.path is not None:
        return f"path:{args.path}"
    if args.grid is not None:
        return f"grid:{args.grid[0]}:{args.grid[1]}"
    return None


def _config_from_args(args) -> ExperimentConfig:
    return ExperimentConfig(
        algorithm=args.algo,
        graph=args.graph,
        gnm=tuple(args.gnm) if args.gnm else None,
        generator=_generator(args),
        trace=args.trace,
        trace_order=args.order,
        eps=args.eps,
        phase_t=args.phase_t,
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
        p.add_argument("--Q", type=int, help="es_tree: depth bound (default n)")
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
                                   generator=_generator(args), seed=args.seed)
            cfg.validate()
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
