"""decaps benchmark: closed-loop update/query runs of the APSP indexes.

Usage, from the repository root::

    python3 perfbench/run.py --workload det-gnm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One caller applies an update, then issues the workload's query pairs, and
repeats. ``--trace 0`` runs rounds (a fresh index on the seed's inputs each)
until ``--seconds`` would be exceeded and reports the end-to-end metrics,
rescaled to a nominal machine speed by ``speed.SpeedProbe`` (see README).
``--trace 1`` runs one round once untraced and once traced and reports the
per-layer metrics; its spans go to ``perfbench/out/``. Every answer is checked
against a BFS on a separately kept truth graph, outside the timed regions.
The last line of standard output is one JSON object. ``--workload all`` runs
each workload in its own process and prints a table.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "decaps" / "__init__.py").is_file():
    sys.exit(f"decaps sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from decaps.oracle import bfs_levels  # noqa: E402

from speed import NOMINAL_S, SpeedProbe, local_speed  # noqa: E402
from tracer import (  # noqa: E402
    QUERY, UPDATE, Tracer, index_structure, layer_metrics, wrapper_residual)
from workloads import WORKLOADS, fresh_graph  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "updates_per_s": "1/s",
    "update_p50_ms": "ms",
    "update_p95_ms": "ms",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "peak_rss_mb": "MB",
}

SETUP_PROBES = 9    # probe runs before and after the constructor
PROBE_WINDOW = 1    # probe times each side of an update that set its scale


class RoundResult:
    def __init__(self):
        self.setup_s = 0.0
        # Flat arrays, not lists of float objects: a run keeps every
        # round's times, and peak_rss_mb should not grow with the rounds.
        self.update_s = array("d")
        self.query_s = array("d")
        self.query_step = array("i")   # the update each query follows
        self.probe_s = array("d")      # see run_round
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 5:
            self.failures.append(what)


def run_round(wl, inp, tracer: Tracer | None = None, probe: SpeedProbe | None = None):
    """Build one index on ``inp`` and run its updates and queries.

    With a ``probe``, ``res.probe_s`` gets a probe time before the
    constructor and one after it and after each update's queries: update i
    runs between ``probe_s[i + 1]`` and ``probe_s[i + 2]``.
    """
    res = RoundResult()
    truth = fresh_graph(inp)
    g = fresh_graph(inp)
    gc.collect()
    if tracer is not None:
        tracer.cause_id = -1
    if probe is not None:
        res.probe_s.append(probe.sample(SETUP_PROBES))
    t0 = perf_counter()
    index = wl.build(g)
    res.setup_s = perf_counter() - t0
    if probe is not None:
        res.probe_s.append(probe.sample(SETUP_PROBES))
    structure = index_structure(index, built=True) if tracer is not None else {}
    methods = wl.query_methods(index)
    update_id = tracer.name_id(UPDATE) if tracer is not None else 0
    query_id = tracer.name_id(QUERY) if tracer is not None else 0
    ident = 0
    for step, update in enumerate(inp.updates):
        res.attempted += 1
        if tracer is not None:
            tracer.cause_id = ident
            span = tracer.begin(update_id)
        t0 = perf_counter()
        try:
            wl.apply(index, update)
        except Exception as exc:  # the index rejected a valid update
            res.fail(f"update {step} {update!r} raised {exc!r}")
            break
        finally:
            res.update_s.append(perf_counter() - t0)
            if tracer is not None:
                tracer.finish(span)
        ident += 1
        answers = []
        calls = [(x, y, m) for x, y in inp.pairs[step] for m in methods]
        # The first call of each method after an update refills the caches
        # the update evicted; that cost follows the host's memory traffic
        # more than the index. Those calls run once more before the timed
        # ones and are left out of the query latencies (not of the trace).
        warm = len(methods)
        for i, (x, y, (name, call, bound)) in enumerate(calls[:warm] + calls):
            res.attempted += 1
            if tracer is not None:
                tracer.cause_id = ident
                span = tracer.begin(query_id)
            t0 = perf_counter()
            try:
                ans = call(x, y)
            except Exception as exc:
                ans = exc
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.finish(span)
            if i >= warm:
                res.query_s.append(elapsed)
                res.query_step.append(step)
            ident += 1
            answers.append((name, x, y, bound, ans))
        truth = wl.advance_truth(truth, update)
        dist = {}
        for name, x, y, bound, ans in answers:
            if x not in dist:
                dist[x] = bfs_levels(truth, x)
            d = dist[x][y]
            if isinstance(ans, Exception):
                res.fail(f"{name}({x}, {y}) after update {step} raised {ans!r}")
            elif not d <= ans <= bound(d) + 1e-9:
                res.fail(f"{name}({x}, {y}) after update {step} = {ans}, distance {d}")
        if probe is not None:
            res.probe_s.append(probe.sample())
    if tracer is not None:
        tracer.cause_id = -1
        structure.update(index_structure(index, built=False))
    return res, structure


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def rescaled(res: RoundResult):
    """The round's setup, update and query times at the probe's nominal speed."""
    probe = res.probe_s
    scale = [NOMINAL_S / local_speed(probe, i + 1, i + 3, PROBE_WINDOW)
             for i in range(len(res.update_s))]
    setup = res.setup_s * NOMINAL_S / statistics.median(probe[:2])
    updates = [t * k for t, k in zip(res.update_s, scale)]
    queries = [t * scale[i] for t, i in zip(res.query_s, res.query_step)]
    return setup, updates, queries


def metrics_of(setups, updates, queries) -> dict:
    return {
        "setup_s": statistics.median(setups),
        "updates_per_s": len(updates) / sum(updates),
        "update_p50_ms": 1e3 * statistics.median(updates),
        "update_p95_ms": 1e3 * percentile(updates, 95),
        "query_p50_us": 1e6 * statistics.median(queries),
        "query_p99_us": 1e6 * percentile(queries, 99),
    }


def end_to_end(rounds, peak_rss_mb: float) -> tuple[dict, dict]:
    """Metrics from rescaled times, and the same from wall times.

    Every round repeats the same operations, so each operation's time is its
    median over the rounds; percentiles are taken over operations.
    """
    def per_op(lists):
        return [statistics.median(ts) for ts in zip(*lists)]

    scaled = [rescaled(r) for r in rounds]
    metrics = metrics_of([s[0] for s in scaled], per_op(s[1] for s in scaled),
                         per_op(s[2] for s in scaled))
    wall = metrics_of([r.setup_s for r in rounds], per_op(r.update_s for r in rounds),
                      per_op(r.query_s for r in rounds))
    metrics["peak_rss_mb"] = peak_rss_mb
    return metrics, wall


def measure(wl, seed: int, seconds: float):
    inp = wl.inputs(seed)
    probe = SpeedProbe()
    rounds = []
    began = perf_counter()
    while True:
        res, _ = run_round(wl, inp, probe=probe)
        rounds.append(res)
        elapsed = perf_counter() - began
        if res.failed or elapsed * (len(rounds) + 1) / len(rounds) > seconds:
            return rounds


def traced(wl, seed: int):
    inp = wl.inputs(seed)
    plain, _ = run_round(wl, inp)
    residual = wrapper_residual()
    tracer = Tracer()
    tracer.install()
    try:
        res, structure = run_round(wl, inp, tracer)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, structure, residual)
    metrics["bench.trace_overhead_s"] = (
        sum(res.update_s) + sum(res.query_s) - sum(plain.update_s) - sum(plain.query_s))
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    tracer.save(out / f"spans-{wl.name}-seed{seed}.npz")
    return [plain, res], metrics


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def run_one(args) -> int:
    wl = WORKLOADS[args.workload]
    wall = {}
    if args.trace:
        rounds, metrics = traced(wl, args.seed)
    else:
        rounds = measure(wl, args.seed, args.seconds)
        # read before end_to_end: its lists of every round's rescaled
        # times are the benchmark's, not the workload's
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics, wall = end_to_end(rounds, peak_rss_mb)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    updates = min(len(r.update_s) for r in rounds)
    queries = min(len(r.query_s) for r in rounds)
    print(f"workload {wl.name} seed {args.seed} rounds {len(rounds)} "
          f"updates {updates} queries {queries} per round")
    for r in rounds:
        for line in r.failures:
            print(f"FAILED {line}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {unit_of(name)}")
    for name, value in wall.items():
        print(f"wall {name} {value:.6g} {unit_of(name)}")
    if not args.trace:
        probes = [t for r in rounds for t in r.probe_s]
        print(f"probe median {1e3 * statistics.median(probes):.6g} ms, "
              f"min {1e3 * min(probes):.6g}, max {1e3 * max(probes):.6g}, "
              f"nominal {1e3 * NOMINAL_S:.6g}")
        print(f"update_p95_ms samples {updates}, beyond {updates - math.ceil(0.95 * updates)}")
        print(f"query_p99_us samples {queries}, beyond {queries - math.ceil(0.99 * queries)}")
    print(f"wrong_answer_frac {failed / attempted:.6g} ratio ({failed} of {attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak RSS is its own."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1])
    names = list(next(iter(results.values()))["metrics"])
    width = max(len(n) for n in names)
    print(f"{'metric':<{width}}  " + "  ".join(f"{w:>13}" for w in results))
    for metric in names:
        unit = unit_of(metric)
        row = "  ".join(f"{r['metrics'][metric]['value']:>13.6g}" for r in results.values())
        print(f"{metric:<{width}}  {row}  {unit}")
    fracs = "  ".join(f"{r['failed'] / r['attempted']:>13.6g}" for r in results.values())
    print(f"{'wrong_answer_frac':<{width}}  {fracs}  ratio")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
