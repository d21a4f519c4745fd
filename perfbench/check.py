"""Self-checks of the benchmark, run from the repository root.

    python3 perfbench/check.py repeat [WORKLOAD ...]
    python3 perfbench/check.py spread --seeds 10 [WORKLOAD ...]

``repeat`` runs the traced benchmark twice with seed 1 and requires every
count metric (calls, level increases, events, opens, moving distance, ...)
to be identical: they are deterministic, so later changes can be gated on
them. ``spread`` runs the untraced benchmark on several seeds and prints, for
each end-to-end metric, the median and the interquartile range as a share of
the median, next to the metric's bound in BENCHMARK.json. Seeds start at 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed\n{proc.stdout}")
    return result


def repeat(args) -> int:
    bad = 0
    for workload in args.workloads or WORKLOADS:
        first, second = (bench(workload, 1, 1, 1)["metrics"] for _ in range(2))
        counts = [k for k, v in first.items() if v["unit"] == "count"]
        diff = [k for k in counts if first[k]["value"] != second[k]["value"]]
        print(f"{workload}: {len(counts) - len(diff)} of {len(counts)} counters repeat")
        for k in diff:
            print(f"  {k}: {first[k]['value']} != {second[k]['value']}")
        bad += len(diff)
    return 1 if bad else 0


def spread(args) -> int:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    worst = 0.0
    for workload in args.workloads or WORKLOADS:
        runs = [bench(workload, seed, SPEC["run_seconds"], 0)["metrics"]
                for seed in range(1, args.seeds + 1)]
        print(f"{workload}  (seeds 1..{args.seeds})")
        for name, bound in bounds.items():
            values = [r[name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / med
            worst = max(worst, share / bound)
            print(f"  {name:<15} median {med:<12.6g} iqr/median {share:.4f}  "
                  f"bound {bound}  values {' '.join(f'{v:.4g}' for v in values)}")
    print(f"largest spread as a share of its bound: {worst:.3f}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("repeat")
    r.add_argument("workloads", nargs="*")
    s = sub.add_parser("spread")
    s.add_argument("--seeds", type=int, default=10)
    s.add_argument("workloads", nargs="*")
    args = parser.parse_args(argv)
    return repeat(args) if args.cmd == "repeat" else spread(args)


if __name__ == "__main__":
    sys.exit(main())
