"""Fully dynamic wrapper and the experiment harness.

Phase-based reduction: every t updates the deterministic decremental index is
rebuilt; in between, star insertions live in the true graph and queries patch
through the insertion centers. The harness runs audited experiments and
writes CSV/JSON reports; the same interface backs the `decaps` CLI
(subcommands gen / run / audit).
"""

import json
import math
import tempfile
from pathlib import Path

from decaps import DecrementalGraph, ExperimentConfig, FullyDynamicApsp, run_experiment


def main():
    g = DecrementalGraph.from_edge_list(8, [(0, 1), (1, 2), (5, 6), (6, 7)])
    fd = FullyDynamicApsp(g, eps=0.5, t=math.ceil(math.sqrt(8)))
    print("two components; query(0, 7) =", fd.query(0, 7))
    fd.insert_star(4, [(4, 2), (4, 5)])
    print("insert star at 4 bridging them; query(0, 7) =", fd.query(0, 7))
    fd.delete_set([(4, 5)])
    print("delete (4, 5) again; query(0, 7) =", fd.query(0, 7))

    with tempfile.TemporaryDirectory() as tmp:
        cfg = ExperimentConfig(algorithm="det_apsp", gnm=(16, 40), eps=0.5,
                               seed=12, audit="full", out=tmp)
        summary = run_experiment(cfg)
        print(f"\nharness det_apsp run: {summary['rows']} deletions audited")
        ledger = summary["bound_ledger"]
        for layer, entry in ledger.items():
            print(f"  {layer}: q={entry['q']} opens={entry['opens']} "
                  f"(bound ok: {entry['opens_bound_ok']}), "
                  f"M={entry['moving_distance']} (bound ok: {entry['moving_bound_ok']})")
        csv_head = Path(tmp, "results.csv").read_text().splitlines()[:4]
        print("results.csv head:", *csv_head, sep="\n  ")


if __name__ == "__main__":
    main()
