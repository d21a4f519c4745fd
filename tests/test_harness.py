import csv
import json

import pytest

from decaps.deterministic_apsp import ApspIndexDet
from decaps.errors import AuditFailure, ConfigInvalid
from decaps.graph_core import DecrementalGraph, read_edge_list, read_trace
from decaps.harness import (
    ExperimentConfig,
    build_graph,
    generate_mixed_updates,
    generate_trace,
    gnm_graph,
    main,
    run_experiment,
)


def test_gnm_graph_deterministic():
    a = gnm_graph(20, 40, seed=5)
    b = gnm_graph(20, 40, seed=5)
    assert a.edges() == b.edges()
    assert a.m == 40


def test_generate_trace_random_permutation():
    g = gnm_graph(12, 24, seed=1)
    t1 = generate_trace(g, "random", seed=7)
    t2 = generate_trace(g, "random", seed=7)
    assert list(t1) == list(t2)
    assert len(t1) == 24
    assert sorted(t1) == g.edges()


def test_generate_trace_path_peel():
    g = DecrementalGraph.from_edge_list(5, [(i, i + 1) for i in range(4)])
    trace = generate_trace(g, "adversarial-path-peel", seed=0, root=0)
    assert trace[0] == (0, 1)
    assert len(trace) == 4
    # replay must be legal
    g.apply_trace(trace)
    assert g.m == 0


def test_path_peel_maximizes_level_churn():
    from decaps.es_tree import EsTree

    def churn(order):
        g = DecrementalGraph.from_edge_list(5, [(i, i + 1) for i in range(4)])
        t = EsTree(g, 0, 5)
        for u, v in order:
            g.delete_edge(u, v)
            t.after_delete(u, v)
        return t.level_increases

    g = DecrementalGraph.from_edge_list(5, [(i, i + 1) for i in range(4)])
    peel = list(generate_trace(g, "adversarial-path-peel", seed=0, root=0))
    reverse = list(reversed(peel))
    assert churn(peel) >= churn(reverse)


def test_generate_mixed_updates_deterministic():
    g = gnm_graph(10, 20, seed=2)
    a = generate_mixed_updates(g, 10, seed=3)
    b = generate_mixed_updates(g, 10, seed=3)
    assert a == b


def test_config_validation():
    with pytest.raises(ConfigInvalid):
        run_experiment(ExperimentConfig(algorithm="nope", gnm=(4, 3)))
    with pytest.raises(ConfigInvalid):
        run_experiment(ExperimentConfig(algorithm="es_tree"))
    with pytest.raises(ConfigInvalid):
        run_experiment(ExperimentConfig(algorithm="es_tree", gnm=(4, 3),
                                        graph="x.txt"))
    with pytest.raises(ConfigInvalid):
        run_experiment(ExperimentConfig(algorithm="det_apsp", gnm=(100, 200),
                                        audit="full"))


def test_run_experiment_csv_bit_exact(tmp_path):
    for algorithm in ("det_apsp", "rand_apsp", "fully_dynamic"):
        out1 = tmp_path / algorithm / "a"
        out2 = tmp_path / algorithm / "b"
        for out in (out1, out2):
            # phase_t only applies to fully_dynamic: rebuilds every 3 updates
            cfg = ExperimentConfig(algorithm=algorithm, gnm=(14, 30), eps=0.5,
                                   seed=9, audit="full", out=str(out), phase_t=3)
            summary = run_experiment(cfg)
            assert summary["audit_pass"]
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()
        header = (out1 / "results.csv").read_text().splitlines()
        assert header[0] == "#schema=1"
        # the rows carry the trees' cumulative work, level increases and
        # ops; fully_dynamic's counts the indexes of earlier phases too
        rows = list(csv.DictReader(header[1:]))
        for column in ("level_increases", "heap_ops"):
            work = [int(r[column]) for r in rows]
            assert work == sorted(work) and work[-1] > 0


def test_run_experiment_es_tree_work_summary(tmp_path):
    cfg = ExperimentConfig(algorithm="es_tree", gnm=(20, 50), Q=6, seed=4,
                           audit="stretch", out=str(tmp_path / "es"))
    summary = run_experiment(cfg)
    assert summary["work_bound_ok"]
    assert summary["work_constant"] <= 16


def test_run_experiment_rand_apsp_full_audit_small():
    cfg = ExperimentConfig(algorithm="rand_apsp", gnm=(10, 18), eps=1.0,
                           seed=11, audit="full")
    summary = run_experiment(cfg)
    assert "locally_persevering" in summary


def test_run_experiment_fully_dynamic():
    cfg = ExperimentConfig(algorithm="fully_dynamic", gnm=(10, 20), eps=0.5,
                           phase_t=2, seed=3, updates=8, audit="stretch")
    summary = run_experiment(cfg)
    assert summary["audit_pass"]


def test_broken_estimator_trips_audit(tmp_path, monkeypatch):
    # fault injection: corrupt the deterministic index's answers
    real_query = ApspIndexDet.query

    def broken(self, x, y):
        est = real_query(self, x, y)
        return est - 1 if est not in (0,) and est != float("inf") else est

    monkeypatch.setattr(ApspIndexDet, "query", broken)
    cfg = ExperimentConfig(algorithm="det_apsp", gnm=(12, 26), eps=0.5,
                           seed=1, audit="stretch", out=str(tmp_path / "bad"))
    with pytest.raises(AuditFailure) as info:
        run_experiment(cfg)
    assert info.value.bundle["config"]["algorithm"] == "det_apsp"
    bundle_path = tmp_path / "bad" / "replay_bundle.json"
    assert bundle_path.exists()
    assert json.loads(bundle_path.read_text())["version"] >= 1


def test_cli_gen_and_run(tmp_path):
    gpath = tmp_path / "g.txt"
    tpath = tmp_path / "t.txt"
    rc = main(["gen", "--gnm", "12", "24", "--seed", "2",
               "--out", str(gpath), "--trace-out", str(tpath)])
    assert rc == 0
    g = read_edge_list(str(gpath))
    assert g.n == 12 and g.m == 24
    assert len(read_trace(str(tpath))) == 24

    rc = main(["run", "--algo", "es_tree", "--graph", str(gpath),
               "--trace", str(tpath), "--Q", "4", "--audit", "stretch",
               "--out", str(tmp_path / "run")])
    assert rc == 0

    rc = main(["audit", "--algo", "det_apsp", "--gnm", "10", "20",
               "--seed", "5", "--eps", "0.5"])
    assert rc == 0


def test_cli_exit_codes(tmp_path, monkeypatch):
    # config error: no graph source
    assert main(["run", "--algo", "es_tree"]) == 3
    # audit failure path
    real_query = ApspIndexDet.query

    def broken(self, x, y):
        est = real_query(self, x, y)
        return est - 1 if est != 0 and est != float("inf") else est

    monkeypatch.setattr(ApspIndexDet, "query", broken)
    rc = main(["run", "--algo", "det_apsp", "--gnm", "12", "24",
               "--seed", "1", "--eps", "0.5"])
    assert rc == 2


def test_build_graph_generators():
    cfg = ExperimentConfig(algorithm="es_tree", generator="path:6")
    g = build_graph(cfg)
    assert g.n == 6 and g.m == 5
    cfg = ExperimentConfig(algorithm="es_tree", generator="grid:3:4")
    g = build_graph(cfg)
    assert g.n == 12 and g.m == 3 * 3 + 2 * 4  # 17 grid edges
