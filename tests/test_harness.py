import csv
import hashlib
import json

import pytest

from decaps.deterministic_apsp import ApspIndexDet
from decaps.errors import AuditFailure, ConfigInvalid
from decaps.es_tree import EsTree
from decaps.fully_dynamic import FullyDynamicApsp
from decaps.graph_core import INF, DecrementalGraph, read_edge_list, read_trace
from decaps.harness import (
    CSV_COUNTERS,
    ExperimentConfig,
    audit_det_cover,
    build_graph,
    generate_mixed_updates,
    generate_trace,
    gnm_graph,
    main,
    run_experiment,
)
from decaps.oracle import bfs_apsp
from decaps.randomized_apsp import ApspIndexRandom


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
    for u, v in trace:
        g.delete_edge(u, v)
    assert g.m == 0
    # each pair is the root-side edge of a shortest path from the current
    # root: the first pairs of the 6x6 grid peel
    grid = build_graph(ExperimentConfig(algorithm="det_apsp", generator="grid:6:6"))
    assert list(generate_trace(grid, "adversarial-path-peel"))[:8] == [
        (0, 1), (0, 6), (1, 2), (1, 7), (2, 3), (2, 8), (3, 9), (3, 4)]
    # isolated nodes, the root among them, are passed over
    sparse = DecrementalGraph.from_edge_list(9, [(1, 2), (2, 3), (3, 4), (2, 5), (6, 7)])
    assert list(generate_trace(sparse, "adversarial-path-peel")) == [
        (1, 2), (2, 3), (2, 5), (3, 4), (6, 7)]
    assert list(generate_trace(sparse, "adversarial-path-peel", root=3)) == [
        (3, 2), (3, 4), (1, 2), (2, 5), (6, 7)]


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
    for generator in ("path:0", "grid:3:0", "ring:4", "grid:3", "path:3:4", "path:x", "path:"):
        with pytest.raises(ConfigInvalid):
            run_experiment(ExperimentConfig(algorithm="fully_dynamic", generator=generator))
    for gnm in ((5, -3), (0, 0), (-2, 0)):
        with pytest.raises(ConfigInvalid):
            run_experiment(ExperimentConfig(algorithm="det_apsp", gnm=gnm, audit="none"))
    # fully_dynamic runs mixed updates and would leave a trace file unread
    with pytest.raises(ConfigInvalid):
        run_experiment(ExperimentConfig(algorithm="fully_dynamic", gnm=(5, 4),
                                        trace="/nonexistent", audit="none"))
    # Q is read by es_tree only, updates by fully_dynamic only
    for algorithm in ("det_apsp", "rand_apsp", "fully_dynamic"):
        with pytest.raises(ConfigInvalid):
            run_experiment(ExperimentConfig(algorithm=algorithm, gnm=(5, 4), Q=3,
                                            audit="none"))
    for algorithm in ("es_tree", "det_apsp", "rand_apsp"):
        with pytest.raises(ConfigInvalid):
            run_experiment(ExperimentConfig(algorithm=algorithm, gnm=(5, 4), updates=7,
                                            audit="none"))


# sha256 of each algorithm's results.csv below: any change to a counter or
# to the file's format shows here, not only a change between two runs
CSV_SHA256 = {
    "es_tree": "9deebcb7f308c690b737f92d095eb157ec26db2e49960a8d61e682cd697dc6df",
    "det_apsp": "11c1c36ed53489fe8bc5f5ff4602e2af531d614653378b7abe8904c208b2ffdc",
    "rand_apsp": "eeb1c7eeea0c90206de838559c148594b5d60b38b7b3db6d1310dd15fdea259a",
    "fully_dynamic": "ce31f601ec3619570f4ea60d5fbce493d992ca2dbb633297a112a31bb1f1aef9",
}


def test_run_experiment_csv_bit_exact(tmp_path):
    for algorithm, digest in CSV_SHA256.items():
        out1 = tmp_path / algorithm / "a"
        out2 = tmp_path / algorithm / "b"
        for out in (out1, out2):
            # phase_t only applies to fully_dynamic: rebuilds every 3 updates
            cfg = ExperimentConfig(algorithm=algorithm, gnm=(14, 30), eps=0.5,
                                   seed=9, audit="full", out=str(out), phase_t=3)
            run_experiment(cfg)
        data = (out1 / "results.csv").read_bytes()
        assert data == (out2 / "results.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest
        header = (out1 / "results.csv").read_text().splitlines()
        assert header[0] == "#schema=2"
        # the rows carry the trees' cumulative work, level increases and
        # ops; fully_dynamic's counts the indexes of earlier phases too
        rows = list(csv.DictReader(header[1:]))
        for column in ("level_increases", "ops"):
            work = [int(r[column]) for r in rows]
            assert work == sorted(work) and work[-1] > 0


# the keys of each algorithm's summary.json: each fact once, under one name
SUMMARY_KEYS = {
    "es_tree": {"config", "rows", "maxima", "work_constant", "work_bound_ok"},
    "det_apsp": {"config", "rows", "maxima", "bound_ledger"},
    # 14 nodes are past the 12-node Definition-8 cap: no locally_persevering
    "rand_apsp": {"config", "rows", "maxima", "emulator_edges_ever"},
    "fully_dynamic": {"config", "rows", "maxima"},
}


@pytest.mark.parametrize("algorithm", sorted(SUMMARY_KEYS))
def test_reports_hold_each_fact_once(tmp_path, algorithm):
    cfg = ExperimentConfig(algorithm=algorithm, gnm=(14, 30), eps=0.5, seed=9,
                           audit="full", out=str(tmp_path), phase_t=3)
    run_experiment(cfg)
    lines = (tmp_path / "results.csv").read_text().splitlines()
    assert lines[1] == "version,algorithm," + ",".join(CSV_COUNTERS)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == SUMMARY_KEYS[algorithm]
    # the counters are cumulative, so the last row holds the maxima
    last = list(csv.DictReader(lines[1:]))[-1]
    assert {key: int(last[key]) for key in CSV_COUNTERS} == summary["maxima"]


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
    assert summary["locally_persevering"] is True


def test_run_experiment_fully_dynamic():
    cfg = ExperimentConfig(algorithm="fully_dynamic", gnm=(10, 20), eps=0.5,
                           phase_t=2, seed=3, updates=8, audit="stretch")
    summary = run_experiment(cfg)
    assert summary["rows"] == 8


def _low(self, est):
    return est - 1 if est != 0 and est != INF else est


def _high(self, est):
    return 2 * est + 3 if est != 0 and est != INF else est


def _inexact_patch(self, est):
    # within (1+eps)*d at eps 0.5, but not exact within the patch range
    return est + 1 if 2 <= est <= self.patch_range else est


# fault injection: each runner's audited query, answering too low, too high,
# and (deterministic only) inexactly where the patch must be exact
BROKEN = [("det_apsp", ApspIndexDet, "query", _low),
          ("det_apsp", ApspIndexDet, "query", _high),
          ("det_apsp", ApspIndexDet, "query", _inexact_patch),
          ("rand_apsp", ApspIndexRandom, "query_1eps2", _low),
          ("rand_apsp", ApspIndexRandom, "query_1eps2", _high),
          ("fully_dynamic", FullyDynamicApsp, "query", _low),
          ("fully_dynamic", FullyDynamicApsp, "query", _high)]


@pytest.mark.parametrize("algorithm, cls, name, corrupt", BROKEN,
                         ids=[f"{a}-{c.__name__.strip('_')}" for a, _, _, c in BROKEN])
def test_broken_estimator_trips_audit(tmp_path, monkeypatch, algorithm, cls, name, corrupt):
    real = getattr(cls, name)
    answers = {}  # the corrupted answers of the latest version

    def broken(self, x, y):
        est = answers[x, y] = corrupt(self, real(self, x, y))
        return est

    monkeypatch.setattr(cls, name, broken)
    cfg = ExperimentConfig(algorithm=algorithm, gnm=(12, 26), eps=0.5, seed=1,
                           phase_t=2, audit="stretch", out=str(tmp_path / "bad"))
    with pytest.raises(AuditFailure) as info:
        run_experiment(cfg)
    bundle = info.value.bundle
    assert bundle["config"]["algorithm"] == algorithm
    bundle_path = tmp_path / "bad" / "replay_bundle.json"
    assert bundle_path.exists()
    assert json.loads(bundle_path.read_text())["version"] == bundle["version"] >= 1
    # the detail names the failing pair: its answer, its distance, its bound
    detail = bundle["detail"]
    assert set(detail) == {"pair", "dist", "estimate", "bound", "context"}
    x, y = detail["pair"]
    assert x < y and detail["estimate"] == answers[x, y]
    d, est = detail["dist"], detail["estimate"]
    if corrupt is _low:
        assert est < d
    elif corrupt is _high:
        assert est > detail["bound"] == detail["context"]["alpha"] * d + detail["context"]["beta"]
    else:
        # only the second check, exact within the patch range, catches it
        assert d < est <= 1.5 * d and detail["context"]["distance_range"] >= d
        assert (detail["context"]["alpha"], detail["context"]["beta"]) == (1, 0)
    # the bundle carries the structure's stats() at the failing version: the
    # counters a run without the audit writes in that row of results.csv
    assert json.loads(bundle_path.read_text())["stats"] == bundle["stats"]
    cfg.audit, cfg.out = "none", str(tmp_path / "good")
    run_experiment(cfg)
    lines = (tmp_path / "good" / "results.csv").read_text().splitlines()
    row = list(csv.DictReader(lines[1:]))[bundle["version"] - 1]
    assert {key: int(row[key]) for key in CSV_COUNTERS} == {
        key: bundle["stats"][key] for key in CSV_COUNTERS}


def _radius_off(layer):
    layer.radius2[0] += 2


def _ball_in_collected(layer):
    # the formula still holds; the center's own node is in its ball
    layer.collected[0].add(layer.location(0))
    layer.radius2[0] -= 2


def _uncovered(layer):
    layer._cover[layer.location(0)].clear()


def _far_center(layer):
    rho = layer.cover_radius
    x = next(x for x in range(layer.g.n) if layer.distance(1, x) > rho)
    layer._cover[x] = {1: True}


# fault injection: each corrupts the ledger of the q = 4 layer in one way
LEDGER = [(_radius_off, "radius formula"),
          (_ball_in_collected, "ball meets collected set"),
          (_uncovered, "coverage"),
          (_far_center, "cover radius")]


@pytest.mark.parametrize("corrupt, reason", LEDGER,
                         ids=[c.__name__.strip("_") for c, _ in LEDGER])
def test_corrupted_ledger_trips_audit(corrupt, reason):
    g = gnm_graph(40, 80, seed=0)
    idx = ApspIndexDet(g, 1.0)
    truth = bfs_apsp(g)
    assert audit_det_cover(idx, truth) is None
    layer = idx.layers[2]
    assert layer.cover_radius == 4 and len(layer.centers) == 2
    corrupt(layer)
    detail = audit_det_cover(idx, truth)
    assert detail is not None
    assert (detail["layer"], detail["reason"]) == (2, reason)


def test_cli_ledger_failure_exits_2(tmp_path, monkeypatch):
    real_delete = ApspIndexDet.delete

    def corrupting(self, u, v):
        real_delete(self, u, v)
        _radius_off(self.layers[0])

    monkeypatch.setattr(ApspIndexDet, "delete", corrupting)
    out = tmp_path / "bad"
    # the 12-node path's distances pass the patch's range at the build
    rc = main(["run", "--algo", "det_apsp", "--path", "12", "--seed", "1",
               "--eps", "0.5", "--audit", "full", "--out", str(out)])
    assert rc == 2
    bundle = json.loads((out / "replay_bundle.json").read_text())
    assert bundle["version"] == 1
    assert bundle["detail"] == {"layer": 0, "center": 0, "reason": "radius formula"}
    # the counters of the index after the first deletion
    g = build_graph(ExperimentConfig("det_apsp", generator="path:12"))
    index = ApspIndexDet(g, 0.5)
    real_delete(index, *generate_trace(g, "random", seed=1).pairs[0])
    assert bundle["stats"] == index.stats()


def test_cli_es_tree_failure_exits_2(tmp_path, monkeypatch):
    real_after_delete = EsTree.after_delete

    def corrupting(self, u, v, cut=None):
        raised = real_after_delete(self, u, v, cut)
        # report the deepest finite node one level too far
        deepest = max((x for x in range(self.n) if self.level[x] != INF),
                      key=lambda x: self.level[x])
        self.level[deepest] += 1
        return raised

    monkeypatch.setattr(EsTree, "after_delete", corrupting)
    out = tmp_path / "bad"
    rc = main(["run", "--algo", "es_tree", "--path", "8", "--seed", "1",
               "--audit", "stretch", "--out", str(out)])
    assert rc == 2
    bundle = json.loads((out / "replay_bundle.json").read_text())
    assert bundle["version"] == 1
    # the first deletion is (3, 4), which leaves 0-1-2-3 as the root's side
    assert bundle["detail"] == {"node": 3, "level": 4.0, "distance": 3.0}
    # the counters of an uncorrupted tree after the first deletion
    g = build_graph(ExperimentConfig("es_tree", generator="path:8"))
    tree = EsTree(g, 0, g.n)
    u, v = generate_trace(g, "random", seed=1).pairs[0]
    g.delete_edge(u, v)
    real_after_delete(tree, u, v)
    assert bundle["stats"] == tree.stats()


def test_cli_def8_failure_exits_2(tmp_path, monkeypatch):
    cex = {"pair": (2, 7), "time": 3, "reason": "no persevering path", "t2": 5}
    monkeypatch.setattr("decaps.harness.check_locally_persevering",
                        lambda *args: (False, cex))
    out = tmp_path / "bad"
    rc = main(["audit", "--algo", "rand_apsp", "--gnm", "10", "18", "--seed", "11",
               "--eps", "1.0", "--out", str(out)])
    assert rc == 2
    bundle = json.loads((out / "replay_bundle.json").read_text())
    assert bundle["version"] == 3
    assert bundle["detail"] == {"check": "locally persevering", "pair": [2, 7],
                                "time": 3, "reason": "no persevering path", "t2": 5}
    assert not (out / "summary.json").exists()


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
    # config error: no graph source, or two
    assert main(["run", "--algo", "es_tree"]) == 3
    assert main(["gen", "--out", str(tmp_path / "g.txt")]) == 3
    assert main(["gen", "--gnm", "4", "3", "--path", "4", "--out", str(tmp_path / "g.txt")]) == 3
    assert main(["gen", "--path", "4", "--grid", "2", "2", "--out", str(tmp_path / "g.txt")]) == 3
    assert not (tmp_path / "g.txt").exists()
    assert main(["run", "--algo", "es_tree", "--path", "4", "--grid", "2", "2"]) == 3
    # a size of 0 is still given: with the other generator it is two sources,
    # alone it is a size below 1, in every subcommand
    assert main(["run", "--algo", "es_tree", "--path", "0", "--grid", "3", "3",
                 "--audit", "none"]) == 3
    assert main(["audit", "--algo", "es_tree", "--grid", "3", "0"]) == 3
    for sizes in (["--path", "0"], ["--path", "-2"], ["--grid", "0", "3"]):
        assert main(["run", "--algo", "es_tree", *sizes]) == 3
        assert main(["gen", *sizes, "--out", str(tmp_path / "g.txt")]) == 3
    assert not (tmp_path / "g.txt").exists()
    # --gnm with N below 1 or M below 0
    for sizes in (["5", "-3"], ["0", "0"], ["-1", "0"]):
        assert main(["run", "--algo", "det_apsp", "--gnm", *sizes, "--audit", "none"]) == 3
        assert main(["audit", "--algo", "fully_dynamic", "--gnm", *sizes]) == 3
        assert main(["gen", "--gnm", *sizes, "--out", str(tmp_path / "g.txt")]) == 3
    assert not (tmp_path / "g.txt").exists()
    assert main(["gen", "--path", "1", "--out", str(tmp_path / "g.txt")]) == 0
    # a trace file given to fully_dynamic
    assert main(["run", "--algo", "fully_dynamic", "--gnm", "5", "4", "--trace",
                 str(tmp_path / "none.txt"), "--audit", "none"]) == 3
    # a negative number of updates
    assert main(["run", "--algo", "fully_dynamic", "--gnm", "10", "20", "--updates", "-5"]) == 3
    # a depth bound of 0, which the tree rejects, not one that means "all of n"
    assert main(["run", "--algo", "es_tree", "--gnm", "10", "20", "--Q", "0",
                 "--out", str(tmp_path / "q0")]) == 3
    # an option the algorithm never reads: Q outside es_tree, updates
    # outside fully_dynamic
    assert main(["run", "--algo", "det_apsp", "--gnm", "5", "4", "--updates", "7",
                 "--Q", "3", "--audit", "none"]) == 3
    assert main(["run", "--algo", "rand_apsp", "--gnm", "5", "4", "--Q", "3",
                 "--audit", "none"]) == 3
    assert main(["run", "--algo", "es_tree", "--gnm", "5", "4", "--updates", "7",
                 "--audit", "none"]) == 3
    assert main(["run", "--algo", "fully_dynamic", "--gnm", "5", "4", "--updates", "7",
                 "--audit", "none"]) == 0
    assert main(["run", "--algo", "es_tree", "--gnm", "5", "4", "--Q", "3",
                 "--audit", "none"]) == 0
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
