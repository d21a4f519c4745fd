"""Smoke test of the benchmark's tracer and workloads against the library.

``perfbench/tracer.py`` wraps class attributes by name and
``perfbench/workloads.py`` imports harness names, so a renamed or moved
entry point breaks the benchmark, not the library's own tests.
"""

import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer, index_structure  # noqa: E402

from decaps import ApspIndexDet, ApspIndexRandom  # noqa: E402
from decaps.harness import (  # noqa: E402
    ExperimentConfig,
    build_graph,
    generate_trace,
    gnm_graph,
)


def recorded(tracer, cause=None):
    """The span names recorded, only those of update ``cause`` if given."""
    cols = tracer.cols
    return {tracer.names[k] for k, c in zip(cols["kind"], cols["cause"])
            if cause is None or c == cause}


def test_tracer_records_both_tree_engines():
    tracer = Tracer()
    tracer.install()
    try:
        # the 16-node path's distances pass the patch's range at the build,
        # so its covers are built there too
        det = ApspIndexDet(build_graph(ExperimentConfig("det_apsp", generator="path:16")), 0.5)
        tracer.cause_id = 0
        det.delete(*det.g.edges()[0])
        # an exact tree is a monotone tree, but its build and repair are
        # recorded once, under es_tree
        det_spans = recorded(tracer)
        rand = ApspIndexRandom(gnm_graph(16, 32, seed=3), 0.5, seed=0)
        tracer.cause_id = 1
        rand.delete(*rand.g.edges()[0])
        # the first deletions of the 6x6 grid peel open and move centers
        grid = build_graph(ExperimentConfig(algorithm="det_apsp", generator="grid:6:6"))
        peeled = ApspIndexDet(grid, 0.5)
        tracer.cause_id = 2
        for u, v in list(generate_trace(grid, "adversarial-path-peel"))[:4]:
            peeled.delete(u, v)
    finally:
        tracer.uninstall()
    # the tracer wraps a layer's entry points through the ``MovingCenters``
    # alias of its class, and its layer map (filled through the ``mc``
    # alias) names each layer's scale
    assert {"es_tree.build", "es_tree.after_delete", "deterministic_apsp.on_deleted",
            "deterministic_apsp.mc_after_delete"} <= det_spans
    assert det.layers and [tracer._layer_of[layer] for layer in det.layers] == list(
        range(len(det.layers)))
    assert not {"monotone_es_tree.build", "monotone_es_tree.apply_batch"} & det_spans
    assert {"deterministic_apsp.open", "deterministic_apsp.move",
            "deterministic_apsp.mc_after_delete"} <= recorded(tracer, cause=2)
    assert peeled.layers and [tracer._layer_of[layer] for layer in peeled.layers] == list(
        range(len(peeled.layers)))
    assert {"monotone_es_tree.build", "monotone_es_tree.apply_batch",
            "randomized_apsp.delete"} <= recorded(tracer)


def test_index_structure_reads_the_emulator():
    # the tracer reads hubs, snapshot(), edges_ever, cover lists and centers
    index = ApspIndexRandom(gnm_graph(30, 120, seed=2), 0.5, seed=4, hubs=[0, 5])
    h0 = len(index.emulator.h.edges())
    built = index_structure(index, built=True)
    assert built["emulator.hubs"] == 2 and built["emulator.h0_edges"] == h0
    assert built["randomized_apsp.cover_entries"] == sum(
        len(layer.cover_list(x)) for layer in index.layers for x in range(30))
    assert [built[f"randomized_apsp.p{p}.centers"] for p in range(len(index.layers))] == [
        len(layer.centers) for layer in index.layers]
    for u, v in index.g.edges()[:40]:
        index.delete(u, v)
    after = index_structure(index, built=False)
    assert after == {"emulator.edges_ever": index.emulator.edges_ever}
    assert after["emulator.edges_ever"] >= h0


def test_benchmark_workloads_build_their_inputs():
    # the workloads import harness names and read trace attributes
    from workloads import WORKLOADS

    for name in ("det-gnm", "fd-mixed"):
        inputs = WORKLOADS[name].inputs(1)
        assert len(inputs.updates) == WORKLOADS[name].updates_per_round
        assert len(inputs.pairs) == len(inputs.updates)


def test_every_exported_name_resolves():
    import decaps

    assert [name for name in decaps.__all__ if not hasattr(decaps, name)] == []
