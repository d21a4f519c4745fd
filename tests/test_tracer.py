"""Smoke test of the benchmark's tracer against the library it wraps.

``perfbench/tracer.py`` wraps class attributes by name, so a renamed or
moved entry point breaks the benchmark, not the library's own tests.
"""

import sys
from pathlib import Path

import pytest

pytest.importorskip("numpy")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from tracer import Tracer  # noqa: E402

from decaps import ApspIndexDet, ApspIndexRandom  # noqa: E402
from decaps.harness import gnm_graph  # noqa: E402


def recorded(tracer):
    return {tracer.names[k] for k in tracer.cols["kind"]}


def test_tracer_records_both_tree_engines():
    tracer = Tracer()
    tracer.install()
    try:
        det = ApspIndexDet(gnm_graph(16, 32, seed=3), 0.5)
        tracer.cause_id = 0
        det.delete(*det.g.edges()[0])
        # an exact tree is a monotone tree, but its build and repair are
        # recorded once, under es_tree
        det_spans = recorded(tracer)
        rand = ApspIndexRandom(gnm_graph(16, 32, seed=3), 0.5, seed=0)
        tracer.cause_id = 1
        rand.delete(*rand.g.edges()[0])
    finally:
        tracer.uninstall()
    assert {"es_tree.build", "es_tree.after_delete",
            "deterministic_apsp.on_deleted"} <= det_spans
    assert not {"monotone_es_tree.build", "monotone_es_tree.apply_batch"} & det_spans
    assert {"monotone_es_tree.build", "monotone_es_tree.apply_batch",
            "randomized_apsp.delete"} <= recorded(tracer)
