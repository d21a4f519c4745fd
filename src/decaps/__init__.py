"""decaps: decremental (and fully dynamic) approximate shortest-paths toolkit.

Core pieces: an exact bounded-depth decremental SSSP tree, a locally
persevering emulator driven by base-graph deletions, monotone ES-trees over
the emulator's event stream, randomized (1+eps, 2)/(2+eps, 0)-approximate
APSP, a deterministic (1+eps, 0)-approximate APSP built on moving centers, a
phase-based fully dynamic wrapper, brute-force oracles, and an experiment
harness with invariant audits.
"""

from . import errors
from .graph_core import (
    DELETE,
    INCREASE,
    INF,
    INSERT,
    DecrementalGraph,
    DeletionTrace,
    UpdateEvent,
    edge_key,
    read_edge_list,
    read_trace,
    write_edge_list,
    write_trace,
)
from .es_tree import EsTree
from .emulator import LocallyPerseveringEmulator
from .monotone_es_tree import MonotoneEsTree
from .randomized_apsp import ApspIndexRandom, RandomCenterCover
from .deterministic_apsp import ApspIndexDet, DetCenterCover, MovingCenters, build_covers
from .fully_dynamic import FullyDynamicApsp
from .oracle import (
    NumpyBfsOracle,
    StretchReport,
    bfs_apsp,
    bfs_levels,
    check_locally_persevering,
    check_stretch,
    dijkstra_apsp,
    weighted_apsp,
)
from .harness import ExperimentConfig, generate_trace, gnm_graph, run_experiment

__version__ = "0.1.0"

__all__ = [
    "ApspIndexDet",
    "ApspIndexRandom",
    "DecrementalGraph",
    "DeletionTrace",
    "DetCenterCover",
    "EsTree",
    "ExperimentConfig",
    "FullyDynamicApsp",
    "INF",
    "INSERT",
    "INCREASE",
    "DELETE",
    "LocallyPerseveringEmulator",
    "MonotoneEsTree",
    "MovingCenters",
    "NumpyBfsOracle",
    "RandomCenterCover",
    "StretchReport",
    "UpdateEvent",
    "bfs_apsp",
    "bfs_levels",
    "build_covers",
    "check_locally_persevering",
    "check_stretch",
    "dijkstra_apsp",
    "edge_key",
    "errors",
    "generate_trace",
    "gnm_graph",
    "read_edge_list",
    "read_trace",
    "run_experiment",
    "weighted_apsp",
    "write_edge_list",
    "write_trace",
]
