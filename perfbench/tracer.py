"""Outside-in tracing of the decaps layers.

``Tracer.install`` replaces public entry points of the package's classes with
wrappers, at class level and from this file only, so no library code changes.
Each call records a span: its name, start, end, the enclosing span and the id
of the update or query that caused it (-1 while the index is being built).
Two payload fields carry counter deltas that the wrapper reads from public
attributes or return values. Spans stay in memory; ``save`` writes them out
and ``layer_metrics`` derives the per-layer metrics from them.
"""

from __future__ import annotations

import statistics
import weakref
from array import array
from time import perf_counter

import numpy as np

from decaps import (
    ApspIndexDet,
    ApspIndexRandom,
    DecrementalGraph,
    DetCenterCover,
    EsTree,
    FullyDynamicApsp,
    LocallyPerseveringEmulator,
    MonotoneEsTree,
    MovingCenters,
    RandomCenterCover,
)
from decaps.graph_core import INSERT

MODULES = ("graph_core", "es_tree", "emulator", "monotone_es_tree",
           "randomized_apsp", "deterministic_apsp", "fully_dynamic")
# distance-scale layers reported: both indexes have (n - 1).bit_length(),
# 10 on the 30x30 grid (ApspIndexDet) and 6 on rand-gnm's n = 64
DET_LAYERS, RAND_LAYERS = 10, 6
UPDATE, QUERY = "bench.update", "bench.query"


def _levels_and(second):
    def read(obj):
        return obj.level_increases, getattr(obj, second)

    def delta(obj, before, args, result):
        return obj.level_increases - before[0], getattr(obj, second) - before[1]
    return read, delta


# span columns: typecode of each; one entry per span in every column
COLUMNS = {"kind": "l", "parent": "l", "cause": "l", "start": "d", "end": "d",
           "a": "q", "b": "q", "outer": "d"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # flat arrays, so recording a span allocates no tracked Python object
        self.cols = {name: array(code) for name, code in COLUMNS.items()}
        self.stack = array("l", [-1])
        self.cause_id = -1
        self._layer_of = weakref.WeakKeyDictionary()  # cover or mc -> p
        self._saved = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording -----------------------------------------------------------

    def begin(self, name_id: int) -> int:
        """Open a span for a call the benchmark makes itself; returns its id."""
        c = self.cols
        i = len(c["kind"])
        c["kind"].append(name_id)
        c["parent"].append(self.stack[-1])
        c["cause"].append(self.cause_id)
        for key in ("start", "end", "a", "b", "outer"):
            c[key].append(0)
        self.stack.append(i)
        c["start"][i] = perf_counter()
        return i

    def finish(self, i: int) -> None:
        self.cols["end"][i] = perf_counter()
        self.stack.pop()

    def _wrap(self, cls, attr: str, name: str, read=None, delta=None) -> None:
        """Replace ``cls.attr`` by a recording wrapper.

        start..end covers the wrapped call only; ``outer`` is the wrapper's own
        bookkeeping around it, which is charged to tracing, not to the caller.
        """
        orig = cls.__dict__[attr]
        nid = self.name_id(name)
        c = self.cols
        kind, parent, cause = c["kind"], c["parent"], c["cause"]
        start, end, pa, pb, outer = c["start"], c["end"], c["a"], c["b"], c["outer"]
        stack = self.stack
        tracer = self

        def wrapper(obj, *args, **kwargs):
            # the same bookkeeping as begin(), inlined: it runs around every call
            t0 = perf_counter()
            before = read(obj) if read is not None else None
            i = len(kind)
            kind.append(nid)
            parent.append(stack[-1])
            cause.append(tracer.cause_id)
            start.append(0)
            end.append(0)
            pa.append(0)
            pb.append(0)
            outer.append(0)
            stack.append(i)
            t1 = perf_counter()
            try:
                result = orig(obj, *args, **kwargs)
            finally:
                t2 = perf_counter()
                stack.pop()
            if delta is not None:
                pa[i], pb[i] = delta(obj, before, args, result)
            start[i] = t1
            end[i] = t2
            outer[i] = perf_counter() - t2 + (t1 - t0)
            return result

        wrapper.__wrapped__ = orig
        self._saved.append((cls, attr, orig))
        setattr(cls, attr, wrapper)

    def install(self) -> None:
        """Wrap every traced entry point; ``uninstall`` restores them."""
        layer_of = self._layer_of

        def p_of(obj, before, args, result):
            return layer_of.get(obj, -1), 0

        def register(limit):
            def delta(obj, before, args, result):
                if len(obj.layers) > limit:
                    raise ValueError(f"{len(obj.layers)} layers exceed the {limit} reported")
                for p, layer in enumerate(obj.layers):
                    layer_of[layer] = p
                    if isinstance(layer, DetCenterCover):
                        layer_of[layer.mc] = p
                return len(obj.layers), 0
            return delta

        def moved(obj, before, args, result):
            return obj.moving_distance - before, layer_of.get(obj, -1)

        def events(obj, before, args, result):
            return len(result), sum(1 for ev in result if ev.kind == INSERT)

        w = self._wrap
        w(DecrementalGraph, "component_of", "graph_core.component_of",
          delta=lambda obj, before, args, result: (len(result), 0))
        w(EsTree, "__init__", "es_tree.build")
        w(EsTree, "after_delete", "es_tree.after_delete", *_levels_and("messages"))
        w(LocallyPerseveringEmulator, "on_delete", "emulator.on_delete", delta=events)
        w(MonotoneEsTree, "__init__", "monotone_es_tree.build")
        w(MonotoneEsTree, "apply_batch", "monotone_es_tree.apply_batch",
          *_levels_and("ops"))
        w(RandomCenterCover, "on_batch", "randomized_apsp.on_batch", delta=p_of)
        w(ApspIndexRandom, "__init__", "randomized_apsp.build", delta=register(RAND_LAYERS))
        w(ApspIndexRandom, "delete", "randomized_apsp.delete")
        w(ApspIndexRandom, "query_1eps2", "randomized_apsp.query_1eps2")
        w(ApspIndexRandom, "query_2eps", "randomized_apsp.query_2eps")
        w(DetCenterCover, "on_deleted", "deterministic_apsp.on_deleted", delta=p_of)
        w(MovingCenters, "after_delete", "deterministic_apsp.mc_after_delete")
        w(MovingCenters, "open", "deterministic_apsp.open", delta=p_of)
        w(MovingCenters, "move", "deterministic_apsp.move",
          read=lambda obj: obj.moving_distance, delta=moved)
        w(ApspIndexDet, "__init__", "deterministic_apsp.build", delta=register(DET_LAYERS))
        w(ApspIndexDet, "query", "deterministic_apsp.query")
        w(FullyDynamicApsp, "insert_star", "fully_dynamic.insert_star")
        w(FullyDynamicApsp, "delete_set", "fully_dynamic.delete_set")
        w(FullyDynamicApsp, "query", "fully_dynamic.query")

    def uninstall(self) -> None:
        for cls, attr, orig in reversed(self._saved):
            setattr(cls, attr, orig)
        self._saved.clear()

    # -- output --------------------------------------------------------------

    def arrays(self) -> dict:
        return {name: np.array(col) for name, col in self.cols.items()}

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


class _Probe:
    def noop(self, x):
        return x


def wrapper_residual() -> float:
    """Seconds per wrapped call that a caller pays beyond a direct call and
    that no span records: the wrapper's frame, argument packing, try/finally
    and return. Spans time only start..end and ``outer``, so without this
    correction the residual lands in the caller's self time. Measured on a
    no-op method with one argument; the median of seven paired loops of
    50,000 calls each.
    """
    calls = 50_000
    probe = _Probe()
    tracer = Tracer()
    samples = []
    for _ in range(7):
        call = probe.noop
        t0 = perf_counter()
        for i in range(calls):
            call(i)
        direct = perf_counter() - t0
        tracer._wrap(_Probe, "noop", "probe")
        call = probe.noop
        first = len(tracer.cols["kind"])
        t0 = perf_counter()
        for i in range(calls):
            call(i)
        wrapped = perf_counter() - t0
        tracer.uninstall()
        c = {key: np.array(tracer.cols[key][first:]) for key in ("start", "end", "outer")}
        recorded = float((c["end"] - c["start"] + c["outer"]).sum())
        samples.append((wrapped - recorded - direct) / calls)
    return statistics.median(samples)


def layer_metrics(tracer: Tracer, structure: dict, residual: float) -> dict:
    """Per-layer metrics from the recorded spans.

    Unless a name says otherwise, a metric covers the update-and-query loop
    only (spans caused by an update or a query); ``*.build.*`` and
    ``monotone_es_tree.trees`` also cover index construction. ``structure``
    holds sizes read from the built index (hubs, centers, cover entries).
    ``residual`` is the per-call cost from ``wrapper_residual``.
    """
    s = tracer.arrays()
    kind, parent = s["kind"], s["parent"]
    dur = s["end"] - s["start"]
    has_parent = parent >= 0
    # what tracing adds to the caller of each span: its wrapper's bookkeeping
    # plus the per-call residual
    cost = s["outer"] + residual
    # a caller's self time excludes its children and their tracing cost
    child = np.zeros_like(dur)
    np.add.at(child, parent[has_parent], (dur + cost)[has_parent])
    self_t = dur - child
    # inclusive time without the tracing cost of all descendants; a child
    # span always has a higher index than its parent
    nested = np.zeros_like(dur)
    for i in np.flatnonzero(has_parent)[::-1]:
        nested[parent[i]] += cost[i] + nested[i]
    incl = dur - nested
    loop = s["cause"] >= 0
    ids = {name: i for i, name in enumerate(tracer.names)}
    build_id = ids["deterministic_apsp.build"]

    def outside_build(mask):
        """Drop spans nested in an ApspIndexDet constructor (fd rebuilds)."""
        mask = mask.copy()
        for i in np.flatnonzero(mask):
            pi = parent[i]
            while pi >= 0:
                if kind[pi] == build_id:
                    mask[i] = False
                    break
                pi = parent[pi]
        return mask

    def sel(name, only_loop=True):
        m = kind == ids[name]
        return m & loop if only_loop else m

    def total(arr, *names, only_loop=True):
        return float(sum(arr[sel(nm, only_loop)].sum() for nm in names))

    def calls(name, only_loop=True):
        return int(sel(name, only_loop).sum())

    def frac(name):
        n = calls(name)
        return float((sel(name) & (s["a"] > 0)).sum() / n) if n else 0.0

    out = {}
    roots = sel(UPDATE) | sel(QUERY)
    out["bench.update_s"] = total(dur, UPDATE)
    out["bench.query_s"] = total(dur, QUERY)
    out["bench.unattributed_s"] = float(self_t[roots].sum())
    out["bench.bookkeeping_s"] = float(s["outer"][loop].sum())
    out["bench.residual_s"] = residual * int((loop & has_parent).sum())
    # update + query time = layer self times + unattributed + bookkeeping + residual
    work = (out["bench.update_s"] + out["bench.query_s"] - out["bench.bookkeeping_s"]
            - out["bench.residual_s"])
    module_self = {}
    for mod in MODULES:
        names = [nm for nm in tracer.names if nm.startswith(mod + ".")]
        module_self[mod] = total(self_t, *names)
    out["bench.attributed_frac"] = sum(module_self.values()) / work if work > 0 else 0.0

    out["graph_core.component_of.calls"] = calls("graph_core.component_of")
    out["graph_core.component_of.nodes"] = int(total(s["a"], "graph_core.component_of"))
    out["graph_core.component_of.self_s"] = total(self_t, "graph_core.component_of")

    out["es_tree.build.calls"] = calls("es_tree.build", only_loop=False)
    out["es_tree.build.self_s"] = total(self_t, "es_tree.build", only_loop=False)
    out["es_tree.after_delete.calls"] = calls("es_tree.after_delete")
    out["es_tree.after_delete.self_s"] = total(self_t, "es_tree.after_delete")
    out["es_tree.after_delete.changed_frac"] = frac("es_tree.after_delete")
    out["es_tree.level_increases"] = int(total(s["a"], "es_tree.after_delete"))
    out["es_tree.messages"] = int(total(s["b"], "es_tree.after_delete"))

    out["emulator.on_delete.self_s"] = total(self_t, "emulator.on_delete")
    out["emulator.events"] = int(total(s["a"], "emulator.on_delete"))
    out["emulator.events.insert"] = int(total(s["b"], "emulator.on_delete"))
    for key in ("edges_ever", "hubs", "h0_edges"):
        out[f"emulator.{key}"] = structure.get(f"emulator.{key}", 0)

    out["monotone_es_tree.trees"] = calls("monotone_es_tree.build", only_loop=False)
    out["monotone_es_tree.build.self_s"] = total(self_t, "monotone_es_tree.build",
                                                 only_loop=False)
    out["monotone_es_tree.apply_batch.calls"] = calls("monotone_es_tree.apply_batch")
    out["monotone_es_tree.apply_batch.self_s"] = total(self_t, "monotone_es_tree.apply_batch")
    out["monotone_es_tree.apply_batch.changed_frac"] = frac("monotone_es_tree.apply_batch")
    out["monotone_es_tree.level_increases"] = int(total(s["a"], "monotone_es_tree.apply_batch"))
    out["monotone_es_tree.ops"] = int(total(s["b"], "monotone_es_tree.apply_batch"))

    queries = ("randomized_apsp.query_1eps2", "randomized_apsp.query_2eps")
    out["randomized_apsp.on_batch.self_s"] = total(self_t, "randomized_apsp.on_batch")
    deletes = sel("randomized_apsp.delete")
    direct = np.zeros(len(kind), dtype=bool)
    direct[has_parent] = deletes[parent[has_parent]]
    emu_or_batch = sel("emulator.on_delete") | sel("randomized_apsp.on_batch")
    out["randomized_apsp.patch_s"] = float(incl[deletes].sum()
                                           - incl[direct & emu_or_batch].sum())
    out["randomized_apsp.query.self_s"] = total(self_t, *queries)
    out["randomized_apsp.cover_entries"] = structure.get("randomized_apsp.cover_entries", 0)

    opens = outside_build(sel("deterministic_apsp.open"))
    moves = outside_build(sel("deterministic_apsp.move"))
    out["deterministic_apsp.on_deleted.self_s"] = total(self_t, "deterministic_apsp.on_deleted")
    out["deterministic_apsp.mc_after_delete.self_s"] = total(
        self_t, "deterministic_apsp.mc_after_delete")
    out["deterministic_apsp.open.calls"] = int(opens.sum())
    out["deterministic_apsp.move.calls"] = int(moves.sum())
    out["deterministic_apsp.moving_distance"] = int(s["a"][moves].sum())
    out["deterministic_apsp.query.self_s"] = total(self_t, "deterministic_apsp.query")

    rebuilds = sel("deterministic_apsp.build")
    out["fully_dynamic.rebuilds"] = int(rebuilds.sum())
    out["fully_dynamic.rebuild_s"] = float(incl[rebuilds].sum())
    out["fully_dynamic.update.self_s"] = total(self_t, "fully_dynamic.insert_star",
                                               "fully_dynamic.delete_set")
    out["fully_dynamic.query.self_s"] = total(self_t, "fully_dynamic.query")

    on_deleted = sel("deterministic_apsp.on_deleted")
    on_batch = sel("randomized_apsp.on_batch")
    layer = s["a"]
    for p in range(DET_LAYERS):
        out[f"deterministic_apsp.p{p}.on_deleted_s"] = float(incl[on_deleted & (layer == p)].sum())
        out[f"deterministic_apsp.p{p}.opens"] = int((opens & (layer == p)).sum())
    for p in range(RAND_LAYERS):
        out[f"randomized_apsp.p{p}.on_batch_s"] = float(incl[on_batch & (layer == p)].sum())
        out[f"randomized_apsp.p{p}.centers"] = structure.get(f"randomized_apsp.p{p}.centers", 0)
    for mod in MODULES:
        out[f"{mod}.self_s"] = module_self[mod]
    return out


def index_structure(index, built: bool) -> dict:
    """Sizes of a randomized index (empty for other indexes): hubs, H_0 and
    cover lists when just ``built``, the emulator's edges ever after the loop."""
    if not isinstance(index, ApspIndexRandom):
        return {}
    emu = index.emulator
    if not built:
        return {"emulator.edges_ever": emu.edges_ever}
    out = {"emulator.hubs": len(emu.hubs), "emulator.h0_edges": len(emu.snapshot()),
           "randomized_apsp.cover_entries": sum(
               len(layer.cover_list(x)) for layer in index.layers for x in range(index.g.n))}
    for p, layer in enumerate(index.layers):
        out[f"randomized_apsp.p{p}.centers"] = len(layer.centers)
    return out
