"""Per-layer tracing: wrap each layer's public functions, then fold
the spans and counters into the per-layer metrics.

Nothing under ``src/`` changes.  :func:`install` replaces each public
function named in :data:`SPANNED` with a :class:`spans.Tracer` wrapper,
both where it is defined and under every alias an already-imported
``repro`` module bound with ``from ... import``; methods are replaced
on their class.  Counters that would cost too much as spans (machine
steps, ``NodeInfo`` constructions, ``fsync`` calls) are plain counts.

Metric names and what they should move are listed in ``README.md``.
Every ``.s`` metric is self time, so the layers add up without double
counting: their sum plus the uncovered share is the traced sweep.
"""

from __future__ import annotations

import importlib
import os
import pkgutil
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple

from spans import Span, Tracer, ratio, self_time_by_name, union_length

# Layer span name -> the public functions it times, as
# (module, attribute) pairs; "Class.method" names a method.
SPANNED: Dict[str, List[Tuple[str, str]]] = {
    "cell": [("repro.runner.executor", "execute_cell")],
    "graphs": [("repro.runner.graph_cache", "scenario_graph_source")],
    "oracles": [("repro.runner.oracle_cache", "binding_oracle_source")],
    "decomposition": [("repro.runner.decomposition_cache",
                       "binding_decomposition_source")],
    "store.publish": [("repro.store.artifacts", "ArtifactStore.publish")],
    "store.load": [("repro.store.artifacts", "ArtifactStore.open")],
    "telemetry": [("repro.telemetry.events", "RunTelemetry.emit")],
    "congest": [("repro.congest.network", "Network.run")],
    "bcongest": [("repro.core.bcongest_sim", "simulate_bcongest")],
    "preprocess": [("repro.primitives.global_tree", "build_global_tree"),
                   ("repro.decomposition.ldc", "build_ldc"),
                   ("repro.core.bcongest_sim", "gather_member_inputs")],
    "transport": [("repro.primitives.transport", "route_packets")],
    "kernels": [("repro.kernels.wavefront", "direct_execution"),
                ("repro.kernels.wavefront", "star_report"),
                ("repro.kernels.wavefront", "bcongest_plan"),
                ("repro.kernels.relaxation", "bcongest_plan")],
    "verify": [("repro.decomposition.ldc", "verify_ldc"),
               ("repro.decomposition.baswana_sen", "verify_hierarchy"),
               ("repro.decomposition.pipeline", "verify_mpx_cover"),
               ("repro.decomposition.pipeline", "verify_ldc_spanner"),
               ("repro.covers.mpx_cover", "NeighborhoodCover.verify"),
               ("repro.baselines.reference", "is_matching")],
}

# Chains whose answer says whether the artifact was reused.
CHAIN_HITS = ("lru", "store")

BINDINGS = ("apsp-unweighted", "apsp-weighted", "bfs-collection", "cover",
            "ldc", "mpx-cover", "ldc-spanner", "bs-hierarchy", "matching")


def _chain_counter(layer: str) -> Callable[[Tracer, Any], None]:
    def on_result(tracer: Tracer, result: Any) -> None:
        source = result[1]
        if source == "none":    # the binding consumes no such artifact
            return
        tracer.count(f"{layer}.lookups")
        if source in CHAIN_HITS:
            tracer.count(f"{layer}.hits")
    return on_result


ON_RESULT = {layer: _chain_counter(layer)
             for layer in ("graphs", "oracles", "decomposition")}


def _import_all() -> None:
    """Import every ``repro`` module so every machine class exists."""
    import repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module alias of ``original`` at the wrapper."""
    for name, module in list(sys.modules.items()):
        if not name.startswith("repro") or module is None:
            continue
        namespace = vars(module)
        for attr, value in list(namespace.items()):
            if value is original:
                namespace[attr] = replacement


def _wrap_steps(tracer: Tracer, cls: type, depth: List[int]) -> None:
    """Count ``cls.on_round`` calls; a step nested in another machine's
    step (``depth``, shared by every wrapped class) is not counted.

    A step is idle when its inbox is empty and it broadcasts nothing.
    The counters are updated inline: a sweep takes millions of steps.
    """
    step = cls.__dict__["on_round"]

    def on_round(self, rnd, inbox):
        if depth[0]:
            return step(self, rnd, inbox)
        depth[0] = 1
        try:
            payload = step(self, rnd, inbox)
        finally:
            depth[0] = 0
        counts = tracer.counts
        counts["congest.machine_steps"] = (
            counts.get("congest.machine_steps", 0) + 1)
        if payload is None and not inbox:
            counts["congest.idle_steps"] = (
                counts.get("congest.idle_steps", 0) + 1)
        return payload

    on_round.__wrapped__ = step
    cls.on_round = on_round


def _machine_classes() -> List[type]:
    from repro.congest.machine import Machine
    from repro.covers.mpx_cover import CoverCollectionMachine

    found, todo = [], [Machine]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if "on_round" in sub.__dict__:
                found.append(sub)
    # Not a Machine subclass, but stepped as one by Network.run.
    found.append(CoverCollectionMachine)
    return found


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions and counters with ``tracer``.

    Called once per process, after set-up and before the sweep, so a
    forked pool worker inherits the wrappers.
    """
    _import_all()
    for layer, targets in SPANNED.items():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[method]
                setattr(owner, method,
                        tracer.wrap(layer, original, ON_RESULT.get(layer)))
            else:
                original = getattr(module, attr)
                _rebind(original, tracer.wrap(layer, original,
                                              ON_RESULT.get(layer)))

    depth = [0]
    for cls in _machine_classes():
        _wrap_steps(tracer, cls, depth)

    from repro.congest.network import NodeInfo
    init = NodeInfo.__init__

    def node_info_init(self, *args, **kwargs):
        counts = tracer.counts
        counts["congest.node_infos"] = counts.get("congest.node_infos",
                                                  0) + 1
        init(self, *args, **kwargs)

    NodeInfo.__init__ = node_info_init


# ---------------------------------------------------------------------
# Folding spans, counters and cell results into per-layer metrics
# ---------------------------------------------------------------------
def layer_metrics(batches: Sequence[List[Span]], counts: Dict[str, int],
                  cells: Sequence[Dict[str, Any]], *, workers: int,
                  sweep_window: Tuple[float, float]
                  ) -> Dict[str, Tuple[float, str]]:
    """The per-layer metrics as ``{name: (value, unit)}``.

    ``batches`` are span lists whose parent indices are local to each
    list (one list per process flush).  ``cells`` carry each cell's
    ``algorithm``, ``wall_time``, ``engine_source``, ``kernel_eligible``
    and metered ``metrics``.  ``trace.overhead_frac`` needs the untraced
    sweep, so the caller adds it.
    """
    own: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    layer_intervals = []
    for batch in batches:
        for name, seconds in self_time_by_name(batch).items():
            own[name] = own.get(name, 0.0) + seconds
        for name, start, end, _parent, _cell in batch:
            calls[name] = calls.get(name, 0) + 1
            if name != "cell":
                layer_intervals.append((start, end))

    start, end = sweep_window
    sweep_s = end - start
    busy = sum(cell["wall_time"] for cell in cells)
    out: Dict[str, Tuple[float, str]] = {
        "runner.idle_frac": (1.0 - ratio(busy, workers * sweep_s), "ratio"),
        "runner.cells": (float(len(cells)), "count"),
    }
    for binding in BINDINGS:
        out[f"runner.cell_s.{binding}"] = (
            sum(c["wall_time"] for c in cells if c["algorithm"] == binding),
            "s")
    for layer in ("graphs", "oracles", "decomposition"):
        lookups = counts.get(f"{layer}.lookups", 0)
        out[f"{layer}.s"] = (own.get(layer, 0.0), "s")
        out[f"{layer}.lookups"] = (float(lookups), "count")
        out[f"{layer}.hit_frac"] = (
            ratio(counts.get(f"{layer}.hits", 0), lookups), "ratio")
    out.update({
        "store.publish_s": (own.get("store.publish", 0.0), "s"),
        "store.publishes": (float(calls.get("store.publish", 0)), "count"),
        "store.load_s": (own.get("store.load", 0.0), "s"),
        "store.loads": (float(calls.get("store.load", 0)), "count"),
        "store.fsyncs": (float(counts.get("store.fsyncs", 0)), "count"),
        "telemetry.s": (own.get("telemetry", 0.0), "s"),
        "telemetry.events": (float(calls.get("telemetry", 0)), "count"),
        "congest.run_s": (own.get("congest", 0.0), "s"),
        "congest.runs": (float(calls.get("congest", 0)), "count"),
    })
    steps = counts.get("congest.machine_steps", 0)
    eligible = [c for c in cells if c["kernel_eligible"]]
    served = [c for c in eligible
              if c["engine_source"].startswith("kernel:")]
    out.update({
        "congest.machine_steps": (float(steps), "count"),
        "congest.idle_step_frac": (
            ratio(counts.get("congest.idle_steps", 0), steps), "ratio"),
        "congest.node_infos": (float(counts.get("congest.node_infos", 0)),
                               "count"),
        "congest.max_edge_congestion": (float(max(
            (c["metrics"].get("max_edge_congestion", 0) for c in cells),
            default=0)), "count"),
        "bcongest.s": (own.get("bcongest", 0.0), "s"),
        "preprocess.s": (own.get("preprocess", 0.0), "s"),
        "transport.s": (own.get("transport", 0.0), "s"),
        "transport.calls": (float(calls.get("transport", 0)), "count"),
        "kernels.s": (own.get("kernels", 0.0), "s"),
        "kernels.eligible": (float(len(eligible)), "count"),
        "kernels.served_frac": (ratio(len(served), len(eligible)), "ratio"),
        "verify.s": (own.get("verify", 0.0), "s"),
        "trace.uncovered_frac": (
            1.0 - ratio(union_length(layer_intervals, start, end), sweep_s),
            "ratio"),
        "trace.spans": (float(sum(calls.values())), "count"),
    })
    return out


def patch_fsync(tracer: Tracer) -> None:
    """Make ``os.fsync`` count its calls instead of syncing.

    The benchmark's stores live in its checkout, not on tmpfs; with
    fsync counted rather than performed, sweep time does not include
    the host disk's flush latency, as on tmpfs.
    """
    def fsync(fd: int) -> None:
        tracer.count("store.fsyncs")

    os.fsync = fsync
