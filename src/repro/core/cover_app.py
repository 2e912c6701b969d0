"""Corollary 2.9: (k, W)-sparse neighborhood covers with Õ(n²) messages.

The whole construction -- Õ(n^{1/k}) ball-carving repetitions, each a
BCONGEST flood with broadcast complexity exactly n -- is packaged as a
single BCONGEST machine (:class:`CoverCollectionMachine`), so the
Theorem 2.1 simulation pays its Õ(In) preprocessing once and then
Õ(B) = Õ(n^{1+1/k}) for the phases, giving the corollary's Õ(n²)
message bound.  ``neighborhood_cover_direct`` runs the same
construction directly in BCONGEST for the benchmark comparison (message
cost Õ(m n^{1/k})), on one of two engines (:func:`cover_engines`):

* the reference steps the cover machines through ``run_machines``; it
  serves every call under a non-null fault plan or a round profiler;
* every other call takes the closed-form MPX wavefront, all
  repetitions in one batch, which meters exactly what the machines do:
  ``reps * (2 * cap + 4)`` rounds, ``reps * n`` broadcasts,
  ``reps * sum(deg)`` two-word messages and ``2 * reps`` messages per
  edge, keyed in the first repetition's broadcast order.

A profiled call runs both and raises if they disagree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from repro.congest.machine import run_machines
from repro.congest.metrics import Metrics
from repro.congest.network import run_engines
from repro.core.bcongest_sim import simulate_bcongest
from repro.covers.mpx_cover import (
    NeighborhoodCover,
    build_cover_machine_factory,
    cover_window,
)
from repro.decomposition.mpx import (
    Clustering,
    machine_states,
    mpx_wavefront,
    package_clustering,
    start_rounds,
    wavefront_metrics,
)
from repro.graphs.graph import Graph


@dataclass
class CoverResult:
    cover: NeighborhoodCover
    metrics: Metrics
    detail: Dict[str, float] = field(default_factory=dict)


def _package(graph: Graph, outputs: Dict[int, list], reps: int,
             beta: float) -> List[Clustering]:
    """The cover machines' outputs as one Clustering per repetition."""
    return [package_clustering(
        graph, *machine_states([outputs[v][rep] for v in graph.nodes()]),
        beta=beta, metrics=Metrics()) for rep in range(reps)]


def neighborhood_cover(graph: Graph, k: int, w: int, *, seed: int = 0,
                       boost: float = 3.0) -> CoverResult:
    """Corollary 2.9 via the Theorem 2.1 simulation."""
    factory, reps, beta, _cap = build_cover_machine_factory(
        graph, k, w, boost=boost)
    report = simulate_bcongest(graph, factory, seed=seed, message_words=8)
    clusterings = _package(graph, report.outputs, reps, beta)
    cover = NeighborhoodCover(k=k, w=w, clusterings=clusterings,
                              metrics=report.total)
    return CoverResult(cover=cover, metrics=report.total,
                       detail={"repetitions": reps,
                               "broadcasts": report.broadcasts_simulated,
                               "sim_messages": report.simulation.messages,
                               "pre_messages": report.preprocessing.messages})


def neighborhood_cover_direct(graph: Graph, k: int, w: int, *,
                              seed: int = 0,
                              boost: float = 3.0) -> CoverResult:
    """The same construction run directly in BCONGEST.

    Fault-free, unprofiled calls take the closed form; every other call
    takes the machine reference, and a profiled call cross-checks the
    two (see :func:`cover_engines`).
    """
    closed_form, reference, reps = cover_engines(graph, k, w, seed=seed,
                                                 boost=boost)
    clusterings, metrics, rounds = run_engines(
        closed_form, reference, same_cover, "MPX wavefront")
    cover = NeighborhoodCover(k=k, w=w, clusterings=clusterings,
                              metrics=metrics)
    return CoverResult(cover=cover, metrics=metrics,
                       detail={"repetitions": reps, "rounds": rounds,
                               "messages": metrics.messages})


CoverRun = Tuple[List[Clustering], Metrics, int]


def cover_engines(graph: Graph, k: int, w: int, *, seed: int = 0,
                  boost: float = 3.0
                  ) -> Tuple[Callable[[], CoverRun], Callable[[], CoverRun],
                             int]:
    """The closed form and the machine reference of
    :func:`neighborhood_cover_direct`, uncalled, and the repetition
    count.  Each engine returns ``(clusterings, metrics, rounds)``; the
    module docstring gives the metering the closed form reproduces.
    """
    factory, reps, beta, cap = build_cover_machine_factory(
        graph, k, w, boost=boost)

    def closed_form() -> CoverRun:
        starts = start_rounds(graph, beta=beta, cap=cap, seed=seed,
                              reps=reps)
        adopt, clusterings = mpx_wavefront(graph, starts, beta=beta)
        rounds = reps * cover_window(cap)
        return clusterings, wavefront_metrics(
            graph, adopt[0], rounds=rounds, reps=reps), rounds

    def reference() -> CoverRun:
        execution = run_machines(graph, factory, seed=seed)
        return (_package(graph, execution.outputs, reps, beta),
                execution.metrics, execution.rounds)

    return closed_form, reference, reps


def same_cover(a: CoverRun, b: CoverRun) -> bool:
    """Both engines agree on every clustering, the metering (item order
    included) and ``rounds``."""
    return a[0] == b[0] and a[2] == b[2] and a[1].identical(b[1])
