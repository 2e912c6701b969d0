"""The benchmark's workloads and the one function that configures a sweep.

Each workload is a set of ``(scenario, algorithm, size, seed)`` cells
planned from the benchmark's ``--seed`` plus the sweep-engine settings
it runs under.  :func:`configure_sweep` is the only place that turns a
workload into ``run_sweep`` keyword arguments and does its store
pre-warm, so a change to how sweeps are configured edits this one
function.  Why each workload exists is in ``README.md``.
"""

from __future__ import annotations

import dataclasses
import random
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

APSP_BINDINGS = ("apsp-unweighted", "apsp-weighted", "bfs-collection")
SCHEDULE_BINDINGS = ("matching", "cover")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    bindings: Optional[Tuple[str, ...]]  # None: every bound algorithm
    size: Optional[int]                  # None: each scenario's default
    caller_seeds: int                    # caller seeds per sweep
    workers: int
    kernels: bool
    store: str      # "cold": every family on, empty; "warm": pre-warmed
                    # graphs + oracles, read only; "off": no store
    smoke_size: Optional[int] = None     # the size a smoke run uses


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="matrix-cold",
        bindings=None, size=None, caller_seeds=4, workers=2,
        kernels=False, store="cold"),
    Workload(
        name="apsp-kernels",
        bindings=APSP_BINDINGS, size=64, caller_seeds=1, workers=1,
        kernels=True, store="warm", smoke_size=16),
    Workload(
        name="schedule-n48",
        bindings=SCHEDULE_BINDINGS, size=48, caller_seeds=1, workers=1,
        kernels=False, store="off", smoke_size=12),
)}


def caller_seeds(seed: int, count: int) -> List[int]:
    """The caller seeds a benchmark ``--seed`` expands to."""
    rng = random.Random(seed)
    return [rng.randrange(1 << 30) for _ in range(count)]


def plan(workload: Workload, seed: int, *, smoke: bool = False):
    """The workload's cells as ``JobSpec``s, in canonical order.

    A smoke plan keeps every cell kind but shrinks the inputs: one
    caller seed, and ``smoke_size`` where the workload sets one.
    """
    from repro.runner import build_specs

    size = workload.smoke_size if smoke and workload.smoke_size else (
        workload.size)
    seeds = caller_seeds(seed, 1 if smoke else workload.caller_seeds)
    specs = build_specs(sizes=None if size is None else [size], seeds=seeds)
    if workload.bindings is None:
        return specs
    return [spec for spec in specs if spec.algorithm in workload.bindings]


def configure_sweep(workload: Workload, specs, work: Path) -> Dict[str, Any]:
    """Set the process up for ``workload`` and return ``run_sweep`` kwargs.

    Every knob is set explicitly, so ambient state cannot switch a
    plane on or off: the store families, the kernel tier, profiling
    and cProfile.  A ``warm`` workload's store is filled here, from
    the planned cells' scenarios, sizes and caller seeds, restricted
    to the workload's bindings so no unused oracle is computed.
    """
    from repro.runner import (
        RunStore,
        decomposition_cache,
        graph_cache,
        oracle_cache,
        profile_capture,
    )
    from repro.kernels import config as kernels_config

    profile_capture.configure_profiles(None)
    profile_capture.configure_cprofile(False)
    kernels_config.configure_kernels(workload.kernels)
    kwargs: Dict[str, Any] = {"specs": specs, "workers": workload.workers,
                              "kernels": workload.kernels,
                              "cprofile": False}
    root = str(work / "store")
    if workload.store == "off":
        for chain in (graph_cache, oracle_cache, decomposition_cache):
            chain.configure_store(None)
        return kwargs
    if workload.store == "cold":
        # The `repro sweep` defaults: run store with telemetry, every
        # artifact family and bench-history under the store root.  A
        # fixed revision keeps git out of the measured sweep.
        kwargs.update(store=RunStore(str(work / "runs")), revision="bench",
                      seeds=sorted({spec.seed for spec in specs}),
                      telemetry=True, graph_store_dir=root,
                      oracle_store_dir=root, decomposition_store_dir=root,
                      bench_history_dir=root)
        return kwargs

    from repro.scenarios import get_scenario
    from repro.store import GraphStore, OracleStore, warm, warm_oracles

    decomposition_cache.configure_store(None)
    kwargs.update(graph_store_dir=root, oracle_store_dir=root)
    cells: Dict[Tuple[str, int, int], set] = {}
    for spec in specs:
        cells.setdefault((spec.scenario, spec.size, spec.seed),
                         set()).add(spec.algorithm)
    graphs, oracles = GraphStore(root), OracleStore(root)
    for (name, size, seed), algorithms in cells.items():
        scenario = get_scenario(name)
        bound = dataclasses.replace(scenario, algorithms=tuple(
            a for a in scenario.algorithms if a in algorithms))
        warm(graphs, [bound], sizes=[size], seeds=[seed])
        warm_oracles(oracles, [bound], sizes=[size], seeds=[seed])
    return kwargs
