"""The parallel sweep engine and persistent run store (ISSUE 2).

The scenario x algorithm matrix is embarrassingly parallel: every cell
``(scenario, algorithm, size, seed)`` is seed-deterministic and
independent.  This package turns that matrix into a scalable, resumable,
regression-tracked workload:

* :mod:`repro.runner.jobs` -- picklable :class:`JobSpec` /
  :class:`CellResult` records and content-addressed cell keys;
* :mod:`repro.runner.executor` -- the multiprocess worker pool with
  per-cell wall-time metering and in-worker ``SIGALRM`` timeouts
  (``workers=1`` stays fully in-process for debuggability);
* :mod:`repro.runner.store` -- JSONL run records plus a manifest
  (schema version, git revision, python version, planned cell keys)
  under a ``runs/`` directory; interrupted sweeps resume by key;
* :mod:`repro.runner.compare` -- cell-by-cell regression diff between
  two runs (verdict flips, metered drift, wall-time ratios);
* :mod:`repro.runner.engine` -- the high-level
  plan -> resume -> execute -> persist pipeline;
* :mod:`repro.runner.chain` -- the one fall-through artifact chain
  (per-worker LRU -> the shared on-disk store of :mod:`repro.store` ->
  compute-and-publish) behind three typed entry points:
  :mod:`repro.runner.graph_cache` (scenario graphs, keyed by derived
  construction seed), :mod:`repro.runner.oracle_cache` (the cells'
  sequential baselines, keyed additionally by oracle name and source
  revision) and :mod:`repro.runner.decomposition_cache` (the LDC
  snapshot the staged cover/spanner/hierarchy cells consume) -- so
  cells stop recomputing their inputs within *and across* worker
  processes, sweeps, and revisions;
* :mod:`repro.runner.config` -- :class:`SweepConfig`, the frozen,
  picklable snapshot of every process-wide sweep knob (chain sizes and
  stores, profile capture, kernels) that ``run_sweep`` applies
  in-process and hands to every pool worker.

Consumers: the ``repro sweep`` CLI command, ``repro scenarios sweep``,
:func:`repro.testing.sweep`, and ``examples/parallel_sweep.py``.
"""

from repro.runner.compare import CellDelta, RunComparison, compare_runs
from repro.runner.engine import (
    SweepOutcome,
    fault_counts,
    run_sweep,
    sweep_params,
)
from repro.runner.executor import execute_cell, run_cells
from repro.runner.jobs import CellResult, JobSpec, build_specs, cell_key
from repro.runner.store import Run, RunStore, git_revision

__all__ = [
    "CellDelta", "CellResult", "JobSpec", "Run", "RunComparison",
    "RunStore", "SweepOutcome", "build_specs", "cell_key", "compare_runs",
    "execute_cell", "fault_counts", "git_revision", "run_cells",
    "run_sweep", "sweep_params",
]
