"""One measured sweep in a fresh process: set up, sweep, report.

``run.py`` starts this script once per repetition so that no
process-global cache survives from one sweep to the next.  It writes
one JSON document to ``--out``:

* ``setup_s``: from the parent's clock reading just before it started
  this process (``--t0``, a ``perf_counter`` value; on Linux that clock
  is system-wide) to the end of planning and pre-warm;
* ``sweep_s``: the ``run_sweep`` call, from dispatching the first cell
  to returning the last record;
* ``peak_rss_mb``: the larger of this process's and its pool workers'
  maximum resident set size;
* ``cells``: one row per cell with its status, counts and a digest of
  its canonical record;
* with ``--mode traced``, the per-layer metrics and the span dump.

``--mode setup`` stops after set-up and reports ``setup_s`` alone.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from spans import Tracer  # noqa: E402


def _import_repro() -> None:
    import repro
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"repro was imported from {origin}, not from "
                         f"{SRC}; refusing to measure another copy")


def _flush_worker(tracer: Tracer, spans_dir: Path) -> None:
    """Append a pool worker's spans and counter deltas, then clear them."""
    with open(spans_dir / f"{os.getpid()}.jsonl", "a") as fh:
        fh.write(json.dumps({"pid": os.getpid(), "spans": tracer.finished(),
                             "counts": tracer.counts}) + "\n")
    tracer.reset()


def _trace_cells(tracer: Tracer, spans_dir: Path) -> None:
    """Tag spans with the running cell; pool workers flush per cell.

    A forked worker inherits the wrappers and this process's tracer;
    the fork hook clears what it inherited, and each cell's spans are
    written out when the cell ends, since a pool worker never returns
    its memory to the parent.
    """
    from repro.runner import executor

    owner = os.getpid()
    os.register_at_fork(after_in_child=tracer.reset)
    traced = executor.execute_cell

    @functools.wraps(traced)
    def execute_cell(spec, timeout=None):
        tracer.cell = spec.key
        try:
            return traced(spec, timeout)
        finally:
            tracer.cell = None
            if os.getpid() != owner:
                _flush_worker(tracer, spans_dir)

    executor.execute_cell = execute_cell


def _cell_row(result) -> dict:
    from repro.kernels.config import REGISTRY

    record = result.record or {}
    canonical = result.canonical_record()
    error = (result.error or "").strip().splitlines()
    return {
        "key": result.key,
        "algorithm": result.spec.algorithm,
        "status": result.status,
        "passed": result.passed,
        "error": error[-1] if error else None,
        "wall_time": result.wall_time,
        "engine_source": record.get("engine_source", "none"),
        "kernel_eligible": result.spec.algorithm in REGISTRY,
        "metrics": record.get("metrics", {}),
        "digest": hashlib.sha256(json.dumps(
            canonical, sort_keys=True).encode()).hexdigest()[:16],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "plain", "traced"),
                        required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    tracer = Tracer()
    from layers import layer_metrics, patch_fsync
    patch_fsync(tracer)
    _import_repro()
    from workloads import WORKLOADS, configure_sweep, plan

    workload = WORKLOADS[args.workload]
    specs = plan(workload, args.seed, smoke=args.smoke)
    kwargs = configure_sweep(workload, specs, args.work)
    setup_s = time.perf_counter() - args.t0
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        args.out.write_text(json.dumps(out))
        return 0

    spans_dir = args.work / "spans"
    if args.mode == "traced":
        from layers import install
        spans_dir.mkdir(parents=True, exist_ok=True)
        install(tracer)
        _trace_cells(tracer, spans_dir)
    tracer.counts.clear()   # set-up's fsyncs are not the sweep's

    from repro.runner import run_sweep
    start = time.perf_counter()
    outcome = run_sweep(**kwargs)
    end = time.perf_counter()

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    cells = [_cell_row(result) for result in outcome.results]
    out.update(sweep_s=end - start, peak_rss_mb=rss_kb / 1024.0,
               planned=len(specs), cells=cells)
    if args.mode == "traced":
        batches = [tracer.finished()]
        counts = dict(tracer.counts)
        pids = [os.getpid()]
        for path in sorted(spans_dir.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                flush = json.loads(line)
                batches.append([tuple(span) for span in flush["spans"]])
                pids.append(flush["pid"])
                for name, value in flush["counts"].items():
                    counts[name] = counts.get(name, 0) + value
        metrics = layer_metrics(batches, counts, cells,
                                workers=workload.workers,
                                sweep_window=(start, end))
        out["layers"] = metrics
        out["spans"] = [
            {"id": f"{pid}.{b}.{i}", "name": name,
             "start": s - start, "end": e - start,
             "parent": None if parent < 0 else f"{pid}.{b}.{parent}",
             "cell": cell}
            for b, (pid, batch) in enumerate(zip(pids, batches))
            for i, (name, s, e, parent, cell) in enumerate(batch)]
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
