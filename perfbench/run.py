"""End-to-end sweep benchmark for the CONGEST reproduction.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload matrix-cold --seed 1 \\
        --seconds 25 --trace 0

Every repetition is a fresh Python process (``child.py``) with the
``REPRO_*`` environment cleared and its stores in a fresh directory
under ``.perfbench_work/``, removed on exit.

``--trace 0`` starts repetitions of the workload's sweep until
``--seconds`` have passed (so the last one may run over), then starts
set-up-only processes until there are ``SETUP_SAMPLES`` set-up
times, and reports
the end-to-end metrics: medians over repetitions, and the metered
counts, which must be identical in every repetition.

``--trace 1`` runs the sweep once untraced and once traced, reports
the per-layer metrics of the traced sweep, and writes its spans to
``.perfbench_out/spans-<workload>-<seed>.json``.

Every metric is printed as ``name value unit``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is non-zero when any cell fails, when the counts or
canonical records of two sweeps of one seed differ, or when the
repository's ``src/`` is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import ratio, valid_metric_name  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 150.0
COUNTS = ("messages", "rounds", "words")


class GateFailure(Exception):
    """A sweep failed a correctness gate; the message says which."""


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(workload: str, seed: int, mode: str, work: Path,
          smoke: bool) -> dict:
    """Run one child process to completion and return its report."""
    work.mkdir(parents=True)
    out = work / "report.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--work", str(work),
           "--out", str(out)]
    if smoke:
        cmd.append("--smoke")
    cmd += ["--t0", repr(time.perf_counter())]
    proc = subprocess.Popen(cmd, env=child_env(), cwd=str(work),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise GateFailure(f"{mode} sweep exceeded {CHILD_TIMEOUT_S:.0f}s")
    finally:
        # Pool workers share the child's process group; none may outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise GateFailure(f"{mode} sweep exited {proc.returncode}: "
                          f"{(stderr or stdout).strip()[-2000:]}")
    return json.loads(out.read_text())


def totals(report: dict) -> Dict[str, int]:
    """The metered counts summed over cells, plus the worst congestion."""
    cells = report["cells"]
    out = {name: sum(c["metrics"].get(name, 0) for c in cells)
           for name in COUNTS}
    out["max_congestion"] = max(
        (c["metrics"].get("max_edge_congestion", 0) for c in cells),
        default=0)
    return out


def check_cells(report: dict, label: str) -> None:
    if report["planned"] != len(report["cells"]):
        raise GateFailure(f"{label}: {len(report['cells'])} of "
                          f"{report['planned']} cells returned")
    bad = [c for c in report["cells"] if not c["passed"]]
    if bad:
        first = bad[0]
        raise GateFailure(f"{label}: {len(bad)} cell(s) not passed, first "
                          f"{first['key']} ({first['status']}): "
                          f"{first['error']}")


def check_same(reference: dict, other: dict, label: str) -> None:
    """Canonical records (and so the counts) must match cell by cell."""
    if totals(reference) != totals(other):
        raise GateFailure(f"{label}: metered counts differ: "
                          f"{totals(reference)} vs {totals(other)}")
    diff = [a["key"] for a, b in zip(reference["cells"], other["cells"])
            if a["digest"] != b["digest"] or a["key"] != b["key"]]
    if diff:
        raise GateFailure(f"{label}: {len(diff)} canonical record(s) "
                          f"differ, first {diff[0]}")


def plain_run(args, work: Path,
              reps: List[dict]) -> Dict[str, Tuple[float, str]]:
    """Repeat the sweep for ``--seconds``; end-to-end metrics."""
    deadline = time.perf_counter() + args.seconds
    while True:
        report = spawn(args.workload, args.seed, "plain",
                       work / f"rep{len(reps)}", args.smoke)
        reps.append(report)
        check_cells(report, f"repetition {len(reps)}")
        if len(reps) > 1:
            check_same(reps[0], report, f"repetition {len(reps)}")
        if time.perf_counter() >= deadline:
            break
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(args.workload, args.seed, "setup",
                            work / f"setup{len(setups)}",
                            args.smoke)["setup_s"])
    counts = totals(reps[0])
    metrics = {
        "sweep_s": (statistics.median(r["sweep_s"] for r in reps), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps),
                        "MB"),
    }
    for name in COUNTS:
        metrics[name] = (float(counts[name]), "count")
    print(f"# {len(reps)} repetition(s) of {reps[0]['planned']} cells; "
          f"sweep_s samples {[round(r['sweep_s'], 3) for r in reps]}; "
          f"setup_s samples {[round(s, 3) for s in setups]}")
    return metrics


def traced_run(args, work: Path,
               reports: List[dict]) -> Dict[str, Tuple[float, str]]:
    """One untraced and one traced sweep; per-layer metrics."""
    plain = spawn(args.workload, args.seed, "plain", work / "plain",
                  args.smoke)
    reports.append(plain)
    check_cells(plain, "untraced sweep")
    traced = spawn(args.workload, args.seed, "traced", work / "traced",
                   args.smoke)
    reports.append(traced)
    check_cells(traced, "traced sweep")
    check_same(plain, traced, "traced sweep")
    metrics = {name: tuple(value) for name, value in
               traced["layers"].items()}
    metrics["trace.overhead_frac"] = (
        ratio(traced["sweep_s"], plain["sweep_s"]) - 1.0, "ratio")
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    dump = out_dir / f"spans-{args.workload}-{args.seed}.json"
    dump.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "sweep_s": traced["sweep_s"], "untraced_sweep_s": plain["sweep_s"],
        "workers": WORKLOADS[args.workload].workers,
        "spans": traced["spans"]}))
    print(f"# traced sweep {traced['sweep_s']:.3f} s over untraced "
          f"{plain['sweep_s']:.3f} s; {len(traced['spans'])} spans "
          f"written to {dump.relative_to(ROOT)}")
    workers = WORKLOADS[args.workload].workers
    if workers > 1:
        print(f"# spans come from the sweep process and its {workers} pool "
              f"workers, which flush them per cell")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end sweep benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink the workload's inputs (for tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}; run from "
              f"the root of a full checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / (
        f"{args.workload}-{args.seed}-{os.getpid()}")
    correct, failure = True, None
    metrics: Dict[str, Tuple[float, str]] = {}
    reports: List[dict] = []
    try:
        run = traced_run if args.trace else plain_run
        metrics = run(args, work, reports)
    except GateFailure as exc:
        correct, failure = False, str(exc)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    cells = [c for report in reports for c in report["cells"]]
    attempted = max(len(cells), 1)
    failed = sum(not c["passed"] for c in cells) or (0 if correct else 1)
    if reports:
        print(f"# fail_frac {ratio(failed, attempted):.6g} "
              f"(= {failed} failed / {attempted} attempted cells)")
        base = totals(reports[0])
        print(f"# max_congestion {base['max_congestion']} count "
              f"(worst cell, identical in every sweep of this seed)")
    for name, (value, unit) in metrics.items():
        if not valid_metric_name(name):
            raise ValueError(f"bad metric name {name!r}")
        print(f"{name} {value:.6g} {unit}")
    if failure:
        print(f"error: {failure}", file=sys.stderr)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
