"""Tests for the benchmark's own code.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests

The unit tests cover self-time arithmetic, ratio bases, the metric-name
pattern and the correctness gates; the smoke tests run every workload
end to end at smoke size, traced and untraced, and check the output
contract against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from layers import layer_metrics  # noqa: E402
from run import GateFailure, check_cells, check_same  # noqa: E402
from spans import (  # noqa: E402
    Tracer,
    ratio,
    self_time_by_name,
    self_times,
    union_length,
    valid_metric_name,
)
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ---------------------------------------------------------------------
# Self time and coverage
# ---------------------------------------------------------------------
def test_union_merges_overlaps_and_clips():
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert union_length([(0, 10)], 2, 4) == 2
    assert union_length([(0, 1), (1, 2)]) == 2
    assert union_length([(3, 3), (4, 2)]) == 0
    assert union_length([]) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("cell", 0.0, 10.0, -1, "k"),
        ("bcongest", 1.0, 9.0, 0, "k"),
        ("transport", 2.0, 5.0, 1, "k"),
        ("congest", 3.0, 4.0, 2, "k"),
        ("transport", 6.0, 7.0, 1, "k"),
    ]
    assert self_times(spans) == [2.0, 4.0, 2.0, 1.0, 1.0]
    by_name = self_time_by_name(spans)
    assert by_name == {"cell": 2.0, "bcongest": 4.0, "transport": 3.0,
                       "congest": 1.0}
    # Self times of a tree add up to its root's duration.
    assert sum(self_times(spans)) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1, None), ("c", 1.0, 5.0, 0, None),
             ("c", 4.0, 6.0, 0, None)]
    assert self_times(spans)[0] == 5.0


def test_tracer_records_nesting_and_cell_key():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def inner():
        return 7

    traced_inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", lambda: traced_inner() + 1)
    tracer.cell = "cell-a"
    assert outer() == 8
    assert tracer.finished() == [("outer", 0.0, 3.0, -1, "cell-a"),
                                 ("inner", 1.0, 2.0, 0, "cell-a")]


def test_tracer_closes_span_when_call_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert [span[0] for span in tracer.finished()] == ["boom"]


# ---------------------------------------------------------------------
# Ratios and their bases
# ---------------------------------------------------------------------
def test_ratio_of_empty_base_is_zero():
    assert ratio(3, 0) == 0.0
    assert ratio(1, 4) == 0.25


def _cell(algorithm, wall, engine="none", eligible=False):
    return {"algorithm": algorithm, "wall_time": wall,
            "engine_source": engine, "kernel_eligible": eligible,
            "metrics": {"max_edge_congestion": int(wall * 10)}}


def test_layer_ratios_use_their_bases():
    batch = [("cell", 0.0, 4.0, -1, "a"),
             ("graphs", 0.0, 1.0, 0, "a"),
             ("store.load", 0.5, 1.0, 1, "a")]
    cells = [_cell("apsp-unweighted", 4.0, "kernel:bfs-wavefront", True),
             _cell("apsp-weighted", 2.0, "vectorized:fallback", True),
             _cell("cover", 2.0)]
    counts = {"graphs.lookups": 4, "graphs.hits": 1,
              "congest.machine_steps": 10, "congest.idle_steps": 9}
    out = layer_metrics([batch], counts, cells, workers=2,
                        sweep_window=(0.0, 5.0))
    # 8 busy cell-seconds over 2 workers x 5 s.
    assert out["runner.idle_frac"] == (pytest.approx(0.2), "ratio")
    assert out["graphs.hit_frac"] == (0.25, "ratio")
    assert out["oracles.hit_frac"] == (0.0, "ratio")     # no lookups
    assert out["kernels.served_frac"] == (0.5, "ratio")  # of eligible
    assert out["kernels.eligible"] == (2.0, "count")
    assert out["congest.idle_step_frac"] == (0.9, "ratio")
    assert out["graphs.s"] == (0.5, "s")                 # self time
    assert out["store.load_s"] == (0.5, "s")
    assert out["runner.cell_s.apsp-unweighted"] == (4.0, "s")
    assert out["congest.max_edge_congestion"] == (40.0, "count")
    # Layer spans cover [0, 1] of the 5 s sweep.
    assert out["trace.uncovered_frac"] == (pytest.approx(0.8), "ratio")


# ---------------------------------------------------------------------
# Metric names and the BENCHMARK.json contract
# ---------------------------------------------------------------------
@pytest.mark.parametrize("name,ok", [
    ("sweep_s", True), ("runner.cell_s.apsp-unweighted", True),
    ("congest.idle_step_frac", True), ("9lives", True),
    ("", False), (".hidden", False), ("has space", False),
    ("slash/name", False), ("x" * 65, False)])
def test_metric_name_pattern(name, ok):
    assert valid_metric_name(name) is ok


def test_declared_names_are_valid_and_unique():
    names = ([m["name"] for m in SPEC["end_to_end"]]
             + [m["name"] for m in SPEC["per_layer"]]
             + [w["name"] for w in SPEC["workloads"]])
    assert len(names) == len(set(names))
    assert all(valid_metric_name(name) for name in names)
    assert {w["name"] for w in SPEC["workloads"]} == set(WORKLOADS)
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


# ---------------------------------------------------------------------
# Correctness gates
# ---------------------------------------------------------------------
def _report(digest="d", messages=5, passed=True):
    return {"planned": 1, "cells": [{
        "key": "k", "status": "done", "passed": passed, "error": None,
        "digest": digest, "metrics": {"messages": messages, "rounds": 1,
                                      "words": 1,
                                      "max_edge_congestion": 1}}]}


def test_gates():
    check_cells(_report(), "ok")
    check_same(_report(), _report(), "ok")
    with pytest.raises(GateFailure, match="not passed"):
        check_cells(_report(passed=False), "x")
    with pytest.raises(GateFailure, match="counts differ"):
        check_same(_report(), _report(messages=6), "x")
    with pytest.raises(GateFailure, match="canonical record"):
        check_same(_report(), _report(digest="e"), "x")


# ---------------------------------------------------------------------
# Smoke-size runs of every workload
# ---------------------------------------------------------------------
def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=str(cwd),
        capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3",
                "--seconds", "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        for name in ("sweep_s", "setup_s", "messages"):
            assert result["metrics"][name]["value"] > 0


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "schedule-n48", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
