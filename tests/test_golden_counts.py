"""Golden metered counts: every default-matrix cell, pinned.

``tests/golden_metered_counts.json`` holds ``rounds``, ``messages``,
``words`` and ``max_edge_congestion`` for every scenario x binding cell
of the default matrix at its ``default_size`` and caller seed 0.  A
fresh run must reproduce each row exactly, so a change to any engine's
metering shows up here as a reviewed diff of that file rather than
slipping through the envelope checks.

Regenerate after a deliberate metering change (and review the diff)::

    PYTHONPATH=src python tests/test_golden_counts.py --write
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List

import pytest

from repro.scenarios import all_scenarios
from repro.testing import run_differential

GOLDEN = Path(__file__).with_name("golden_metered_counts.json")
COUNTS = ("rounds", "messages", "words", "max_edge_congestion")
CELLS = [(s.name, algorithm)
         for s in all_scenarios() for algorithm in s.algorithms]


def fresh_row(scenario: str, algorithm: str) -> Dict[str, object]:
    record = run_differential(scenario, algorithm, seed=0)
    row: Dict[str, object] = {"cell": f"{scenario} x {algorithm}",
                              "n": record.n}
    row.update((key, record.metrics[key]) for key in COUNTS)
    return row


def _golden() -> Dict[str, Dict[str, object]]:
    return {row["cell"]: row for row in json.loads(GOLDEN.read_text())}


def test_golden_file_covers_the_default_matrix():
    assert sorted(_golden()) == sorted(f"{s} x {a}" for s, a in CELLS)


@pytest.mark.parametrize("scenario,algorithm", CELLS,
                         ids=[f"{s}-{a}" for s, a in CELLS])
def test_metered_counts_match_golden(scenario, algorithm):
    want = _golden()[f"{scenario} x {algorithm}"]
    assert fresh_row(scenario, algorithm) == want


def write(path: Path = GOLDEN) -> None:
    """One row per line, so a metering change diffs cell by cell."""
    rows: List[str] = [json.dumps(fresh_row(s, a)) for s, a in CELLS]
    path.write_text("[\n" + ",\n".join(rows) + "\n]\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden_counts.py --write")
    write()
