"""Per-cell profile capture: the --profile / --cprofile knobs.

Both knobs are process-wide settings of this module, carried to pool
workers inside the sweep's :class:`~repro.runner.config.SweepConfig`
like every other sweep knob; ``execute_cell`` consults this module on
every cell.  With neither knob set the consult is two cheap
module-level checks and the cell runs the untouched code path.

* :func:`configure_profiles` points at the artifact-store root whose
  ``profiles/`` family receives each cell's
  :class:`~repro.congest.profile.RoundProfile`, keyed by the full cell
  coordinates plus the current code revision.
* :func:`configure_cprofile` turns on ``cProfile`` around the cell
  body; the top hot functions ride back on ``CellResult.hot`` and are
  aggregated across cells by ``repro runs report``.

Neither knob touches the cell's canonical record: the only trace a
profiled record carries is the ``profile_source`` provenance label,
a NONDETERMINISTIC_FIELD stripped from every canonical payload.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import TYPE_CHECKING, Any, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from pathlib import Path

    from repro.congest.profile import RoundProfile
    from repro.runner.jobs import JobSpec
    from repro.store.profiles import ProfileStore

# How many hot functions each cell reports (by cumulative time).
HOT_LIMIT = 40

_store: Optional["ProfileStore"] = None
_cprofile = False
_revision: Optional[str] = None


def configure_profiles(root: "Optional[str | Path]") -> None:
    """Point cell execution at a profiles store (None turns capture off)."""
    global _store
    if root is None:
        _store = None
    else:
        from repro.store.profiles import ProfileStore

        _store = ProfileStore(root)


def effective_profile_store() -> Optional["ProfileStore"]:
    """The connected profiles store, or None."""
    return _store


def configure_cprofile(enabled: bool) -> None:
    """Turn per-cell cProfile capture on or off, process-wide."""
    global _cprofile
    _cprofile = bool(enabled)


def cprofile_enabled() -> bool:
    """Whether cells run under cProfile."""
    return _cprofile


def cell_revision() -> str:
    """The code revision stamped into profile identities (cached)."""
    global _revision
    if _revision is None:
        from repro.runner.store import git_revision

        _revision = git_revision() or "unknown"
    return _revision


def publish_profile(spec: "JobSpec", profile: "RoundProfile") -> str:
    """Persist one cell's timeline; return its ``profile_source`` label.

    ``store:<key prefix>`` when the profiles store holds it (already
    present counts -- same cell, same revision, same bytes), plain
    ``"captured"`` when no store is configured (the profile was
    recorded but has nowhere durable to go, e.g. ``--profile`` with
    ``--no-store``).
    """
    store = effective_profile_store()
    if store is None:
        return "captured"
    from repro.store.profiles import PROFILE_FAMILY, profile_identity

    identity = profile_identity(
        spec.scenario, spec.algorithm, spec.size, spec.seed,
        faults=spec.faults or "", fault_seed=spec.fault_seed,
        revision=cell_revision())
    store.publish(identity, profile)
    return f"store:{PROFILE_FAMILY.key(identity)[:12]}"


def hot_rows(profiler: cProfile.Profile,
             limit: int = HOT_LIMIT) -> List[List[Any]]:
    """The top functions by cumulative time: [label, calls, seconds].

    Labels are ``file:line:function`` with the path reduced to its
    basename -- stable across checkouts, which is what lets
    ``repro runs report`` aggregate rows from many worker processes.
    """
    stats = pstats.Stats(profiler)
    rows = []
    for (filename, lineno, name), entry in stats.stats.items():
        _cc, calls, _tt, cumulative, _callers = entry
        label = f"{os.path.basename(filename)}:{lineno}:{name}"
        rows.append([label, int(calls), float(cumulative)])
    rows.sort(key=lambda row: (-row[2], row[0]))
    return rows[:limit]
