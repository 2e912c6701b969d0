"""Event-driven stepping vs the lockstep anchor.

The BCONGEST drivers -- the phase stepper behind ``simulate_bcongest``,
``simulate_aggregation`` and ``simulate_aggregation_star``, and the
direct stepper behind ``run_machines`` (and its ``Network.run``
reference) -- step a machine only in round 1, when its inbox is
non-empty, while it is not ``passive()``, and when its ``wake_round()``
comes due.  That is exact only if every
machine keeps the stepping contract of :class:`repro.congest.machine.
Machine`: an idle ``on_round`` changes nothing, and ``passive()`` /
``wake_round()`` name every round the machine acts on its own.

The anchor here is a lockstep run of the same drivers: each machine is
wrapped in :class:`_Lockstep`, which is not passive while the machine is
live, so it is stepped in every round.  A machine is live until it
halts or settles -- passive with no wake-up still ahead, the point after
which the pre-event-driven drivers never woke it on their own either.
The schedule-driven machines (matching, cover, Bellman-Ford) stay live
until they halt, so they run exactly as they did before.  A machine
whose idle ``on_round`` mutates state, or whose schedule hides a round
it acts in, makes the two runs disagree on outputs, ``Metrics``,
per-edge congestion, ``phases`` or ``broadcasts_simulated``.

The MPX flood of the cover and LDC drivers runs in closed form on a
fault-free call, which steps no machine; these tests route it to its
machine reference (:func:`_machines_stepped`), so ``MPXMachine`` and
``CoverCollectionMachine`` stay checked against lockstep.

The step-count pins at the end fail on a regression back to lockstep.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple
from unittest import mock

import pytest

import repro.core.cover_app as cover_app_module
import repro.decomposition.mpx as mpx_module
from repro.congest.machine import Machine, run_machines
from repro.core.bcongest_sim import simulate_bcongest
from repro.core.bfs_collections import n_bfs_trees_batched, n_bfs_trees_star
from repro.core.cover_app import neighborhood_cover, neighborhood_cover_direct
from repro.core.matching_app import maximum_matching, maximum_matching_direct
from repro.core.tradeoff_apsp import apsp_tradeoff
from repro.core.tradeoff_sim import simulate_aggregation
from repro.core.tradeoff_sim_star import simulate_aggregation_star
from repro.core.weighted_apsp import weighted_apsp
from repro.covers.mpx_cover import CoverCollectionMachine
from repro.decomposition.mpx import run_mpx
from repro.scenarios import get_scenario, select
from repro.testing.differential import run_differential

# Driver -> positional index of its machine-factory argument.
DRIVERS: Dict[Callable, int] = {
    run_machines: 1,
    simulate_bcongest: 1,
    simulate_aggregation: 2,
    simulate_aggregation_star: 2,
}


class _Lockstep:
    """Proxy that keeps its machine stepped in every round while live:
    until it halts, or is passive with every wake-up it ever declared
    behind it (``run_machines`` honours a declared wake-up even after the
    machine moved on, and its metered rounds count that activation)."""

    def __init__(self, machine: Any):
        self.machine = machine
        self.last_round = 0
        self.horizon = 0  # the latest wake-up the machine declared

    @property
    def halted(self) -> bool:
        return self.machine.halted

    def on_round(self, rnd: int, inbox):
        self.last_round = rnd
        return self.machine.on_round(rnd, inbox)

    def passive(self) -> bool:
        machine = self.machine
        if machine.halted:
            return True
        wake = machine.wake_round()
        if wake is not None:
            self.horizon = max(self.horizon, wake)
        return machine.passive() and self.horizon <= self.last_round

    def __getattr__(self, name: str) -> Any:
        # output(), wake_round(), aggregate, ... of the wrapped machine.
        return getattr(self.machine, name)


def _summary(result: Any) -> Dict[str, Any]:
    """What a driver call must reproduce: outputs, Metrics, per-edge
    congestion, and its phase / broadcast counts."""
    metrics = result.total if hasattr(result, "total") else result.metrics
    return {
        "outputs": result.outputs,
        "metrics": metrics.as_dict(),
        "congestion": dict(metrics.edge_congestion),
        "phases": getattr(result, "phases", getattr(result, "rounds", None)),
        "broadcasts": getattr(result, "broadcasts_simulated", None),
    }


def _recorded(monkeypatch, lockstep: bool) -> List[Dict[str, Any]]:
    """Rebind every driver (under every ``repro`` alias) to record its
    result, wrapping the factory's machines in :class:`_Lockstep` when
    ``lockstep`` is set."""
    calls: List[Dict[str, Any]] = []
    for original, index in DRIVERS.items():
        def driver(*args, _original=original, _index=index, **kwargs):
            if lockstep:
                args = list(args)
                factory = args[_index]
                args[_index] = lambda info: _Lockstep(factory(info))
            result = _original(*args, **kwargs)
            calls.append(_summary(result))
            return result

        for name, module in list(sys.modules.items()):
            if not name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, driver)
    return calls


def _both(monkeypatch, run: Callable[[], Any]):
    """``run()`` event-driven and in lockstep: (result, driver calls)."""
    out = []
    for lockstep in (False, True):
        with monkeypatch.context() as patch:
            calls = _recorded(patch, lockstep)
            out.append((run(), calls))
    return out


def _assert_same(monkeypatch, run: Callable[[], Any],
                 value: Callable[[Any], Any]) -> None:
    (event, event_calls), (lock, lock_calls) = _both(monkeypatch, run)
    assert event_calls, "no stepped driver ran"
    assert len(event_calls) == len(lock_calls)
    for got, want in zip(event_calls, lock_calls):
        assert got == want
    assert value(event) == value(lock)


def _reference(fast, reference, same, name, **kwargs):
    return reference()


@contextmanager
def _machines_stepped() -> Iterator[None]:
    """Run the MPX closed forms' machine references instead."""
    with mock.patch.object(mpx_module, "run_engines", _reference), \
            mock.patch.object(cover_app_module, "run_engines", _reference):
        yield


def _metered(result: Any) -> Tuple[Dict[str, int], Dict[Any, int]]:
    return result.metrics.as_dict(), dict(result.metrics.edge_congestion)


def _cover_value(result: Any):
    return ([(c.center_of, c.dist, c.parent, c.neighbor_clusters)
             for c in result.cover.clusterings],
            result.detail, _metered(result))


# Case -> (the binding whose scenarios it covers, run(graph, *, seed),
# the result's comparable value).
CASES: Dict[str, Tuple[str, Callable, Callable]] = {
    "matching": ("matching", maximum_matching,
                 lambda r: (r.matching, r.detail, _metered(r))),
    "matching-direct": ("matching", maximum_matching_direct,
                        lambda r: (r.matching, r.detail, _metered(r))),
    "cover": ("cover", lambda g, seed: neighborhood_cover(g, 2, 2,
                                                          seed=seed),
              _cover_value),
    "cover-direct": ("cover",
                     lambda g, seed: neighborhood_cover_direct(g, 2, 2,
                                                               seed=seed),
                     _cover_value),
    "weighted-apsp": ("apsp-weighted", weighted_apsp,
                      lambda r: (r.dist, r.parents, r.detail, _metered(r))),
    "tradeoff-apsp": ("apsp-unweighted",
                      lambda g, seed: apsp_tradeoff(g, 0.0, seed=seed),
                      lambda r: (r.dist, r.detail, _metered(r))),
    "bfs-star": ("bfs-collection",
                 lambda g, seed: n_bfs_trees_star(g, 0.5, seed=seed),
                 lambda r: (r.trees, r.detail, _metered(r))),
    "bfs-batched": ("bfs-collection",
                    lambda g, seed: n_bfs_trees_batched(g, 0.4, seed=seed),
                    lambda r: (r.trees, r.detail, _metered(r))),
    "mpx": ("ldc", lambda g, seed: run_mpx(g, beta=0.5, seed=seed),
            lambda c: (c.center_of, c.dist, c.parent, c.neighbor_clusters,
                       c.metrics.as_dict(), dict(c.metrics.edge_congestion))),
}

TIER1 = [(case, scenario.name)
         for case, (binding, _run, _value) in CASES.items()
         for scenario in select(binding)]


def _check(monkeypatch, case: str, scenario_name: str, size: int,
           seed: int) -> None:
    _binding, run, value = CASES[case]
    scenario = get_scenario(scenario_name)
    graph = scenario.graph(size, seed=seed)
    derived = scenario.seed_for(size, seed)
    with _machines_stepped():
        _assert_same(monkeypatch, lambda: run(graph, seed=derived), value)


@pytest.mark.parametrize("case,scenario_name", TIER1)
def test_event_driven_matches_lockstep(monkeypatch, case, scenario_name):
    scenario = get_scenario(scenario_name)
    _check(monkeypatch, case, scenario_name, scenario.default_size, 0)


@pytest.mark.slow
@pytest.mark.parametrize("case,scenario_name", [
    ("matching", "bipartite-balanced"),
    ("matching-direct", "bipartite-balanced"),
    ("cover", "dense-gnp"),
    ("cover-direct", "dense-gnp"),
])
def test_event_driven_matches_lockstep_at_size(monkeypatch, scenario_size,
                                               case, scenario_name):
    _check(monkeypatch, case, scenario_name, scenario_size, 144101000)


def test_lockstep_anchor_steps_every_live_machine(monkeypatch):
    """The anchor really is lockstep: every matching machine is stepped
    in every phase up to its halt, where event-driven stepping takes a
    small fraction of those steps."""
    graph = get_scenario("augmenting-chain").graph(12)

    def lockstep():
        with monkeypatch.context() as patch:
            _recorded(patch, lockstep=True)
            return maximum_matching(graph, seed=1)

    phases = maximum_matching(graph, seed=1).report.phases
    event_steps = _count_steps(monkeypatch,
                               lambda: maximum_matching(graph, seed=1))
    lockstep_steps = _count_steps(monkeypatch, lockstep)
    assert lockstep_steps >= phases * graph.n > 10 * event_steps


# ---------------------------------------------------------------------
# Step-count pins: a regression back to lockstep fails here
# ---------------------------------------------------------------------
def _machine_classes() -> List[type]:
    found, todo = [CoverCollectionMachine], [Machine]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            todo.append(sub)
            if "on_round" in sub.__dict__:
                found.append(sub)
    return found


def _count_steps(monkeypatch, run: Callable[[], Any]) -> int:
    """Top-level ``on_round`` calls made by ``run()``; a step nested in
    another machine's step (the cover machine's MPX machines) does not
    count."""
    count = [0]
    depth = [0]
    with monkeypatch.context() as patch:
        for cls in _machine_classes():
            step = cls.__dict__["on_round"]

            def on_round(self, rnd, inbox, _step=step):
                if depth[0]:
                    return _step(self, rnd, inbox)
                depth[0] = 1
                count[0] += 1
                try:
                    return _step(self, rnd, inbox)
                finally:
                    depth[0] = 0

            patch.setattr(cls, "on_round", on_round)
        run()
    return count[0]


@pytest.mark.parametrize("scenario_name,algorithm", [
    ("bipartite-balanced", "matching"),
    ("dense-gnp", "cover"),
])
def test_step_count_pin(monkeypatch, scenario_name, algorithm):
    """The n = 48 cells of the schedule benchmark at caller seed
    144101000: lockstep took 1.73M (matching) and 140K (cover) steps."""
    records = []
    with _machines_stepped():
        steps = _count_steps(monkeypatch, lambda: records.append(
            run_differential(scenario_name, algorithm, size=48,
                             seed=144101000)))
    assert steps > 0
    assert records[0].passed
    assert steps <= 20_000
