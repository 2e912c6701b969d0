"""Machine layer: adapter scheduling, LocalRunner oracle, seed stability,
lazy per-node PRNGs, and the Theorem 2.1 report invariants on small and
degenerate inputs."""

import random

import pytest

from repro.congest import (
    Algorithm,
    LocalRunner,
    Machine,
    make_node_info,
    node_seed,
    run_algorithm,
    run_machines,
)
from repro.core.bcongest_sim import chunk_words, flatten_to_words, simulate_bcongest
from repro.decomposition.mpx import run_mpx
from repro.graphs import from_edges, gnp, path
from repro.matching.israeli_itai import IsraeliItaiMachine
from repro.primitives import BFSMachine, LubyMISMachine


class CountdownMachine(Machine):
    """Broadcasts for `k` rounds, then halts with the round it stopped."""

    def __init__(self, info, k: int = 3):
        super().__init__(info)
        self.k = k

    def on_round(self, rnd, inbox):
        if rnd >= self.k:
            self.set_output(rnd)
            self.halted = True
            return None
        return ("tick", rnd)


class SleeperMachine(Machine):
    """Passive machine that wakes itself once at round 10."""

    def __init__(self, info):
        super().__init__(info)
        self.fired = None

    def passive(self):
        return True

    def wake_round(self):
        return 10 if self.fired is None else None

    def on_round(self, rnd, inbox):
        if rnd >= 10 and self.fired is None:
            self.fired = rnd
            self.set_output(rnd)
            self.halted = True
        return None


def test_adapter_lockstep_until_halt():
    g = path(4)
    execution = run_machines(g, lambda info: CountdownMachine(info, k=4))
    assert all(execution.outputs[v] == 4 for v in g.nodes())
    # k-1 broadcasting rounds per node.
    assert execution.metrics.broadcasts == g.n * 3


def test_adapter_respects_wake_round():
    g = path(3)
    execution = run_machines(g, SleeperMachine)
    assert all(execution.outputs[v] == 10 for v in g.nodes())
    assert execution.rounds == 10
    assert execution.metrics.messages == 0


def test_local_runner_equals_network_run():
    g = gnp(18, 0.3, seed=9)
    net = run_machines(g, LubyMISMachine, seed=4)
    local = LocalRunner(g, LubyMISMachine, seed=4).run()
    assert net.outputs == local


def test_local_runner_handles_wake_jumps():
    g = path(3)
    outputs = LocalRunner(g, SleeperMachine).run()
    assert all(v == 10 for v in outputs.values())


def test_node_seed_stability_across_modes():
    g = gnp(10, 0.4, seed=2)
    info_a = make_node_info(g, 3, seed=42)
    info_b = make_node_info(g, 3, seed=42)
    assert info_a.seed == info_b.seed == node_seed(42, 3)
    assert make_node_info(g, 3, seed=43).seed != info_a.seed


def test_simulation_single_edge_graph():
    g = path(2)
    factory = lambda info: BFSMachine(info, root=1)
    sim = simulate_bcongest(g, factory, seed=3)
    assert sim.outputs[1] == (0, None)
    assert sim.outputs[0] == (1, 1)


def test_simulation_star_graph():
    g = from_edges(5, [(0, i) for i in range(1, 5)])
    factory = lambda info: BFSMachine(info, root=2)
    direct = run_machines(g, factory, seed=5)
    sim = simulate_bcongest(g, factory, seed=5)
    assert sim.outputs == direct.outputs


def test_flatten_words_rejects_unknown_types():
    with pytest.raises(TypeError):
        flatten_to_words(object())


def test_chunk_words_edge_cases():
    assert chunk_words([]) == []
    assert chunk_words([1], size=4) == [(1,)]
    assert chunk_words(list(range(8)), size=4) == [(0, 1, 2, 3), (4, 5, 6, 7)]


def test_machine_outputs_surface_for_non_halting_machines():
    # Depth-limited BFS: unreachable nodes never halt but their (empty)
    # outputs must still surface.
    g = path(6)
    execution = run_machines(
        g, lambda info: BFSMachine(info, root=0, max_depth=2))
    assert execution.outputs[5] is None
    assert execution.outputs[2] == (2, 1)


def test_run_machines_word_limit_enforced():
    from repro.congest.errors import MessageTooLarge

    class Fat(Machine):
        def on_round(self, rnd, inbox):
            self.halted = True
            return tuple(range(50))

    with pytest.raises(MessageTooLarge):
        run_machines(path(2), Fat, word_limit=8)


# ---------------------------------------------------------------------
# Lazy per-node PRNGs
# ---------------------------------------------------------------------
def _count_rngs(monkeypatch, run):
    """Run ``run()`` counting the ``random.Random`` instances built."""
    built = []

    class Counting(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    with monkeypatch.context() as patch:
        patch.setattr(random, "Random", Counting)
        run()
    return len(built)


def test_non_random_runs_build_no_rng(monkeypatch):
    class Echo(Algorithm):
        def on_round(self, api, rnd, inbox):
            if rnd == 1:
                api.broadcast(self.info.id)

    g = gnp(12, 0.4, seed=2)
    assert _count_rngs(monkeypatch, lambda: run_machines(
        g, lambda info: BFSMachine(info, root=0))) == 0
    assert _count_rngs(monkeypatch, lambda: run_algorithm(g, Echo)) == 0
    assert _count_rngs(monkeypatch, lambda: run_machines(
        g, LubyMISMachine)) > 0


def _eager(monkeypatch):
    """Build every machine's PRNG at construction, as before."""
    init = Machine.__init__

    def eager_init(self, info):
        init(self, info)
        self.rng

    monkeypatch.setattr(Machine, "__init__", eager_init)


def _randomized_runs():
    g = gnp(16, 0.3, seed=5)
    luby = run_machines(g, LubyMISMachine, seed=3)
    itai = run_machines(g, IsraeliItaiMachine, seed=4)
    mpx = run_mpx(g, beta=0.5, seed=6)
    return (luby.outputs, luby.metrics.as_dict(),
            itai.outputs, itai.metrics.as_dict(),
            mpx.center_of, mpx.dist, mpx.parent,
            mpx.metrics.as_dict())


def test_lazy_rng_keeps_luby_israeli_itai_and_mpx_outputs(monkeypatch):
    lazy = _randomized_runs()
    with monkeypatch.context() as patch:
        _eager(patch)
        eager = _randomized_runs()
    assert lazy == eager
