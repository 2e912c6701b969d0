"""The link-queue transport engine against the Network-backed reference.

``route_packets`` serves fault-free, unprofiled calls with a link-queue
engine (one FIFO queue per directed link) and keeps the per-node
``Network`` execution as the reference, which still serves every call
made under a non-null fault plan or a round profiler.  The two must
agree exactly: the deliveries with their order and rounds, every
``Metrics`` field, the item order of ``edge_congestion`` and
``message_sizes``, and the text of every error.

The ``slow`` tests at the end run every ``route_packets`` call of the
APSP and matching bindings, and of the simulated neighborhood cover, at
``--scenario-size`` through both engines.
"""

from __future__ import annotations

import random
from typing import Any, Callable, List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.congest.errors import AlgorithmError
from repro.congest.faults import FaultPlan, fault_context
from repro.congest.profile import RoundProfiler, profile_context
from repro.core.cover_app import neighborhood_cover
from repro.graphs import from_edges, path
from repro.primitives import transport
from repro.primitives.transport import Packet, route_packets
from repro.scenarios import get_scenario, select
from repro.testing.differential import run_differential


def _on_network(graph, packets, *, max_rounds):
    return transport._route_on_network(graph, packets, word_limit=16,
                                       max_rounds=max_rounds)


def _run(engine: str, graph, packets, **kwargs) -> Any:
    """``route_packets`` on one engine: its observable result, or the
    type and text of the error it raised."""
    try:
        if engine == "network":
            with mock.patch.object(transport, "_route_on_links",
                                   _on_network):
                result = route_packets(graph, packets, **kwargs)
        else:
            result = route_packets(graph, packets, **kwargs)
    except AlgorithmError as exc:
        return ("error", type(exc).__name__, str(exc))
    return _observed(result)


def _observed(result) -> Tuple[Any, ...]:
    deliveries, m = result
    return ([(d.origin, d.dest, d.payload, d.tag, d.round)
             for d in deliveries],
            (m.rounds, m.messages, m.broadcasts, m.words,
             m.max_message_words, m.faults_dropped, m.faults_duplicated,
             m.nodes_crashed),
            list(m.edge_congestion.items()),
            list(m.message_sizes.items()))


def _assert_same(graph, packets, **kwargs) -> Any:
    links = _run("links", graph, packets, **kwargs)
    assert links == _run("network", graph, packets, **kwargs)
    return links


# ---------------------------------------------------------------------
# Random graphs and random walks
# ---------------------------------------------------------------------
PAYLOADS = st.one_of(
    st.integers(-5, 5), st.text(max_size=2), st.none(),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.dictionaries(st.integers(0, 3), st.integers(0, 3), max_size=2))


@st.composite
def graphs_and_walks(draw):
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True,
                          max_size=3 * n)) if pairs else []
    graph = from_edges(n, edges)
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    packets = []
    for _ in range(draw(st.integers(0, 25))):
        walk = [rng.randrange(n)]
        for _ in range(rng.randrange(7)):
            nbrs = graph.neighbors(walk[-1])
            if not nbrs:
                break
            walk.append(rng.choice(nbrs))
        packets.append(Packet(path=tuple(walk), payload=draw(PAYLOADS),
                              tag=draw(st.sampled_from([None, "a", 3]))))
    return graph, packets


@settings(max_examples=150, deadline=None)
@given(graphs_and_walks())
def test_engines_agree_on_random_walks(case):
    graph, packets = case
    _assert_same(graph, packets)


@settings(max_examples=60, deadline=None)
@given(graphs_and_walks(), st.integers(0, 10))
def test_engines_agree_on_a_non_edge_hop(case, at):
    graph, packets = case
    if graph.n < 2:
        return
    # Splice one hop between two non-adjacent nodes into some walk.
    non_edges = [(u, v) for u in graph.nodes() for v in graph.nodes()
                 if v not in graph.neighbors(u)]
    u, v = non_edges[at % len(non_edges)]
    packets = packets + [Packet(path=(u, v), payload=at)]
    packets.insert(at % len(packets), Packet(path=(v, u, v), payload=None))
    out = _assert_same(graph, packets)
    assert out[0] == "error"


@settings(max_examples=60, deadline=None)
@given(graphs_and_walks(), st.integers(0, 6))
def test_engines_agree_under_max_rounds(case, max_rounds):
    graph, packets = case
    _assert_same(graph, packets, max_rounds=max_rounds)


# ---------------------------------------------------------------------
# Edge cases
# ---------------------------------------------------------------------
def test_empty_packet_list_takes_one_round():
    out = _assert_same(path(4), [])
    assert out[0] == [] and out[1][0] == 1


def test_length_one_paths_arrive_in_round_one():
    out = _assert_same(path(3), [Packet(path=(2,), payload="x"),
                                 Packet(path=(0,), payload="y"),
                                 Packet(path=(2,), payload="z")])
    assert [(o, p, r) for o, _d, p, _t, r in out[0]] == [
        (0, "y", 1), (2, "x", 1), (2, "z", 1)]
    assert out[1][:2] == (1, 0)


def test_revisiting_walks_share_links_fifo():
    packets = [Packet(path=(0, 1, 0, 1, 2), payload=i) for i in range(4)]
    packets.append(Packet(path=(2, 1, 2, 1, 0), payload="back"))
    out = _assert_same(path(3), packets)
    assert out[1][1] == sum(len(p.path) - 1 for p in packets)


def test_unhashable_dict_payloads():
    packets = [Packet(path=(0, 1, 2), payload={0: 1}),
               Packet(path=(0, 1, 2), payload={0: 1}),
               Packet(path=(2, 1), payload={1: 2, 3: 4})]
    out = _assert_same(path(3), packets, word_limit=5)
    assert [p for _o, _d, p, _t, _r in out[0]] == [
        {1: 2, 3: 4}, {0: 1}, {0: 1}]


def test_non_edge_hop_error_text():
    out = _assert_same(path(4), [Packet(path=(0, 1), payload=0),
                                 Packet(path=(1, 3), payload=1)])
    assert out == ("error", "AlgorithmError",
                   "packet path hop 1->3 is not an edge")


def test_oversize_payload_error_text():
    out = _assert_same(path(3), [Packet(path=(0, 1), payload=tuple(range(9)))],
                       word_limit=8)
    assert out == ("error", "AlgorithmError",
                   "packet payload of 10 words exceeds limit 8")


def test_max_rounds_error_text():
    packets = [Packet(path=(0, 1), payload=i) for i in range(7)]
    out = _assert_same(path(2), packets, max_rounds=5)
    assert out == ("error", "AlgorithmError",
                   "exceeded max_rounds=5; likely livelock")
    assert _assert_same(path(2), packets, max_rounds=8)[1][0] == 8


def test_lost_packets_from_outside_the_graph():
    out = _assert_same(path(2), [Packet(path=(5,), payload=0),
                                 Packet(path=(0, 1), payload=1)])
    assert out == ("error", "AlgorithmError", "transport lost packets: 1/2")


# ---------------------------------------------------------------------
# Faults and profiles keep the Network engine
# ---------------------------------------------------------------------
def _counting(calls: List[int]) -> Callable:
    engine = transport._route_on_links

    def counted(*args, **kwargs):
        calls.append(1)
        return engine(*args, **kwargs)

    return counted


def _traffic() -> List[Packet]:
    return [Packet(path=(0, 1, 2, 3), payload=i) for i in range(6)] + [
        Packet(path=(3, 2, 1), payload=("r", i)) for i in range(4)]


def test_faulted_calls_take_the_network_engine_and_replay():
    # Two flows merge onto link 1 -> 3, so reordered inboxes reorder it.
    graph = from_edges(4, [(0, 1), (1, 2), (1, 3)])
    packets = [Packet(path=(0, 1, 3), payload=i) for i in range(4)] + [
        Packet(path=(2, 1, 3), payload=-i) for i in range(1, 5)]
    plan = FaultPlan(reorder=1.0, seed=9)

    def faulted(calls: List[int]) -> str:
        with fault_context(plan), mock.patch.object(
                transport, "_route_on_links", _counting(calls)):
            return repr(_observed(route_packets(graph, packets)))

    calls: List[int] = []
    first = faulted(calls)
    assert first == faulted(calls)
    assert calls == []
    assert first != repr(_observed(route_packets(graph, packets)))


def test_null_fault_plan_takes_the_link_engine():
    calls: List[int] = []
    with fault_context(FaultPlan.none()), mock.patch.object(
            transport, "_route_on_links", _counting(calls)):
        route_packets(path(4), _traffic())
    assert calls == [1]


def test_profiled_calls_record_rounds_and_cross_check():
    profiler = RoundProfiler()
    calls: List[int] = []
    with profile_context(profiler), mock.patch.object(
            transport, "_route_on_links", _counting(calls)):
        deliveries, metrics = route_packets(path(4), _traffic())
    profile = profiler.profile()
    assert calls == [1]
    assert len(deliveries) == 10
    assert profile.rounds_executed == metrics.rounds
    assert profile.totals()["messages"] == metrics.messages


def test_profiled_cross_check_catches_a_divergence():
    engine = transport._route_on_links

    def wrong(graph, packets, *, max_rounds):
        deliveries, metrics = engine(graph, packets, max_rounds=max_rounds)
        metrics.rounds += 1
        return deliveries, metrics

    with profile_context(RoundProfiler()), \
            mock.patch.object(transport, "_route_on_links", wrong), \
            pytest.raises(RuntimeError, match="diverged"):
        route_packets(path(4), _traffic())


# ---------------------------------------------------------------------
# Sweep-level differential (tier 2)
# ---------------------------------------------------------------------
BINDINGS = ("apsp-unweighted", "apsp-weighted", "matching")


def _cross_checked(calls: List[int]) -> Callable:
    engine = transport._route_on_links

    def both(graph, packets, *, max_rounds):
        calls.append(1)
        links = engine(graph, packets, max_rounds=max_rounds)
        reference = _on_network(graph, packets, max_rounds=max_rounds)
        assert _observed(links) == _observed(reference)
        return links

    return both


@pytest.mark.slow
@pytest.mark.parametrize("algorithm,scenario_name", [
    (binding, scenario.name) for binding in BINDINGS
    for scenario in select(binding)])
def test_sweep_cells_agree_on_both_engines(scenario_size, algorithm,
                                           scenario_name):
    calls: List[int] = []
    with mock.patch.object(transport, "_route_on_links",
                           _cross_checked(calls)):
        record = run_differential(scenario_name, algorithm,
                                  size=scenario_size, seed=201)
    assert record.passed
    assert calls, "the cell routed no packets"


@pytest.mark.slow
@pytest.mark.parametrize("scenario_name",
                         [scenario.name for scenario in select("cover")])
def test_simulated_cover_agrees_on_both_engines(scenario_size,
                                                scenario_name):
    """The cover binding runs its machines directly; its Theorem 2.1
    simulation is what routes packets."""
    scenario = get_scenario(scenario_name)
    graph = scenario.graph(scenario_size, seed=201)
    calls: List[int] = []
    with mock.patch.object(transport, "_route_on_links",
                           _cross_checked(calls)):
        neighborhood_cover(graph, 2, 2,
                           seed=scenario.seed_for(scenario_size, 201))
    assert calls, "the simulation routed no packets"
