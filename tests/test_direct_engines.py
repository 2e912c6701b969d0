"""The direct engines against their references.

``run_machines`` serves fault-free, unprofiled, untraced fast-path calls
with a direct stepper, and ``build_global_tree`` / ``disseminate`` serve
fault-free, unprofiled calls in closed form.  The per-node
``Network.run`` executions stay as the reference, which still serves
every call made under a non-null fault plan or a round profiler (and,
for machines, under a tracer or ``fast_path=False``).  The two must
agree exactly: outputs, every ``Metrics`` field, the item order of
``edge_congestion`` and ``message_sizes``, and the type and text of
every error.

``run_mpx`` and ``neighborhood_cover_direct`` serve fault-free,
unprofiled calls with the closed-form MPX wavefront; their reference is
the machine run through ``run_machines``.  The two must agree on every
``Clustering`` field, the metering (item order included), ``detail``
and ``rounds``.

The ``slow`` tests at the end run every engine call of the APSP, BFS
collection, matching, cover and LDC bindings, and of the direct matching
and cover drivers, at ``--scenario-size`` through both engines.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.cover_app as cover_app_module
import repro.decomposition.mpx as mpx_module
from repro.congest import machine as machine_module
from repro.congest.errors import CongestError
from repro.congest.faults import FaultPlan, fault_context
from repro.congest.machine import Machine, run_machines
from repro.congest.profile import RoundProfiler, profile_context
from repro.congest.tracing import Tracer
from repro.core.cover_app import neighborhood_cover_direct
from repro.core.matching_app import maximum_matching_direct
from repro.covers.mpx_cover import build_cover_machine_factory
from repro.decomposition.mpx import MPXMachine, run_mpx
from repro.graphs import from_edges, path
from repro.graphs.weights import uniform_weights
from repro.matching.augmenting import BipartiteMatchingMachine
from repro.matching.israeli_itai import IsraeliItaiMachine
from repro.primitives import global_tree
from repro.primitives.bellman_ford import BellmanFordCollectionMachine
from repro.primitives.bfs import BFSCollectionMachine, BFSMachine
from repro.primitives.global_tree import build_global_tree, disseminate
from repro.primitives.luby import LubyMISMachine
from repro.scenarios import get_scenario, select
from repro.testing.differential import run_differential


def _reference(fast, reference, same, name, **kwargs):
    return reference()


def _outcome(call: Callable[[], Any], observe: Callable[[Any], Any]) -> Any:
    """``observe(call())``, or the type and text of the error raised."""
    try:
        result = call()
    except (CongestError, RuntimeError) as exc:
        return ("error", type(exc).__name__, str(exc))
    return observe(result)


def _metered(m) -> Tuple[Any, ...]:
    return ((m.rounds, m.messages, m.broadcasts, m.words,
             m.max_message_words, m.faults_dropped, m.faults_duplicated,
             m.nodes_crashed),
            list(m.edge_congestion.items()),
            list(m.message_sizes.items()))


def _execution(execution) -> Tuple[Any, ...]:
    return (execution.outputs, execution.rounds, execution.halted,
            list(execution.machines), _metered(execution.metrics))


def _tree(tree) -> Tuple[Any, ...]:
    return (tree.root, tree.parent, tree.children, tree.depth, tree.n,
            _metered(tree.metrics))


def _stream(result) -> Tuple[Any, ...]:
    outputs, metrics = result
    return outputs, _metered(metrics)


def _same(module, call: Callable[[], Any],
          observe: Callable[[Any], Any]) -> Any:
    """``call()`` on the fast engine and on the reference: both agree."""
    fast = _outcome(call, observe)
    with mock.patch.object(module, "run_engines", _reference):
        assert fast == _outcome(call, observe)
    return fast


def _same_machines(graph, factory, **kwargs) -> Any:
    return _same(machine_module,
                 lambda: run_machines(graph, factory, **kwargs), _execution)


def _same_tree(graph, **kwargs) -> Any:
    return _same(global_tree, lambda: build_global_tree(graph, **kwargs),
                 _tree)


def _same_stream(graph, tree, stream, **kwargs) -> Any:
    return _same(global_tree,
                 lambda: disseminate(graph, tree, stream, **kwargs), _stream)


# ---------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------
@st.composite
def graphs(draw, connected: bool = True):
    """Paths, stars and random graphs on 1..14 nodes, relabelled.

    Connected graphs are a random spanning tree plus extra edges;
    otherwise the edges are arbitrary.
    """
    n = draw(st.integers(1, 14))
    shape = draw(st.sampled_from(["path", "star", "random"]))
    rng = random.Random(draw(st.integers(0, 2 ** 16)))
    if shape == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif shape == "star":
        edges = [(0, i) for i in range(1, n)]
    elif connected:
        edges = [(rng.randrange(i), i) for i in range(1, n)]
        edges += [(rng.randrange(n), rng.randrange(n))
                  for _ in range(draw(st.integers(0, 2 * n)))]
    else:
        edges = [(rng.randrange(n), rng.randrange(n))
                 for _ in range(draw(st.integers(0, 2 * n)))]
    labels = list(range(n))
    rng.shuffle(labels)
    edges = {(min(labels[u], labels[v]), max(labels[u], labels[v]))
             for u, v in edges if u != v}
    return from_edges(n, sorted(edges))


def _star(n: int):
    return from_edges(n, [(0, i) for i in range(1, n)])


# ---------------------------------------------------------------------
# The closed-form global tree and dissemination
# ---------------------------------------------------------------------
@settings(max_examples=120, deadline=None)
@given(graphs())
def test_trees_agree(graph):
    out = _same_tree(graph)
    assert out[0] != "error"


@settings(max_examples=60, deadline=None)
@given(graphs(connected=False))
def test_trees_agree_on_disconnected_graphs(graph):
    out = _same_tree(graph)
    if not graph.is_connected():
        assert out == ("error", "RuntimeError",
                       "leader election did not converge "
                       "(is the graph connected?)")


@settings(max_examples=60, deadline=None)
@given(graphs(), st.integers(0, 12))
def test_trees_agree_under_max_rounds(graph, max_rounds):
    _same_tree(graph, max_rounds=max_rounds)


WORDS = st.one_of(
    st.integers(-5, 5), st.text(max_size=2), st.none(),
    st.tuples(st.integers(0, 9), st.integers(0, 9)),
    st.tuples(st.integers(0, 9), st.integers(0, 9), st.integers(0, 9)),
    st.dictionaries(st.integers(0, 3), st.integers(0, 3), max_size=2))


@settings(max_examples=120, deadline=None)
@given(graphs(), st.lists(WORDS, max_size=8))
def test_streams_agree(graph, stream):
    tree = build_global_tree(graph)
    out = _same_stream(graph, tree, stream)
    assert out[0] != "error"


@settings(max_examples=60, deadline=None)
@given(graphs(), st.lists(WORDS, max_size=6), st.integers(0, 10))
def test_streams_agree_under_max_rounds(graph, stream, max_rounds):
    tree = build_global_tree(graph)
    _same_stream(graph, tree, stream, max_rounds=max_rounds)


@pytest.mark.parametrize("graph", [path(1), path(2), path(6), _star(6)],
                         ids=["n1", "n2", "path", "star"])
@pytest.mark.parametrize("stream", [[], [(0, 3)], [(0, 3), 7, (1, 2, 3)]],
                         ids=["L0", "L1", "mixed"])
def test_stream_lengths_and_word_sizes(graph, stream):
    tree = build_global_tree(graph)
    outputs, (meters, congestion, sizes) = _same_stream(graph, tree, stream)
    rounds, messages, _b, words = meters[:4]
    assert outputs == {v: tuple(stream) for v in graph.nodes()}
    assert rounds == (len(stream) + tree.height if stream else 1)
    assert messages == len(stream) * (graph.n - 1)
    assert words == sum(1 if isinstance(w, int) else len(w)
                        for w in stream) * (graph.n - 1)
    assert all(count == len(stream) for _edge, count in congestion)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_count_and_ack_closed_form(n):
    graph = path(n)
    _same_tree(graph)
    tree = build_global_tree(graph)
    flood = global_tree._flood(graph, 100)[2]
    count_rounds = tree.metrics.rounds - flood.rounds
    assert count_rounds == (2 + 2 * tree.height if n > 1 else 3)
    assert tree.metrics.messages - flood.messages == 3 * (n - 1)


def test_oversize_word_error_text():
    graph = path(3)
    tree = build_global_tree(graph)
    out = _same_stream(graph, tree, [1, (2, 3), tuple(range(9)), 4])
    assert out == ("error", "MessageTooLarge",
                   "9 words > limit 8 (node 0 -> 1, round 3)")


def test_unsizable_word_error_text():
    graph = path(3)
    tree = build_global_tree(graph)
    out = _same_stream(graph, tree, [1, object()])
    assert out[:2] == ("error", "AlgorithmError")
    assert out[2].startswith("node 0, round 2: unsupported payload type")


def test_oversize_word_beyond_max_rounds_is_a_max_rounds_error():
    graph = path(3)
    tree = build_global_tree(graph)
    out = _same_stream(graph, tree, [1, 2, tuple(range(9))], max_rounds=2)
    assert out == ("error", "AlgorithmError",
                   "exceeded max_rounds=2; likely livelock")


def test_single_node_stream_sends_nothing():
    graph = path(1)
    tree = build_global_tree(graph)
    out = _same_stream(graph, tree, [tuple(range(9)), object()])
    assert out[1][0][:2] == (2, 0)


# ---------------------------------------------------------------------
# The direct machine stepper: every machine family
# ---------------------------------------------------------------------
def _delays(graph, seed: int) -> Dict[int, int]:
    rng = random.Random(seed)
    return {j: rng.randint(1, graph.n) for j in graph.nodes()}


def _families(graph, seed: int) -> Dict[str, Tuple[Callable, Dict]]:
    """name -> (factory, run_machines kwargs) for every machine family."""
    n = graph.n
    roots = {j: j for j in graph.nodes()}
    delays = _delays(graph, seed)
    weighted = uniform_weights(graph, seed=seed)
    cover, _reps, _beta, _cap = build_cover_machine_factory(graph, 2, 2)
    return {
        "bfs": (lambda info: BFSMachine(info, root=0), {}),
        "bfs-collection": (
            lambda info: BFSCollectionMachine(info, roots=roots,
                                              delays=delays),
            {"word_limit": 12 * n}),
        "bellman-ford": (
            lambda info: BellmanFordCollectionMachine(
                info, sources=roots, delays=delays),
            {"word_limit": 12 * n, "graph": weighted}),
        "luby": (LubyMISMachine, {}),
        "israeli-itai": (IsraeliItaiMachine, {}),
        "bipartite-matching": (
            BipartiteMatchingMachine,
            {"inputs": {v: {"s": max(1, n // 2)} for v in graph.nodes()},
             "word_limit": 16}),
        "mpx": (lambda info: MPXMachine(info, beta=0.5, cap=4), {}),
        "cover": (cover, {}),
    }


FAMILIES = ("bfs", "bfs-collection", "bellman-ford", "luby",
            "israeli-itai", "bipartite-matching", "mpx", "cover")


def _same_family(graph, family: str, seed: int, **extra) -> Any:
    factory, kwargs = _families(graph, seed)[family]
    kwargs = dict(kwargs, seed=seed, **extra)
    return _same_machines(kwargs.pop("graph", graph), factory, **kwargs)


@pytest.mark.parametrize("family", FAMILIES)
@settings(max_examples=25, deadline=None)
@given(graph=graphs(connected=False), seed=st.integers(0, 50))
def test_machine_families_agree(family, graph, seed):
    out = _same_family(graph, family, seed)
    assert out[0] != "error"


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("graph", [path(1), path(2), path(7), _star(7)],
                         ids=["n1", "n2", "path", "star"])
def test_machine_families_agree_on_small_shapes(family, graph):
    _same_family(graph, family, 3)


@pytest.mark.parametrize("family", ["bfs-collection", "mpx", "cover"])
@settings(max_examples=20, deadline=None)
@given(graph=graphs(), seed=st.integers(0, 50),
       max_rounds=st.integers(0, 30))
def test_machine_families_agree_under_max_rounds(family, graph, seed,
                                                 max_rounds):
    _same_family(graph, family, seed, max_rounds=max_rounds)


@pytest.mark.parametrize("family", ["bfs-collection", "bellman-ford"])
def test_bulk_metering_matches_per_broadcast_order(family):
    graph = from_edges(6, [(0, 5), (1, 5), (2, 3), (3, 4), (4, 5), (1, 2)])
    execution = _same_family(graph, family, 4)
    congestion = execution[4][1]
    assert {edge for edge, _count in congestion} == set(graph.edges())


def test_stale_wake_activates_and_counts():
    """Node 0 of this MPX run is adopted in round 5, before its own
    start round 7.  Its wake-up at 7 is stale but never cancelled: it
    still activates the node (an idle step), and ``rounds`` is 7 though
    the last message arrives in round 6."""
    graph = path(3)
    steps: List[Tuple[int, int]] = []

    class Recording(MPXMachine):
        def on_round(self, rnd, inbox):
            steps.append((self.info.id, rnd))
            return super().on_round(rnd, inbox)

    out = _same_machines(graph, lambda info: Recording(info, beta=0.5,
                                                       cap=6), seed=0)
    outputs, rounds = out[0], out[1]
    start = 6 - outputs[0]["delta"] + 1
    assert outputs[0]["center"] != 0 and start == 7 == rounds
    assert (0, 7) in steps
    half = len(steps) // 2   # the fast engine's steps, then the reference's
    assert steps[:half] == steps[half:]


class _Oversize(Machine):
    """Broadcasts a 2-word payload, and node 2 a 9-word one in round 3."""

    def on_round(self, rnd, inbox):
        if rnd == 3 and self.info.id == 2:
            return tuple(range(9))
        if rnd < 5:
            return (self.info.id, rnd)
        self.halted = True
        return None

    def passive(self):
        return False


class _Unsizable(Machine):
    def on_round(self, rnd, inbox):
        if rnd == 2 and self.info.id == 1:
            return object()
        self.halted = rnd >= 3
        return rnd

    def passive(self):
        return False


class _Forever(Machine):
    def on_round(self, rnd, inbox):
        return rnd if rnd % 3 == 0 else None

    def passive(self):
        return False


class _BornHalted(Machine):
    def __init__(self, info):
        super().__init__(info)
        self.halted = info.id % 2 == 0
        self.set_output(info.id)

    def on_round(self, rnd, inbox):
        self.halted = True
        return ("bye", rnd)


def test_message_too_large_error_text():
    out = _same_machines(path(4), _Oversize)
    assert out == ("error", "MessageTooLarge",
                   "9 words > limit 8 (node 2 -> 1, round 3)")


def test_unsizable_payload_error_text():
    out = _same_machines(path(3), _Unsizable)
    assert out[:2] == ("error", "AlgorithmError")
    assert out[2].startswith("node 1, round 2: unsupported payload type")


def test_unsizable_payload_without_receivers_is_not_sized():
    out = _same_machines(path(1), _Unsizable)
    assert out[0] != "error"


def test_max_rounds_error_text():
    out = _same_machines(path(3), _Forever, max_rounds=7)
    assert out == ("error", "AlgorithmError",
                   "exceeded max_rounds=7; likely livelock")


def test_unchecked_sizes_meter_one_word():
    out = _same_machines(path(4), _Oversize, check_sizes=False)
    assert out[4][2] == [(1, out[4][0][1])]


def test_machines_halted_before_round_one_are_retired():
    out = _same_machines(path(5), _BornHalted)
    outputs, rounds, halted = out[0], out[1], out[2]
    assert outputs == {v: v for v in range(5)}
    assert rounds == 1 and all(halted.values())
    assert out[4][0][2] == 2      # only the odd nodes broadcast


def test_disconnected_graph_runs_each_component():
    graph = from_edges(5, [(0, 1), (3, 4)])
    out = _same_family(graph, "bfs", 0)
    assert out[0][3] is None and out[0][1] is not None


# ---------------------------------------------------------------------
# Faults, profiles and tracers keep the Network engine
# ---------------------------------------------------------------------
def _counting(module, name: str, calls: List[int]) -> Any:
    engine = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return engine(*args, **kwargs)

    return mock.patch.object(module, name, counted)


def _bfs(info):
    return BFSMachine(info, root=0)


def test_faulted_calls_take_the_network_engines_and_replay():
    graph = path(6)
    plan = FaultPlan(reorder=1.0, seed=9)

    def faulted(calls: List[int]) -> str:
        with fault_context(plan), \
                _counting(machine_module, "_step_direct", calls), \
                _counting(global_tree, "_flood", calls), \
                _counting(global_tree, "_disseminate_closed_form", calls):
            tree = build_global_tree(graph)
            return repr((_execution(run_machines(graph, _bfs, seed=1)),
                         _tree(tree)))

    calls: List[int] = []
    first = faulted(calls)
    assert first == faulted(calls)
    assert calls == []


def test_null_fault_plan_takes_the_fast_engines():
    calls: List[int] = []
    with fault_context(FaultPlan.none()), \
            _counting(machine_module, "_step_direct", calls), \
            _counting(global_tree, "_flood", calls):
        run_machines(path(4), _bfs)
        build_global_tree(path(4))
    assert calls == [1, 1]


@pytest.mark.parametrize("kwargs", [{"tracer": Tracer()},
                                    {"fast_path": False}],
                         ids=["traced", "scalar"])
def test_traced_and_scalar_calls_take_the_network_engine(kwargs):
    calls: List[int] = []
    with _counting(machine_module, "_step_direct", calls):
        execution = run_machines(path(4), _bfs, **kwargs)
    assert calls == [] and execution.algorithms
    assert set(execution.machines) == set(range(4))


def test_direct_calls_build_no_adapters():
    execution = run_machines(path(4), _bfs)
    assert execution.algorithms == {}
    assert all(isinstance(m, BFSMachine)
               for m in execution.machines.values())


def test_profiled_calls_record_rounds_and_cross_check():
    profiler = RoundProfiler()
    calls: List[int] = []
    graph = path(5)
    with profile_context(profiler), \
            _counting(machine_module, "_step_direct", calls), \
            _counting(global_tree, "_flood", calls), \
            _counting(global_tree, "_disseminate_closed_form", calls):
        tree = build_global_tree(graph)
        _outputs, streamed = disseminate(graph, tree, [(1, 2), 3])
        execution = run_machines(graph, _bfs)
    assert calls == [1, 1, 1]
    totals = profiler.profile().totals()
    assert totals["messages"] == (tree.metrics.messages + streamed.messages
                                  + execution.metrics.messages)


@pytest.mark.parametrize("target", [
    (machine_module, "_step_direct"), (global_tree, "_flood"),
    (global_tree, "_disseminate_closed_form")],
    ids=["machines", "flood", "dissemination"])
def test_profiled_cross_check_catches_a_divergence(target):
    module, name = target
    engine = getattr(module, name)

    def wrong(*args, **kwargs):
        result = engine(*args, **kwargs)
        metrics = result[-1] if isinstance(result, tuple) else result.metrics
        metrics.rounds += 1
        return result

    graph = path(4)
    tree = build_global_tree(graph)
    with profile_context(RoundProfiler()), \
            mock.patch.object(module, name, wrong), \
            pytest.raises(RuntimeError, match="diverged"):
        build_global_tree(graph)
        disseminate(graph, tree, [1, 2])
        run_machines(graph, _bfs)


# ---------------------------------------------------------------------
# The closed-form MPX wavefront: run_mpx and the direct cover
# ---------------------------------------------------------------------
def _clustering(c) -> Tuple[Any, ...]:
    return (list(c.center_of.items()), list(c.dist.items()),
            list(c.parent.items()),
            [(v, list(table.items()))
             for v, table in c.neighbor_clusters.items()],
            c.beta, _metered(c.metrics))


def _cover(result) -> Tuple[Any, ...]:
    cover = result.cover
    return ([_clustering(c) for c in cover.clusterings], cover.k, cover.w,
            result.detail, _metered(result.metrics),
            _metered(cover.metrics))


def _same_mpx(graph, **kwargs) -> Any:
    return _same(mpx_module, lambda: run_mpx(graph, **kwargs), _clustering)


def _same_cover(graph, k: int, w: int, **kwargs) -> Any:
    return _same(cover_app_module,
                 lambda: neighborhood_cover_direct(graph, k, w, **kwargs),
                 _cover)


COVER_SHAPES = st.sampled_from([(2, 2), (1, 1), (3, 1)])


@settings(max_examples=80, deadline=None)
@given(graph=graphs(connected=False), seed=st.integers(0, 2 ** 31),
       beta=st.sampled_from([0.2, 0.5, 1.0, 3.0]),
       cap=st.sampled_from([None, 1, 3, 6]))
def test_mpx_engines_agree(graph, seed, beta, cap):
    out = _same_mpx(graph, beta=beta, seed=seed, cap=cap)
    assert out[0] != "error"


@settings(max_examples=30, deadline=None)
@given(graph=graphs(connected=False), seed=st.integers(0, 2 ** 31),
       shape=COVER_SHAPES, boost=st.sampled_from([0.3, 1.0, 3.0]))
def test_cover_engines_agree(graph, seed, shape, boost):
    k, w = shape
    out = _same_cover(graph, k, w, seed=seed, boost=boost)
    assert out[0] != "error"


SHAPES = [path(1), path(2), path(7), _star(7),
          from_edges(6, [(0, 1), (3, 4), (4, 5)])]
SHAPE_IDS = ["n1", "n2", "path", "star", "isolated"]


@pytest.mark.parametrize("graph", SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("seed", [0, 3, 144101000])
def test_mpx_engines_agree_on_small_shapes(graph, seed):
    _same_mpx(graph, beta=0.5, seed=seed)


@pytest.mark.parametrize("graph", SHAPES, ids=SHAPE_IDS)
@pytest.mark.parametrize("shape", [(2, 2), (1, 1), (3, 1)],
                         ids=["k2w2", "k1w1", "k3w1"])
def test_cover_engines_agree_on_small_shapes(graph, shape):
    clusterings, _k, _w, detail, metered, _ = _same_cover(graph, *shape,
                                                          seed=5)
    meters, congestion, sizes = metered
    rounds, messages, broadcasts, words = meters[:4]
    reps = detail["repetitions"]
    assert len(clusterings) == reps == broadcasts // graph.n
    assert detail["rounds"] == rounds
    assert messages == reps * 2 * graph.m and words == 2 * messages
    assert sizes == ([(2, messages)] if messages else [])
    assert all(count == 2 * reps for _edge, count in congestion)


def test_mpx_stale_wake_sets_rounds():
    """Node 0 adopts in round 5, before its start round 7 (see
    ``test_stale_wake_activates_and_counts``): ``rounds`` is 7 on both
    engines, though the last message arrives in round 6."""
    clustering = _same_mpx(path(3), beta=0.5, seed=0, cap=6)
    assert clustering[0][0] != (0, 0)
    assert clustering[-1][0][0] == 7


def _counted_wavefront(calls: List[int]):
    return _counting(mpx_module, "mpx_wavefront", calls), \
        _counting(cover_app_module, "mpx_wavefront", calls)


def test_faulted_mpx_calls_take_the_reference_and_replay():
    graph = from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    plan = FaultPlan(drop=0.2, seed=4)

    def faulted(calls: List[int]) -> str:
        mpx_counted, cover_counted = _counted_wavefront(calls)
        with fault_context(plan), mpx_counted, cover_counted:
            return repr((_outcome(lambda: run_mpx(graph, seed=3),
                                  _clustering),
                         _outcome(lambda: neighborhood_cover_direct(
                             graph, 2, 2, seed=3), _cover)))

    calls: List[int] = []
    first = faulted(calls)
    assert first == faulted(calls)
    assert calls == []


@pytest.mark.parametrize("run", [
    lambda g: run_mpx(g, seed=3, cap=6),
    lambda g: neighborhood_cover_direct(g, 2, 2, seed=3)],
    ids=["mpx", "cover"])
def test_a_node_crashed_before_adopting_is_unclustered(run):
    """Node 2 crashes in round 1, before it steps: both packagings
    raise the same error rather than failing on its missing output."""
    with fault_context(FaultPlan(node_crashes={2: 1})), \
            pytest.raises(RuntimeError,
                          match="MPX left node 2 unclustered"):
        run(path(5))


def test_profiled_mpx_calls_record_rounds_and_cross_check():
    profiler = RoundProfiler()
    calls: List[int] = []
    graph = _star(6)
    mpx_counted, cover_counted = _counted_wavefront(calls)
    with profile_context(profiler), mpx_counted, cover_counted:
        clustering = run_mpx(graph, seed=2)
        cover = neighborhood_cover_direct(graph, 1, 1, seed=2)
    assert calls == [1, 1]
    totals = profiler.profile().totals()
    assert totals["messages"] == (clustering.metrics.messages
                                  + cover.metrics.messages)


@pytest.mark.parametrize("module,run", [
    (mpx_module, lambda g: run_mpx(g, seed=1)),
    (cover_app_module, lambda g: neighborhood_cover_direct(g, 2, 2,
                                                           seed=1))],
    ids=["mpx", "cover"])
def test_profiled_mpx_cross_check_catches_a_divergence(module, run):
    engine = module.mpx_wavefront

    def wrong(*args, **kwargs):
        adopt, clusterings = engine(*args, **kwargs)
        clusterings[-1].dist[0] += 1
        return adopt, clusterings

    with profile_context(RoundProfiler()), \
            mock.patch.object(module, "mpx_wavefront", wrong), \
            pytest.raises(RuntimeError,
                          match="MPX wavefront diverged from the Network "
                                "engine"):
        run(path(4))


# ---------------------------------------------------------------------
# Sweep-level differential (tier 2)
# ---------------------------------------------------------------------
BINDINGS = ("apsp-unweighted", "apsp-weighted", "bfs-collection",
            "matching", "cover", "ldc")


def _cross_checked(calls: List[str]) -> Callable:
    def both(fast, reference, same, name, **kwargs):
        calls.append(name)
        expected = reference()
        assert same(fast(), expected), name
        return expected

    return both


@contextmanager
def _patched(calls: List[str]) -> Iterator[None]:
    both = _cross_checked(calls)
    with mock.patch.object(machine_module, "run_engines", both), \
            mock.patch.object(global_tree, "run_engines", both), \
            mock.patch.object(mpx_module, "run_engines", both), \
            mock.patch.object(cover_app_module, "run_engines", both):
        yield


@pytest.mark.slow
@pytest.mark.parametrize("algorithm,scenario_name", [
    (binding, scenario.name) for binding in BINDINGS
    for scenario in select(binding)])
def test_sweep_cells_agree_on_both_engines(scenario_size, algorithm,
                                           scenario_name):
    calls: List[str] = []
    with _patched(calls):
        record = run_differential(scenario_name, algorithm,
                                  size=scenario_size, seed=201)
    assert record.passed
    assert calls, "the cell ran no direct engine"


@pytest.mark.slow
@pytest.mark.parametrize("driver,binding", [
    (lambda g, seed: maximum_matching_direct(g, seed=seed), "matching"),
    (lambda g, seed: neighborhood_cover_direct(g, 2, 2, seed=seed),
     "cover")], ids=["matching", "cover"])
def test_direct_drivers_agree_on_both_engines(scenario_size, driver,
                                              binding):
    for scenario in select(binding):
        graph = get_scenario(scenario.name).graph(scenario_size, seed=201)
        calls: List[str] = []
        with _patched(calls):
            driver(graph, scenario.seed_for(scenario_size, 201))
        assert "direct machine stepper" in calls, scenario.name
        if binding == "cover":
            assert "MPX wavefront" in calls, scenario.name
