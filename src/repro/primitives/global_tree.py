"""Leader election, global BFS tree, and pipelined dissemination.

The preprocessing of both simulation frameworks starts the same way
(§2.2 / §3.2.1): "elect a leader, compute a BFS tree rooted in that
leader, aggregate the number of nodes n, and broadcast n to all nodes".
Section 3.3 additionally uses the tree to implement *shared randomness*:
the leader draws Theta(n log n) random bits and streams them down the
tree in a pipelined manner (Õ(n) rounds, Õ(n^2) messages).

Leader election here is min-ID flooding with suppression fused with BFS
tree construction: nodes adopt the lexicographically smallest
(leader, dist) pair they have heard of and re-broadcast on improvement.
Its message cost is O(m * U) where U is the number of times a node's
best-known leader improves -- O(m) on the low-diameter benchmark graphs
used here and O(m * D) in the worst case.  The paper invokes the
message-optimal election of Kutten et al. [25] for the general bound;
the difference only affects the additive Õ(m) preprocessing term that
every claim already carries (In >= m log n).

Two engines compute each step.  The per-node algorithms below
(:class:`_FloodElect`, :class:`_CountAndAck`, :class:`_Disseminate`) run
on :meth:`~repro.congest.network.Network.run`; they are the reference,
and they serve every call made under a non-null fault plan or a round
profiler (a profiled call runs both engines and raises if they
disagree, see :func:`~repro.congest.network.run_engines`).  Every other
call takes the closed forms, which build no ``Network``, ``NodeInfo``
or ``Algorithm``:

* the flood is a vectorised round loop over the CSR arrays, O(D * m):
  in round 1 every node broadcasts, and afterwards exactly the nodes
  whose (leader, dist) improved do.  Every broadcast costs deg(v)
  two-word messages, and since every node broadcasts in round 1 the
  per-edge congestion is keyed in node order;
* count/ack sends one "child", one "count" and one "n" message over
  each tree edge: 3(n-1) two-word messages in 2 + 2H rounds for tree
  height H, or 3 rounds when n = 1;
* dissemination of L words sends each word once over every tree edge:
  L(n-1) messages, each sized per word, in L + H rounds, or 1 round
  when L = 0.

Both engines give the same tree, outputs and
:class:`~repro.congest.metrics.Metrics`, including the item order of
``edge_congestion`` and ``message_sizes`` and the type and text of
every error (``tests/test_direct_engines.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.congest.errors import AlgorithmError, MessageTooLarge
from repro.congest.metrics import Metrics, undirected
from repro.congest.network import (
    Algorithm,
    Inbox,
    NodeAPI,
    NodeInfo,
    memo_words,
    run_algorithm,
    run_engines,
)
from repro.graphs.graph import Graph
from repro.primitives.transport import tree_depths

# The word limit of the reference executions (run_algorithm's default).
_WORD_LIMIT = 8


@dataclass
class GlobalTree:
    """A rooted spanning tree known to the driver plus per-node locals."""

    root: int
    parent: Dict[int, Optional[int]]
    children: Dict[int, List[int]]
    depth: Dict[int, int]
    n: int
    metrics: Metrics

    @property
    def height(self) -> int:
        return max(self.depth.values()) if self.depth else 0


class _FloodElect(Algorithm):
    """Min-ID flood + BFS layering; re-broadcast on improvement."""

    def __init__(self, info: NodeInfo):
        super().__init__(info)
        self.best: Tuple[int, int] = (info.id, 0)  # (leader, dist)
        self.parent: Optional[int] = None

    def on_round(self, api: NodeAPI, rnd: int, inbox: Inbox) -> None:
        improved = rnd == 1
        for src, (leader, dist) in inbox:
            candidate = (leader, dist + 1)
            if candidate < self.best:
                self.best = candidate
                self.parent = src
                improved = True
        if improved:
            api.broadcast(self.best)
        api.set_output((self.best[0], self.best[1], self.parent))


class _CountAndAck(Algorithm):
    """Children discovery + subtree-size convergecast + n broadcast.

    Round 1: every non-root node tells its parent "I am your child".
    Then each node, once it has subtree sizes from all children, sends
    its own subtree size up.  Finally the root broadcasts n back down.
    """

    def __init__(self, info: NodeInfo):
        super().__init__(info)
        params = info.input
        self.parent: Optional[int] = params["parent"]
        self.children: List[int] = []
        self.child_counts: Dict[int, int] = {}
        self.phase = "discover"
        self.n: Optional[int] = None

    def on_round(self, api: NodeAPI, rnd: int, inbox: Inbox) -> None:
        for src, msg in inbox:
            kind, value = msg
            if kind == "child":
                self.children.append(src)
            elif kind == "count":
                self.child_counts[src] = value
            elif kind == "n":
                self.n = value
        if rnd == 1 and self.parent is not None:
            api.send(self.parent, ("child", 0))
        if self.phase == "discover" and rnd >= 2:
            self.phase = "count"
            api.wake_at(rnd + 1)
            api.set_output(None)
            self._maybe_send_count(api, rnd)
            return
        if self.phase == "count":
            self._maybe_send_count(api, rnd)
        if self.n is not None and self.phase != "done":
            self.phase = "done"
            for child in self.children:
                api.send(child, ("n", self.n))
            api.halt((self.n, tuple(sorted(self.children))))
            return
        if not api.halted and self.phase != "done":
            api.wake_at(rnd + 1)

    def _maybe_send_count(self, api: NodeAPI, rnd: int) -> None:
        if self.phase != "count":
            return
        if len(self.child_counts) == len(self.children):
            size = 1 + sum(self.child_counts.values())
            if self.parent is None:
                self.n = size
            else:
                api.send(self.parent, ("count", size))
                self.phase = "wait_n"


class _Disseminate(Algorithm):
    """Pipelined streaming of a word list down a known tree.

    The root emits one word per round; every node forwards the stream to
    its children with one round of latency.  Cost: (#tree edges) * len
    messages and height + len rounds -- the pipelined broadcast the paper
    uses for shared randomness in Section 3.3.
    """

    def __init__(self, info: NodeInfo):
        super().__init__(info)
        params = info.input
        self.children: List[int] = params["children"]
        self.stream: List[Any] = params.get("stream") or []
        self.is_root = params["is_root"]
        self.received: List[Any] = list(self.stream) if self.is_root else []
        self.sent = 0

    def on_round(self, api: NodeAPI, rnd: int, inbox: Inbox) -> None:
        for _src, word in inbox:
            self.received.append(word)
        while self.sent < len(self.received):
            word = self.received[self.sent]
            self.sent += 1
            for child in self.children:
                api.send(child, word)
            break  # one word per round per link
        api.set_output(tuple(self.received))
        if self.sent < len(self.received):
            api.wake_at(rnd + 1)


def build_global_tree(graph: Graph, *, seed: int = 0,
                      max_rounds: int = 1_000_000) -> GlobalTree:
    """Elect a leader and build its BFS tree; aggregate and broadcast n."""
    return run_engines(
        lambda: _tree_closed_form(graph, max_rounds),
        lambda: _tree_on_network(graph, seed, max_rounds),
        _same_tree, "closed-form global tree")


def _tree_on_network(graph: Graph, seed: int, max_rounds: int) -> GlobalTree:
    flood = run_algorithm(graph, _FloodElect, seed=seed,
                          max_rounds=max_rounds)
    metrics = flood.metrics.snapshot()
    parent = {v: flood.outputs[v][2] for v in graph.nodes()}
    root = _single_leader({flood.outputs[v][0] for v in graph.nodes()})

    count = run_algorithm(
        graph, _CountAndAck,
        inputs={v: {"parent": parent[v]} for v in graph.nodes()},
        seed=seed, max_rounds=max_rounds)
    metrics.merge(count.metrics)
    n_root = count.outputs[root][0]
    if n_root != graph.n:
        raise RuntimeError(f"count aggregation failed: {n_root} != {graph.n}")
    children = {v: list(count.outputs[v][1]) for v in graph.nodes()}
    depth = tree_depths(parent)
    return GlobalTree(root=root, parent=parent, children=children,
                      depth=depth, n=graph.n, metrics=metrics)


def _single_leader(leaders: set) -> int:
    if len(leaders) != 1:
        raise RuntimeError("leader election did not converge "
                           "(is the graph connected?)")
    return leaders.pop()


def _tree_closed_form(graph: Graph, max_rounds: int) -> GlobalTree:
    leader, parent_arr, metrics = _flood(graph, max_rounds)
    root = _single_leader(set(leader))
    parent = {v: (p if p >= 0 else None)
              for v, p in enumerate(parent_arr)}
    depth = tree_depths(parent)
    rounds = 2 + 2 * max(depth.values()) if graph.n > 1 else 3
    _enter(rounds, max_rounds)
    count = Metrics(rounds=rounds)
    children: Dict[int, List[int]] = {v: [] for v in graph.nodes()}
    for v, p in parent.items():
        if p is not None:
            children[p].append(v)
            count.edge_congestion[undirected(v, p)] = 3
    if graph.n > 1:
        count.messages = 3 * (graph.n - 1)
        count.words = 2 * count.messages
        count.max_message_words = 2
        count.message_sizes[2] = count.messages
    metrics.merge(count)
    return GlobalTree(root=root, parent=parent, children=children,
                      depth=depth, n=graph.n, metrics=metrics)


def _flood(graph: Graph, max_rounds: int
           ) -> Tuple[List[int], List[int], Metrics]:
    """The min-ID flood as a round loop over the CSR arrays.

    Returns per-node leader and parent (or -1) lists and the flood's
    metrics.  A (leader, dist) pair is keyed ``leader * (n + 1) + dist``.
    A node adopts the best pair its broadcasting neighbors offer if it
    beats its own, from the smallest sender offering it -- the first
    one in its inbox, which is the one ``_FloodElect`` adopts.
    """
    n = graph.n
    indptr, indices = graph._indptr, graph._indices
    deg = np.diff(indptr)
    key = np.arange(n, dtype=np.int64) * (n + 1)
    parent = np.full(n, -1, dtype=np.int64)
    broadcasts = np.ones(n, dtype=np.int64)  # round 1: everyone
    rnd = 0
    if n:
        rnd = 1
        _enter(rnd, max_rounds)
    if len(indices):
        starts = np.minimum(indptr[:-1], len(indices) - 1)
        isolated = deg == 0
        none = np.iinfo(np.int64).max
        improved = np.ones(n, dtype=bool)
        while True:
            heard = improved[indices]
            if not heard.any():
                break
            rnd += 1
            _enter(rnd, max_rounds)
            offer = np.where(heard, key[indices] + 1, none)
            best = np.minimum.reduceat(offer, starts)
            best[isolated] = none
            improved = best < key
            sender = np.where(offer == np.repeat(best, deg), indices, n)
            parent = np.where(improved, np.minimum.reduceat(sender, starts),
                              parent)
            key = np.where(improved, best, key)
            broadcasts += improved
    metrics = Metrics(rounds=rnd, broadcasts=int(broadcasts.sum()))
    messages = int((broadcasts * deg).sum())
    if messages:
        metrics.messages = messages
        metrics.words = 2 * messages
        metrics.max_message_words = 2
        metrics.message_sizes[2] = messages
        # Round 1 meters every node's edges in node order, so each edge
        # is keyed when its smaller endpoint broadcasts first.
        src = np.repeat(np.arange(n, dtype=np.int64), deg)
        upper = indices > src
        edge_keys = graph.edge_keys()
        keys = compress(chain.from_iterable(edge_keys[v] for v in range(n)),
                        upper.tolist())
        counts = (broadcasts[src] + broadcasts[indices])[upper]
        metrics.edge_congestion.update(dict(zip(keys, counts.tolist())))
    return (key // (n + 1)).tolist(), parent.tolist(), metrics


def _enter(rnd: int, max_rounds: int) -> None:
    """The Network's check on entering round ``rnd``."""
    if rnd > max_rounds:
        raise AlgorithmError(
            f"exceeded max_rounds={max_rounds}; likely livelock")


def _same_tree(a: GlobalTree, b: GlobalTree) -> bool:
    return (a.root == b.root and a.parent == b.parent
            and a.children == b.children and a.depth == b.depth
            and a.n == b.n and a.metrics.identical(b.metrics))


def disseminate(graph: Graph, tree: GlobalTree, stream: List[Any], *,
                seed: int = 0,
                max_rounds: int = 5_000_000) -> Tuple[Dict[int, tuple], Metrics]:
    """Stream ``stream`` to every node, one item per tree edge per round.

    Each item is one message, sized by its own word count: callers
    stream scalars and small tuples such as ``(j, delay)`` pairs, each
    within the word limit.
    """
    return run_engines(
        lambda: _disseminate_closed_form(graph, tree, stream, max_rounds),
        lambda: _disseminate_on_network(graph, tree, stream, seed,
                                        max_rounds),
        _same_dissemination, "closed-form dissemination")


def _disseminate_on_network(graph: Graph, tree: GlobalTree,
                            stream: List[Any], seed: int, max_rounds: int
                            ) -> Tuple[Dict[int, tuple], Metrics]:
    inputs = {
        v: {
            "children": tree.children[v],
            "is_root": v == tree.root,
            "stream": stream if v == tree.root else None,
        }
        for v in graph.nodes()
    }
    execution = run_algorithm(graph, _Disseminate, inputs=inputs, seed=seed,
                              max_rounds=max_rounds)
    _check_complete(graph, execution.outputs, len(stream))
    return execution.outputs, execution.metrics


def _check_complete(graph: Graph, outputs: Dict[int, tuple],
                    length: int) -> None:
    for v in graph.nodes():
        if len(outputs[v]) != length:
            raise RuntimeError("dissemination incomplete at node %d" % v)


def _disseminate_closed_form(graph: Graph, tree: GlobalTree,
                             stream: List[Any], max_rounds: int
                             ) -> Tuple[Dict[int, tuple], Metrics]:
    """Word i leaves the root in round i + 1 and reaches depth d in
    round i + 1 + d; a tree edge is first metered when its parent, in
    node order within its depth, forwards word 0.

    The tree's edges are assumed to be graph edges, as they are in
    every tree :func:`build_global_tree` returns.
    """
    levels: List[List[int]] = []
    level = [tree.root]
    while level:
        levels.append(level)
        level = sorted(c for v in level for c in tree.children[v])
    length = len(stream)
    rounds = length + len(levels) - 1 if length else 1
    first = tree.children[tree.root][:1]
    sizes: List[int] = []
    if first:
        # The root sizes each word as it first sends it, in round i + 1.
        memo: Dict[Any, int] = {}
        for i, word in enumerate(stream[:max(max_rounds, 0)]):
            size = memo_words(memo, word, tree.root, i + 1)
            if size > _WORD_LIMIT:
                raise MessageTooLarge(
                    f"{size} words > limit {_WORD_LIMIT} "
                    f"(node {tree.root} -> {first[0]}, round {i + 1})")
            sizes.append(max(1, size))
    _enter(rounds, max_rounds)
    received = tuple(stream)
    outputs = {v: () for v in graph.nodes()}
    for level in levels:
        for v in level:
            outputs[v] = received
    _check_complete(graph, outputs, length)
    metrics = Metrics(rounds=rounds)
    edges = sum(len(level) for level in levels) - 1
    if sizes:
        for size in sizes:
            metrics.message_sizes[size] += edges
        metrics.messages = length * edges
        metrics.words = sum(sizes) * edges
        metrics.max_message_words = max(sizes)
        congestion = metrics.edge_congestion
        for level in levels:
            for v in level:
                for c in tree.children[v]:
                    congestion[undirected(v, c)] = length
    return outputs, metrics


def _same_dissemination(a: Tuple[Dict[int, tuple], Metrics],
                        b: Tuple[Dict[int, tuple], Metrics]) -> bool:
    return a[0] == b[0] and a[1].identical(b[1])
