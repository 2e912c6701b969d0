"""Source-routed packet transport: the engine behind upcast and downcast.

Both of the paper's simulation frameworks move information along cluster
trees: *upcast* (Lemma 1.5) sends items from cluster members to the
center, *downcast* (Lemma 1.6) sends addressed messages from the center
to members, and both simulations append one final hop over an
inter-cluster communication edge (§2.2 step 1, §3.2.1 indirect/direct
send).

All three patterns are instances of one primitive: a set of packets, each
with a fixed path (a walk in the communication graph), delivered under
the CONGEST constraint of one message per edge per direction per round,
FIFO per link.  Every hop of every packet is a metered message, and
rounds advance exactly as the pipelining would.

Paths are computed by the driver from tree structure that the involved
nodes genuinely possess locally (parent pointers, and at centers the full
gathered tree), so source routing is an implementation convenience, not
extra distributed knowledge: a real execution would route by destination
using the same local tables.  Message-size accounting therefore counts
the payload plus the destination, not the path.

Two engines compute the same execution:

* the **link-queue engine** (the default) keeps one FIFO queue per
  directed link and lets each non-empty link send one packet per round.
  It builds no ``NodeInfo``, ``NodeAPI`` or ``Algorithm``;
* the **Network engine** runs one :class:`_TransportNode` per node on a
  :class:`~repro.congest.network.Network`.  It is the differential
  reference, and it serves every call made while an ambient non-null
  :class:`~repro.congest.faults.FaultPlan` or a
  :class:`~repro.congest.profile.RoundProfiler` is active -- faults act
  on individual deliveries and profiles record individual rounds, which
  only the Network executes.  Under a profiler (without faults) the
  link-queue engine runs as well and must agree, so profiled sweeps
  cross-check the two.

The link-queue engine reproduces the Network engine exactly, deliveries
and every :class:`~repro.congest.metrics.Metrics` field alike, for three
reasons:

* metering is a function of the paths alone: sizes are checked per
  packet up front and every hop then counts as one 1-word message, so
  ``messages == words == hops`` and ``message_sizes == {1: hops}``;
* every sender sends at most once per link per round, so each inbox
  arrives in ascending sender order.  Processing a round's arrivals by
  (receiver, sender) therefore fixes the FIFO order on every link, each
  delivery's round, and the order of the returned deliveries (by graph
  node, then arrival).  A link first sends in the round it is first
  enqueued on, so link creation order is also the first-send order that
  orders ``edge_congestion``;
* ``rounds`` is the round of the last arrival, or 1 when no packet
  moves, since every node acts in round 1.

The round and message costs of upcast/downcast proved in Lemmas 1.5/1.6
are validated against this module in ``tests/test_primitives.py`` and
``tests/test_transport_extra.py`` and regenerated in benchmark E10;
``tests/test_transport_engine.py`` holds the engine-vs-reference
differential.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.congest.errors import AlgorithmError
from repro.congest.metrics import Metrics, undirected
from repro.congest.network import (
    Algorithm,
    Inbox,
    Network,
    NodeAPI,
    NodeInfo,
    payload_words,
    run_engines,
)
from repro.graphs.graph import Graph


@dataclass
class Packet:
    """One routed item.

    ``path`` is the full node sequence, starting at the origin and ending
    at the destination; consecutive entries must be adjacent in the
    communication graph.  ``payload`` is what the destination receives
    (together with the packet's origin).  ``tag`` lets the driver
    demultiplex deliveries (e.g. which cluster tree / which sub-step a
    packet belongs to).
    """

    path: Tuple[int, ...]
    payload: Any
    tag: Any = None

    def __post_init__(self) -> None:
        if len(self.path) < 1:
            raise AlgorithmError("packet with empty path")

    @property
    def origin(self) -> int:
        return self.path[0]

    @property
    def dest(self) -> int:
        return self.path[-1]


@dataclass
class Delivery:
    """A packet that arrived at its destination."""

    origin: int
    dest: int
    payload: Any
    tag: Any
    round: int


def _non_edge(u: int, v: int) -> AlgorithmError:
    return AlgorithmError(f"packet path hop {u}->{v} is not an edge")


class _TransportNode(Algorithm):
    """Per-node forwarding logic: FIFO queue per outgoing link."""

    def __init__(self, info: NodeInfo):
        super().__init__(info)
        # neighbor -> deque of (packet, next_index)
        self.queues: Dict[int, deque] = {}
        self.delivered: List[Delivery] = []

    def _enqueue(self, packet: Packet, idx: int, rnd: int) -> None:
        """Take custody of ``packet`` currently at position ``idx``."""
        if idx == len(packet.path) - 1:
            self.delivered.append(Delivery(
                origin=packet.origin, dest=packet.dest,
                payload=packet.payload, tag=packet.tag, round=rnd))
            return
        nxt = packet.path[idx + 1]
        if nxt not in self.info.neighbors:
            raise _non_edge(packet.path[idx], nxt)
        self.queues.setdefault(nxt, deque()).append((packet, idx))

    def on_round(self, api: NodeAPI, rnd: int, inbox: Inbox) -> None:
        if rnd == 1 and self.info.input:
            for packet in self.info.input:
                if packet.path[0] != self.info.id:
                    raise AlgorithmError("packet injected at wrong origin")
                self._enqueue(packet, 0, rnd)
        for _src, (packet, idx) in inbox:
            self._enqueue(packet, idx, rnd)
        pending = False
        for nbr, queue in self.queues.items():
            if queue:
                packet, idx = queue.popleft()
                api.send(nbr, (packet, idx + 1))
                if queue:
                    pending = True
        if pending:
            api.wake_at(rnd + 1)


def _route_on_network(graph: Graph, packets: Sequence[Packet], *,
                      word_limit: int, max_rounds: int
                      ) -> Tuple[List[Delivery], Metrics]:
    """The reference engine: one :class:`_TransportNode` per node."""
    by_origin: Dict[int, List[Packet]] = {}
    for packet in packets:
        by_origin.setdefault(packet.origin, []).append(packet)
    net = Network(graph, word_limit=word_limit, check_sizes=False)
    execution = net.run(_TransportNode, inputs=by_origin,
                        max_rounds=max_rounds)
    deliveries: List[Delivery] = []
    for algo in execution.algorithms.values():
        deliveries.extend(algo.delivered)
    return deliveries, execution.metrics


def _route_on_links(graph: Graph, packets: Sequence[Packet], *,
                    max_rounds: int) -> Tuple[List[Delivery], Metrics]:
    """The link-queue engine (see the module docstring).

    A link's queue is FIFO and sends one packet per round, so a packet
    enqueued in round ``r`` leaves in ``max(r, free)``, where ``free`` is
    the round after the link's previous departure, and arrives one round
    later.  Arrivals are bucketed by round and processed in (receiver,
    sender) order -- the Network engine's activation and inbox order.
    """
    metrics = Metrics()
    nbr_sets = graph.nbr_sets()
    if not nbr_sets:
        return [], metrics
    n = graph.n
    paths = [packet.path for packet in packets]
    link_of: Dict[Tuple[int, int], int] = {}   # (u, v) -> link id
    link_free: List[int] = []                  # round the link is free
    link_hops: List[int] = []                  # packets it carried
    link_edges: List[Tuple[int, int]] = []     # congestion key
    delivered: Dict[int, List[Delivery]] = {}
    arrivals: Dict[int, List[Tuple[int, int, int]]] = {}
    # Round 1: every origin injects its packets in list order.
    batch = [(path[0] * n, i, 0) for i, path in enumerate(paths)
             if path[0] in nbr_sets]
    rnd = 0
    while batch is not None:
        rnd += 1
        if rnd > max_rounds:
            raise AlgorithmError(
                f"exceeded max_rounds={max_rounds}; likely livelock")
        batch.sort()
        for _key, i, idx in batch:
            path = paths[i]
            v = path[idx]
            if idx == len(path) - 1:
                packet = packets[i]
                box = delivered.get(v)
                if box is None:
                    box = delivered[v] = []
                box.append(Delivery(origin=path[0], dest=v,
                                    payload=packet.payload, tag=packet.tag,
                                    round=rnd))
                continue
            nxt = path[idx + 1]
            lid = link_of.get((v, nxt))
            if lid is None:
                if nxt not in nbr_sets[v]:
                    raise _non_edge(v, nxt)
                lid = link_of[(v, nxt)] = len(link_free)
                link_free.append(rnd)
                link_hops.append(0)
                link_edges.append(undirected(v, nxt))
            depart = link_free[lid]
            if depart < rnd:
                depart = rnd
            link_free[lid] = depart + 1
            link_hops[lid] += 1
            bucket = arrivals.get(depart + 1)
            if bucket is None:
                bucket = arrivals[depart + 1] = []
            bucket.append((nxt * n + v, i, idx + 1))
        # Busy links keep every round up to the last arrival non-empty.
        batch = arrivals.pop(rnd + 1, None)

    hops = sum(link_hops)
    if hops:
        metrics.messages = metrics.words = hops
        metrics.max_message_words = 1
        metrics.message_sizes[1] = hops
        congestion = metrics.edge_congestion
        for edge, count in zip(link_edges, link_hops):
            congestion[edge] += count
    metrics.rounds = rnd
    deliveries: List[Delivery] = []
    for v in graph.nodes():
        box = delivered.get(v)
        if box is not None:
            deliveries.extend(box)
    return deliveries, metrics


def _same_execution(a: Tuple[List[Delivery], Metrics],
                    b: Tuple[List[Delivery], Metrics]) -> bool:
    """Whether two engines' results agree exactly (payloads by identity)."""
    def rows(deliveries: List[Delivery]) -> List[Tuple[Any, ...]]:
        return [(d.origin, d.dest, id(d.payload), id(d.tag), d.round)
                for d in deliveries]

    (da, ma), (db, mb) = a, b
    return rows(da) == rows(db) and ma.identical(mb)


def _packet_words(packet: Packet) -> int:
    """Declared size: destination + payload (route is implicit)."""
    return 1 + payload_words(packet.payload)


def route_packets(graph: Graph, packets: Sequence[Packet], *,
                  word_limit: int = 16,
                  max_rounds: int = 5_000_000) -> Tuple[List[Delivery], Metrics]:
    """Deliver all packets; return deliveries and the execution metrics.

    The network-level size check is replaced by a per-packet check of
    destination + payload, since the path is implicit routing state.
    Each distinct payload is sized once: by value, or by identity when
    it is unhashable (the packets keep it alive for the whole call).
    """
    sizes: Dict[Any, int] = {}
    by_identity: Dict[int, int] = {}  # unhashable payloads (holding dicts)
    for packet in packets:
        payload = packet.payload
        try:
            memo, key = sizes, payload
            size = sizes.get(key)
        except TypeError:
            memo, key = by_identity, id(payload)
            size = by_identity.get(key)
        if size is None:
            size = memo[key] = _packet_words(packet)
        if size > word_limit:
            raise AlgorithmError(
                f"packet payload of {size} words exceeds limit {word_limit}")
    result = run_engines(
        lambda: _route_on_links(graph, packets, max_rounds=max_rounds),
        lambda: _route_on_network(graph, packets, word_limit=word_limit,
                                  max_rounds=max_rounds),
        _same_execution, "link-queue transport")
    deliveries = result[0]
    if len(deliveries) != len(packets):
        raise AlgorithmError(
            f"transport lost packets: {len(deliveries)}/{len(packets)}")
    return result


# ----------------------------------------------------------------------
# Tree-path helpers used by drivers to build packet routes.
# ----------------------------------------------------------------------

def path_to_root(parent: Dict[int, Optional[int]], v: int) -> Tuple[int, ...]:
    """The tree path from ``v`` up to its root (inclusive)."""
    path = [v]
    seen = {v}
    while parent.get(path[-1]) is not None:
        nxt = parent[path[-1]]
        if nxt in seen:
            raise AlgorithmError("parent pointers contain a cycle")
        seen.add(nxt)
        path.append(nxt)
    return tuple(path)


def path_from_root(parent: Dict[int, Optional[int]], v: int) -> Tuple[int, ...]:
    """The tree path from the root of ``v``'s tree down to ``v``."""
    return tuple(reversed(path_to_root(parent, v)))


def tree_depths(parent: Dict[int, Optional[int]]) -> Dict[int, int]:
    """Depth of every node in its tree (roots have depth 0)."""
    depths: Dict[int, int] = {}

    def depth(v: int) -> int:
        if v in depths:
            return depths[v]
        chain = []
        x = v
        while x not in depths and parent.get(x) is not None:
            chain.append(x)
            x = parent[x]
        base = depths.get(x, 0)
        depths.setdefault(x, base)
        for node in reversed(chain):
            base += 1
            depths[node] = base
        return depths[v]

    for v in parent:
        depth(v)
    return depths


def upcast_packets(parent: Dict[int, Optional[int]],
                   items: Dict[int, List[Any]], tag: Any = None) -> List[Packet]:
    """Packets realizing the upcast primitive (Lemma 1.5).

    Each node's items travel to the root of its tree, one item per
    packet (items are O(1)-word units, i.e. one O(log n)-bit message's
    worth each, matching the lemma's accounting).
    """
    packets = []
    for v, payloads in items.items():
        if not payloads:
            continue
        path = path_to_root(parent, v)
        for payload in payloads:
            packets.append(Packet(path=path, payload=payload, tag=tag))
    return packets


def downcast_packets(parent: Dict[int, Optional[int]],
                     messages: List[Tuple[int, Any]],
                     tag: Any = None,
                     extra_hop: Optional[Dict[int, int]] = None) -> List[Packet]:
    """Packets realizing the downcast primitive (Lemma 1.6).

    ``messages`` are (destination, payload) pairs; each routes from the
    destination's root down the tree.  ``extra_hop`` optionally extends
    selected destinations' paths by one non-tree edge (the
    inter-cluster-edge hop of §2.2 / §3.2), keyed by message index.
    """
    packets = []
    for idx, (dest, payload) in enumerate(messages):
        path = list(path_from_root(parent, dest))
        if extra_hop is not None and idx in extra_hop:
            path.append(extra_hop[idx])
        packets.append(Packet(path=tuple(path), payload=payload, tag=tag))
    return packets
