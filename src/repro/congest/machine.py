"""BCONGEST algorithms as per-node state machines.

Both of the paper's simulation frameworks (Theorem 2.1 and Theorems
3.9/3.10) need to *re-execute* a BCONGEST algorithm somewhere other than
on the real network: in Theorem 2.1 each cluster center locally steps the
state machines of all its cluster members; in Section 3 each node steps
its own machine on an *aggregated* inbox.  Both are legal because local
computation is free in the model.

To make this possible, every simulated algorithm in this library is a
:class:`Machine`: a deterministic object (its PRNG stream is fixed by the
node seed) that consumes ``(round, inbox)`` and emits at most one
broadcast payload per round.  A machine can therefore be

* run **directly** by :func:`run_machines` -- this measures its true
  BCONGEST round, message, and broadcast complexity, on a direct
  stepper or, as its reference, on a
  :class:`~repro.congest.network.Network` through
  :class:`MachineAdapter`; or
* stepped **locally** by a simulation driver, with the driver responsible
  for delivering exactly the messages the real execution would deliver.

The equivalence of the two modes is the correctness property of the
paper's simulations (Lemma 2.5 / Lemma 3.14) and is checked in tests.
"""

from __future__ import annotations

import heapq
import random
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.congest.errors import AlgorithmError, MessageTooLarge
from repro.congest.metrics import Metrics
from repro.congest.network import (
    Algorithm,
    Execution,
    Inbox,
    NodeAPI,
    NodeInfo,
    make_node_info,
    memo_words,
    run_algorithm,
    run_engines,
)
from typing import TYPE_CHECKING
if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.graph import Graph

Broadcast = Optional[Any]
MachineFactory = Callable[[NodeInfo], "Machine"]
Inboxes = Dict[int, List[Tuple[int, Any]]]


class Machine:
    """A per-node BCONGEST state machine.

    Lifecycle: the machine is constructed from a :class:`NodeInfo`; then
    :meth:`on_round` is called for rounds 1, 2, ... in order, with the
    inbox of messages broadcast by neighbors in the previous round.  The
    return value, if not ``None``, is broadcast to all neighbors this
    round.

    ``halted`` means the machine will never broadcast again and its
    ``output`` is final.  ``passive()`` means the machine does not need
    to be woken until a message arrives (it is still willing to react);
    ``wake_round()`` names the next round it acts without one.

    Drivers step machines event-driven (:func:`step_phases`,
    :func:`run_machines`): a machine is stepped only in round 1, in
    rounds where its inbox is non-empty, in every round while it is not
    ``passive()``, and in the round named by ``wake_round()``.  Every
    machine must therefore keep this contract:

    * an idle :meth:`on_round` -- empty inbox, before its
      ``wake_round()`` -- changes neither its state nor its output, so
      skipping it is unobservable;
    * ``passive()`` and ``wake_round()`` together name every round in
      which the machine acts on its own.  Both are read right after a
      step, so a machine whose schedule depends on the round remembers
      the last round it was stepped.

    ``tests/test_event_stepping.py`` checks the contract for every
    stepped driver against a lockstep execution that steps each live
    machine in every round.
    """

    def __init__(self, info: NodeInfo):
        self.info = info
        self._rng: Optional[random.Random] = None
        self.halted = False
        self._output: Any = None

    @property
    def rng(self) -> random.Random:
        """The node's private PRNG stream, seeded from ``info.seed`` on
        first use -- the same stream, built only by machines that draw."""
        if self._rng is None:
            self._rng = random.Random(self.info.seed)
        return self._rng

    # -- to implement ---------------------------------------------------
    def on_round(self, rnd: int, inbox: Inbox) -> Broadcast:
        raise NotImplementedError

    # -- scheduling hints -----------------------------------------------
    def passive(self) -> bool:
        """True if the machine only needs to run when it has messages."""
        return self.halted

    def wake_round(self) -> Optional[int]:
        """Earliest future round this machine wants to act regardless of
        messages (e.g. a random start delay); None if message-driven."""
        return None

    # -- results ----------------------------------------------------------
    def output(self) -> Any:
        return self._output

    def set_output(self, value: Any) -> None:
        self._output = value


class MachineAdapter(Algorithm):
    """Runs a :class:`Machine` as a node algorithm on a real network.

    The adapter steps the machine event-driven, under the
    :class:`Machine` contract: a machine that is not passive asks to be
    woken next round; a passive one is woken only by incoming messages
    or by its declared ``wake_round``.
    """

    def __init__(self, info: NodeInfo, machine: Machine):
        super().__init__(info)
        self.machine = machine

    def on_round(self, api: NodeAPI, rnd: int, inbox: Inbox) -> None:
        machine = self.machine
        if machine.halted:
            api.halt(machine.output())
            return
        payload = machine.on_round(rnd, inbox)
        if payload is not None:
            api.broadcast(payload)
        api.set_output(machine.output())
        if machine.halted:
            api.halt(machine.output())
            return
        if not machine.passive():
            api.wake_at(rnd + 1)
        else:
            wake = machine.wake_round()
            if wake is not None and wake > rnd:
                api.wake_at(wake)


def run_machines(graph: "Graph", factory: MachineFactory, *,
                 inputs: Optional[Dict[int, Any]] = None,
                 word_limit: int = 8, seed: int = 0,
                 check_sizes: bool = True, tracer=None,
                 max_rounds: int = 5_000_000,
                 fast_path: bool = True, faults=None,
                 profiler=None) -> Execution:
    """Execute a BCONGEST machine collection directly on the network.

    This is the reference execution: its metrics give the algorithm's
    true round complexity T_A, broadcast complexity B_A, and message
    complexity (each broadcast costs deg(v) messages).

    Fault-free, unprofiled, untraced fast-path calls run on the direct
    stepper (:func:`_step_direct`), which builds no ``Network``,
    ``NodeAPI`` or :class:`MachineAdapter`; every other call runs the
    machines through adapters on ``Network.run``, and a profiled call
    cross-checks the two (:func:`~repro.congest.network.run_engines`).
    ``Execution.machines`` holds the machines on both engines.
    """
    def on_network() -> Execution:
        machines: Dict[int, Machine] = {}

        def make(info: NodeInfo) -> Algorithm:
            machine = factory(info)
            machines[info.id] = machine
            return MachineAdapter(info, machine)

        execution = run_algorithm(
            graph, make, inputs=inputs, word_limit=word_limit,
            bcast_only=True, seed=seed, check_sizes=check_sizes,
            tracer=tracer, max_rounds=max_rounds, fast_path=fast_path,
            faults=faults, profiler=profiler)
        # Surface machine outputs even for machines that never halted
        # (e.g. depth-limited BFS at unreachable nodes).
        for v, machine in machines.items():
            if execution.outputs[v] is None:
                execution.outputs[v] = machine.output()
        execution.machines = machines
        return execution

    def direct() -> Execution:
        machines = {v: factory(make_node_info(graph, v, inputs=inputs,
                                              seed=seed))
                    for v in graph.nodes()}
        return _step_direct(graph, machines, word_limit=word_limit,
                            check_sizes=check_sizes, max_rounds=max_rounds)

    return run_engines(direct, on_network, _same_execution,
                       "direct machine stepper", faults=faults,
                       profiler=profiler,
                       reference_only=tracer is not None or not fast_path)


def _same_execution(a: Execution, b: Execution) -> bool:
    return (a.outputs == b.outputs and a.rounds == b.rounds
            and a.halted == b.halted and a.metrics.identical(b.metrics))


def _step_direct(graph: "Graph", machines: Dict[int, Machine], *,
                 word_limit: int, check_sizes: bool,
                 max_rounds: int) -> Execution:
    """``Network.run`` over :class:`MachineAdapter` nodes, without them.

    The round loop is the Network's: every node is due in round 1, then
    in a round where its inbox is non-empty or a wake-up it declared
    falls due; silent stretches are jumped over; sends are delivered
    next round in (sender, receiver-list) order.  Its wake-up rules are
    the Network's too, which :func:`step_phases` does not share: a
    declared wake-up is only ever lowered, never cancelled, so a stale
    one (the machine moved on, e.g. an MPX node adopted before its own
    start round) still activates the node -- an idle step -- and counts
    toward ``rounds``.  A machine found halted when due is retired
    without a step; that activation counts too.

    Each broadcast is sized once (memoized per payload, as the Network
    does) and metered in bulk: per-node broadcast counts are folded into
    ``edge_congestion`` at the end, in first-broadcast order, which is
    the order the per-broadcast updates would have inserted the edges.
    Errors carry the Network's types and texts.
    """
    adj = graph.adj
    retired = dict.fromkeys(machines, False)    # the NodeAPI's halted
    wake_pending = dict.fromkeys(machines, 1)
    wake_heap: List[Tuple[int, int]] = [(1, v) for v in machines]
    heapq.heapify(wake_heap)
    sizes: Dict[Any, int] = {}
    sent: Dict[int, int] = {}         # node -> broadcasts that reached anyone
    size_counts: Dict[int, int] = {}  # words -> messages, first-use order
    broadcasts = messages = words = 0
    pending: Inboxes = {}
    rnd = last_active = 0
    while True:
        inboxes, pending = pending, {}
        nxt = rnd + 1
        if not inboxes:
            while wake_heap and (
                    wake_pending.get(wake_heap[0][1]) != wake_heap[0][0]
                    or retired[wake_heap[0][1]]):
                heapq.heappop(wake_heap)
            if not wake_heap:
                break
            nxt = max(nxt, wake_heap[0][0])
        rnd = nxt
        if rnd > max_rounds:
            raise AlgorithmError(
                f"exceeded max_rounds={max_rounds}; likely livelock")
        active = set(inboxes)
        while wake_heap and wake_heap[0][0] <= rnd:
            due, v = heapq.heappop(wake_heap)
            if wake_pending.get(v) == due:
                del wake_pending[v]
                active.add(v)
        acted = False
        for v in sorted(active):
            if retired[v]:
                continue
            acted = True
            machine = machines[v]
            if machine.halted:
                retired[v] = True
                continue
            payload = machine.on_round(rnd, inboxes.get(v, []))
            if payload is not None:
                broadcasts += 1
                dsts = adj[v]
                if dsts:
                    size = (memo_words(sizes, payload, v, rnd)
                            if check_sizes else 1)
                    if size > word_limit:
                        raise MessageTooLarge(
                            f"{size} words > limit {word_limit} "
                            f"(node {v} -> {dsts[0]}, round {rnd})")
                    k = len(dsts)
                    sent[v] = sent.get(v, 0) + 1
                    messages += k
                    words += size * k
                    size_counts[size] = size_counts.get(size, 0) + k
                    msg = (v, payload)
                    for u in dsts:
                        box = pending.get(u)
                        if box is None:
                            pending[u] = [msg]
                        else:
                            box.append(msg)
            if machine.halted:
                retired[v] = True
                continue
            if not machine.passive():
                wake = rnd + 1
            else:
                wake = machine.wake_round()
                if wake is None or wake <= rnd:
                    continue
            current = wake_pending.get(v)
            if current is None or wake < current:
                wake_pending[v] = wake
                heapq.heappush(wake_heap, (wake, v))
        if acted:
            last_active = rnd
        if not pending and not wake_pending:
            break

    metrics = Metrics(rounds=last_active, messages=messages,
                      broadcasts=broadcasts, words=words,
                      max_message_words=max(size_counts, default=0))
    metrics.message_sizes.update(size_counts)
    congestion = metrics.edge_congestion
    edge_keys = graph.edge_keys()
    for v, count in sent.items():
        for key in edge_keys[v]:
            congestion[key] += count
    outputs = {v: machine.output() for v, machine in machines.items()}
    return Execution(outputs=outputs, metrics=metrics, algorithms={},
                     rounds=last_active, halted=retired, machines=machines)


def step_phases(machines: Dict[int, Machine],
                deliver: Callable[[Dict[int, Any]], Inboxes], *,
                max_phases: int,
                overrun: str = "simulation exceeded max_phases",
                ) -> Tuple[int, int]:
    """Step a machine collection phase by phase, event-driven.

    The shared loop of the phase simulators (Theorem 2.1 and Theorems
    3.9/3.10): phase p is round p of the simulated algorithm.  Every
    machine is stepped in phase 1; afterwards a phase steps only the
    machines that have an inbox, are not ``passive()``, or whose
    ``wake_round()`` has come due -- the activation set and wake heap of
    :meth:`repro.congest.network.Network.run`.  When nothing is in
    flight and no machine is busy, the loop jumps straight to the next
    due wake-up, and it ends when there is none.  Under the
    :class:`Machine` contract this computes exactly what stepping every
    live machine in every phase computes.

    Due machines step in ascending node order, so ``deliver(broadcasters)``
    sees each phase's broadcasts in that order; it routes them and
    returns the next phase's inboxes.  Returns ``(phases,
    broadcasts)``: the last phase executed and the number of broadcasts.
    Raises :class:`AlgorithmError` with ``overrun`` past ``max_phases``.
    """
    wake_heap: List[Tuple[int, int]] = []  # (phase, node)
    wake_pending: Dict[int, int] = {}
    inboxes: Inboxes = {}
    due: Set[int] = set(machines)
    broadcasts = 0
    phase = 1
    while True:
        if phase > max_phases:
            raise AlgorithmError(overrun)
        while wake_heap and wake_heap[0][0] <= phase:
            rnd, v = heapq.heappop(wake_heap)
            if wake_pending.get(v) == rnd:
                del wake_pending[v]
                due.add(v)
        current, inboxes = inboxes, {}
        busy: Set[int] = set()
        broadcasters: Dict[int, Any] = {}
        for v in sorted(due):
            machine = machines[v]
            if machine.halted:
                continue
            payload = machine.on_round(phase, current.get(v, []))
            if payload is not None:
                broadcasters[v] = payload
            wake = None
            if not machine.halted:
                if not machine.passive():
                    busy.add(v)
                else:
                    wake = machine.wake_round()
            if wake is not None and wake > phase:
                if wake_pending.get(v) != wake:
                    wake_pending[v] = wake
                    heapq.heappush(wake_heap, (wake, v))
            else:
                wake_pending.pop(v, None)
        if broadcasters:
            broadcasts += len(broadcasters)
            inboxes = deliver(broadcasters)
        if inboxes or busy:
            phase += 1
        else:
            while wake_heap and (
                    wake_pending.get(wake_heap[0][1]) != wake_heap[0][0]):
                heapq.heappop(wake_heap)
            if not wake_heap:
                return phase, broadcasts
            phase = wake_heap[0][0]
        due = set(inboxes)
        due |= busy


class LocalRunner:
    """Steps a full collection of machines *locally* (no network).

    Used as an oracle in tests: the paper's simulations must produce the
    same outputs as this direct lockstep execution (Lemmas 2.5 / 3.14).
    Also used by drivers to pre-compute a machine collection's round
    complexity upper bound T_A where the paper assumes it known.
    """

    def __init__(self, graph: "Graph", factory: MachineFactory, *,
                 inputs: Optional[Dict[int, Any]] = None,
                 known_n: bool = True, seed: int = 0):
        self.graph = graph
        self.machines: Dict[int, Machine] = {}
        for v in graph.nodes():
            info = make_node_info(graph, v, inputs=inputs,
                                  known_n=known_n, seed=seed)
            self.machines[v] = factory(info)
        self.round = 0
        self.broadcasts = 0

    def run(self, max_rounds: int = 1_000_000) -> Dict[int, Any]:
        """Run to global quiescence; return outputs."""
        pending: Dict[int, List[Tuple[int, Any]]] = {}
        while True:
            self.round += 1
            if self.round > max_rounds:
                raise RuntimeError("LocalRunner exceeded max_rounds")
            inboxes, pending = pending, {}
            for v, machine in self.machines.items():
                if machine.halted:
                    continue
                inbox = inboxes.get(v, [])
                if (inbox or not machine.passive()
                        or machine.wake_round() == self.round):
                    payload = machine.on_round(self.round, inbox)
                    if payload is not None:
                        self.broadcasts += 1
                        for u in self.graph.neighbors(v):
                            pending.setdefault(u, []).append((v, payload))
            if pending:
                continue
            if any(not m.halted and not m.passive()
                   for m in self.machines.values()):
                continue
            # Everyone is passive and nothing is in flight: jump to the
            # next scheduled wake-up, or finish if there is none.
            future = [m.wake_round() for m in self.machines.values()
                      if not m.halted and m.wake_round() is not None
                      and m.wake_round() > self.round]
            if not future:
                break
            self.round = min(future) - 1
        return {v: m.output() for v, m in self.machines.items()}
