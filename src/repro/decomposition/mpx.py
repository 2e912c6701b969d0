"""The Miller-Peng-Xu (MPX) low-diameter decomposition [28], distributed.

Each node u draws a shift delta_u from a (discrete) geometric
distribution with rate ``beta`` and starts a cluster-growing flood at
time ``cap - delta_u``; every node joins the cluster whose *shifted
distance* d(u, v) - delta_u is smallest (ties broken by center ID).
With integer shifts the arrival round of u's flood at v is exactly
``cap - delta_u + d(u, v)``, so first-arrival adoption implements the
shifted-distance argmin exactly, and the tie-breaking rule makes every
cluster connected and spanned by the adoption tree (strong diameter
<= 2 * max-shift = O(log n / beta) w.h.p.).

The separation property -- each node neighbors O(log n) clusters w.h.p.
for constant beta (Corollary 3.9 of Haeupler-Wajc [18], used by the
paper's Lemma 2.4) -- follows from the memorylessness of the shift
distribution; benchmark E1 measures it.

The same machine with rate beta = ln(n) / (2kW) is the ball-carving step
of the neighborhood-cover construction (:mod:`repro.covers.mpx_cover`,
which explains why it stands in for Elkin's algorithm).

The machine is BCONGEST with broadcast complexity exactly n (each node
broadcasts once, upon adoption), and runs in O(cap + max cluster radius)
= O(log n / beta) rounds.

Two engines execute it.  The reference steps one :class:`MPXMachine`
per node through :func:`~repro.congest.machine.run_machines`; it serves
every call under a non-null fault plan or a round profiler.  Every other
call takes the closed form, :func:`mpx_wavefront`, batched over
repetitions as ``(reps, n)`` arrays over the CSR arrays:

* node v adopts in round ``A(v) = min(start_v, min over neighbors u of
  A(u) + 1)``, and chooses the smallest ``(center, dist, sender)`` among
  that round's arrivals and its own candidacy ``(v, 0, None)``;
* each start round comes from the machine's own stream: one
  ``random.Random`` re-seeded per node (and repetition,
  :func:`repetition_seed`) and one :func:`geometric_shift` draw;
* the metering is the stepper's (:func:`wavefront_metrics`): n
  broadcasts and sum(deg) two-word messages per repetition, 2 messages
  per edge and repetition, edges keyed in first-broadcast order (nodes
  by ``(A(v), v)`` in the first repetition, edges in neighbor order).
  :func:`run_mpx`'s ``rounds`` is the latest start round or round after
  a broadcast that reached someone -- a node's wake-up at its start
  round is never cancelled, even once it adopted earlier.  The cover's
  rounds are fixed by its repetition windows
  (:func:`repro.core.cover_app.cover_engines`).

A profiled call runs both engines and raises if they disagree
(:func:`~repro.congest.network.run_engines`).  Both give the same
:class:`Clustering` and :class:`~repro.congest.metrics.Metrics`, item
order included (``tests/test_direct_engines.py``).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.congest.machine import Machine, run_machines
from repro.congest.metrics import Metrics
from repro.congest.network import Inbox, NodeInfo, node_seed, run_engines
from repro.graphs.graph import Graph


def geometric_shift(rng: random.Random, beta: float, cap: int) -> int:
    """A draw from the discrete analogue of Exp(beta), capped at ``cap``.

    P(delta >= k) = exp(-beta * k); the cap is hit with probability
    exp(-beta * cap), negligible for cap = Theta(log n / beta).
    """
    u = rng.random()
    if u <= 0:
        return cap
    shift = int(-math.log(u) / beta)
    return min(shift, cap)


def shift_cap(n: int, beta: float) -> int:
    """Cap such that P(any of n draws is capped) <= n^-3."""
    return max(1, int(math.ceil(4 * math.log(max(n, 2)) / beta)))


@dataclass
class Clustering:
    """Result of one MPX run.

    ``center_of[v]`` is v's cluster center; ``dist[v]`` its hop distance
    to the center inside the cluster; ``parent[v]`` the tree edge used to
    adopt (None at centers).  ``neighbor_clusters[v]`` maps each center
    of a cluster adjacent to v (its own included) to the lexicographically
    smallest neighbor of v in that cluster -- exactly the local knowledge
    needed to choose the LDC edge set F (Definition 2.3).
    """

    center_of: Dict[int, int]
    dist: Dict[int, int]
    parent: Dict[int, Optional[int]]
    neighbor_clusters: Dict[int, Dict[int, int]]
    metrics: Metrics
    beta: float

    def members(self) -> Dict[int, List[int]]:
        """center -> sorted member list."""
        out: Dict[int, List[int]] = {}
        for v, c in self.center_of.items():
            out.setdefault(c, []).append(v)
        for c in out:
            out[c].sort()
        return out

    @property
    def num_clusters(self) -> int:
        return len(set(self.center_of.values()))

    def max_radius(self) -> int:
        return max(self.dist.values()) if self.dist else 0

    def children(self) -> Dict[int, List[int]]:
        """Tree children map for upcast/downcast over cluster trees."""
        out: Dict[int, List[int]] = {v: [] for v in self.parent}
        for v, p in self.parent.items():
            if p is not None:
                out[p].append(v)
        return out


class MPXMachine(Machine):
    """One node's part of the MPX flood.

    Broadcast payload: ``(center, dist_from_center)``.  A node adopts the
    first arrival (minimum arrival round = minimum shifted distance),
    breaking same-round ties by smaller center ID; its own candidacy
    counts as an arrival at round ``cap - delta + 1``.
    """

    def __init__(self, info: NodeInfo, beta: float = 0.5,
                 cap: Optional[int] = None):
        super().__init__(info)
        params = info.input or {}
        self.beta = params.get("beta", beta)
        n = info.n if info.n is not None else 2
        self.cap = params.get("cap", cap) or shift_cap(n, self.beta)
        self.delta = geometric_shift(self.rng, self.beta, self.cap)
        self.start = self.cap - self.delta + 1
        self.center: Optional[int] = None
        self.dist: Optional[int] = None
        self.parent: Optional[int] = None

    def wake_round(self) -> Optional[int]:
        if self.center is None:
            return self.start
        return None

    def passive(self) -> bool:
        return True

    def on_round(self, rnd: int, inbox: Inbox) -> Optional[Tuple[int, int]]:
        if self.center is not None:
            return None
        best: Optional[Tuple[int, int, int]] = None  # (center, dist, src)
        for src, (center, dist) in inbox:
            # Deterministic tie-break including the sender, so that the
            # adoption (and hence the cluster tree) is independent of
            # inbox ordering -- required for the execution-mode
            # equivalence of the Theorem 2.1 simulation.
            if best is None or (center, dist, src) < best:
                best = (center, dist, src)
        candidates: List[Tuple[int, int, Optional[int]]] = []
        if best is not None:
            candidates.append((best[0], best[1] + 1, best[2]))
        if rnd >= self.start:
            candidates.append((self.info.id, 0, None))
        if not candidates:
            return None
        center, dist, parent = min(candidates)
        self.center, self.dist, self.parent = center, dist, parent
        self.set_output(self._result())
        return (center, dist)

    def _result(self):
        return {
            "center": self.center,
            "dist": self.dist,
            "parent": self.parent,
            "delta": self.delta,
        }


def repetition_seed(node_seed: int, rep: int) -> int:
    """The PRNG seed of a node's MPX machine in repetition ``rep`` of a
    multi-repetition run (the neighborhood cover), from its node seed."""
    return (node_seed * 1_000_003 + rep * 7919) & 0x7FFFFFFF


def start_rounds(graph: Graph, *, beta: float, cap: int, seed: int,
                 reps: Optional[int] = None) -> np.ndarray:
    """Every node's start round ``cap - delta + 1``, as its machine draws it.

    One row per repetition, each seeded with :func:`repetition_seed`;
    ``reps=None`` gives the single row of :func:`run_mpx`, whose machines
    draw from their node seeds directly.  Each shift is one draw of a
    re-seeded ``random.Random`` through :func:`geometric_shift`, so the
    stream is the machines' own.
    """
    base = [node_seed(seed, v) for v in graph.nodes()]
    rows = ([base] if reps is None else
            [[repetition_seed(s, rep) for s in base] for rep in range(reps)])
    rng = random.Random()
    # The generator's own seeding, without random.Random.seed's argument
    # dispatch: for an int seed the two set the same state.
    reseed = super(random.Random, rng).seed
    starts = []
    for row in rows:
        for s in row:
            reseed(s)
            starts.append(cap - geometric_shift(rng, beta, cap) + 1)
    return np.array(starts, dtype=np.int64).reshape(len(rows), graph.n)


def mpx_wavefront(graph: Graph, starts: np.ndarray, *,
                  beta: float) -> Tuple[np.ndarray, List[Clustering]]:
    """The MPX flood in closed form, one repetition per row of ``starts``.

    Returns the adoption rounds (shaped like ``starts``) and one
    :class:`Clustering` per row, with empty metrics.  Node v adopts in
    round ``A(v) = min(start_v, min over neighbors u of A(u) + 1)``,
    relaxed one hop per pass over the CSR arrays.  Its choice is the
    smallest ``(center, dist, sender)`` among the broadcasts of the
    neighbors that adopted in round ``A(v) - 1``, against its own
    candidacy ``(v, 0, None)`` when ``A(v) == start_v``; rounds are
    settled in order, so every sender's choice is final when read.  A
    triple is keyed ``(center * span + dist) * n + sender``.  No arrival
    can carry center v before v adopts, so the own candidacy wins
    exactly when it is present and v is below the best arrival's center.
    """
    reps, n = starts.shape
    indptr, indices = graph._indptr, graph._indices
    deg = np.diff(indptr)
    adopt = starts.copy()
    center = np.tile(np.arange(n, dtype=np.int64), (reps, 1))
    dist = np.zeros_like(starts)
    parent = np.full_like(starts, -1)
    if len(indices):
        linked = deg > 0
        first_slot = indptr[:-1][linked]
        while True:
            heard = np.minimum.reduceat(adopt[:, indices], first_slot,
                                        axis=1) + 1
            if not (heard < adopt[:, linked]).any():
                break
            adopt[:, linked] = np.minimum(adopt[:, linked], heard)
        # Every (repetition, CSR slot) whose sender adopted one round
        # before the receiver, grouped by the receiver's adoption round.
        receiver = np.repeat(np.arange(n, dtype=np.int64), deg)
        rows, slots = np.nonzero(adopt[:, indices] + 1 == adopt[:, receiver])
        when = adopt[rows, receiver[slots]]
        order = np.argsort(when, kind="stable")
        rows, slots = rows[order], slots[order]
        bounds = np.flatnonzero(np.diff(when[order])) + 1
        span = int(adopt.max()) + 1
        for r, s in zip(np.split(rows, bounds), np.split(slots, bounds)):
            if not len(r):
                continue
            senders, receivers = indices[s], receiver[s]
            key = (center[r, senders] * span + dist[r, senders]) * n + senders
            # Within a round, slots are in (repetition, receiver) order.
            new = np.ones(len(r), dtype=bool)
            new[1:] = (r[1:] != r[:-1]) | (receivers[1:] != receivers[:-1])
            group = np.flatnonzero(new)
            best = np.minimum.reduceat(key, group)
            r, v = r[group], receivers[group]
            won = (best // (span * n) < v) | (adopt[r, v] < starts[r, v])
            r, v, best = r[won], v[won], best[won]
            center[r, v] = best // (span * n)
            dist[r, v] = best // n % span + 1
            parent[r, v] = best % n
    clusterings = [
        package_clustering(graph, c, d, [p if p >= 0 else None for p in ps],
                           beta=beta, metrics=Metrics())
        for c, d, ps in zip(center.tolist(), dist.tolist(), parent.tolist())]
    return adopt, clusterings


def wavefront_metrics(graph: Graph, adopt: np.ndarray, *, rounds: int,
                      reps: int = 1) -> Metrics:
    """The metering of ``reps`` MPX floods that a machine stepper records.

    Every node broadcasts its two-word ``(center, dist)`` once per
    repetition, so each edge carries ``2 * reps`` messages.  Edges are
    keyed in first-broadcast order: nodes by ``(adopt[v], v)`` with
    ``adopt`` the first repetition's adoption rounds, and each node's
    edges in neighbor order.
    """
    messages = reps * len(graph._indices)
    metrics = Metrics(rounds=rounds, messages=messages,
                      broadcasts=reps * graph.n, words=2 * messages)
    if messages:
        metrics.max_message_words = 2
        metrics.message_sizes[2] = messages
        edge_keys = graph.edge_keys()
        first = np.argsort(adopt, kind="stable").tolist()
        metrics.edge_congestion.update(dict.fromkeys(
            chain.from_iterable(edge_keys[v] for v in first), 2 * reps))
    return metrics


def package_clustering(graph: Graph, center: Sequence[Optional[int]],
                       dist: Sequence[int], parent: Sequence[Optional[int]],
                       *, beta: float, metrics: Metrics) -> Clustering:
    """One repetition's per-node states, indexed by node, as a Clustering.

    ``neighbor_clusters[v]`` maps each neighbor's center, in order of
    first appearance among v's neighbors, to the smallest neighbor in
    that cluster.  It is local knowledge: every neighbor's adoption
    broadcast carries its center, and that is what the LDC edge set F is
    built from.
    """
    nodes = graph.nodes()
    for v in nodes:
        if center[v] is None:
            raise RuntimeError(f"MPX left node {v} unclustered")
    adj = graph.adj
    neighbor_clusters: Dict[int, Dict[int, int]] = {}
    for v in nodes:
        table: Dict[int, int] = {}
        for nbr in adj[v]:
            c = center[nbr]
            if c not in table or nbr < table[c]:
                table[c] = nbr
        neighbor_clusters[v] = table
    return Clustering(center_of=dict(zip(nodes, center)),
                      dist=dict(zip(nodes, dist)),
                      parent=dict(zip(nodes, parent)),
                      neighbor_clusters=neighbor_clusters,
                      metrics=metrics, beta=beta)


def machine_states(outputs: Sequence[Optional[dict]]
                   ) -> Tuple[List[Optional[int]], List[int],
                              List[Optional[int]]]:
    """Per-node ``(center, dist, parent)`` lists from MPX machine outputs
    (``None`` for a machine that never stepped)."""
    outs = [out or {"center": None, "dist": None, "parent": None}
            for out in outputs]
    return ([out["center"] for out in outs], [out["dist"] for out in outs],
            [out["parent"] for out in outs])


def run_mpx(graph: Graph, *, beta: float = 0.5, seed: int = 0,
            cap: Optional[int] = None) -> Clustering:
    """Execute one MPX decomposition and package it.

    Fault-free, unprofiled calls take the closed form
    (:func:`mpx_wavefront`).  Every other call runs the machines through
    :func:`~repro.congest.machine.run_machines`, the reference, and a
    profiled call cross-checks the two
    (:func:`~repro.congest.network.run_engines`).  The closed form's
    ``rounds`` follows the stepper's stale-wake rule: a node's wake-up
    at its start round is never cancelled, so ``rounds`` is the latest
    of every start round and of every round after a broadcast that
    reached a neighbor.
    """
    cap = cap or shift_cap(graph.n, beta)

    def closed_form() -> Clustering:
        starts = start_rounds(graph, beta=beta, cap=cap, seed=seed)
        adopt, (clustering,) = mpx_wavefront(graph, starts, beta=beta)
        linked = np.diff(graph._indptr) > 0
        rounds = max(int(starts.max(initial=0)),
                     int(adopt[0, linked].max(initial=-1)) + 1)
        clustering.metrics = wavefront_metrics(graph, adopt[0],
                                               rounds=rounds)
        return clustering

    def reference() -> Clustering:
        execution = run_machines(
            graph, lambda info: MPXMachine(info, beta=beta, cap=cap),
            word_limit=8, seed=seed)
        return package_clustering(
            graph, *machine_states([execution.outputs[v]
                                    for v in graph.nodes()]),
            beta=beta, metrics=execution.metrics)

    return run_engines(closed_form, reference, _same_clustering,
                       "MPX wavefront")


def _same_clustering(a: Clustering, b: Clustering) -> bool:
    return a == b and a.metrics.identical(b.metrics)
