"""Metering of rounds, messages, broadcasts, and per-edge congestion.

Every quantity the paper reasons about is counted here:

* ``rounds`` -- the number of synchronous rounds consumed (§1.1.1).
* ``messages`` -- total messages sent by all nodes over the execution.
* ``broadcasts`` -- broadcast complexity of a BCONGEST execution: the
  number of broadcast *operations*, each of which costs deg(v) messages
  but counts once here (§1.1.2).
* ``edge_congestion`` -- per-undirected-edge message counts, the quantity
  bounded by the congestion + dilation framework (§1.4.1) and by the
  congestion-smoothing lemma (Lemma 3.8).

Metrics objects are plain accumulators; they can be snapshotted, diffed,
and merged so that a driver can attribute costs to phases (preprocessing
vs. simulation, send vs. receive steps, and so on).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Hashable, Tuple

Edge = Tuple[Hashable, Hashable]


def undirected(u: Hashable, v: Hashable) -> Edge:
    """Canonical key for the undirected edge {u, v}."""
    return (u, v) if repr(u) <= repr(v) else (v, u)


@dataclass
class Metrics:
    """Accumulated costs of a (partial) CONGEST execution."""

    rounds: int = 0
    messages: int = 0
    broadcasts: int = 0
    words: int = 0
    max_message_words: int = 0
    faults_dropped: int = 0
    faults_duplicated: int = 0
    nodes_crashed: int = 0
    edge_congestion: Counter = field(default_factory=Counter)
    # Message-size histogram (size in words -> message count).  Executions
    # reuse a handful of payload shapes, so this stays tiny; it is what
    # makes window maxima exact: ``delta_since`` diffs the histograms and
    # takes the max size actually seen *within* the window, instead of
    # copying the execution-wide running max into every phase delta.
    message_sizes: Counter = field(default_factory=Counter)

    def record_send(self, u: Hashable, v: Hashable, size_words: int) -> None:
        """Record one message of ``size_words`` words on edge (u, v)."""
        self.messages += 1
        self.words += size_words
        self.max_message_words = max(self.max_message_words, size_words)
        self.edge_congestion[undirected(u, v)] += 1
        self.message_sizes[size_words] += 1

    def record_broadcast(self) -> None:
        """Record one broadcast operation (message costs counted separately)."""
        self.broadcasts += 1

    def record_fault_drop(self) -> None:
        """Record one injected delivery drop (lost message or dead link)."""
        self.faults_dropped += 1

    def record_fault_duplicate(self) -> None:
        """Record one injected duplicate delivery."""
        self.faults_duplicated += 1

    def record_node_crash(self) -> None:
        """Record one node crashing (once per node, at its crash round)."""
        self.nodes_crashed += 1

    def record_broadcast_sends(self, edge_keys, size_words: int) -> None:
        """Bulk-record one broadcast's messages: one per incident edge.

        Equivalent to ``record_send`` once per edge key with the same
        ``size_words``; folding the counter updates into one call is what
        makes the network's batched broadcast path cheap.
        """
        k = len(edge_keys)
        self.messages += k
        self.words += size_words * k
        if k:
            if size_words > self.max_message_words:
                self.max_message_words = size_words
            self.message_sizes[size_words] += k
        self.edge_congestion.update(edge_keys)

    def identical(self, other: "Metrics") -> bool:
        """Equal, with the same item order in ``edge_congestion`` and
        ``message_sizes`` -- what two engines of one execution must
        agree on."""
        return (self == other
                and list(self.edge_congestion.items())
                == list(other.edge_congestion.items())
                and list(self.message_sizes.items())
                == list(other.message_sizes.items()))

    @property
    def max_edge_congestion(self) -> int:
        """Maximum number of messages carried by any single edge."""
        if not self.edge_congestion:
            return 0
        return max(self.edge_congestion.values())

    def congestion_over(self, edges) -> int:
        """Maximum congestion restricted to the given edge set."""
        best = 0
        for u, v in edges:
            best = max(best, self.edge_congestion[undirected(u, v)])
        return best

    def snapshot(self) -> "Metrics":
        """A deep copy, for computing per-phase deltas."""
        out = Metrics(
            rounds=self.rounds,
            messages=self.messages,
            broadcasts=self.broadcasts,
            words=self.words,
            max_message_words=self.max_message_words,
            faults_dropped=self.faults_dropped,
            faults_duplicated=self.faults_duplicated,
            nodes_crashed=self.nodes_crashed,
        )
        out.edge_congestion = Counter(self.edge_congestion)
        out.message_sizes = Counter(self.message_sizes)
        return out

    def delta_since(self, earlier: "Metrics") -> "Metrics":
        """Costs accumulated since ``earlier`` was snapshotted.

        ``max_message_words`` is the max over the messages sent *within*
        the window (diffed out of the size histograms), so per-phase
        attribution never inherits an earlier phase's larger messages.
        """
        sizes = self.message_sizes - earlier.message_sizes
        out = Metrics(
            rounds=self.rounds - earlier.rounds,
            messages=self.messages - earlier.messages,
            broadcasts=self.broadcasts - earlier.broadcasts,
            words=self.words - earlier.words,
            max_message_words=max(sizes) if sizes else 0,
            faults_dropped=self.faults_dropped - earlier.faults_dropped,
            faults_duplicated=(self.faults_duplicated
                               - earlier.faults_duplicated),
            nodes_crashed=self.nodes_crashed - earlier.nodes_crashed,
        )
        out.edge_congestion = self.edge_congestion - earlier.edge_congestion
        out.message_sizes = sizes
        return out

    def merge(self, other: "Metrics", *, parallel: bool = False) -> None:
        """Fold ``other`` into this accumulator.

        With ``parallel=True`` round counts are combined with ``max``
        (phases that run concurrently), otherwise they add (sequential
        composition).
        """
        if parallel:
            self.rounds = max(self.rounds, other.rounds)
        else:
            self.rounds += other.rounds
        self.messages += other.messages
        self.broadcasts += other.broadcasts
        self.words += other.words
        self.max_message_words = max(self.max_message_words,
                                     other.max_message_words)
        self.faults_dropped += other.faults_dropped
        self.faults_duplicated += other.faults_duplicated
        self.nodes_crashed += other.nodes_crashed
        self.edge_congestion.update(other.edge_congestion)
        self.message_sizes.update(other.message_sizes)

    def as_dict(self) -> Dict[str, int]:
        """Summary suitable for experiment tables (drops per-edge detail).

        Fault counters appear only when any fault was injected, so the
        dict (and every record serialized from it) is byte-identical to
        the pre-fault-plane output for clean executions.
        """
        out = {
            "rounds": self.rounds,
            "messages": self.messages,
            "broadcasts": self.broadcasts,
            "words": self.words,
            "max_edge_congestion": self.max_edge_congestion,
        }
        if self.faults_dropped or self.faults_duplicated or self.nodes_crashed:
            out["faults_dropped"] = self.faults_dropped
            out["faults_duplicated"] = self.faults_duplicated
            out["nodes_crashed"] = self.nodes_crashed
        return out

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        d = self.as_dict()
        return (
            "Metrics(rounds={rounds}, messages={messages}, "
            "broadcasts={broadcasts}, max_congestion={max_edge_congestion})".format(**d)
        )
