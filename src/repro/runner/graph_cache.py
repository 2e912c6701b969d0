"""The scenario-graph chain: per-worker LRU -> disk store -> build.

Scenario construction is seed-deterministic: the graph a cell runs on
is fully determined by ``(scenario name, size, derived construction
seed)``, where the derived seed is :meth:`Scenario.seed_for` of the
caller seed (the same derivation recorded as ``derived_seed`` in every
differential record).  That key content-addresses the built graph, and
this module serves it through an :class:`~repro.runner.chain.
ArtifactChain` backed by the graphs family of :mod:`repro.store`
(mmap'd CSR snapshots).  Graphs are treated as immutable by every
consumer, which is what makes sharing instances -- and read-only
snapshots -- sound; ``tests/test_store.py`` and
``tests/test_graph_core.py`` pin that executions over a cached or
store-loaded graph equal executions over a fresh build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.runner.chain import (  # noqa: F401  (source labels)
    LRU_HIT,
    STORE_HIT,
    ArtifactChain,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.graph import Graph
    from repro.scenarios.registry import Scenario


# A worker sees at most a handful of distinct scenario x size keys in
# flight at once; 32 graphs comfortably covers a full-matrix sweep's
# working set while bounding memory on dense entries.
DEFAULT_MAXSIZE = 32

# Source label of a graph the generator built (recorded as graph_source).
BUILT = "built"


def _open_store(root):
    from repro.store.graphs import GraphStore

    return GraphStore(root)


CHAIN = ArtifactChain(_open_store, DEFAULT_MAXSIZE, computed=BUILT)
configure = CHAIN.configure
configure_store = CHAIN.configure_store
effective_maxsize = CHAIN.effective_maxsize
effective_store = CHAIN.effective_store
stats = CHAIN.stats
clear = CHAIN.clear


def scenario_graph(scenario: "Scenario", size: Optional[int] = None,
                   seed: int = 0) -> "Graph":
    """The scenario's graph at ``size``, served from the chain.

    Equivalent to ``scenario.graph(size, seed=seed)`` -- same
    validation, same derived construction seed -- but same-key calls
    after the first return the one cached instance (or a shared mmap'd
    snapshot) instead of rebuilding.
    """
    return scenario_graph_source(scenario, size, seed=seed)[0]


def scenario_graph_source(scenario: "Scenario", size: Optional[int] = None,
                          seed: int = 0) -> Tuple["Graph", str]:
    """Like :func:`scenario_graph`, plus where the graph came from.

    The source is one of :data:`LRU_HIT`, :data:`STORE_HIT`, or
    :data:`BUILT`.  A degenerate size never has a published snapshot,
    so it misses the store and raises ``scenario.graph``'s own
    validation error in the build step.
    """
    size = scenario.default_size if size is None else size
    key = (scenario.name, size, scenario.seed_for(size, seed))
    return CHAIN.serve(key, lambda: scenario.graph(size, seed=seed))
