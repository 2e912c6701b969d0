"""The oracle chain: per-worker LRU -> disk store -> compute.

The sequential baseline a differential cell checks against
(:mod:`repro.baselines.oracles`) is a pure function of ``(scenario
graph, derived seed)`` and of the baseline's own source, so it is
content-addressed by ``(scenario, size, derived seed, oracle name,
source revision)`` and served through an :class:`~repro.runner.chain.
ArtifactChain` backed by the oracles store family.  Same-key cells
share one value (e.g. the ``apsp-unweighted`` and ``bfs-collection``
bindings of one scenario resolve the same ``unweighted-apsp`` matrix).
Because the source revision is part of every key, editing a baseline
function rotates its keys: the chain can never serve a stale baseline
against new oracle code.  ``tests/test_oracle_store.py`` pins that
cache state never changes a canonical record byte.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Tuple

from repro.runner.chain import (  # noqa: F401  (source labels)
    LRU_HIT,
    STORE_HIT,
    ArtifactChain,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.baselines.oracles import OracleSpec
    from repro.graphs.graph import Graph
    from repro.scenarios.bindings import Binding
    from repro.scenarios.registry import Scenario


# Oracle values are small (an n x n float matrix at sweep sizes is tens
# of kilobytes), so the LRU can afford to hold a whole matrix sweep's
# working set.
DEFAULT_MAXSIZE = 64

# Source labels (recorded per cell as oracle_source).
COMPUTED = "computed"
NO_ORACLE = "none"       # the binding has no sequential baseline (cover)


def _open_store(root):
    from repro.store.oracles import OracleStore

    return OracleStore(root)


CHAIN = ArtifactChain(_open_store, DEFAULT_MAXSIZE, computed=COMPUTED)
configure = CHAIN.configure
configure_store = CHAIN.configure_store
effective_maxsize = CHAIN.effective_maxsize
effective_store = CHAIN.effective_store
stats = CHAIN.stats
clear = CHAIN.clear


def binding_oracle_source(scenario: "Scenario", size: int, seed: int,
                          binding: "Binding",
                          graph: "Graph") -> Tuple[Any, str]:
    """The binding's baseline value at this cell, plus where it came from.

    ``(None, "none")`` when the binding has no sequential oracle; the
    value is otherwise exactly what ``binding.oracle.compute(graph,
    derived_seed)`` would return (the codec round-trip is exact), served
    through the chain.  The source is one of :data:`LRU_HIT`,
    :data:`STORE_HIT`, :data:`COMPUTED`, or :data:`NO_ORACLE`.
    """
    spec = binding.oracle
    if spec is None:
        return None, NO_ORACLE
    derived = scenario.seed_for(size, seed)
    return oracle_value_source(scenario.name, size, derived, spec, graph)


def oracle_value_source(scenario_name: str, size: int, derived_seed: int,
                        spec: "OracleSpec",
                        graph: "Graph") -> Tuple[Any, str]:
    """Serve one baseline value through the chain; see the module doc."""
    from repro.baselines.oracles import oracle_revision

    key = (scenario_name, size, derived_seed, spec.name,
           oracle_revision(spec))
    return CHAIN.serve(key, lambda: spec.compute(graph, derived_seed),
                       store_args=(scenario_name, size, derived_seed, spec))
