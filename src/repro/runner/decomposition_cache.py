"""The decomposition chain: per-worker LRU -> disk store -> compute.

The Lemma 2.4 LDC decomposition is a pure function of ``(scenario
graph, derived seed)`` and is consumed by four bindings of one scenario
x size -- the ``ldc`` producer cell plus the staged MPX-cover /
LDC-spanner / Baswana-Sen cells -- so it is content-addressed by
``(scenario, size, derived seed, algorithm)`` and served through an
:class:`~repro.runner.chain.ArtifactChain` backed by the decompositions
store family: ``build_ldc`` runs once and sibling cells reuse its
snapshot.  The served value is the plain-dict snapshot of
:func:`repro.decomposition.pipeline.ldc_snapshot`; the store
round-trips it exactly (metrics included), the contract
``tests/test_decomposition_pipeline.py`` pins.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.runner.chain import (  # noqa: F401  (source labels)
    LRU_HIT,
    STORE_HIT,
    ArtifactChain,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.graphs.graph import Graph
    from repro.scenarios.bindings import Binding
    from repro.scenarios.registry import Scenario


# A snapshot is a handful of per-node dicts plus the F-edge list --
# comparable to a graph, so the LRU matches the graph chain's budget.
DEFAULT_MAXSIZE = 32

# Source labels (recorded per cell as decomposition_source).
COMPUTED = "computed"
NO_DECOMPOSITION = "none"  # the binding consumes no decomposition


def _build_ldc_snapshot(graph: "Graph", derived_seed: int) -> Dict[str, Any]:
    from repro.decomposition.ldc import build_ldc
    from repro.decomposition.pipeline import ldc_snapshot

    return ldc_snapshot(build_ldc(graph, seed=derived_seed))


# algorithm name (Binding.decomposition) -> snapshot builder.
_BUILDERS = {"ldc": _build_ldc_snapshot}


def compute_snapshot(algorithm: str, graph: "Graph",
                     derived_seed: int) -> Dict[str, Any]:
    """Build one snapshot outside the chain (warm paths, benchmarks)."""
    try:
        builder = _BUILDERS[algorithm]
    except KeyError:
        known = ", ".join(sorted(_BUILDERS))
        raise KeyError(f"unknown decomposition algorithm {algorithm!r}; "
                       f"known: {known}") from None
    return builder(graph, derived_seed)


def _open_store(root):
    from repro.store.decompositions import DecompositionStore

    return DecompositionStore(root)


CHAIN = ArtifactChain(_open_store, DEFAULT_MAXSIZE, computed=COMPUTED)
configure = CHAIN.configure
configure_store = CHAIN.configure_store
effective_maxsize = CHAIN.effective_maxsize
effective_store = CHAIN.effective_store
stats = CHAIN.stats
clear = CHAIN.clear


def binding_decomposition_source(scenario: "Scenario", size: int, seed: int,
                                 binding: "Binding",
                                 graph: "Graph") -> Tuple[Any, str]:
    """The binding's input snapshot at this cell, plus where it came from.

    ``(None, "none")`` when the binding consumes no decomposition; the
    value is otherwise exactly the snapshot a fresh ``build_ldc`` at
    the cell's derived seed would produce, served through the chain.
    """
    algorithm = binding.decomposition
    if algorithm is None:
        return None, NO_DECOMPOSITION
    derived = scenario.seed_for(size, seed)
    return decomposition_value_source(scenario.name, size, derived,
                                      algorithm, graph)


def decomposition_value_source(scenario_name: str, size: int,
                               derived_seed: int, algorithm: str,
                               graph: "Graph") -> Tuple[Any, str]:
    """Serve one snapshot through the chain; see the module docstring."""
    key = (scenario_name, size, derived_seed, algorithm)
    return CHAIN.serve(
        key, lambda: compute_snapshot(algorithm, graph, derived_seed))
