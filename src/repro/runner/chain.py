"""One fall-through artifact chain: per-worker LRU -> disk store -> compute.

Every artifact a sweep cell draws on -- its scenario graph, its
sequential baseline, its input decomposition -- is a pure function of a
content key, so all three are served the same way:

1. the **in-process LRU** -- same-key cells in one worker share one
   value (artifacts never cross the pool boundary);
2. the **on-disk store family** (:mod:`repro.store`), when connected --
   pool workers, repeated sweeps, and later revisions load the
   published artifact instead of recomputing it;
3. **compute-and-publish** -- the value is computed, and published
   (atomic, race-safe) for everyone else.

An :class:`ArtifactChain` owns that logic, the LRU, and the hit / miss /
store / publish counters.  The typed entry points in
:mod:`repro.runner.graph_cache`, :mod:`repro.runner.oracle_cache` and
:mod:`repro.runner.decomposition_cache` derive the key, name the compute
call and the source labels, and expose one module-level chain each.
Configuration is process-wide and reaches pool workers as part of the
:class:`~repro.runner.config.SweepConfig` the executor hands to its pool
initializer.  Where a value came from is provenance only: it is recorded
per cell as a nondeterministic ``*_source`` field and never changes a
canonical record byte.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Sequence, Tuple

# Where a served value came from (recorded per cell as ``*_source``).
LRU_HIT = "lru"
STORE_HIT = "store"

_COUNTERS = ("hits", "misses", "store_hits", "store_misses", "publishes")


class ArtifactChain:
    """A process-wide LRU -> store -> compute-and-publish chain.

    ``open_store(root)`` builds the typed store the chain talks to; it
    must offer ``load(*store_args)`` (None on a miss) and
    ``publish(*store_args, value)`` (True when this call published).
    ``computed`` is the source label of a value the chain computed.
    """

    def __init__(self, open_store: Callable[[str], Any], maxsize: int,
                 computed: str):
        self._open_store = open_store
        self._computed = computed
        self._cache: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._maxsize = maxsize
        self._store: Optional[Any] = None
        self._counts = dict.fromkeys(_COUNTERS, 0)

    def serve(self, key: Hashable, compute: Callable[[], Any],
              store_args: Optional[Sequence[Any]] = None) -> Tuple[Any, str]:
        """The value for ``key``, plus where it came from.

        ``store_args`` address the value in the store (default: the key
        itself); ``compute`` runs only when neither the LRU nor the
        store holds it.
        """
        counts = self._counts
        if key in self._cache:
            counts["hits"] += 1
            self._cache.move_to_end(key)
            return self._cache[key], LRU_HIT
        counts["misses"] += 1
        args = key if store_args is None else store_args
        source = self._computed
        value = None
        store = self._store
        if store is not None:
            value = store.load(*args)
            if value is not None:
                counts["store_hits"] += 1
                source = STORE_HIT
            else:
                counts["store_misses"] += 1
        if value is None:
            value = compute()
            if store is not None and store.publish(*args, value):
                counts["publishes"] += 1
        if self._maxsize > 0:
            self._cache[key] = value
            while len(self._cache) > self._maxsize:
                self._cache.popitem(last=False)
        return value, source

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters (process-local, for tests and reports)."""
        return dict(self._counts, size=len(self._cache),
                    maxsize=self._maxsize)

    def clear(self) -> None:
        """Drop every cached value and reset the counters."""
        self._cache.clear()
        self._counts = dict.fromkeys(_COUNTERS, 0)

    def configure(self, maxsize: int) -> None:
        """Set the LRU capacity (clamped to >= 0; 0 disables caching).

        Always clears the LRU and the counters.
        """
        self._maxsize = max(0, int(maxsize))
        self.clear()

    def effective_maxsize(self) -> int:
        """The LRU capacity in force (recorded in run manifests)."""
        return self._maxsize

    def configure_store(self, root: "Optional[str]") -> None:
        """Connect the chain to the store at ``root`` (None disconnects)."""
        self._store = None if root is None else self._open_store(root)

    def effective_store(self) -> Optional[Any]:
        """The connected store, or None."""
        return self._store
