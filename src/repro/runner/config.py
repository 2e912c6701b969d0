"""One frozen, picklable snapshot of every process-wide sweep knob.

A sweep's planes are configured process-wide: the three artifact
chains (LRU sizes and connected stores), profile capture (profiles
store, cProfile) and the kernel tier.  :class:`SweepConfig` holds all
nine values.  :meth:`SweepConfig.current` snapshots the process and
:meth:`SweepConfig.apply` sets it, so a config is how settings travel:
``run_sweep`` applies one in-process and the executor hands the same
value to every pool worker through ``ProcessPoolExecutor(initializer=
..., initargs=(config,))`` -- identical under fork and spawn.
``SweepConfig()`` is the pristine default state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.kernels import config as kernels_config
from repro.runner import (
    decomposition_cache,
    graph_cache,
    oracle_cache,
    profile_capture,
)

_CHAINS = {"graph": graph_cache.CHAIN, "oracle": oracle_cache.CHAIN,
           "decomposition": decomposition_cache.CHAIN}


def _root(store: Any) -> Optional[str]:
    """A connected store's root as the store spells it (None: no store)."""
    return None if store is None else str(store.root)


@dataclass(frozen=True)
class SweepConfig:
    """The sweep knobs in force in one process (see the module doc)."""

    graph_cache_size: int = graph_cache.DEFAULT_MAXSIZE
    oracle_cache_size: int = oracle_cache.DEFAULT_MAXSIZE
    decomposition_cache_size: int = decomposition_cache.DEFAULT_MAXSIZE
    graph_store_dir: Optional[str] = None
    oracle_store_dir: Optional[str] = None
    decomposition_store_dir: Optional[str] = None
    profile_store_dir: Optional[str] = None
    cprofile: bool = False
    kernels: bool = False

    @classmethod
    def current(cls) -> "SweepConfig":
        """The configuration this process runs under right now."""
        values = {}
        for family, chain in _CHAINS.items():
            values[f"{family}_cache_size"] = chain.effective_maxsize()
            values[f"{family}_store_dir"] = _root(chain.effective_store())
        profiles = profile_capture.effective_profile_store()
        return cls(profile_store_dir=_root(profiles),
                   cprofile=profile_capture.cprofile_enabled(),
                   kernels=kernels_config.kernels_enabled(), **values)

    def apply(self) -> None:
        """Make this the process's configuration.

        A chain's LRU (and its counters) is cleared only when its size
        changes; reconnecting a store leaves the LRU alone.
        """
        for family, chain in _CHAINS.items():
            size = getattr(self, f"{family}_cache_size")
            if size != chain.effective_maxsize():
                chain.configure(size)
            root = getattr(self, f"{family}_store_dir")
            if root != _root(chain.effective_store()):
                chain.configure_store(root)
        profiles = profile_capture.effective_profile_store()
        if self.profile_store_dir != _root(profiles):
            profile_capture.configure_profiles(self.profile_store_dir)
        profile_capture.configure_cprofile(self.cprofile)
        kernels_config.configure_kernels(self.kernels)
