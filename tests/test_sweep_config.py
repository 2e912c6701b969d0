"""The generic artifact chain and the picklable sweep config.

* :class:`ArtifactChain` -- LRU eviction order, the hit / miss / store /
  publish counters, a store hit, and that a size-0 LRU still publishes;
* :class:`SweepConfig` -- a non-default config survives pickling and,
  applied by the pool initializer in a *spawn*-started child (no
  inherited module state), is exactly what that child reports as its
  ``SweepConfig.current()``.
"""

import multiprocessing
import pickle

from repro.runner.chain import ArtifactChain
from repro.runner.config import SweepConfig
from repro.runner.executor import _init_worker


class _DictStore:
    """A store double: ``load(*args)`` / ``publish(*args, value)``."""

    def __init__(self, root):
        self.root = root
        self.data = {}

    def load(self, *args):
        return self.data.get(args)

    def publish(self, *args):
        *coords, value = args
        if tuple(coords) in self.data:
            return False
        self.data[tuple(coords)] = value
        return True


def test_artifact_chain_lru_counters_store_and_publish():
    stores = {}
    chain = ArtifactChain(lambda root: stores.setdefault(root,
                                                         _DictStore(root)),
                          maxsize=2, computed="computed")
    computed = []

    def serve(n, **kwargs):  # keys are tuples, like every real chain's
        return chain.serve((n,), lambda: computed.append(n) or f"v{n}",
                           **kwargs)

    # No store: compute, then LRU hits; least recently used evicts first.
    assert serve(1) == ("v1", "computed")
    assert serve(2) == ("v2", "computed")
    assert serve(1) == ("v1", "lru")
    assert serve(3) == ("v3", "computed")      # evicts 2, not 1
    assert serve(1) == ("v1", "lru")
    assert serve(2) == ("v2", "computed")
    assert computed == [1, 2, 3, 2]
    assert chain.stats() == {"hits": 2, "misses": 4, "size": 2,
                             "maxsize": 2, "store_hits": 0,
                             "store_misses": 0, "publishes": 0}

    # A size-0 LRU caches nothing but still publishes to the store.
    chain.configure(0)
    chain.configure_store("root")
    assert chain.effective_store().root == "root"
    assert serve(7) == ("v7", "computed")
    assert stores["root"].data == {(7,): "v7"}
    # Store hit: the next lookup loads instead of computing.
    assert serve(7) == ("v7", "store")
    assert computed == [1, 2, 3, 2, 7]
    # store_args address the store independently of the LRU key.
    assert serve(8, store_args=("a", "b")) == ("v8", "computed")
    assert stores["root"].data[("a", "b")] == "v8"
    assert chain.stats() == {"hits": 0, "misses": 3, "size": 0,
                             "maxsize": 0, "store_hits": 1,
                             "store_misses": 2, "publishes": 2}

    chain.configure_store(None)
    assert chain.effective_store() is None


def test_sweep_config_applies_in_a_spawn_child(tmp_path):
    store = str(tmp_path / "store")
    config = SweepConfig(graph_cache_size=3, oracle_cache_size=0,
                         decomposition_cache_size=5,
                         graph_store_dir=store, oracle_store_dir=store,
                         decomposition_store_dir=None,
                         profile_store_dir=store, cprofile=True,
                         kernels=True)
    assert config != SweepConfig()
    assert pickle.loads(pickle.dumps(config)) == config
    context = multiprocessing.get_context("spawn")
    with context.Pool(1, initializer=_init_worker,
                      initargs=(config,)) as pool:
        assert pool.apply(SweepConfig.current) == config
    # The parent's own config is untouched by the child's.
    assert SweepConfig.current() == SweepConfig()
