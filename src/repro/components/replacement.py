"""Built-in cache replacement policies (extracted from ``sim.cache``).

Each policy is a tiny strategy object owned by one
:class:`~repro.sim.cache.SetAssocCache` instance.  The cache keeps the
hot path (set indexing, residency probes, counter updates) and asks the
policy only for the two decisions that differ between schemes: whether
hits promote, and which line a full set evicts.

The ``"random"`` policy is *deterministically* seeded from the cache
geometry (``size_bytes ^ assoc``), exactly as the pre-registry
implementation was, so golden fixtures and differential runs are
bit-identical across the refactor.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from repro.components.registry import register

if TYPE_CHECKING:
    from repro.config import CacheConfig


@register("replacement", "lru")
class LruPolicy:
    """True LRU: hits promote to MRU, the set front is the victim."""

    promote_on_hit = True

    def __init__(self, config: "CacheConfig") -> None:
        pass

    def select_victim(self, cache_set: dict[int, bool]) -> int:
        return next(iter(cache_set))

    def reset(self) -> None:
        pass


@register("replacement", "fifo")
class FifoPolicy:
    """Insertion order: hits do not promote, oldest insertion evicts."""

    promote_on_hit = False

    def __init__(self, config: "CacheConfig") -> None:
        pass

    def select_victim(self, cache_set: dict[int, bool]) -> int:
        return next(iter(cache_set))

    def reset(self) -> None:
        pass


@register("replacement", "random")
class RandomPolicy:
    """Seeded-random victim selection, deterministic across runs.

    The RNG is consumed once per eviction, so two caches with the same
    geometry that see the same fill sequence evict identically — the
    property the seeded-determinism tests pin down.
    """

    promote_on_hit = False

    def __init__(self, config: "CacheConfig") -> None:
        self._seed = config.size_bytes ^ config.assoc
        self._rng = random.Random(self._seed)

    def select_victim(self, cache_set: dict[int, bool]) -> int:
        return self._rng.choice(list(cache_set))

    def reset(self) -> None:
        self._rng = random.Random(self._seed)

    def state_dict(self) -> dict:
        # Mersenne Twister state is (version, (int, ...), gauss_next);
        # flatten the inner tuple for JSON and rebuild it on load.
        version, internal, gauss_next = self._rng.getstate()
        return {
            "version": version,
            "internal": list(internal),
            "gauss_next": gauss_next,
        }

    def load_state_dict(self, state: dict) -> None:
        self._rng.setstate(
            (state["version"], tuple(state["internal"]), state["gauss_next"])
        )
