"""Way-partitioned shared LLC.

The paper's architect-facing use case (Section 7.1): "if negative
interference in the LLC ... is a major component for several important
applications according to the speedup stacks, processor designers can
put more resources towards avoiding negative interference, for example
through novel cache partitioning algorithms."  This module provides the
mechanism: a shared LLC whose ways are statically partitioned among
cores, so one core's fills can only evict lines within its own quota —
a polluter (e.g. a streaming thread) can no longer wipe its neighbours'
working sets.

Lookup is unchanged (any core hits on any resident line — the cache is
still shared for data); only *victim selection* is partition-aware:

* a fill by core *c* evicts core *c*'s LRU line once *c* holds its
  quota in the set;
* while *c* is under quota, it may take a free way, or steal the LRU
  line of whichever core currently exceeds its own quota (quota
  rebalancing after reconfiguration).
"""

from __future__ import annotations

from repro.config import CacheConfig
from repro.errors import ConfigError
from repro.sim.address import CacheGeometry


class WayPartitionedCache:
    """Set-associative cache with per-core way quotas.

    Interface-compatible with :class:`~repro.sim.cache.SetAssocCache`
    except that :meth:`fill` takes the filling core (``owner``).
    """

    __slots__ = ("geometry", "assoc", "quotas", "generation", "_sets",
                 "_owners", "n_hits", "n_misses", "n_evictions", "_set_mask")

    def __init__(self, config: CacheConfig, quotas: tuple[int, ...]) -> None:
        if sum(quotas) > config.assoc:
            raise ConfigError(
                f"way quotas {quotas} exceed associativity {config.assoc}"
            )
        if any(q < 1 for q in quotas):
            raise ConfigError("every core needs at least one way")
        self.geometry = CacheGeometry.from_config(config)
        self.assoc = config.assoc
        self.quotas = quotas
        self._set_mask = config.n_sets - 1
        #: per set: line -> dirty, in eviction order per insertion/use
        self._sets: list[dict[int, bool]] = [{} for _ in range(config.n_sets)]
        #: per set: line -> owning core
        self._owners: list[dict[int, int]] = [
            {} for _ in range(config.n_sets)
        ]
        self.n_hits = 0
        self.n_misses = 0
        self.n_evictions = 0
        self.generation = 0

    # -- SetAssocCache-compatible surface ---------------------------------

    def lookup(self, line_addr: int, *, update_lru: bool = True) -> bool:
        cache_set = self._sets[line_addr & self._set_mask]
        if line_addr in cache_set:
            if update_lru:
                cache_set[line_addr] = cache_set.pop(line_addr)
            self.n_hits += 1
            return True
        self.n_misses += 1
        return False

    def contains(self, line_addr: int) -> bool:
        return line_addr in self._sets[line_addr & self._set_mask]

    def mark_dirty(self, line_addr: int) -> None:
        cache_set = self._sets[line_addr & self._set_mask]
        if line_addr in cache_set:
            cache_set[line_addr] = True

    def invalidate(self, line_addr: int) -> bool:
        index = line_addr & self._set_mask
        cache_set = self._sets[index]
        if line_addr in cache_set:
            del cache_set[line_addr]
            self._owners[index].pop(line_addr, None)
            return True
        return False

    def reset(self) -> None:
        """In-place reset (see :meth:`SetAssocCache.reset`)."""
        for index, cache_set in enumerate(self._sets):
            if cache_set:
                cache_set.clear()
                self._owners[index].clear()
        self.n_hits = 0
        self.n_misses = 0
        self.n_evictions = 0
        self.generation += 1

    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def counters(self) -> dict[str, int]:
        """Post-run counter snapshot (see :meth:`SetAssocCache.counters`)."""
        return {
            "hits": self.n_hits,
            "misses": self.n_misses,
            "evictions": self.n_evictions,
            "occupancy": self.occupancy(),
        }

    def lines_in_set(self, set_index: int) -> list[int]:
        return list(self._sets[set_index].keys())

    # -- partition-aware fill ----------------------------------------------

    def owner_of(self, line_addr: int) -> int | None:
        index = line_addr & self._set_mask
        return self._owners[index].get(line_addr)

    def owned_in_set(self, set_index: int, core: int) -> int:
        return sum(
            1 for owner in self._owners[set_index].values() if owner == core
        )

    def fill(
        self, line_addr: int, *, dirty: bool = False, owner: int = 0
    ) -> tuple[int, bool] | None:
        """Insert a line for ``owner``; evict within its partition."""
        index = line_addr & self._set_mask
        cache_set = self._sets[index]
        owners = self._owners[index]
        if line_addr in cache_set:
            cache_set[line_addr] = cache_set.pop(line_addr) or dirty
            owners[line_addr] = owner
            return None

        victim = None
        quota = self.quotas[owner] if owner < len(self.quotas) else 1
        if self.owned_in_set(index, owner) >= quota:
            victim_line = self._lru_line_of(index, owner)
            victim = (victim_line, cache_set.pop(victim_line))
            owners.pop(victim_line, None)
            self.n_evictions += 1
        elif len(cache_set) >= self.assoc:
            # Under quota but the set is full: someone is over quota
            # (e.g. after a reconfiguration) — steal their LRU line.
            victim_line = self._lru_line_over_quota(index)
            victim = (victim_line, cache_set.pop(victim_line))
            owners.pop(victim_line, None)
            self.n_evictions += 1
        cache_set[line_addr] = dirty
        owners[line_addr] = owner
        return victim

    def warm_fill(
        self, line_addr: int, *, promote: bool = False, owner: int = 0
    ) -> tuple[int, bool] | None:
        """Untimed warmup insert (see :meth:`SetAssocCache.warm_fill`).

        A resident line keeps its position *and* its current owner —
        warming an already-warm line must not transfer quota."""
        index = line_addr & self._set_mask
        cache_set = self._sets[index]
        if line_addr in cache_set:
            if promote:
                cache_set[line_addr] = cache_set.pop(line_addr)
            return None
        owners = self._owners[index]
        victim = None
        quota = self.quotas[owner] if owner < len(self.quotas) else 1
        if self.owned_in_set(index, owner) >= quota:
            victim_line = self._lru_line_of(index, owner)
            victim = (victim_line, cache_set.pop(victim_line))
            owners.pop(victim_line, None)
            self.n_evictions += 1
        elif len(cache_set) >= self.assoc:
            victim_line = self._lru_line_over_quota(index)
            victim = (victim_line, cache_set.pop(victim_line))
            owners.pop(victim_line, None)
            self.n_evictions += 1
        cache_set[line_addr] = False
        owners[line_addr] = owner
        return victim

    # -- checkpointing (Snapshotable) --------------------------------------

    def state_dict(self) -> dict:
        """Tag, LRU-order, and per-line ownership state, JSON-safe.

        Same layout as :meth:`SetAssocCache.state_dict` plus an
        ``"owners"`` list mirroring ``"sets"``: for every non-empty set,
        ``[set_index, [[line, core], ...]]`` in insertion order.
        """
        sets = [
            [index, [[line, dirty] for line, dirty in entries.items()]]
            for index, entries in enumerate(self._sets)
            if entries
        ]
        owners = [
            [index, [[line, core] for line, core in owned.items()]]
            for index, owned in enumerate(self._owners)
            if owned
        ]
        return {
            "sets": sets,
            "owners": owners,
            "n_hits": self.n_hits,
            "n_misses": self.n_misses,
            "n_evictions": self.n_evictions,
            "generation": self.generation,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output onto a same-config cache."""
        for index, cache_set in enumerate(self._sets):
            if cache_set:
                cache_set.clear()
                self._owners[index].clear()
        for index, entries in state["sets"]:
            cache_set = self._sets[index]
            for line, dirty in entries:
                cache_set[line] = dirty
        for index, owned in state["owners"]:
            owners = self._owners[index]
            for line, core in owned:
                owners[line] = core
        self.n_hits = state["n_hits"]
        self.n_misses = state["n_misses"]
        self.n_evictions = state["n_evictions"]
        self.generation = state["generation"]

    def _lru_line_of(self, set_index: int, core: int) -> int:
        owners = self._owners[set_index]
        for line in self._sets[set_index]:
            if owners.get(line) == core:
                return line
        raise AssertionError("quota accounting out of sync")

    def _lru_line_over_quota(self, set_index: int) -> int:
        owners = self._owners[set_index]
        counts: dict[int, int] = {}
        for owner in owners.values():
            counts[owner] = counts.get(owner, 0) + 1
        over = {
            core for core, held in counts.items()
            if held > (self.quotas[core] if core < len(self.quotas) else 1)
        }
        for line in self._sets[set_index]:
            if owners.get(line) in over:
                return line
        # Nobody over quota (quotas under-subscribe the ways): fall back
        # to global LRU.
        return next(iter(self._sets[set_index]))


def equal_quotas(assoc: int, n_cores: int) -> tuple[int, ...]:
    """An equal static split of the ways (remainder to the first cores)."""
    if n_cores > assoc:
        raise ConfigError(f"{n_cores} cores cannot each get a way of {assoc}")
    base = assoc // n_cores
    remainder = assoc - base * n_cores
    return tuple(base + (1 if c < remainder else 0) for c in range(n_cores))
