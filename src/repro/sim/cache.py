"""Set-associative cache tag store with configurable replacement.

Used for the private L1s, the shared LLC, and (re-used unchanged) for the
per-core auxiliary tag directories (ATDs) of the accounting hardware —
the paper's ATD "has as many ways as the shared LLC and keeps track of
the tags and status bits for each cache line".

Victim selection is delegated to a :class:`~repro.components.protocols.
ReplacementPolicy` resolved by name from the component registry
(built-ins: "lru" — the paper's configuration — "fifo", and
seeded-random "random"); the cache keeps the hot path and asks the
policy only for the promote-on-hit rule and the victim choice.
"""

from __future__ import annotations

from collections import defaultdict

from repro.components.registry import resolve
from repro.config import CacheConfig
from repro.sim.address import CacheGeometry


class SetAssocCache:
    """A tag-only set-associative cache.

    Lines are identified by their line-aligned address (``line_addr``);
    the set index and tag are derived internally.  Each set is a plain
    ``dict`` from line address to a dirty flag whose insertion order is
    the replacement order: eviction candidate at the front, most
    recently inserted/used at the back.  A promote re-inserts the line
    (``s[line] = s.pop(line)``) and an eviction deletes the first key.
    A plain dict carries no recency linked list, so a full 16-way set
    takes about 1.7 KB instead of 2.8 KB (0.5 instead of 0.8 KB at 4
    ways, line ints included).

    With ``sparse=True`` the per-set dictionaries are materialized on
    first touch instead of all up front.  Set-sampled users (the ATDs,
    which only ever probe one in ``sample_period`` sets) pay O(touched
    sets) instead of O(n_sets) per construction; dense users (L1, LLC)
    keep the eagerly built list, whose indexing is cheapest on the hot
    path.  Both layouts are indexed identically.
    """

    __slots__ = ("geometry", "assoc", "generation", "_sets", "n_hits",
                 "n_misses", "n_evictions", "_promote_on_hit", "_policy",
                 "_set_mask", "_sparse")

    def __init__(self, config: CacheConfig, *, sparse: bool = False) -> None:
        self.geometry = CacheGeometry.from_config(config)
        self.assoc = config.assoc
        self._set_mask = config.n_sets - 1
        self._sparse = sparse
        if sparse:
            self._sets: defaultdict[int, dict[int, bool]] = defaultdict(dict)
        else:
            self._sets = [{} for _ in range(config.n_sets)]
        self.n_hits = 0
        self.n_misses = 0
        self.n_evictions = 0
        #: bumped by :meth:`reset`; lets pooled users detect staleness
        self.generation = 0
        self._policy = resolve("replacement", config.replacement)(config)
        # Read once and inlined into the lookup hot path.
        self._promote_on_hit = self._policy.promote_on_hit

    def set_index_of(self, line_addr: int) -> int:
        return line_addr & self._set_mask

    def lookup(self, line_addr: int, *, update_lru: bool = True) -> bool:
        """Probe the cache; on a hit optionally promote the line to MRU."""
        cache_set = self._sets[line_addr & self._set_mask]
        if update_lru and self._promote_on_hit:
            # the run's hottest probe: one pop finds and unlinks the line
            dirty = cache_set.pop(line_addr, None)
            if dirty is not None:
                cache_set[line_addr] = dirty
                self.n_hits += 1
                return True
        elif line_addr in cache_set:
            self.n_hits += 1
            return True
        self.n_misses += 1
        return False

    def contains(self, line_addr: int) -> bool:
        """Probe without disturbing LRU order or hit/miss counters."""
        return line_addr in self._sets[line_addr & self._set_mask]

    def fill(
        self, line_addr: int, *, dirty: bool = False, owner: int = 0
    ) -> tuple[int, bool] | None:
        """Insert a line as MRU; return ``(victim_line, victim_dirty)`` if
        the insertion evicted a line, else ``None``.  ``owner`` is
        accepted for interface compatibility with the way-partitioned
        variant and ignored here (fully shared ways)."""
        cache_set = self._sets[line_addr & self._set_mask]
        if line_addr in cache_set:
            cache_set[line_addr] = cache_set.pop(line_addr) or dirty
            return None
        victim = None
        if len(cache_set) >= self.assoc:
            victim_line = self._policy.select_victim(cache_set)
            victim = (victim_line, cache_set.pop(victim_line))
            self.n_evictions += 1
        cache_set[line_addr] = dirty
        return victim

    def warm_fill(
        self, line_addr: int, *, promote: bool = False, owner: int = 0
    ) -> tuple[int, bool] | None:
        """Untimed warmup insert: one probe, no hit/miss counter churn.

        A resident line is left where it is (``promote=False``, the LLC
        warmup semantics: warming must not reorder an already-steady
        set) or promoted under the replacement policy's normal hit rule
        (``promote=True``, the ATD warmup semantics, equivalent to an
        uncounted ``lookup``).  An absent line is inserted exactly like
        :meth:`fill`, including eviction accounting and RNG draws, so a
        warmed cache is bit-identical to one warmed via the old
        ``contains`` + ``fill`` / counter-rollback sequences.
        """
        cache_set = self._sets[line_addr & self._set_mask]
        if line_addr in cache_set:
            if promote and self._promote_on_hit:
                cache_set[line_addr] = cache_set.pop(line_addr)
            return None
        victim = None
        if len(cache_set) >= self.assoc:
            victim_line = self._policy.select_victim(cache_set)
            victim = (victim_line, cache_set.pop(victim_line))
            self.n_evictions += 1
        cache_set[line_addr] = False
        return victim

    def mark_dirty(self, line_addr: int) -> None:
        cache_set = self._sets[line_addr & self._set_mask]
        if line_addr in cache_set:
            cache_set[line_addr] = True

    def invalidate(self, line_addr: int) -> bool:
        """Drop a line (coherence invalidation or inclusion victim)."""
        cache_set = self._sets[line_addr & self._set_mask]
        if line_addr in cache_set:
            del cache_set[line_addr]
            return True
        return False

    def reset(self) -> None:
        """Return to the post-construction state without rebuilding the
        per-set dictionaries: occupied sets are cleared in place, the
        counters zeroed, the replacement RNG re-seeded, and the
        ``generation`` counter bumped.  Pooled users (repeated cells in
        a sweep, benchmark harnesses) call this instead of allocating
        ``n_sets`` fresh set dictionaries per run."""
        if self._sparse:
            self._sets.clear()
        else:
            for cache_set in self._sets:
                if cache_set:
                    cache_set.clear()
        self.n_hits = 0
        self.n_misses = 0
        self.n_evictions = 0
        self._policy.reset()
        self.generation += 1

    def occupancy(self) -> int:
        """Total number of valid lines (for tests and introspection)."""
        if self._sparse:
            return sum(len(s) for s in self._sets.values())
        return sum(len(s) for s in self._sets)

    def counters(self) -> dict[str, int]:
        """Post-run counter snapshot for the observability layer — a
        zero-hot-path-cost alternative to per-access hooks."""
        return {
            "hits": self.n_hits,
            "misses": self.n_misses,
            "evictions": self.n_evictions,
            "occupancy": self.occupancy(),
        }

    def lines_in_set(self, set_index: int) -> list[int]:
        """Line addresses in one set, LRU first (for tests)."""
        if self._sparse:
            return list(self._sets.get(set_index, ()))
        return list(self._sets[set_index].keys())

    # ------------------------------------------------------------------
    # checkpointing (Snapshotable)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """All mutable tag-store state, JSON-safe.

        Non-empty sets only, as ``[set_index, [lines...], [dirty...]]``
        triples (parallel flat lists — cheaper to build and encode than
        per-line pairs; checkpoint saves walk every set); within a set
        the line order *is* the replacement order (eviction candidate
        first), so restoring in order reproduces LRU/FIFO behaviour
        exactly.  For sparse stores the triple order is the set
        materialization order, which keeps the round trip byte-stable.
        A stateful replacement policy (seeded random) contributes its
        RNG state under ``"policy"``.
        """
        if self._sparse:
            sets = [
                [index, list(entries.keys()), list(entries.values())]
                for index, entries in self._sets.items()
                if entries
            ]
        else:
            sets = [
                [index, list(entries.keys()), list(entries.values())]
                for index, entries in enumerate(self._sets)
                if entries
            ]
        state = {
            "sets": sets,
            "n_hits": self.n_hits,
            "n_misses": self.n_misses,
            "n_evictions": self.n_evictions,
            "generation": self.generation,
        }
        policy_state = getattr(self._policy, "state_dict", None)
        if policy_state is not None:
            state["policy"] = policy_state()
        return state

    def load_state_dict(self, state: dict) -> None:
        """Restore :meth:`state_dict` output onto a same-config cache."""
        if self._sparse:
            self._sets.clear()
        else:
            for cache_set in self._sets:
                if cache_set:
                    cache_set.clear()
        for index, lines, dirty_bits in state["sets"]:
            cache_set = self._sets[index]
            for line, dirty in zip(lines, dirty_bits):
                cache_set[line] = dirty
        self.n_hits = state["n_hits"]
        self.n_misses = state["n_misses"]
        self.n_evictions = state["n_evictions"]
        self.generation = state["generation"]
        policy_load = getattr(self._policy, "load_state_dict", None)
        if policy_load is not None and "policy" in state:
            policy_load(state["policy"])
