"""Auxiliary tag directories (ATDs) for inter-thread hit/miss detection.

One ATD per core models what that core's *private* LLC of the same size
and associativity would contain, by observing only that core's LLC
accesses (Section 4.1).  Comparing the shared-LLC outcome with the ATD
outcome classifies sharing effects:

* shared **miss** + ATD **hit**  -> *inter-thread miss* (negative
  interference: another thread evicted this core's data);
* shared **hit** + ATD **miss**  -> *inter-thread hit* (positive
  interference: another thread prefetched shared data, Section 4.2).

To bound hardware cost only one in every ``sample_period`` LLC sets is
monitored; totals are extrapolated with the observed sampling factor.
The monitored sets sit at an offset of ``period // 2`` within each
period: data-structure base addresses are page/region aligned, so set 0
(and its neighbours) attract unrepresentative hot lines — lock words,
region headers — that would bias the sampling factor.
"""

from __future__ import annotations

from repro.accounting.interface import INTER_THREAD_HIT, INTER_THREAD_MISS
from repro.config import CacheConfig
from repro.sim.cache import SetAssocCache


class AuxiliaryTagDirectory:
    """Per-core set-sampled private-LLC tag directory."""

    def __init__(self, llc_config: CacheConfig, sample_period: int) -> None:
        if sample_period < 1:
            raise ValueError("sample_period must be >= 1")
        self.sample_period = sample_period
        self._sample_offset = sample_period // 2
        # Sparse tag store: only 1-in-sample_period sets are ever probed,
        # so per-set state is materialized on first touch instead of
        # paying an O(n_sets) dictionary build per ATD per run.
        self._tags = SetAssocCache(llc_config, sparse=True)
        self.n_sampled_accesses = 0
        self.n_inter_thread_misses = 0
        self.n_inter_thread_hits = 0
        self.n_sampled_load_inter_hits = 0

    def is_sampled(self, set_index: int) -> bool:
        return set_index % self.sample_period == self._sample_offset

    def observe(
        self, line_addr: int, set_index: int, shared_hit: bool, is_load: bool
    ) -> str | None:
        """Record one LLC access by this ATD's core; classify it.

        Returns :data:`INTER_THREAD_MISS`, :data:`INTER_THREAD_HIT`, or
        ``None`` (not sampled, or same outcome in both tag stores).
        """
        if set_index % self.sample_period != self._sample_offset:
            return None
        self.n_sampled_accesses += 1
        atd_hit = self._tags.lookup(line_addr)
        if not atd_hit:
            self._tags.fill(line_addr)
        if shared_hit and not atd_hit:
            self.n_inter_thread_hits += 1
            if is_load:
                self.n_sampled_load_inter_hits += 1
            return INTER_THREAD_HIT
        if not shared_hit and atd_hit:
            self.n_inter_thread_misses += 1
            return INTER_THREAD_MISS
        return None

    def warm(self, line_addr: int, set_index: int) -> None:
        """Pre-fill the ATD during untimed cache warmup (no counters)."""
        if set_index % self.sample_period != self._sample_offset:
            return
        self._tags.warm_fill(line_addr, promote=True)

    def reset(self) -> None:
        """Clear tag state and counters in place for reuse across runs."""
        self._tags.reset()
        self.n_sampled_accesses = 0
        self.n_inter_thread_misses = 0
        self.n_inter_thread_hits = 0
        self.n_sampled_load_inter_hits = 0

    def sampling_factor(self, total_accesses: int) -> float:
        """Total LLC accesses divided by sampled ATD accesses (Section
        4.2); 0 when nothing was sampled."""
        if self.n_sampled_accesses == 0:
            return 0.0
        return total_accesses / self.n_sampled_accesses

    @property
    def tag_store(self) -> SetAssocCache:
        """The underlying tag array (exposed for tests)."""
        return self._tags

    def state_dict(self) -> dict:
        """Sparse tag array (non-empty sampled sets only) plus counters."""
        return {
            "tags": self._tags.state_dict(),
            "n_sampled_accesses": self.n_sampled_accesses,
            "n_inter_thread_misses": self.n_inter_thread_misses,
            "n_inter_thread_hits": self.n_inter_thread_hits,
            "n_sampled_load_inter_hits": self.n_sampled_load_inter_hits,
        }

    def load_state_dict(self, state: dict) -> None:
        self._tags.load_state_dict(state["tags"])
        self.n_sampled_accesses = state["n_sampled_accesses"]
        self.n_inter_thread_misses = state["n_inter_thread_misses"]
        self.n_inter_thread_hits = state["n_inter_thread_hits"]
        self.n_sampled_load_inter_hits = state["n_sampled_load_inter_hits"]
