"""MSI-style coherence directory over the private L1 data caches.

The shared LLC is non-inclusive: the directory tracks L1 copies on its
own, and an LLC eviction during the run leaves them in place.  Only the
untimed warm-up (``Chip.warm_line``) drops the L1 copies of an LLC
victim, through :meth:`CoherenceDirectory.drop_line`.  The model
tracks, per line, which cores hold an L1 copy; a write by one core
invalidates the copies of all other cores (write-invalidate protocol).
Invalidations leave the tag behind in the victim L1 (status bits
cleared, tag retained), which is exactly the state the paper's optional
coherency-miss detector keys on: "if a miss occurs, but there is a hit
in the tag array and the status is invalid, we can assume that this is
most likely a coherency miss" (Section 4.5).

The directory additionally tracks a per-word version and last-writer,
which is the architectural "data value" surface the Tian et al. spin
detector observes: a spinning load keeps reading the same version until
another core's store bumps it.
"""

from __future__ import annotations

from repro.sim.address import word_addr

#: a word's (version, last writer) before its first store
UNWRITTEN = (0, -1)
#: what a load of a word never stored during the run observes
NEVER_WRITTEN = (-1, -1)


class CoherenceDirectory:
    """Sharer tracking, invalidation, and load-value versioning."""

    def __init__(self, n_cores: int) -> None:
        self.n_cores = n_cores
        #: line address -> set of core ids holding an L1 copy
        self._sharers: dict[int, set[int]] = {}
        #: per core: line addresses invalidated by coherence whose tag
        #: is still resident in the L1 tag array
        self._invalid_tags: list[set[int]] = [set() for _ in range(n_cores)]
        #: word address -> (version, writer core) for load-value tracking
        self._word_versions: dict[int, tuple[int, int]] = {}
        self.n_invalidations = 0
        self.n_upgrade_writes = 0

    # ------------------------------------------------------------------
    # sharer bookkeeping
    # ------------------------------------------------------------------

    def sharers_of(self, line_addr: int) -> frozenset[int]:
        return frozenset(self._sharers.get(line_addr, ()))

    def add_sharer(self, line_addr: int, core_id: int) -> None:
        self._sharers.setdefault(line_addr, set()).add(core_id)
        self._invalid_tags[core_id].discard(line_addr)

    def remove_sharer(self, line_addr: int, core_id: int) -> None:
        """Core evicted the line from its L1 (no invalid tag left behind)."""
        sharers = self._sharers.get(line_addr)
        if sharers is not None:
            sharers.discard(core_id)
            if not sharers:
                del self._sharers[line_addr]
        self._invalid_tags[core_id].discard(line_addr)

    def write_invalidate(self, line_addr: int, writer_core: int) -> list[int]:
        """Invalidate all other cores' copies before a write.

        Returns the list of cores whose copy was invalidated (coherence
        traffic).  The writer's own copy, if any, is upgraded in place.
        """
        sharers = self._sharers.get(line_addr)
        if not sharers:
            return []
        victims = [core for core in sharers if core != writer_core]
        if victims:
            self.n_invalidations += len(victims)
            self.n_upgrade_writes += 1
            for core in victims:
                self._invalid_tags[core].add(line_addr)
            if writer_core in sharers:
                self._sharers[line_addr] = {writer_core}
            else:
                del self._sharers[line_addr]
        return victims

    def drop_line(self, line_addr: int) -> list[int]:
        """Forget every L1 copy of ``line_addr`` and return the cores
        that held one.  Only the untimed warm-up calls this, for an LLC
        victim; during the run an LLC eviction leaves L1 copies alone."""
        sharers = self._sharers.pop(line_addr, None)
        victims = list(sharers) if sharers else []
        for core in victims:
            self._invalid_tags[core].discard(line_addr)
        return victims

    # ------------------------------------------------------------------
    # coherency-miss detection (Section 4.5, optional accounting)
    # ------------------------------------------------------------------

    def consume_coherency_miss(self, line_addr: int, core_id: int) -> bool:
        """On an L1 miss: was this a tag-hit-but-invalid (coherency) miss?"""
        invalid = self._invalid_tags[core_id]
        if line_addr in invalid:
            invalid.discard(line_addr)
            return True
        return False

    # ------------------------------------------------------------------
    # load-value versioning (input to the Tian et al. spin detector)
    # ------------------------------------------------------------------

    def record_store(self, addr: int, writer_core: int) -> None:
        word = word_addr(addr)
        version, _ = self._word_versions.get(word, UNWRITTEN)
        self._word_versions[word] = (version + 1, writer_core)

    def load_value(self, addr: int) -> tuple[int, int]:
        """(version, last-writer core) observed by a load; (-1,-1) if never
        written during the simulation (immutable/initial data)."""
        return self._word_versions.get(word_addr(addr), NEVER_WRITTEN)

    # ------------------------------------------------------------------
    # checkpointing (Snapshotable)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """Directory state, JSON-safe.

        Sharer and invalid-tag sets serialize sorted: for small-int
        core ids and line addresses, CPython set iteration order is a
        function of the members alone, so a sorted rebuild is
        behaviourally identical and gives canonical bytes.
        """
        return {
            "sharers": [
                [line, sorted(cores)]
                for line, cores in self._sharers.items()
            ],
            "invalid_tags": [sorted(tags) for tags in self._invalid_tags],
            "word_versions": [
                [word, version, writer]
                for word, (version, writer) in self._word_versions.items()
            ],
            "n_invalidations": self.n_invalidations,
            "n_upgrade_writes": self.n_upgrade_writes,
        }

    def load_state_dict(self, state: dict) -> None:
        self._sharers = {
            line: set(cores) for line, cores in state["sharers"]
        }
        self._invalid_tags = [set(tags) for tags in state["invalid_tags"]]
        self._word_versions = {
            word: (version, writer)
            for word, version, writer in state["word_versions"]
        }
        self.n_invalidations = state["n_invalidations"]
        self.n_upgrade_writes = state["n_upgrade_writes"]
