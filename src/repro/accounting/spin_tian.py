"""Tian et al. load-value spin detection (Section 4.3).

The detector watches retired loads through a small per-core table (the
paper sizes it at 8 entries, one per load PC).  A load that returns the
same data from the same address ``threshold`` or more times is *marked*
as possibly belonging to a spin loop.  When a marked load later returns
*different* data, and that data was written by another core (known from
cache-coherence information), the episode is confirmed as spinning and
the time since the first occurrence is added to the spin-cycle count.

The table is physical per-core state, so it is flushed on a context
switch; spin episodes truncated by the synchronization library yielding
to the OS are reported separately via the OS-side hook
(:meth:`repro.accounting.accountant.CycleAccountant.on_spin_truncated`).
"""

from __future__ import annotations

from collections import OrderedDict


class _Entry:
    __slots__ = ("addr", "value", "count", "marked", "timestamp")

    def __init__(self, addr: int, value: int, now: int) -> None:
        self.addr = addr
        self.value = value
        self.count = 1
        self.marked = False
        self.timestamp = now


class TianSpinDetector:
    """Per-core 8-entry load-watch table."""

    def __init__(self, n_entries: int = 8, threshold: int = 3) -> None:
        if n_entries < 1:
            raise ValueError("need at least one table entry")
        if threshold < 2:
            raise ValueError("threshold must be >= 2 (a spin repeats)")
        self.n_entries = n_entries
        self.threshold = threshold
        self._table: OrderedDict[int, _Entry] = OrderedDict()
        self.spin_cycles = 0
        self.n_episodes = 0

    def on_load(
        self,
        pc: int,
        addr: int,
        value: int,
        writer_core: int,
        now: int,
        self_core: int,
    ) -> None:
        """Observe one retired load on this detector's core."""
        table = self._table
        entry = table.get(pc)
        if entry is None:
            table[pc] = _Entry(addr, value, now)
            table.move_to_end(pc)
            if len(table) > self.n_entries:
                table.popitem(last=False)
            return
        table.move_to_end(pc)
        if entry.addr == addr and entry.value == value:
            entry.count += 1
            if entry.count >= self.threshold:
                entry.marked = True
            return
        if entry.marked and entry.addr == addr:
            # A marked (suspected spin) load observed new data; coherence
            # tells us who wrote it.
            if writer_core != self_core and writer_core >= 0:
                self.spin_cycles += now - entry.timestamp
                self.n_episodes += 1
        # Restart observation with the new (addr, value) pair.
        entry.addr = addr
        entry.value = value
        entry.count = 1
        entry.marked = False
        entry.timestamp = now

    def on_backward_branch(self, pc: int, state_signature: int, now: int) -> None:
        """Branch stream is unused by this scheme (protocol no-op)."""

    def flush(self) -> None:
        """Context switch: the table contents belong to the old thread."""
        self._table.clear()

    @property
    def occupancy(self) -> int:
        return len(self._table)

    def state_dict(self) -> dict:
        """Watch-table rows in insertion order (the order drives the
        ``popitem(last=False)`` eviction, so it must survive the trip)."""
        return {
            "table": [
                [pc, entry.addr, entry.value, entry.count,
                 entry.marked, entry.timestamp]
                for pc, entry in self._table.items()
            ],
            "spin_cycles": self.spin_cycles,
            "n_episodes": self.n_episodes,
        }

    def load_state_dict(self, state: dict) -> None:
        self._table.clear()
        for pc, addr, value, count, marked, timestamp in state["table"]:
            entry = _Entry(addr, value, timestamp)
            entry.count = count
            entry.marked = marked
            self._table[pc] = entry
        self.spin_cycles = state["spin_cycles"]
        self.n_episodes = state["n_episodes"]
