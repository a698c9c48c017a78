"""Region-based speedup stacks (the paper's Section 4.6 refinement).

The hardware cannot tell lock spinning from barrier spinning, so the
whole-program stack folds barrier waiting into the spinning/yielding
components.  The paper notes the fix: "this problem can be solved by
computing speedup stacks for each region between consecutive barriers;
the imbalance before each barrier then quantifies barrier overhead."

This module implements that refinement.  A :class:`RegionObserver`
subscribes to the barrier arrivals and releases an accounted run emits
on its event bus and snapshots the accountant's counters at every
barrier release.  Each region (the execution between two consecutive
releases) then gets its own stack-style decomposition in which:

* interference/spin/yield components are the counter *differences*
  over the region, and
* the terminal barrier's overhead appears as an explicit per-thread
  **barrier imbalance** component (`release - arrival_i`), with the
  spin/yield cycles the thread burned while waiting at that barrier
  subtracted out so the wait is not counted twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accounting.accountant import CycleAccountant
from repro.accounting.report import AccountingReport, ThreadComponents
from repro.config import MachineConfig
from repro.core.stack import SpeedupStack, build_stack
from repro.observability.events import (
    BarrierArrived,
    BarrierReleased,
    EventBus,
)
from repro.sim.engine import SimResult, Simulation
from repro.workloads.program import Program


@dataclass
class Region:
    """One inter-barrier region of an accounted run."""

    index: int
    barrier_id: int
    start: int
    end: int
    #: per-thread arrival times at the terminal barrier
    arrivals: dict[int, int]
    #: accountant counter snapshot at the region's end
    snapshot: dict

    @property
    def duration(self) -> int:
        return self.end - self.start

    def barrier_imbalance(self, thread_id: int) -> int:
        """Cycles the thread waited at the terminal barrier."""
        arrival = self.arrivals.get(thread_id)
        if arrival is None:
            return 0
        return max(0, self.end - arrival)


class RegionObserver:
    """Collects barrier events and accountant snapshots during a run."""

    def __init__(self, accountant: CycleAccountant, n_threads: int) -> None:
        self.accountant = accountant
        self.n_threads = n_threads
        self.regions: list[Region] = []
        self._arrivals: dict[int, dict[int, int]] = {}
        self._region_start = 0

    def attach(self, bus: EventBus) -> "RegionObserver":
        bus.subscribe(BarrierArrived, self._on_arrival)
        bus.subscribe(BarrierReleased, self._on_release)
        return self

    def _on_arrival(self, event: BarrierArrived) -> None:
        self._arrivals.setdefault(event.barrier_id, {})[event.tid] = event.t

    def _on_release(self, event: BarrierReleased) -> None:
        arrivals = self._arrivals.pop(event.barrier_id, {})
        self.regions.append(
            Region(
                index=len(self.regions),
                barrier_id=event.barrier_id,
                start=self._region_start,
                end=event.t,
                arrivals=arrivals,
                snapshot=self.accountant.snapshot(),
            )
        )
        self._region_start = event.t


def _diff(after: dict, before: dict, key: str, core: int) -> float:
    return after[key][core] - before[key][core]


def region_stacks(
    observer: RegionObserver,
    machine: MachineConfig,
    name: str = "region",
) -> list[SpeedupStack]:
    """Build one speedup stack per inter-barrier region.

    Components are counter differences over the region; the terminal
    barrier's wait is reported as the imbalance component, and an equal
    amount is removed from the region's yielding-then-spinning cycles
    (the wait physically manifested as spin-then-yield at the barrier).
    """
    stacks: list[SpeedupStack] = []
    n_threads = observer.n_threads
    empty = {
        "llc_accesses": [0] * machine.n_cores,
        "llc_load_misses": [0] * machine.n_cores,
        "llc_load_miss_blocked_stall": [0] * machine.n_cores,
        "neg_llc_sampled_stall": [0] * machine.n_cores,
        "neg_mem_stall": [0] * machine.n_cores,
        "spin": [0] * machine.n_cores,
        "yield": {},
        "inter_hits": [0] * machine.n_cores,
        "coherency": [0] * machine.n_cores,
    }
    previous = empty
    previous_region: Region | None = None
    factor = float(machine.accounting.atd_sample_period)
    for region in observer.regions:
        after = region.snapshot
        tp = max(1, region.duration)
        threads = []
        for tid in range(n_threads):
            core = tid
            misses = _diff(after, previous, "llc_load_misses", core)
            stall = _diff(
                after, previous, "llc_load_miss_blocked_stall", core
            )
            avg_penalty = stall / misses if misses > 0 else 0.0
            inter_hits = (
                after["inter_hits"][core] - previous["inter_hits"][core]
            )
            spin = _diff(after, previous, "spin", core)
            yielded = after["yield"].get(tid, 0) - previous["yield"].get(tid, 0)
            barrier_wait = region.barrier_imbalance(tid)
            # The wait at the *previous* region's terminal barrier was
            # burned as spin-then-yield, but the yield interval is only
            # recorded when the thread is dispatched again — inside
            # *this* region.  Subtract it here so the wait is counted
            # exactly once, as the previous region's barrier imbalance.
            carry = (
                previous_region.barrier_imbalance(tid)
                if previous_region is not None
                else 0
            )
            take_yield = min(yielded, carry)
            yielded -= take_yield
            take_spin = min(spin, carry - take_yield)
            spin -= take_spin
            threads.append(
                ThreadComponents(
                    thread_id=tid,
                    negative_llc=(
                        _diff(after, previous, "neg_llc_sampled_stall", core)
                        * factor
                    ),
                    negative_memory=_diff(after, previous, "neg_mem_stall", core),
                    positive_llc=inter_hits * factor * avg_penalty,
                    spinning=float(max(0, spin)),
                    yielding=float(max(0, yielded)),
                    imbalance=float(barrier_wait),
                    coherency=_diff(after, previous, "coherency", core),
                )
            )
        report = AccountingReport(
            n_threads=n_threads, tp_cycles=tp, threads=threads
        )
        stacks.append(
            build_stack(f"{name}[{region.index}]", report)
        )
        previous = after
        previous_region = region
    return stacks


@dataclass
class RegionResult:
    """Outcome of a region-accounted run."""

    sim_result: SimResult
    observer: RegionObserver
    stacks: list[SpeedupStack] = field(default_factory=list)

    @property
    def regions(self) -> list[Region]:
        return self.observer.regions


def run_region_experiment(
    machine: MachineConfig, program: Program, name: str = "regions"
) -> RegionResult:
    """Run with accounting + region tracking and build per-region stacks."""
    accountant = CycleAccountant(machine)
    bus = EventBus()
    observer = RegionObserver(accountant, program.n_threads).attach(bus)
    result = Simulation(machine, program, accountant, bus=bus).run()
    stacks = region_stacks(observer, machine, name=name)
    return RegionResult(sim_result=result, observer=observer, stacks=stacks)
