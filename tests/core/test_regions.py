"""Region-based speedup stacks (Section 4.6 refinement)."""

from __future__ import annotations

import pytest

from repro.config import MachineConfig
from repro.core.regions import RegionObserver, run_region_experiment
from repro.observability.events import (
    BarrierArrived,
    BarrierReleased,
    EventBus,
)
from repro.workloads.program import BarrierWait, Compute, Load, Program
from repro.workloads.spec import BenchmarkSpec, build_program


def phased_program(n_threads: int, skews: list[list[int]]) -> Program:
    """One barrier per phase; thread t computes skews[phase][t] instrs."""
    def body(tid):
        for phase, work in enumerate(skews):
            yield Compute(work[tid])
            yield Load(0x100_0000 + (tid << 22) + phase * 64)
            yield BarrierWait(phase)

    return Program("phased", [body(t) for t in range(n_threads)])


class TestRegionDetection:
    def test_one_region_per_barrier(self, machine4):
        program = phased_program(4, [[100] * 4, [200] * 4, [300] * 4])
        result = run_region_experiment(machine4, program)
        assert len(result.regions) == 3
        # regions tile the run: contiguous, increasing
        for earlier, later in zip(result.regions, result.regions[1:]):
            assert earlier.end == later.start
        assert result.regions[0].start == 0

    def test_arrivals_recorded_for_every_thread(self, machine4):
        program = phased_program(4, [[100] * 4])
        result = run_region_experiment(machine4, program)
        assert set(result.regions[0].arrivals) == {0, 1, 2, 3}

    def test_no_barriers_no_regions(self, machine4):
        def body(tid):
            yield Compute(500)

        program = Program("flat", [body(t) for t in range(4)])
        result = run_region_experiment(machine4, program)
        assert result.regions == []
        assert result.stacks == []


class TestBarrierImbalance:
    def test_balanced_phase_small_imbalance(self, machine4):
        program = phased_program(4, [[1000] * 4])
        result = run_region_experiment(machine4, program)
        stack = result.stacks[0]
        assert stack.imbalance < 1.0

    def test_skewed_phase_quantified(self, machine4):
        # thread 3 does 10x the work: others wait ~90% of the region
        program = phased_program(4, [[2000, 2000, 2000, 20000]])
        result = run_region_experiment(machine4, program)
        stack = result.stacks[0]
        # 3 threads waiting most of the region: imbalance close to 3
        assert 2.0 < stack.imbalance < 3.2
        # the straggler itself has no barrier wait
        region = result.regions[0]
        waits = [region.barrier_imbalance(t) for t in range(4)]
        assert waits[3] < min(waits[:3])

    def test_imbalance_not_double_counted_as_yield(self, machine4):
        """Across regions, barrier waits show as imbalance, not yield."""
        skews = [[2000, 2000, 2000, 20000]] * 3
        program = phased_program(4, skews)
        result = run_region_experiment(machine4, program)
        for stack in result.stacks[1:]:
            # each region's yield must be far below its imbalance: the
            # wait is attributed once
            assert stack.yielding < 0.5 * stack.imbalance

    def test_rotating_straggler(self, machine4):
        """The slow thread changes per phase; each region blames the
        right one."""
        skews = [
            [20000, 2000, 2000, 2000],
            [2000, 20000, 2000, 2000],
        ]
        program = phased_program(4, skews)
        result = run_region_experiment(machine4, program)
        region0, region1 = result.regions
        assert region0.barrier_imbalance(0) < region0.barrier_imbalance(1)
        assert region1.barrier_imbalance(1) < region1.barrier_imbalance(0)


class TestRegionStacks:
    def test_stacks_consistent(self, machine4):
        spec = BenchmarkSpec(
            name="r", total_kinstrs=60, mem_per_kinstr=60, private_ws_kb=16,
            n_phases=4, imbalance=0.5, par_overhead=0.0,
        )
        result = run_region_experiment(machine4, build_program(spec, 4))
        assert len(result.stacks) == 4  # 3 inter-phase + final barrier
        for stack in result.stacks:
            stack.validate_consistency()
            assert stack.base_speedup > 0

    def test_observer_standalone(self):
        """The observer's bookkeeping works without an engine: it only
        needs the barrier events on a bus."""
        from repro.accounting.accountant import CycleAccountant

        machine = MachineConfig(n_cores=2)
        bus = EventBus()
        observer = RegionObserver(CycleAccountant(machine), 2).attach(bus)
        bus.emit(BarrierArrived(0, 0, 100))
        bus.emit(BarrierArrived(0, 1, 400))
        bus.emit(BarrierReleased(0, 420))
        region = observer.regions[0]
        assert region.duration == 420
        assert region.barrier_imbalance(0) == 320
        assert region.barrier_imbalance(1) == 20
        assert region.barrier_imbalance(9) == 0  # unknown thread
