"""Multi-program per-thread cycle accounting — the [7] baseline.

The speedup-stack accounting extends Eyerman et al.'s per-thread cycle
accounting for *multi-program* workloads: independent single-threaded
programs co-running on a CMP, where only negative interference exists
(no sharing, no synchronization).  That baseline is reproduced here:
co-schedule one single-threaded program per core, account bus/bank/page
and inter-thread LLC interference per core, and estimate each program's
*isolated* execution time as

    T̂_isolated(i) = T_co(i) − O_neg(i)

(the co-run time minus the accounted interference).  Validation runs
each program alone on the same machine and compares.  This is the
quality-of-service use case of Section 8: "identifying how much
co-executing threads affect each other's performance".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.accounting.accountant import CycleAccountant
from repro.config import MachineConfig
from repro.sim.engine import Simulation
from repro.workloads.program import (
    BarrierWait,
    LockAcquire,
    LockRelease,
    Program,
)
from repro.workloads.spec import BenchmarkSpec, build_program


@dataclass(frozen=True)
class ProgramSlowdown:
    """Per-program results of one multi-program experiment."""

    name: str
    core_id: int
    co_run_cycles: int
    isolated_cycles: int
    estimated_isolated_cycles: float
    accounted_interference: float

    @property
    def slowdown(self) -> float:
        """Measured co-run slowdown versus isolated execution."""
        if self.isolated_cycles == 0:
            return 0.0
        return self.co_run_cycles / self.isolated_cycles

    @property
    def estimated_slowdown(self) -> float:
        if self.estimated_isolated_cycles <= 0:
            return 0.0
        return self.co_run_cycles / self.estimated_isolated_cycles

    @property
    def error(self) -> float:
        """Signed estimation error of the isolated time, as a fraction
        of the measured isolated time."""
        if self.isolated_cycles == 0:
            return 0.0
        return (
            self.estimated_isolated_cycles - self.isolated_cycles
        ) / self.isolated_cycles


@dataclass(frozen=True)
class MultiProgramResult:
    programs: list[ProgramSlowdown]

    @property
    def mean_abs_error(self) -> float:
        if not self.programs:
            return 0.0
        return sum(abs(p.error) for p in self.programs) / len(self.programs)


def _single_thread_program(spec: BenchmarkSpec, scale: float) -> Program:
    return build_program(spec, 1, scale=scale)


#: lock-id namespace stride between co-running programs
_SYNC_NAMESPACE = 1 << 16


def _isolate_sync(body, namespace: int):
    """Adapt a single-threaded program's op stream for co-running.

    The programs are independent: their locks must not collide in the
    shared lock namespace (remapped per program), and their barriers —
    single-party no-ops in isolation — are dropped (a shared barrier
    would couple the programs)."""
    for op in body:
        if isinstance(op, BarrierWait):
            continue
        if isinstance(op, LockAcquire):
            yield LockAcquire(op.lock_id + namespace)
        elif isinstance(op, LockRelease):
            yield LockRelease(op.lock_id + namespace)
        else:
            yield op


def run_multiprogram(
    specs: list[BenchmarkSpec],
    machine: MachineConfig | None = None,
    scale: float = 1.0,
) -> MultiProgramResult:
    """Co-run one single-threaded program per core and account it.

    ``specs`` gives the program for each core (one entry per core).
    """
    if machine is None:
        machine = MachineConfig(n_cores=len(specs))
    if len(specs) != machine.n_cores:
        raise ValueError(
            f"{len(specs)} programs for {machine.n_cores} cores"
        )

    # Isolated reference runs: each program alone on one core.
    isolated_cycles = []
    for spec in specs:
        single = machine.with_cores(1)
        program = _single_thread_program(spec, scale)
        isolated_cycles.append(Simulation(single, program).run().total_cycles)

    # The co-run: each program's op stream is one "thread", pinned to
    # its own core; programs are independent (no shared data beyond the
    # incidental, no synchronization).
    bodies = []
    warmups = []
    for core_id, spec in enumerate(specs):
        program = _single_thread_program(spec, scale)
        bodies.append(
            _isolate_sync(
                program.thread_bodies[0], (core_id + 1) * _SYNC_NAMESPACE
            )
        )
        warmups.append(program.warmup[0] if program.warmup else [])
    # No private declaration: every program uses thread 0's base.
    co_program = Program(
        "multiprogram", bodies, warmup=warmups
    )
    accountant = CycleAccountant(machine)
    co_result = Simulation(machine, co_program, accountant).run()

    programs = []
    for core_id, spec in enumerate(specs):
        raw = accountant.raw_counters(core_id)
        interference = (
            raw.sampled_inter_miss_blocked_stall * raw.sampling_factor
            + raw.memory_interference_stall
        )
        co_cycles = co_result.threads[core_id].end_time
        programs.append(
            ProgramSlowdown(
                name=spec.full_name,
                core_id=core_id,
                co_run_cycles=co_cycles,
                isolated_cycles=isolated_cycles[core_id],
                estimated_isolated_cycles=co_cycles - interference,
                accounted_interference=interference,
            )
        )
    return MultiProgramResult(programs=programs)


def render_multiprogram(result: MultiProgramResult) -> str:
    lines = [
        f"{'program':<24s}{'co-run':>10s}{'isolated':>10s}{'estimated':>11s}"
        f"{'slowdown':>10s}{'error':>8s}"
    ]
    for p in result.programs:
        lines.append(
            f"{p.name:<24s}{p.co_run_cycles:>10d}{p.isolated_cycles:>10d}"
            f"{p.estimated_isolated_cycles:>11.0f}{p.slowdown:>10.2f}"
            f"{p.error * 100:>7.1f}%"
        )
    lines.append(f"mean |error| = {result.mean_abs_error * 100:.1f}%")
    return "\n".join(lines)
