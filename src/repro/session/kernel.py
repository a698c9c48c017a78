"""The steppable simulation kernel every run path is hosted on.

Historically the engine was driven from three near-identical call
sites — ``run_accounted``, ``run_experiment`` and
``BatchRunner._run_once`` — each building an accountant and a
``Simulation``, calling ``Simulation.run`` once and harvesting a
report.  :class:`SimulationKernel` extracts that lifecycle into one
object with an explicit state machine::

    setup/​__init__  →  step(n_cycles)*  →  snapshot()/save()  →  finish()

The batch path is the degenerate case (one ``finish()`` with no
intermediate steps), so hosting it here is behavior-preserving by
construction: the kernel issues exactly the calls the old inline code
issued, in the same order, with the same arguments.  The interactive
path (``step``/``peek_report``) rides on the engine's non-mutating
``pause_at`` support, giving the keystone guarantee

    ``step(N) then step(M)  ≡  step(N+M)  ≡  one-shot run``

locked by ``tests/session/``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.accounting.accountant import CycleAccountant
from repro.accounting.interface import NULL_ACCOUNTANT
from repro.accounting.report import AccountingReport, partial_run_view
from repro.checkpoint.format import save_checkpoint
from repro.config import MachineConfig
from repro.errors import SimulationError
from repro.osmodel.thread import FINISHED
from repro.sim.engine import SimResult, Simulation
from repro.workloads.program import Program
from repro.workloads.spec import build_program


class SimulationKernel:
    """One simulated run with an explicit lifecycle.

    The kernel owns the accountant, the simulation, and the
    watchdog/checkpoint parameters of a run; the run itself advances
    through :meth:`step` (bounded) or :meth:`finish` (to completion).
    ``step``/``finish`` pass the *same* arguments to the same
    ``Simulation.run`` entry point the batch path always used, so a
    kernel that is never paused is byte-identical to the pre-kernel
    inline code.
    """

    def __init__(
        self,
        machine: MachineConfig,
        program: Program,
        *,
        accounted: bool = True,
        max_cycles: int | None = None,
        livelock_window: int | None = None,
        on_timeout: str = "raise",
        bus=None,
        checkpoint=None,
    ) -> None:
        self.machine = machine
        self.program = program
        self.max_cycles = max_cycles
        self.livelock_window = livelock_window
        self.on_timeout = on_timeout
        self.checkpoint = checkpoint
        self.accountant = (
            CycleAccountant(machine, bus=bus) if accounted
            else NULL_ACCOUNTANT
        )
        self.sim = Simulation(machine, program, self.accountant, bus=bus)
        self._result: SimResult | None = None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def setup(
        cls,
        experiment,
        benchmark: str,
        n_threads: int | None = None,
        *,
        accounted: bool = True,
        bus=None,
        checkpoint=None,
        fault=None,
    ) -> "SimulationKernel":
        """Kernel for one (benchmark, N) cell of an
        :class:`~repro.config.ExperimentConfig`.

        ``n_threads`` defaults to the experiment's first thread count.
        ``fault`` (a :data:`~repro.robustness.faults.CellFault`)
        transforms the program/machine before the run, exactly as the
        batch runner applies it.
        """
        from repro.workloads.suite import by_name

        spec = by_name(benchmark)
        workload, run = experiment.workload, experiment.run
        if n_threads is None:
            n_threads = workload.thread_counts[0]
        machine = experiment.machine.with_cores(n_threads)
        program = build_program(spec, n_threads, scale=workload.scale)
        if fault is not None:
            program, machine = fault(program, machine)
        kernel = cls(
            machine, program,
            accounted=accounted,
            max_cycles=run.max_cycles,
            livelock_window=run.livelock_window,
            on_timeout=(
                "truncate"
                if run.max_cycles is not None
                or run.livelock_window is not None
                else "raise"
            ),
            bus=bus,
            checkpoint=checkpoint,
        )
        return kernel

    @classmethod
    def from_simulation(
        cls,
        sim: Simulation,
        *,
        max_cycles: int | None = None,
        livelock_window: int | None = None,
        on_timeout: str = "raise",
        checkpoint=None,
    ) -> "SimulationKernel":
        """Wrap an existing (typically checkpoint-restored) simulation.

        The simulation keeps its accountant and bus; the kernel only
        supplies the run parameters for the continuation — this is how
        the batch runner's crash-resume path and
        ``Session.from_checkpoint`` host restored runs.
        """
        kernel = cls.__new__(cls)
        kernel.machine = sim.machine
        kernel.program = sim.program
        kernel.max_cycles = max_cycles
        kernel.livelock_window = livelock_window
        kernel.on_timeout = on_timeout
        kernel.checkpoint = checkpoint
        kernel.accountant = sim.accountant
        kernel.sim = sim
        kernel._result = None
        return kernel

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    @property
    def cycle(self) -> int:
        """Frontier simulated time: the furthest any core has reached."""
        return max(core.now for core in self.sim.cores)

    @property
    def done(self) -> bool:
        """True once the run has completed (or was watchdog-truncated)."""
        return self._result is not None

    @property
    def result(self) -> SimResult | None:
        """The final :class:`SimResult`, or None while still running."""
        return self._result

    def step(self, n_cycles: int | None = None) -> SimResult:
        """Advance roughly ``n_cycles`` simulated cycles (None = to the
        end) and return the engine's result — ``paused=True`` while
        work remains, the final result once the run completes.

        The pause lands on the first scheduling-loop boundary past the
        target cycle, so the advance may overshoot slightly (block
        executors never split); the state trajectory is identical to an
        unpaused run regardless of where the boundaries fall.  Calling
        ``step`` on a finished kernel returns the final result
        unchanged.
        """
        if self._result is not None:
            return self._result
        pause_at = None if n_cycles is None else self.cycle + n_cycles
        result = self.sim.run(
            max_cycles=self.max_cycles,
            livelock_window=self.livelock_window,
            on_timeout=self.on_timeout,
            checkpoint=self.checkpoint,
            pause_at=pause_at,
        )
        if not result.paused:
            self._result = result
        return result

    def finish(self) -> SimResult:
        """Run to completion and return the final result."""
        if self._result is None:
            self.step(None)
        assert self._result is not None
        return self._result

    # ------------------------------------------------------------------
    # state access
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The full engine ``state_dict()`` tree (never mutates)."""
        return self.sim.state_dict()

    def load(self, state: dict) -> None:
        """Restore a :meth:`snapshot` tree onto this (fresh) kernel."""
        self.sim.load_state_dict(state)

    def save(
        self,
        path: str | Path,
        descriptor: dict[str, Any],
        *,
        reason: str = "manual",
    ) -> dict[str, Any]:
        """Write the current state as a standard checkpoint file."""
        return save_checkpoint(
            path, self.snapshot(), descriptor,
            cycle=self.cycle, reason=reason,
        )

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------

    def report(self) -> AccountingReport:
        """The end-of-run accounting report (requires a finished run)."""
        if not self.accountant.enabled:
            raise SimulationError(
                "kernel was built without accounting (accounted=False); "
                "no report to derive"
            )
        if self._result is None:
            raise SimulationError(
                "run still in flight — use peek_report() for the "
                "partial-run report"
            )
        return self.accountant.report(self._result)

    def peek_report(self) -> AccountingReport | None:
        """The accounting report *so far*, or None without accounting.

        Mid-run, unfinished threads are viewed as ending at the
        frontier cycle (the same :func:`partial_run_view` adapter
        ``repro inspect`` applies to checkpoints); once finished this
        is exactly :meth:`report`.  Pure — never mutates the run.
        """
        if not self.accountant.enabled:
            return None
        if self._result is not None:
            return self.accountant.report(self._result)
        view = partial_run_view(
            [
                t.end_time if t.state == FINISHED else None
                for t in self.sim.threads
            ],
            self.cycle,
        )
        return self.accountant.report(view)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        status = "done" if self.done else f"cycle={self.cycle}"
        return (
            f"<SimulationKernel {self.program.n_threads} threads "
            f"{status}>"
        )
