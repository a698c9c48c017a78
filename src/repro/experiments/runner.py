"""Experiment runner: reference + accounted runs -> speedup stacks.

The paper's measurement protocol (Sections 2 and 6):

1. run the program single-threaded to measure ``Ts`` (actual-speedup
   reference; "results are gathered from the parallel fraction of the
   benchmarks only" — our programs *are* the parallel fraction);
2. run it with ``N`` threads on ``N`` cores with the cycle-accounting
   hardware enabled, measuring ``Tp`` and all cycle components;
3. build the speedup stack from the accounted run, and validate the
   estimated speedup against ``Ts/Tp``.

The runner also measures the dynamic-instruction-count increase of the
multi-threaded run over the single-threaded run minus spin instructions,
the paper's proxy for parallelization overhead (Section 6).

On top of the single-cell protocol sits the *hardened batch runner*
(:class:`BatchRunner`): per-cell isolation, retry-with-backoff,
checkpoint/resume through a :class:`~repro.robustness.journal.SweepJournal`,
watchdog-truncated partial results, and a failure-report aggregator —
one bad (benchmark, N) cell never kills a sweep.  See
``docs/robustness.md``.

The protocol itself exists once: :class:`ReferenceMemo` measures
``Ts`` (each reference run once per spec, scale, machine and watchdog
limits) and :func:`finish_experiment` finishes any
:class:`~repro.session.kernel.SimulationKernel` — fresh, restored from
a checkpoint, or the one behind an interactive
:class:`~repro.session.Session` — and builds its stack.  Every entry point, from ``repro stack`` to the
queue workers, runs a cell through those two.  On the sweep side,
:func:`completed_outcome` and :func:`record_outcome` are the one resume
skip and the one journal writer of the serial sweep and the work
queue.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.accounting.report import AccountingReport
from repro.checkpoint import (
    CheckpointHook,
    CheckpointPolicy,
    cell_descriptor,
    fault_descriptor,
    resume_simulation,
)
from repro.config import ExperimentConfig, MachineConfig, RunConfig
from repro.core.stack import SpeedupStack, build_stack
from repro.errors import CheckpointError, ExperimentError, ReproError
from repro.observability.events import (
    CellFinished,
    CellRetry,
    CellStarted,
    FaultArmed,
    SweepFinished,
    SweepStarted,
)
from repro.observability.metrics import harvest_cell_metrics
from repro.observability.spans import maybe_span
from repro.robustness.drain import DrainableHook, DrainRequested
from repro.robustness.faults import CellFault, make_fault
from repro.robustness.journal import SweepJournal
from repro.session.kernel import SimulationKernel
from repro.sim.engine import SimResult
from repro.workloads.program import Program
from repro.workloads.spec import BenchmarkSpec, build_program

logger = logging.getLogger(__name__)


@dataclass
class ExperimentResult:
    """Everything produced by one (benchmark, N) experiment."""

    name: str
    n_threads: int
    machine: MachineConfig
    stack: SpeedupStack
    report: AccountingReport
    mt_result: SimResult
    st_result: SimResult | None

    @property
    def actual_speedup(self) -> float | None:
        return self.stack.actual_speedup

    @property
    def estimated_speedup(self) -> float:
        return self.stack.estimated_speedup

    @property
    def total_cycles(self) -> int:
        """``Tp`` of the accounted run (what the sweep journal records)."""
        return self.mt_result.total_cycles

    @property
    def truncated(self) -> bool:
        """True when a watchdog cut the accounted run short."""
        return self.mt_result.truncated

    @property
    def parallelization_overhead(self) -> float | None:
        """Fractional extra instructions of the MT run over the ST run,
        after subtracting spin-loop instructions (Section 6)."""
        if self.st_result is None:
            return None
        st_instrs = self.st_result.total_instrs
        if st_instrs == 0:
            return None
        mt_real = self.mt_result.total_instrs - self.mt_result.total_spin_instrs
        return (mt_real - st_instrs) / st_instrs

    def without_machine(self) -> "ExperimentResult":
        """A copy whose runs carry no simulated machine (see
        :meth:`SimResult.without_machine`): stack, report, threads and
        totals kept.  What a sweep or a figure cache holds per cell."""
        return replace(
            self,
            mt_result=self.mt_result.without_machine(),
            st_result=(
                self.st_result.without_machine()
                if self.st_result is not None else None
            ),
        )


def run_accounted(
    machine: MachineConfig,
    program: Program,
    max_cycles: int | None = None,
    livelock_window: int | None = None,
    on_timeout: str = "raise",
    bus=None,
    checkpoint=None,
) -> tuple[SimResult, AccountingReport]:
    """One multi-threaded run with the accounting hardware attached.

    With ``on_timeout="truncate"`` a watchdog-cut run still yields a
    (flagged) report — the partial-run speedup stack.  ``bus`` attaches
    an observability :class:`~repro.observability.events.EventBus` to
    both the engine and the accountant.  ``checkpoint`` arms a
    :class:`~repro.checkpoint.policy.CheckpointHook` on the engine.

    Hosted on :class:`~repro.session.kernel.SimulationKernel` — the
    batch path is the kernel's degenerate no-pause lifecycle, so this
    is byte-identical to driving the engine inline.
    """
    kernel = SimulationKernel(
        machine, program,
        accounted=True,
        max_cycles=max_cycles,
        livelock_window=livelock_window,
        on_timeout=on_timeout,
        bus=bus,
        checkpoint=checkpoint,
    )
    result = kernel.finish()
    return result, kernel.report()


def accounted_snapshot(
    machine: MachineConfig,
    program: Program,
    max_cycles: int | None = None,
    livelock_window: int | None = None,
    on_timeout: str = "raise",
) -> dict:
    """One accounted run, returning the accountant's cumulative counter
    snapshot (:meth:`CycleAccountant.snapshot`).

    The public-API route to the raw per-core counters behind the stack
    components — ``llc_accesses``, interference stalls, spin and yield
    cycles — without going through report post-processing.  Region code
    differences two of these; callers here get the end-of-run totals.
    """
    kernel = SimulationKernel(
        machine, program,
        accounted=True,
        max_cycles=max_cycles,
        livelock_window=livelock_window,
        on_timeout=on_timeout,
    )
    kernel.finish()
    return kernel.accountant.snapshot()


def run_reference(
    machine: MachineConfig,
    program: Program,
    max_cycles: int | None = None,
    livelock_window: int | None = None,
    on_timeout: str = "raise",
) -> SimResult:
    """Single-threaded reference run of a one-thread program on one core
    of the same machine (no accounting hardware needed)."""
    if program.n_threads != 1:
        raise ValueError(
            "reference run expects the single-threaded program variant"
        )
    kernel = SimulationKernel(
        machine.with_cores(1), program,
        accounted=False,
        max_cycles=max_cycles,
        livelock_window=livelock_window,
        on_timeout=on_timeout,
    )
    return kernel.finish()


class ReferenceMemo:
    """Single-threaded reference runs (``Ts``), each measured once.

    A reference run depends only on the benchmark spec, the scale, the
    single-core view of the (post-fault) machine and the watchdog
    limits, so that tuple keys the memo: ``bench:2`` and ``bench:16``
    share one ``Ts`` measurement exactly as the paper's protocol
    intends.  Runs are kept without their machine — only ``Ts`` and the
    instruction count are read from them.  Watchdog hits truncate (a
    truncated reference yields no actual speedup) rather than raise.
    """

    def __init__(self) -> None:
        self._runs: dict[tuple, SimResult] = {}

    def get(
        self,
        spec: BenchmarkSpec,
        scale: float,
        machine: MachineConfig,
        max_cycles: int | None = None,
        livelock_window: int | None = None,
    ) -> SimResult:
        key = (spec, scale, machine.with_cores(1), max_cycles, livelock_window)
        st_result = self._runs.get(key)
        if st_result is None:
            st_result = self.measure(
                machine, build_program(spec, 1, scale=scale),
                max_cycles, livelock_window,
            )
            self._runs[key] = st_result
        return st_result

    @staticmethod
    def measure(
        machine: MachineConfig,
        program: Program,
        max_cycles: int | None = None,
        livelock_window: int | None = None,
        on_timeout: str = "truncate",
    ) -> SimResult:
        """One unmemoized reference run of a ready-built single-threaded
        program (for callers that hold a program rather than a spec)."""
        return run_reference(
            machine, program,
            max_cycles=max_cycles,
            livelock_window=livelock_window,
            on_timeout=on_timeout,
        ).without_machine()


def finish_experiment(
    name: str,
    kernel: SimulationKernel,
    st_result: SimResult | None,
    spans=None,
) -> ExperimentResult:
    """Finish ``kernel``'s accounted run and build its speedup stack.

    The one step from a kernel to a stack: ``kernel`` may be fresh,
    restored from a checkpoint, or partly stepped by a session.
    ``st_result`` is the reference run (from :class:`ReferenceMemo`);
    None, or a truncated run, gives an estimate-only stack.  ``spans``
    (a :class:`~repro.observability.spans.SpanRecorder`) times the
    engine advance and the stack build.
    """
    with maybe_span(spans, "engine.advance", cat="cell"):
        mt_result = kernel.finish()
        report = kernel.report()
    with maybe_span(spans, "harvest", cat="cell"):
        ts = (
            None if st_result is None or st_result.truncated
            else st_result.total_cycles
        )
        stack = build_stack(name, report, ts_cycles=ts)
    return ExperimentResult(
        name=name,
        n_threads=kernel.program.n_threads,
        machine=kernel.machine,
        stack=stack,
        report=report,
        mt_result=mt_result,
        st_result=st_result,
    )


def run_experiment(
    name: str,
    machine: MachineConfig,
    mt_program: Program,
    st_program: Program | None = None,
    max_cycles: int | None = None,
    livelock_window: int | None = None,
    on_timeout: str = "raise",
    bus=None,
    checkpoint=None,
    spans=None,
) -> ExperimentResult:
    """Full protocol: (optional) reference run, accounted run, stack.

    ``bus`` instruments the accounted multi-threaded run only — the
    reference run is a measurement fixture, not the subject.  The same
    holds for ``checkpoint``: only the accounted run is saved (the
    reference run is cheap to recompute and fully deterministic).
    ``spans`` (a :class:`~repro.observability.spans.SpanRecorder`)
    times the harness phases — ST reference, engine advance, harvest.
    """
    st_result = None
    if st_program is not None:
        with maybe_span(spans, "st.reference", cat="cell"):
            st_result = ReferenceMemo.measure(
                machine, st_program, max_cycles, livelock_window, on_timeout,
            )
    kernel = SimulationKernel(
        machine, mt_program,
        accounted=True,
        max_cycles=max_cycles,
        livelock_window=livelock_window,
        on_timeout=on_timeout,
        bus=bus,
        checkpoint=checkpoint,
    )
    return finish_experiment(name, kernel, st_result, spans)


# ----------------------------------------------------------------------
# hardened batch runner
# ----------------------------------------------------------------------

CELL_OK = "ok"
CELL_FAILED = "failed"
#: cell skipped because the journal says it already succeeded
CELL_RESUMED = "resumed"


@dataclass
class CellOutcome:
    """What happened to one (benchmark, N) cell of a sweep."""

    name: str
    n_threads: int
    status: str
    attempts: int = 0
    result: ExperimentResult | None = None
    error: str | None = None
    error_type: str | None = None
    #: engine post-mortem (plain dict) when the failure carried one
    snapshot: dict | None = None
    #: harvested ``sim.*`` metrics (only when collection is enabled)
    metrics: dict | None = None

    @property
    def key(self) -> str:
        return f"{self.name}:{self.n_threads}"

    @classmethod
    def from_result(cls, result) -> "CellOutcome":
        """The outcome of a worker-executed cell, from its finished-cell
        record (a :class:`~repro.parallel.cells.CellResult`)."""
        return cls(
            name=result.name,
            n_threads=result.n_threads,
            status=result.status,
            attempts=result.attempts,
            result=result if result.status == CELL_OK else None,
            error=result.error,
            error_type=result.error_type,
            snapshot=result.snapshot,
            metrics=result.metrics,
        )


@dataclass
class SweepReport:
    """Aggregated outcome of a whole sweep."""

    outcomes: list[CellOutcome] = field(default_factory=list)
    #: True when the sweep stopped early on a drain signal: every
    #: recorded outcome is final (journaled), the rest never ran
    interrupted: bool = False

    @property
    def completed(self) -> list[CellOutcome]:
        return [o for o in self.outcomes if o.status == CELL_OK]

    @property
    def resumed(self) -> list[CellOutcome]:
        return [o for o in self.outcomes if o.status == CELL_RESUMED]

    @property
    def failures(self) -> list[CellOutcome]:
        return [o for o in self.outcomes if o.status == CELL_FAILED]

    @property
    def ok(self) -> bool:
        return not self.failures

    def render_failure_report(self) -> str:
        """Human-readable failure aggregate (empty string when clean)."""
        if not self.failures:
            return ""
        lines = [f"{len(self.failures)} of {len(self.outcomes)} cells failed:"]
        for outcome in self.failures:
            lines.append(
                f"  {outcome.key:<28s} {outcome.error_type or 'Error'}"
                f" after {outcome.attempts} attempt(s): {outcome.error}"
            )
            snapshot = outcome.snapshot or {}
            threads = snapshot.get("threads") or ()
            if threads:
                states: dict[str, int] = {}
                for t in threads:
                    states[t["state"]] = states.get(t["state"], 0) + 1
                state_txt = ", ".join(
                    f"{k}={v}" for k, v in sorted(states.items())
                )
                lines.append(
                    f"    engine state at cycle {snapshot.get('cycle')}: "
                    f"threads {state_txt}"
                )
            for lock in snapshot.get("locks") or ():
                if lock["holder_tid"] is not None or lock["waiter_tids"]:
                    lines.append(
                        f"    lock {lock['lock_id']}: held by "
                        f"T{lock['holder_tid']}, waiters "
                        f"{list(lock['waiter_tids'])}"
                    )
            for barrier in snapshot.get("barriers") or ():
                if barrier["waiter_tids"] or barrier["arrived"]:
                    lines.append(
                        f"    barrier {barrier['barrier_id']}: "
                        f"{barrier['arrived']}/{barrier['n_parties']} "
                        f"arrived, waiters {list(barrier['waiter_tids'])}"
                    )
        return "\n".join(lines)


def completed_outcome(
    journal: SweepJournal, name: str, n_threads: int, resume: bool,
    bus=None,
) -> CellOutcome | None:
    """The ``resumed`` outcome of a cell a ``--resume`` sweep skips
    because its journal already records it as ok (None: run the cell).
    Failed and unseen cells always run."""
    if not (resume and journal.completed(name, n_threads)):
        return None
    logger.info("resume: skipping completed cell %s:%d", name, n_threads)
    if bus is not None:
        bus.emit(CellFinished(f"{name}:{n_threads}", CELL_RESUMED, 0))
    return CellOutcome(name=name, n_threads=n_threads, status=CELL_RESUMED)


def absorb_outcome(metrics, outcome: CellOutcome) -> None:
    """Fold a finished cell into a metrics registry (None: nothing): its
    ``sim.*`` metrics, and ``runtime.cells_ok`` / ``runtime.cells_failed``."""
    if metrics is None:
        return
    if outcome.status == CELL_OK:
        if outcome.metrics is not None:
            metrics.absorb(outcome.metrics)
        metrics.counter("runtime.cells_ok").inc()
    else:
        metrics.counter("runtime.cells_failed").inc()


def record_outcome(
    report: SweepReport,
    journal: SweepJournal,
    outcome: CellOutcome,
    metrics=None,
    spans=None,
) -> None:
    """Finish one cell of a sweep, serial or queued: journal it,
    absorb its metrics and append it to ``report``.

    Both paths call this in sweep order, so the journal file is
    byte-identical at every ``--jobs`` value and on ``--queue-dir``.
    """
    with maybe_span(spans, "journal.write", cat="sweep"):
        if outcome.status == CELL_OK:
            assert outcome.result is not None
            journal.record_ok(
                outcome.name, outcome.n_threads,
                attempts=outcome.attempts,
                total_cycles=outcome.result.total_cycles,
                truncated=outcome.result.truncated,
                metrics=outcome.metrics,
            )
        else:
            journal.record_failure(
                outcome.name, outcome.n_threads,
                attempts=outcome.attempts,
                error=outcome.error or "",
                error_type=outcome.error_type or "",
                snapshot=outcome.snapshot,
            )
    absorb_outcome(metrics, outcome)
    report.outcomes.append(outcome)


class BatchRunner:
    """Run many (benchmark, N) cells with isolation, retries and resume.

    ``fault_plan`` maps cell keys (``"name:N"``) to
    :data:`~repro.robustness.faults.CellFault` callables applied to the
    multi-threaded program/machine of that cell before it runs — the
    hook the fault injector (and the tests) use to provoke failures in
    exactly one cell.  A plan value may also be a bare fault *kind*
    string from :data:`~repro.robustness.faults.FAULT_KINDS`, resolved
    via :func:`~repro.robustness.faults.make_fault` when the cell runs
    (strings pickle; closures do not — see ``repro.parallel``).

    The runner's :class:`ReferenceMemo` measures each reference run
    once across the sweep.
    """

    def __init__(
        self,
        policy: RunConfig | None = None,
        scale: float | None = None,
        journal: SweepJournal | None = None,
        fault_plan: dict[str, CellFault | str] | None = None,
        machine_factory=None,
        sleep=time.sleep,
        bus=None,
        metrics=None,
        experiment: ExperimentConfig | None = None,
        drain=None,
        spans=None,
    ) -> None:
        """``experiment`` supplies defaults for everything it covers —
        the policy (from ``experiment.run``), the scale (from
        ``experiment.workload``) and the machine factory (from
        ``experiment.machine``, re-cored per cell); an explicit
        ``policy``/``scale``/``machine_factory`` argument still wins.

        ``drain`` (a :class:`~repro.robustness.drain.DrainController`)
        makes the runner signal-aware: a drain stops the sweep between
        cells, and mid-cell the in-flight run checkpoints (when
        checkpointing is armed) and unwinds via
        :class:`~repro.robustness.drain.DrainRequested` — nothing is
        recorded for the interrupted cell, so a resumed sweep re-runs
        it from its checkpoint.
        """
        if experiment is not None:
            policy = policy or experiment.run
            if scale is None:
                scale = experiment.workload.scale
            machine_factory = machine_factory or experiment.machine.with_cores
        self.experiment = experiment
        self.policy = policy or RunConfig()
        self.scale = 1.0 if scale is None else scale
        self.journal = journal or SweepJournal(None)
        self.fault_plan = fault_plan or {}
        #: optional observability EventBus for sweep/cell lifecycle
        #: events (also threaded into each cell's engine + accountant)
        self.bus = bus
        #: optional MetricsRegistry; when set, each cell's harvested
        #: ``sim.*`` metrics are absorbed here (and journaled by a
        #: sweep), and ``runtime.*`` counts and wall times accumulate
        self.metrics = metrics
        #: optional DrainController: polled between cells and (via the
        #: checkpoint hook) once per engine scheduling step mid-cell
        self.drain = drain
        #: optional SpanRecorder timing the harness's own phases (trace
        #: decode, ST reference, engine advance, harvest, journal
        #: write).  Spans are wall-clock so they are never journaled;
        #: warm workers re-point this attribute per cell — it is
        #: mutable state *outside* the WorkerCaches key on purpose.
        self.spans = spans
        self._machine_factory = machine_factory or (
            lambda n_threads: MachineConfig(n_cores=n_threads)
        )
        self._sleep = sleep
        self._references = ReferenceMemo()

    # ------------------------------------------------------------------
    # one cell
    # ------------------------------------------------------------------

    def run_cell(self, spec: BenchmarkSpec, n_threads: int) -> CellOutcome:
        """One isolated cell: build programs, run, classify the outcome
        (absorbed into the runner's metrics registry, if any)."""
        outcome = self._run_cell(spec, n_threads)
        absorb_outcome(self.metrics, outcome)
        return outcome

    def _run_cell(self, spec: BenchmarkSpec, n_threads: int) -> CellOutcome:
        key = f"{spec.full_name}:{n_threads}"
        with maybe_span(self.spans, key, cat="cell"):
            return self._run_cell_inner(spec, n_threads)

    def _run_cell_inner(
        self, spec: BenchmarkSpec, n_threads: int
    ) -> CellOutcome:
        policy = self.policy
        bus = self.bus
        metrics = self.metrics
        name = spec.full_name
        key = f"{name}:{n_threads}"
        fault = self.fault_plan.get(key)
        fault_seed = 0
        if isinstance(fault, tuple):
            # (kind, seed) — how the parallel layer ships seeded faults
            fault, fault_seed = fault
        if isinstance(fault, str):
            fault_kind = fault
            #: checkpoint-descriptor identity of the fault (replayable)
            fault_info = (fault, fault_seed)
            fault = make_fault(fault, fault_seed)
        else:
            fault_kind = type(fault).__name__ if fault is not None else None
            # a bare callable cannot be rebuilt on resume: record it as
            # opaque so its checkpoints refuse cross-process resume
            fault_info = fault_kind
        if fault is not None and bus is not None:
            bus.emit(FaultArmed(key, fault_kind or "fault"))
        attempts = 0
        last_error: BaseException | None = None
        max_attempts = (
            1 + policy.max_retries if policy.on_error == "retry" else 1
        )
        t_cell = time.monotonic()
        while attempts < max_attempts:
            attempts += 1
            if attempts > 1:
                delay = policy.backoff_delay(attempts, key)
                if bus is not None:
                    bus.emit(CellRetry(
                        key, attempts, delay, str(last_error)
                    ))
                if metrics is not None:
                    metrics.counter("runtime.retries").inc()
                if delay > 0:
                    logger.info(
                        "retrying %s (attempt %d/%d) after %.2fs backoff",
                        key, attempts, max_attempts, delay,
                    )
                    self._sleep(delay)
            elif bus is not None:
                bus.emit(CellStarted(key, attempts))
            try:
                result = self._run_once(
                    spec, n_threads, fault,
                    fault_info=fault_info, attempt=attempts,
                )
            except ReproError as exc:
                last_error = exc
                logger.warning(
                    "cell %s failed (attempt %d/%d): %s",
                    key, attempts, max_attempts, exc,
                )
                continue
            if result.mt_result.truncated:
                logger.warning(
                    "cell %s truncated (%s) — partial stack",
                    key, result.mt_result.truncation_reason,
                )
            cell_metrics = None
            if metrics is not None:
                cell_metrics = harvest_cell_metrics(result)
                metrics.histogram("runtime.cell_wall_s").observe(
                    time.monotonic() - t_cell
                )
            if bus is not None:
                bus.emit(CellFinished(key, CELL_OK, attempts))
            return CellOutcome(
                name=name,
                n_threads=n_threads,
                status=CELL_OK,
                attempts=attempts,
                result=result,
                metrics=cell_metrics,
            )
        assert last_error is not None
        if policy.on_error == "abort":
            raise ExperimentError(
                name, n_threads, str(last_error)
            ) from last_error
        if metrics is not None:
            metrics.histogram("runtime.cell_wall_s").observe(
                time.monotonic() - t_cell
            )
        if bus is not None:
            bus.emit(CellFinished(key, CELL_FAILED, attempts))
        snapshot = getattr(last_error, "snapshot", None)
        return CellOutcome(
            name=name,
            n_threads=n_threads,
            status=CELL_FAILED,
            attempts=attempts,
            error=str(last_error),
            error_type=type(last_error).__name__,
            snapshot=snapshot.to_dict() if snapshot is not None else None,
        )

    def _run_once(
        self, spec: BenchmarkSpec, n_threads: int, fault,
        fault_info=None, attempt: int = 1,
    ) -> ExperimentResult:
        spans = self.spans
        policy = self.policy
        machine = self._machine_factory(n_threads)
        hook = self._cell_checkpoint(
            spec, n_threads, machine, fault_info, attempt
        )
        # The fresh program is built (and the fault applied) even when a
        # checkpoint will be resumed: the fault transform yields the
        # post-fault machine for the ST reference and keeps the
        # injector's per-application RNG sequence in step for later
        # attempts; the untouched generators cost nothing.
        with maybe_span(spans, "trace.decode", cat="cell"):
            mt_program = build_program(spec, n_threads, scale=self.scale)
            if fault is not None:
                mt_program, machine = fault(mt_program, machine)
        with maybe_span(spans, "st.reference", cat="cell"):
            st_result = self._references.get(
                spec, self.scale, machine,
                policy.max_cycles, policy.livelock_window,
            )
        sim = None
        if hook is not None and hook.path is not None and hook.path.exists():
            sim = self._try_resume(hook, spec)
        if sim is not None:
            kernel = SimulationKernel.from_simulation(
                sim,
                max_cycles=policy.max_cycles,
                livelock_window=policy.livelock_window,
                on_timeout="truncate",
                checkpoint=hook,
            )
        else:
            kernel = SimulationKernel(
                machine, mt_program,
                accounted=True,
                max_cycles=policy.max_cycles,
                livelock_window=policy.livelock_window,
                on_timeout="truncate",
                bus=self.bus,
                checkpoint=hook,
            )
        result = finish_experiment(spec.full_name, kernel, st_result, spans)
        if hook is not None and hook.path is not None and not result.truncated:
            # clean completion: the checkpoint has nothing left to
            # resume (truncated runs keep theirs for inspect/resume
            # under raised watchdog limits)
            hook.path.unlink(missing_ok=True)
        return result

    def _cell_checkpoint(
        self, spec: BenchmarkSpec, n_threads: int,
        machine: MachineConfig, fault_info, attempt: int,
    ) -> CheckpointHook | None:
        """Arm the cell's checkpoint hook (None when not checkpointing).

        The descriptor carries the *pre-fault* machine plus the fault's
        replay identity; its hash gates resume, so a checkpoint from a
        different attempt (the injector RNG advances per application) or
        a different experiment config is ignored rather than resumed.

        With a drain controller attached the (possibly absent) hook is
        wrapped in a :class:`~repro.robustness.drain.DrainableHook`, so
        the engine's once-per-step checkpoint poll doubles as the
        drain point: a signal checkpoints the in-flight cell (when a
        checkpoint target exists) and unwinds cleanly mid-run.
        """
        policy = self.policy
        if policy.checkpoint_dir is None:
            if self.drain is not None:
                return DrainableHook(None, self.drain)
            return None
        if fault_info is None:
            fault_desc = None
        elif isinstance(fault_info, tuple):
            kind, seed = fault_info
            fault_desc = fault_descriptor(kind, seed, attempt)
        else:
            fault_desc = {"opaque": fault_info, "applications": attempt}
        descriptor = cell_descriptor(
            machine, spec.full_name, n_threads, self.scale,
            fault=fault_desc,
            max_cycles=policy.max_cycles,
            livelock_window=policy.livelock_window,
        )
        path = (
            Path(policy.checkpoint_dir)
            / f"{spec.full_name}_n{n_threads}.ckpt"
        )
        hook = CheckpointHook(path, descriptor, CheckpointPolicy(
            every_cycles=policy.checkpoint_every,
            on_watchdog=True,
            on_fault=True,
        ))
        if self.drain is not None:
            return DrainableHook(hook, self.drain)
        return hook

    def _try_resume(self, hook: CheckpointHook, spec: BenchmarkSpec):
        """Resume the cell's simulation from its on-disk checkpoint, or
        None (fresh run) when the checkpoint belongs to a different
        config/attempt or cannot be rebuilt."""
        try:
            sim, header = resume_simulation(
                hook.path, spec=spec,
                expected_descriptor=hook.descriptor, bus=self.bus,
            )
        except CheckpointError as exc:
            logger.warning(
                "ignoring checkpoint %s (running fresh): %s",
                hook.path, exc,
            )
            return None
        logger.info(
            "resuming %s from cycle %d (saved on %s)",
            hook.path, header["cycle"], header["reason"],
        )
        return sim

    # ------------------------------------------------------------------
    # the sweep
    # ------------------------------------------------------------------

    def run_sweep(
        self,
        cells: list[tuple[BenchmarkSpec, int]],
        resume: bool = False,
    ) -> SweepReport:
        """Run every cell, journaling after each one.

        Each ok outcome keeps its stack, report and run totals but not
        the simulated machine (``result.mt_result.chip is None``); call
        :meth:`run_cell` for a cell's live chip.

        With ``resume=True``, cells the journal already records as
        ``ok`` are skipped (status ``"resumed"``); failed and unseen
        cells run normally — so a re-run after a partial sweep touches
        only what is missing.

        With a drain controller attached, a SIGINT/SIGTERM stops the
        sweep at the next cell boundary (mid-cell the engine
        checkpoints first when checkpointing is armed); the journal
        already holds every finished cell, so ``--resume`` continues
        exactly where the drain cut in.  The report comes back with
        ``interrupted=True``.
        """
        report = SweepReport()
        if self.bus is not None:
            self.bus.emit(SweepStarted(len(cells), 1))
        for spec, n_threads in cells:
            name = spec.full_name
            if self.drain is not None and self.drain.requested:
                report.interrupted = True
                logger.warning(
                    "drain: stopping sweep with %d cell(s) not run",
                    len(cells) - len(report.outcomes),
                )
                break
            skipped = completed_outcome(
                self.journal, name, n_threads, resume, self.bus
            )
            if skipped is not None:
                report.outcomes.append(skipped)
                continue
            logger.info("running cell %s:%d", name, n_threads)
            try:
                outcome = self._run_cell(spec, n_threads)
            except DrainRequested as exc:
                # nothing is journaled for the interrupted cell: its
                # checkpoint (when armed) carries the partial run, and
                # a --resume re-runs it from there
                report.interrupted = True
                logger.warning(
                    "drain (%s): cell %s:%d interrupted%s",
                    exc.reason, name, n_threads,
                    " after a checkpoint save" if exc.saved else "",
                )
                break
            record_outcome(
                report, self.journal, outcome, self.metrics, self.spans
            )
            if outcome.result is not None:
                # journaled and its stack built: nothing reads this
                # cell's machine again, so the sweep does not keep it
                outcome.result = outcome.result.without_machine()
        if self.bus is not None:
            self.bus.emit(SweepFinished(
                len(report.completed), len(report.failures),
                len(report.resumed),
            ))
        logger.info(
            "sweep done: %d ok, %d resumed, %d failed",
            len(report.completed), len(report.resumed), len(report.failures),
        )
        return report
