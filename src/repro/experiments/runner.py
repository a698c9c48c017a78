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

The protocol itself exists once: :func:`open_cell` builds a cell's
:class:`~repro.session.kernel.SimulationKernel`, fresh or resumed from
its checkpoint under one resume rule; :class:`ReferenceMemo` measures
``Ts`` (each reference run once per spec, scale, machine and watchdog
limits); and :func:`finish_experiment` finishes any kernel — fresh,
restored from a checkpoint, or the one behind an interactive
:class:`~repro.session.Session` — and builds its stack.  Every entry
point, from ``repro stack`` to the queue workers, runs a cell through
those three.  On the sweep side,
:func:`completed_outcome` and :func:`record_outcome` are the one resume
skip and the one journal writer of the serial sweep and the work
queue, and :class:`CellResult` is the one record of a finished cell
both keep, so their :class:`SweepReport` values compare ``==``.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.accounting.report import AccountingReport
from repro.checkpoint import (
    CheckpointHook,
    CheckpointPolicy,
    cell_descriptor,
    config_hash,
    descriptor_diff,
    fault_descriptor,
    read_header,
    replay_fault,
    resume_simulation,
)
from repro.config import (
    ExperimentConfig,
    MachineConfig,
    RunConfig,
    machine_from_dict,
)
from repro.core.stack import SpeedupStack, build_stack
from repro.errors import (
    CheckpointError,
    ConfigError,
    ExperimentError,
    ReproError,
)
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
from repro.robustness.faults import CellFault
from repro.robustness.journal import SweepJournal
from repro.session.kernel import SimulationKernel
from repro.sim.engine import SimResult
from repro.workloads.program import Program
from repro.workloads.spec import BenchmarkSpec, build_program
from repro.workloads.suite import by_name

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
        """See :attr:`CellResult.parallelization_overhead`."""
        return CellResult.of(self).parallelization_overhead


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
# cell -> kernel
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CellKernel:
    """A cell's kernel, as :func:`open_cell` builds or resumes it."""

    kernel: SimulationKernel
    #: the post-fault machine: the one ``Ts`` is measured on
    machine: MachineConfig
    #: the cell's checkpoint descriptor (what its saves carry)
    descriptor: dict
    #: checkpoint cycle the kernel resumed from (None: from cycle 0)
    resumed_from: int | None = None


def open_cell(
    machine: MachineConfig,
    spec: BenchmarkSpec,
    n_threads: int,
    scale: float,
    run: RunConfig,
    *,
    fault: tuple[str, int] | CellFault | None = None,
    attempt: int = 1,
    checkpoint: str | Path | None = None,
    checkpoint_every: int | None = None,
    resume_from: str | Path | None = None,
    fresh_on_refusal: bool = False,
    bus=None,
    drain=None,
) -> CellKernel:
    """The one step from a (benchmark, N) cell to its accounted kernel.

    ``machine`` is the re-cored machine before any fault; ``fault`` is
    a ``(kind, seed)`` pair replayed to its ``attempt``-th application
    (the injector's RNG advances per application) or an opaque
    :data:`~repro.robustness.faults.CellFault` applied once; ``run``
    gives the watchdog limits.  The descriptor records the pre-fault
    machine, the fault with its application count and the limits; a
    ``checkpoint`` path arms a hook saving it every
    ``checkpoint_every`` cycles and on watchdog and fault exits, inside
    a :class:`~repro.robustness.drain.DrainableHook` when a ``drain``
    is given.

    ``resume_from`` continues that checkpoint if the resume rule
    (docs/checkpointing.md) allows: the same cell once the watchdog
    limits are set aside, and limits no tighter than the run that
    reached it.  A refusal raises :class:`~repro.errors.ConfigError`
    naming the field (:class:`~repro.errors.CheckpointError` for an
    unreadable file); with ``fresh_on_refusal`` it is logged and the
    cell starts at cycle 0.  A resumed cell's next periodic save is
    ``checkpoint_every`` cycles past the one it resumed from, not at
    once.
    """
    max_cycles, window = run.max_cycles, run.livelock_window
    if fault is None:
        fault_desc = None
    elif callable(fault):
        # a bare callable cannot be rebuilt: its checkpoints never resume
        fault_desc = {"opaque": type(fault).__name__, "applications": attempt}
    else:
        fault_desc = fault_descriptor(*fault, attempt)
    descriptor = cell_descriptor(
        machine, spec.full_name, n_threads, scale,
        fault=fault_desc, max_cycles=max_cycles, livelock_window=window,
    )
    sim = header = None
    if resume_from is not None:
        try:
            _check_resume(resume_from, read_header(resume_from), descriptor)
            sim, header = resume_simulation(resume_from, spec=spec, bus=bus)
        except (CheckpointError, ConfigError) as exc:
            if not fresh_on_refusal:
                raise
            logger.warning(
                "ignoring checkpoint %s (running fresh): %s", resume_from, exc
            )
    hook = None
    if checkpoint is not None:
        hook = CheckpointHook(
            checkpoint, descriptor,
            CheckpointPolicy(every_cycles=checkpoint_every, on_fault=True),
            start_cycle=header["cycle"] if header is not None else 0,
        )
    if drain is not None:
        hook = DrainableHook(hook, drain)
    # an armed watchdog truncates (a flagged partial result); an unarmed
    # run raises on anything unexpected
    armed = max_cycles is not None or window is not None
    on_timeout = "truncate" if armed else "raise"
    if sim is not None:
        logger.info(
            "resuming %s from cycle %d (saved on %s)",
            resume_from, header["cycle"], header["reason"],
        )
        kernel = SimulationKernel.from_simulation(
            sim, max_cycles=max_cycles, livelock_window=window,
            on_timeout=on_timeout, checkpoint=hook,
        )
        return CellKernel(kernel, sim.machine, descriptor, header["cycle"])
    program = build_program(spec, n_threads, scale=scale)
    if callable(fault):
        program, machine = fault(program, machine)
    elif fault_desc is not None:
        program, machine = replay_fault(
            descriptor, fault_desc, program, machine, spec
        )
    kernel = SimulationKernel(
        machine, program, max_cycles=max_cycles, livelock_window=window,
        on_timeout=on_timeout, bus=bus, checkpoint=hook,
    )
    return CellKernel(kernel, machine, descriptor)


def _check_resume(path, header: dict, descriptor: dict) -> None:
    """The resume rule of :func:`open_cell`, for the checkpoint at
    ``path`` (``header`` is its header) and the cell ``descriptor``.

    ``max_cycles`` may be unset, at least the checkpoint's cycle, or at
    least the limit it was saved under (a cut checkpoint lies just past
    its own limit).  ``livelock_window`` may be unset, or no smaller
    than a saved one: without a window the engine keeps no livelock
    bookkeeping, and a livelock-cut run resumed under one would skip
    the check that fired.
    """
    saved = header["descriptor"]
    saved_max = saved.get("max_cycles")
    saved_window = saved.get("livelock_window")
    expected = dict(
        descriptor, max_cycles=saved_max, livelock_window=saved_window
    )
    if config_hash(expected) != header["config_hash"]:
        diffs = descriptor_diff(expected, saved)
        raise ConfigError(
            f"checkpoint {path} belongs to a different experiment than "
            "the supplied config; mismatched fields: "
            + ("; ".join(diffs) if diffs else "hash-only mismatch"),
            field=diffs[0].split(":", 1)[0] if diffs else None,
        )
    cycle, max_cycles = header["cycle"], descriptor["max_cycles"]
    if (max_cycles is not None and max_cycles < cycle
            and (saved_max is None or max_cycles < saved_max)):
        raise ConfigError(
            f"checkpoint {path} was saved at cycle {cycle}, past "
            f"max_cycles={max_cycles}: a fresh run would stop sooner",
            field="max_cycles",
        )
    window, reason = descriptor["livelock_window"], header["reason"]
    if window is not None and (
        saved_window is None or window < saved_window or reason == "livelock"
    ):
        raise ConfigError(
            f"checkpoint {path} was saved on {reason} under "
            f"livelock_window={saved_window}; under livelock_window="
            f"{window} a fresh run could stop sooner",
            field="livelock_window",
        )


def resume_cell(
    path: str | Path,
    spec: BenchmarkSpec | None = None,
    experiment: ExperimentConfig | None = None,
    **kwargs,
) -> CellKernel:
    """:func:`open_cell` continuing the checkpoint at ``path``, for
    ``repro stack --resume-from`` and ``Session.from_checkpoint``.

    Without ``experiment`` the cell is the checkpoint's own.  With one,
    it is the experiment's machine and scale at the checkpoint's thread
    count and fault, under the experiment's watchdog limits where it
    sets them (the saved ones elsewhere).  ``spec`` defaults to the
    suite benchmark the checkpoint names; ``kwargs`` go to
    :func:`open_cell` (checkpoint target, bus, drain).
    """
    saved = read_header(path)["descriptor"]
    n_threads = saved["n_threads"]
    if experiment is None:
        machine, scale = machine_from_dict(saved["machine"]), saved["scale"]
        run = RunConfig()
    else:
        machine = experiment.machine.with_cores(n_threads)
        scale, run = experiment.workload.scale, experiment.run
    fault, attempt = None, 1
    saved_fault = saved.get("fault")
    # an opaque fault cannot be rebuilt; left out, the identity check
    # names it
    if saved_fault is not None and "kind" in saved_fault:
        fault = (saved_fault["kind"], saved_fault.get("seed", 0))
        attempt = saved_fault.get("applications", 1)
    limits = RunConfig(
        max_cycles=(
            run.max_cycles if run.max_cycles is not None
            else saved.get("max_cycles")
        ),
        livelock_window=(
            run.livelock_window if run.livelock_window is not None
            else saved.get("livelock_window")
        ),
    )
    return open_cell(
        machine, spec or by_name(saved["benchmark"]), n_threads, scale,
        limits, fault=fault, attempt=attempt, resume_from=path, **kwargs,
    )


# ----------------------------------------------------------------------
# hardened batch runner
# ----------------------------------------------------------------------

CELL_OK = "ok"
CELL_FAILED = "failed"
#: cell skipped because the journal says it already succeeded
CELL_RESUMED = "resumed"
#: error type of a cell quarantined after repeated lease expiries
POISON_CELL = "PoisonCellError"


@dataclass(frozen=True)
class CellResult:
    """What a sweep keeps of a finished ok cell.

    The stack, the per-thread accounting behind it, ``Tp`` and the
    instruction counts behind Section 6's overhead proxy, without the
    simulated machine or the runs' threads: plain data that the work
    queue ships as JSON (:mod:`repro.parallel.transport`) and that
    compares ``==`` across that round trip.  Serial and queued sweeps
    and the figure cache keep this; :meth:`BatchRunner.run_cell` still
    returns the live :class:`ExperimentResult`.
    """

    stack: SpeedupStack
    report: AccountingReport
    total_cycles: int
    truncated: bool
    mt_instrs: int
    mt_spin_instrs: int
    #: instructions of the reference run (0 without one)
    st_instrs: int

    @classmethod
    def of(cls, result: ExperimentResult) -> "CellResult":
        st_result = result.st_result
        return cls(
            stack=result.stack,
            report=result.report,
            total_cycles=result.total_cycles,
            truncated=result.truncated,
            mt_instrs=result.mt_result.total_instrs,
            mt_spin_instrs=result.mt_result.total_spin_instrs,
            st_instrs=st_result.total_instrs if st_result is not None else 0,
        )

    @property
    def parallelization_overhead(self) -> float | None:
        """Fractional extra instructions of the MT run over the ST run,
        after subtracting spin-loop instructions (Section 6); None
        without a reference run."""
        if self.st_instrs == 0:
            return None
        return (self.mt_instrs - self.mt_spin_instrs - self.st_instrs) / (
            self.st_instrs
        )


@dataclass
class CellOutcome:
    """What happened to one (benchmark, N) cell of a sweep.

    ``result`` is the live :class:`ExperimentResult` that
    :meth:`BatchRunner.run_cell` returns, or the :class:`CellResult` a
    sweep keeps; None for a failed or resumed cell.
    """

    name: str
    n_threads: int
    status: str
    attempts: int = 0
    result: ExperimentResult | CellResult | None = None
    error: str | None = None
    error_type: str | None = None
    #: engine post-mortem (plain dict) when the failure carried one
    snapshot: dict | None = None
    #: harvested ``sim.*`` metrics (only when collection is enabled)
    metrics: dict | None = None

    @property
    def key(self) -> str:
        return f"{self.name}:{self.n_threads}"


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
    ``sim.*`` metrics, ``runtime.cells_ok`` / ``runtime.cells_failed``,
    and ``runtime.retries``, its in-cell attempts past the first.  A
    quarantined poison cell adds no retries: its ``attempts`` count
    lease expiries."""
    if metrics is None:
        return
    if outcome.status == CELL_OK:
        if outcome.metrics is not None:
            metrics.absorb(outcome.metrics)
        metrics.counter("runtime.cells_ok").inc()
    else:
        metrics.counter("runtime.cells_failed").inc()
    if outcome.attempts > 1 and outcome.error_type != POISON_CELL:
        metrics.counter("runtime.retries").inc(outcome.attempts - 1)


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
    string from :data:`~repro.robustness.faults.FAULT_KINDS`, or a
    ``(kind, seed)`` pair, resolved via
    :func:`~repro.robustness.faults.make_fault` when the cell runs
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
        #: queue workers re-point this attribute per cell.
        self.spans = spans
        self._machine_factory = machine_factory or (
            lambda n_threads: MachineConfig(n_cores=n_threads)
        )
        self._sleep = sleep
        self._references = ReferenceMemo()
        #: checkpoint cycle the last cell run resumed from (None: it
        #: ran from cycle 0); queue workers put it in the done record
        self.resumed_from: int | None = None

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
        # a kind string, (kind, seed) (how the parallel layer ships
        # seeded faults) or an opaque callable
        fault = self.fault_plan.get(key)
        if isinstance(fault, str):
            fault = (fault, 0)
        if fault is not None and bus is not None:
            kind = (
                fault[0] if isinstance(fault, tuple) else type(fault).__name__
            )
            bus.emit(FaultArmed(key, kind))
        self.resumed_from = None
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
                if delay > 0:
                    logger.info(
                        "retrying %s (attempt %d/%d) after %.2fs backoff",
                        key, attempts, max_attempts, delay,
                    )
                    self._sleep(delay)
            elif bus is not None:
                bus.emit(CellStarted(key, attempts))
            try:
                result = self._run_once(spec, n_threads, fault, attempts)
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
        self, spec: BenchmarkSpec, n_threads: int, fault, attempt: int
    ) -> ExperimentResult:
        spans = self.spans
        policy = self.policy
        with maybe_span(spans, "trace.decode", cat="cell"):
            cell = self._open_cell(spec, n_threads, fault, attempt)
        if cell.resumed_from is not None:
            self.resumed_from = cell.resumed_from
        with maybe_span(spans, "st.reference", cat="cell"):
            st_result = self._references.get(
                spec, self.scale, cell.machine,
                policy.max_cycles, policy.livelock_window,
            )
        result = finish_experiment(
            spec.full_name, cell.kernel, st_result, spans
        )
        hook = cell.kernel.checkpoint
        if hook is not None and hook.path is not None and not result.truncated:
            # clean completion: the checkpoint has nothing left to
            # resume (truncated runs keep theirs for inspect/resume
            # under raised watchdog limits)
            hook.path.unlink(missing_ok=True)
        return result

    def _open_cell(
        self, spec: BenchmarkSpec, n_threads: int, fault, attempt: int
    ) -> CellKernel:
        """One attempt's kernel.  With a ``checkpoint_dir`` the cell
        saves to ``<dir>/<benchmark>_n<threads>.ckpt`` and resumes that
        file when it is there; a checkpoint the resume rule refuses
        (another attempt or config, or tighter limits) is logged and
        the cell runs fresh."""
        policy = self.policy
        path = None
        if policy.checkpoint_dir is not None:
            path = (
                Path(policy.checkpoint_dir)
                / f"{spec.full_name}_n{n_threads}.ckpt"
            )
        return open_cell(
            self._machine_factory(n_threads), spec, n_threads, self.scale,
            policy,
            fault=fault, attempt=attempt,
            checkpoint=path, checkpoint_every=policy.checkpoint_every,
            resume_from=path if path is not None and path.exists() else None,
            fresh_on_refusal=True,
            bus=self.bus, drain=self.drain,
        )

    # ------------------------------------------------------------------
    # the sweep
    # ------------------------------------------------------------------

    def run_sweep(
        self,
        cells: list[tuple[BenchmarkSpec, int]],
        resume: bool = False,
    ) -> SweepReport:
        """Run every cell, journaling after each one.

        Each ok outcome keeps its :class:`CellResult` (stack, report
        and run totals), the record a queued sweep returns too; call
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
            if outcome.result is not None:
                # its stack is built: nothing reads this cell's machine
                # again, so the sweep keeps only its finished-cell record
                outcome.result = CellResult.of(outcome.result)
            record_outcome(
                report, self.journal, outcome, self.metrics, self.spans
            )
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
