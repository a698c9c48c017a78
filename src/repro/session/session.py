"""Interactive simulation sessions: step, peek, perturb, continue.

The paper's whole point is *diagnosis* — a speedup stack tells you
which interference component to chase next — which calls for
poke-and-observe loops, not just batch sweeps.  :class:`Session` wraps
a :class:`~repro.session.kernel.SimulationKernel` into the
notebook-usable object the ROADMAP describes::

    s = Session.from_config("cholesky", 4, scale=0.2)
    s.step(50_000)                  # advance ~50k simulated cycles
    print(s.render_stack())         # the partial speedup stack so far
    s.inject("llc_flush")           # perturb, then keep going
    s.step(50_000)
    s.run()                         # to completion
    print(s.render_stack())

Determinism contract
--------------------

* **Stepping is free.**  ``step(N)`` then ``step(M)`` is byte-identical
  to ``step(N+M)`` and to the one-shot batch run (pausing never
  mutates state; see ``Simulation.run``'s ``pause_at``).
  ``peek_stack`` is a pure read.
* **Snapshots are free.**  ``snapshot()`` → build a fresh session →
  ``load()`` continues byte-identically.
* **Perturbations fork the experiment.**  ``inject``/``swap`` are
  deterministic — replaying the same script gives the same numbers —
  but the perturbed run no longer corresponds to any
  :class:`~repro.config.ExperimentConfig`, so the session stops
  offering the actual-speedup reference (``stack()`` comes back
  estimate-only) and refuses to :meth:`save` checkpoint files that a
  config-hash-guarded resume would wrongly trust.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any

from repro.accounting.report import render_partial_stack
from repro.components.registry import resolve
from repro.config import ExperimentConfig, RunConfig, load_config
from repro.core.rendering import render_stack
from repro.core.stack import SpeedupStack, build_stack
from repro.errors import ConfigError
from repro.observability.events import EventBus
from repro.osmodel.thread import FINISHED
from repro.session.kernel import SimulationKernel
from repro.sim.engine import SimResult
from repro.workloads.spec import BenchmarkSpec
from repro.workloads.suite import by_name

#: mid-run fault injections offered by :meth:`Session.inject`
PERTURBATION_KINDS = ("llc_flush", "mem_spike")

#: registry kinds :meth:`Session.swap` can hot-swap mid-run
SWAPPABLE_KINDS = ("spin_detector",)


def _as_experiment(experiment) -> ExperimentConfig:
    if experiment is None:
        return ExperimentConfig()
    if isinstance(experiment, (str, Path)):
        return load_config(experiment)
    return experiment


class Session:
    """One interactive simulated run (see the module docstring)."""

    def __init__(
        self,
        kernel: SimulationKernel,
        spec: BenchmarkSpec,
        scale: float,
        *,
        experiment: ExperimentConfig | None = None,
        bus=None,
        descriptor: dict[str, Any] | None = None,
    ) -> None:
        self.kernel = kernel
        self.spec = spec
        self.scale = scale
        self.experiment = experiment
        #: observability EventBus when the session was built with
        #: ``events=True``; all events land in :attr:`events`
        self.bus = bus
        #: checkpoint-descriptor identity of this run (None once the
        #: session can no longer be described by one — see perturbations)
        self.descriptor = descriptor
        #: recorded events (only populated with ``events=True``)
        self.events: list = []
        #: applied perturbations as ``"kind@cycle"`` strings, in order
        self.perturbations: list[str] = []
        # a local import: the runner imports this package (its kernel)
        from repro.experiments.runner import ReferenceMemo

        self._references = ReferenceMemo()
        if bus is not None:
            bus.subscribe_all(self.events.append)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_config(
        cls,
        benchmark: str,
        n_threads: int | None = None,
        *,
        experiment: ExperimentConfig | str | Path | None = None,
        scale: float | None = None,
        max_cycles: int | None = None,
        livelock_window: int | None = None,
        events: bool = False,
    ) -> "Session":
        """Fresh session for one (benchmark, N) cell.

        ``experiment`` is an :class:`~repro.config.ExperimentConfig` or
        a path to one (TOML/JSON); explicit keyword overrides win over
        its values, exactly like the CLI's ``--config`` flags.
        ``events=True`` attaches an observability bus whose events
        accumulate on :attr:`Session.events`.
        """
        from repro.experiments.runner import open_cell

        experiment = _as_experiment(experiment)
        workload, run = experiment.workload, experiment.run
        if scale is not None:
            workload = replace(workload, scale=scale)
        if max_cycles is not None:
            run = replace(run, max_cycles=max_cycles)
        if livelock_window is not None:
            run = replace(run, livelock_window=livelock_window)
        experiment = replace(experiment, workload=workload, run=run)
        if n_threads is None:
            n_threads = workload.thread_counts[0]
        spec = by_name(benchmark)
        bus = EventBus() if events else None
        cell = open_cell(
            experiment.machine.with_cores(n_threads), spec, n_threads,
            workload.scale, run, bus=bus,
        )
        return cls(
            cell.kernel, spec, workload.scale,
            experiment=experiment, bus=bus, descriptor=cell.descriptor,
        )

    @classmethod
    def from_checkpoint(
        cls,
        path: str | Path,
        *,
        experiment: ExperimentConfig | str | Path | None = None,
        events: bool = False,
    ) -> "Session":
        """Session continuing a checkpointed run.

        Without ``experiment`` the run resumes under exactly the
        parameters recorded in the checkpoint's descriptor.  With one,
        the checkpoint must be that experiment's cell — a mismatch
        raises :class:`~repro.errors.ConfigError` naming every
        differing field (not just the opaque hash) — and the config's
        explicit watchdog limits override the saved ones (the way to
        continue a max-cycles-truncated run under a raised budget); a
        limit tighter than the checkpoint's own raises
        :class:`~repro.errors.ConfigError` naming it.  See
        :func:`~repro.experiments.runner.resume_cell`.
        """
        from repro.experiments.runner import resume_cell

        if experiment is not None:
            experiment = _as_experiment(experiment)
        bus = EventBus() if events else None
        cell = resume_cell(path, experiment=experiment, bus=bus)
        descriptor = cell.descriptor
        return cls(
            cell.kernel, by_name(descriptor["benchmark"]),
            descriptor["scale"],
            experiment=experiment, bus=bus, descriptor=descriptor,
        )

    # ------------------------------------------------------------------
    # stepping
    # ------------------------------------------------------------------

    @property
    def cycle(self) -> int:
        """Frontier simulated cycle."""
        return self.kernel.cycle

    @property
    def done(self) -> bool:
        return self.kernel.done

    @property
    def n_threads(self) -> int:
        return self.kernel.program.n_threads

    @property
    def result(self) -> SimResult | None:
        return self.kernel.result

    def step(self, cycles: int | None = 10_000) -> "Session":
        """Advance ~``cycles`` simulated cycles (None = to completion);
        returns the session for chaining."""
        self.kernel.step(cycles)
        return self

    def run(self) -> "Session":
        """Run to completion."""
        self.kernel.finish()
        return self

    # ------------------------------------------------------------------
    # observation
    # ------------------------------------------------------------------

    def peek_stack(self) -> SpeedupStack | None:
        """The speedup stack *so far* (None without accounting).

        Mid-run, unfinished threads count as ending at the frontier
        cycle — the same partial-run view ``repro inspect`` derives
        from a checkpoint.  Pure: peeking never perturbs the run.
        """
        report = self.kernel.peek_report()
        if report is None:
            return None
        return build_stack(self.spec.full_name, report)

    def stack(self) -> SpeedupStack:
        """The final speedup stack (running to completion if needed).

        On an unperturbed session the single-threaded reference run is
        measured (memoized) so the stack carries the actual speedup,
        byte-identical to ``run_experiment``; a perturbed run matches
        no measurable reference, so its stack is estimate-only.
        """
        from repro.experiments.runner import finish_experiment

        kernel = self.kernel
        st_result = None
        if not self.perturbations:
            st_result = self._references.get(
                self.spec, self.scale, kernel.machine,
                kernel.max_cycles, kernel.livelock_window,
            )
        return finish_experiment(self.spec.full_name, kernel, st_result).stack

    def render_stack(self, width: int = 40) -> str:
        """Rendered stack: partial (with provenance) mid-run, final
        once done — the formatter shared with ``repro inspect``."""
        if self.done:
            return render_stack(self.stack(), width=width)
        stack = self.peek_stack()
        if stack is None:
            raise ConfigError(
                "session carries no accounting hardware; no stack to render"
            )
        return render_partial_stack(stack, cycle=self.cycle, reason="paused")

    def counters(self) -> dict:
        """Live accountant counter snapshot (the raw per-core counters
        behind the stack components); empty without accounting."""
        accountant = self.kernel.accountant
        if not accountant.enabled:
            return {}
        return accountant.snapshot()

    def status(self) -> dict:
        """Machine-readable progress summary."""
        sim = self.kernel.sim
        finished = sum(1 for t in sim.threads if t.state == FINISHED)
        return {
            "benchmark": self.spec.full_name,
            "n_threads": self.n_threads,
            "cycle": self.cycle,
            "done": self.done,
            "threads_finished": finished,
            "instrs": sum(t.instrs for t in sim.threads),
            "perturbations": list(self.perturbations),
        }

    # ------------------------------------------------------------------
    # snapshot / restore
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """The full engine state tree (in-memory; never mutates)."""
        return self.kernel.snapshot()

    def load(self, state: dict) -> "Session":
        """Restore a :meth:`snapshot` tree onto this *fresh* session."""
        self.kernel.load(state)
        return self

    def save(self, path: str | Path, *, reason: str = "manual") -> dict:
        """Write a standard checkpoint file resumable by
        ``Session.from_checkpoint`` / ``repro stack --resume-from``."""
        if self.perturbations:
            raise ConfigError(
                "a perturbed session no longer matches its config "
                f"descriptor (applied: {', '.join(self.perturbations)}); "
                "refusing to save a checkpoint that a config-hash-guarded "
                "resume would wrongly trust"
            )
        if self.descriptor is None:
            raise ConfigError(
                "session has no cell descriptor; cannot save a resumable "
                "checkpoint"
            )
        return self.kernel.save(path, self.descriptor, reason=reason)

    # ------------------------------------------------------------------
    # perturbations
    # ------------------------------------------------------------------

    def _pre_perturb(self, what: str) -> None:
        # Check the live thread states too: a load() of an end-of-run
        # snapshot leaves the kernel's result unset, but the run is
        # still over — there is nothing left to perturb.
        if self.done or all(
            t.state == FINISHED for t in self.kernel.sim.threads
        ):
            raise ConfigError(
                f"cannot {what}: the run has already completed"
            )

    def inject(self, kind: str, *, factor: float = 2.0) -> "Session":
        """Inject a mid-run fault at the current step boundary.

        * ``"llc_flush"`` — invalidate every LLC line (cold-cache
          shock; timing-only, the coherent values live elsewhere);
        * ``"mem_spike"`` — scale DRAM timing (``t_cas``/``t_rcd``/
          ``t_rp``/``bus_cycles``) by ``factor``, preserving bank and
          row-buffer state (the live analogue of the pre-run
          ``mem-spike`` fault).

        Deterministic but diverging: see the module docstring.
        """
        self._pre_perturb(f"inject {kind!r}")
        chip = self.kernel.sim.chip
        if kind == "llc_flush":
            chip.llc.reset()
        elif kind == "mem_spike":
            memory = chip.memory
            cfg = memory.config
            memory.config = replace(
                cfg,
                t_cas=max(1, int(cfg.t_cas * factor)),
                t_rcd=max(1, int(cfg.t_rcd * factor)),
                t_rp=max(1, int(cfg.t_rp * factor)),
                bus_cycles=max(1, int(cfg.bus_cycles * factor)),
            )
        else:
            raise ConfigError(
                f"unknown perturbation {kind!r}",
                field="inject", choices=PERTURBATION_KINDS,
            )
        self.perturbations.append(f"{kind}@{self.cycle}")
        return self

    def swap(self, kind: str, name: str) -> "Session":
        """Hot-swap a registry component at the current step boundary.

        The one swappable kind is ``"spin_detector"``:
        ``swap("spin_detector", name)`` replaces every per-core spin
        detector, folding each old detector's accumulated spin cycles
        into the accountant's truncated-spin counter so the spinning
        component stays continuous across the swap (the new detectors
        start cold on in-flight episodes).
        """
        self._pre_perturb(f"swap {kind!r}")
        if kind == "spin_detector":
            accountant = self.kernel.accountant
            if not accountant.enabled:
                raise ConfigError(
                    "session carries no accounting hardware; there are no "
                    "spin detectors to swap"
                )
            factory = resolve("spin_detector", name)
            config = self.kernel.machine.accounting
            for cid, old in enumerate(accountant.spin_detectors):
                accountant.spin_truncated[cid] += old.spin_cycles
                accountant.spin_detectors[cid] = factory(config)
        else:
            raise ConfigError(
                f"cannot hot-swap component kind {kind!r}",
                field="swap", choices=SWAPPABLE_KINDS,
            )
        self.perturbations.append(f"{kind}={name}@{self.cycle}")
        return self

    def recored(self, n_threads: int) -> "Session":
        """A *fresh* session for the same experiment re-cored to
        ``n_threads``: its machine at ``n_threads`` cores, its scale,
        and this session's watchdog limits.

        Re-coring changes the program itself (one thread per core), so
        unlike :meth:`inject`/:meth:`swap` it cannot be applied to the
        running simulation — it starts the experiment's (benchmark, N')
        cell from cycle zero.
        """
        from repro.experiments.runner import open_cell

        if self.experiment is None:
            raise ConfigError(
                "recored() needs a config-built session (from_config, or "
                "from_checkpoint with an experiment supplied)"
            )
        scale = self.experiment.workload.scale
        cell = open_cell(
            self.experiment.machine.with_cores(n_threads),
            self.spec, n_threads, scale,
            RunConfig(
                max_cycles=self.kernel.max_cycles,
                livelock_window=self.kernel.livelock_window,
            ),
        )
        return Session(
            cell.kernel, self.spec, scale,
            experiment=self.experiment, descriptor=cell.descriptor,
        )

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        sim = self.kernel.sim
        finished = sum(1 for t in sim.threads if t.state == FINISHED)
        if self.done:
            result = self.kernel.result
            state = (
                f"truncated({result.truncation_reason})"
                if result is not None and result.truncated else "done"
            )
        else:
            state = "running"
        perturbed = (
            f", {len(self.perturbations)} perturbation(s)"
            if self.perturbations else ""
        )
        return (
            f"<Session {self.spec.full_name} n={self.n_threads} "
            f"cycle={self.cycle:,} {state} "
            f"({finished}/{self.n_threads} threads finished){perturbed}>"
        )
