"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list``      — the benchmark suite with its Figure 6 metadata
* ``stack``     — speedup stack (+ optimization advice) for one benchmark
* ``curve``     — speedup vs. thread count
* ``tree``      — the Figure 6 classification tree
* ``regions``   — per-barrier-region stacks (Section 4.6 refinement)
* ``timeline``  — scheduling timeline (optionally Chrome trace JSON)
* ``cpi``       — per-core CPI stacks of a run
* ``sync``      — per-lock contention profile
* ``cost``      — accounting hardware cost (Section 4.7)
* ``run-trace`` — simulate a text op-trace file
* ``trace``     — Chrome/Perfetto trace of one cell (observability bus)
* ``sweep``     — hardened suite sweep (journal, retries, fault injection)
* ``worker``    — one durable-work-queue worker (``sweep --queue-dir``)
* ``bench``     — the overhead and ``--jobs`` speedup gates CI runs
* ``report``    — self-contained HTML health report of a sweep
* ``inspect``   — partial speedup stack of an engine checkpoint file

``stack``, ``sweep`` and ``worker`` drain gracefully on SIGINT/SIGTERM:
in-flight work is finished or checkpointed, journals/leases are
finalized, and the process exits with a distinct code (95 for
interrupted runs, 75 for drained workers — see
``repro.robustness.drain``).

Global flags: ``-v``/``-vv`` raise the stdlib-logging verbosity to
INFO/DEBUG, ``--log-json`` switches stderr logging to one JSON object
per record (they go before the subcommand, e.g. ``repro -v sweep ...``),
``--version`` prints the package version.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import math
import os
import sys
from dataclasses import replace

from repro._version import repro_version
from repro.accounting.hardware_cost import estimate_cost
from repro.checkpoint import inspect_checkpoint, read_header
from repro.components import available, kinds
from repro.config import (
    MB,
    ON_ERROR_MODES,
    ExperimentConfig,
    MachineConfig,
    dumps_toml,
    load_config,
)
from repro.core.cpi import cpi_stacks, render_cpi_stacks
from repro.core.regions import run_region_experiment
from repro.core.rendering import (
    render_speedup_curve,
    render_stack,
    render_stack_series,
    render_tree,
)
from repro.core.whatif import advice
from repro.errors import (
    CheckpointError,
    ConfigError,
    ExperimentError,
    ReproError,
    TraceParseError,
)
from repro.experiments.bench import (
    gate_verdicts,
    render_bench,
    run_bench,
    write_bench,
)
from repro.experiments.runner import (
    BatchRunner,
    ReferenceMemo,
    finish_experiment,
    open_cell,
    resume_cell,
)
from repro.experiments.scenarios import (
    ExperimentCache,
    classification_tree,
    speedup_curves,
)
from repro.observability import (
    MetricsRegistry,
    ProgressReporter,
    SpanRecorder,
    TimelineRecorder,
    interval_sums,
    spans_to_trace_events,
    trace_cell,
    write_report,
)
from repro.observability.events import EventBus
from repro.parallel import cells_from_sweep, run_parallel_sweep
from repro.queue import run_queue_sweep, run_worker
from repro.robustness.drain import (
    EXIT_DRAINED,
    EXIT_INTERRUPTED,
    DrainController,
    DrainRequested,
)
from repro.robustness.faults import FAULT_KINDS, make_fault
from repro.robustness.journal import SweepJournal
from repro.sim.engine import Simulation
from repro.sync.profile import render_sync_profile
from repro.workloads.spec import BenchmarkSpec, build_program
from repro.workloads.suite import SUITE, by_name, sweep_cells
from repro.workloads.tracefile import load_trace

logger = logging.getLogger(__name__)


def _int_at_least(text: str, minimum: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an integer, got {text!r}"
        ) from None
    if value < minimum:
        raise argparse.ArgumentTypeError(
            f"must be >= {minimum}, got {value}"
        )
    return value


def _positive_int(text: str) -> int:
    """``type=`` for counts, sizes and cycle budgets: an integer >= 1."""
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    """``type=`` for ``--retries``: an integer >= 0."""
    return _int_at_least(text, 0)


def _positive_ints(text: str) -> tuple[int, ...]:
    """``type=`` for comma-separated thread counts, each >= 1."""
    return tuple(_positive_int(part) for part in text.split(","))


def _finite_float(text: str, positive: bool) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a number, got {text!r}"
        ) from None
    if not math.isfinite(value) or value < 0 or positive and value == 0:
        raise argparse.ArgumentTypeError(
            f"must be a finite number {'> 0' if positive else '>= 0'}, "
            f"got {text}"
        )
    return value


def _positive_float(text: str) -> float:
    """``type=`` for ``--scale`` and ``--llc-mb``: finite and > 0."""
    return _finite_float(text, positive=True)


def _non_negative_float(text: str) -> float:
    """``type=`` for backoffs and overhead budgets: finite and >= 0."""
    return _finite_float(text, positive=False)


def _speedup_gate(text: str) -> tuple[int, float]:
    """``type=`` for ``--min-warm-speedup JOBS:FACTOR``."""
    jobs, colon, factor = text.partition(":")
    if not colon:
        raise argparse.ArgumentTypeError(
            f"expected JOBS:FACTOR, got {text!r}"
        )
    return _positive_int(jobs), _positive_float(factor)


def _machine(args) -> MachineConfig:
    machine = MachineConfig(n_cores=args.threads)
    if getattr(args, "llc_mb", None):
        machine = machine.with_llc_size(int(args.llc_mb * MB))
    return machine


def _load_experiment(args) -> ExperimentConfig:
    """The experiment behind ``--config FILE`` (defaults without one).

    Commands taking ``--config`` declare their overlapping flags with
    ``default=None`` so an *explicitly passed* flag always overrides the
    file, while an absent flag falls back to the file's value (and the
    file's absence falls back to the built-in defaults).
    """
    path = getattr(args, "config", None)
    if path is None:
        return ExperimentConfig()
    return load_config(path)


def cmd_list(args) -> int:
    print(f"{'benchmark':<24s}{'suite':<10s}{'paper S16':>10s}  "
          f"{'class':<10s} expected bottlenecks")
    for spec in SUITE:
        print(
            f"{spec.full_name:<24s}{spec.suite:<10s}"
            f"{spec.target_speedup_16:>10.2f}  {spec.expected_class:<10s}"
            f"{', '.join(spec.expected_top) or '-'}"
        )
    return 0


def _report_interrupted(exc: DrainRequested) -> int:
    """Uniform CLI surface for a graceful drain (exit code 95)."""
    saved = "; checkpoint saved — resume to continue" if exc.saved else ""
    print(f"interrupted ({exc.reason}){saved}", file=sys.stderr)
    return EXIT_INTERRUPTED


def cmd_stack(args) -> int:
    spec = by_name(args.benchmark)
    experiment = _load_experiment(args)
    if args.checkpoint_every is not None and not (
        args.checkpoint or args.resume_from
    ):
        print("error: --checkpoint-every needs --checkpoint (or "
              "--resume-from, which re-saves in place)", file=sys.stderr)
        return 2
    drain = DrainController().install()
    try:
        if args.resume_from:
            return _stack_resume(args, spec, experiment, drain)
        return _stack_run(args, spec, experiment, drain)
    except DrainRequested as exc:
        return _report_interrupted(exc)
    finally:
        drain.uninstall()


def _stack_run(args, spec, experiment, drain) -> int:
    n_threads = (
        args.threads if args.threads is not None
        else experiment.workload.thread_counts[0]
    )
    scale = (
        args.scale if args.scale is not None else experiment.workload.scale
    )
    machine = experiment.machine.with_cores(n_threads)
    if getattr(args, "llc_mb", None):
        machine = machine.with_llc_size(int(args.llc_mb * MB))
    # the drain turns the checkpoint poll into the SIGINT/SIGTERM drain
    # point (saving first when --checkpoint)
    cell = open_cell(
        machine, spec, n_threads, scale, experiment.run,
        checkpoint=args.checkpoint, checkpoint_every=args.checkpoint_every,
        drain=drain,
    )
    _finish_cell(spec, cell)
    hook = cell.kernel.checkpoint
    if hook.n_saves:
        print()
        print(f"checkpoint: {hook.n_saves} save(s), last at cycle "
              f"{hook.last_header['cycle']} -> {hook.path}")
    return 0


def _stack_resume(args, spec, experiment, drain) -> int:
    """``repro stack --resume-from CKPT``: continue a checkpointed run
    to completion and render the final stack.  With ``--config`` the
    checkpoint must be that experiment's cell, under limits no tighter
    than its own (the way to finish a max-cycles-cut run is a config
    with a raised budget); without one it runs as saved."""
    try:
        header = read_header(args.resume_from)
        benchmark = header["descriptor"]["benchmark"]
        if benchmark != spec.full_name:
            print(f"error: checkpoint {args.resume_from} belongs to "
                  f"{benchmark}, not {spec.full_name}", file=sys.stderr)
            return 2
        # --checkpoint-every alone re-saves in place
        target = args.checkpoint or (
            args.resume_from if args.checkpoint_every is not None else None
        )
        cell = resume_cell(
            args.resume_from, spec,
            experiment if args.config is not None else None,
            checkpoint=target, checkpoint_every=args.checkpoint_every,
            drain=drain,
        )
    except (CheckpointError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not cell.kernel.accountant.enabled:
        print("error: checkpoint carries no accounting state; cannot "
              "build a speedup stack from it", file=sys.stderr)
        return 2
    print(f"resuming {spec.full_name} n={cell.kernel.program.n_threads} "
          f"from cycle {header['cycle']} (saved on {header['reason']})")
    _finish_cell(spec, cell)
    return 0


def _finish_cell(spec, cell) -> None:
    """Measure the cell's ``Ts``, finish its kernel, print the stack."""
    kernel = cell.kernel
    st_result = ReferenceMemo().get(
        spec, cell.descriptor["scale"], cell.machine,
        kernel.max_cycles, kernel.livelock_window,
    )
    _print_stack(finish_experiment(spec.full_name, kernel, st_result).stack)


def _print_stack(stack) -> None:
    print(render_stack(stack))
    print()
    print(advice(stack))


def cmd_inspect(args) -> int:
    try:
        print(inspect_checkpoint(args.path).render())
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_session(args) -> int:
    """``repro session``: an interactive (or ``--run``-scripted) shell
    over :class:`~repro.session.Session` — step, peek at the partial
    stack, perturb, continue."""
    from repro.session import Session, SessionShell

    try:
        if args.from_checkpoint:
            session = Session.from_checkpoint(
                args.from_checkpoint,
                experiment=args.config,
                events=args.events,
            )
        else:
            if not args.benchmark:
                print("error: a benchmark (or --from-checkpoint) is "
                      "required", file=sys.stderr)
                return 2
            session = Session.from_config(
                args.benchmark, args.threads,
                experiment=args.config,
                scale=args.scale,
                max_cycles=args.max_cycles,
                livelock_window=args.livelock_window,
                events=args.events,
            )
    except (ReproError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    shell = SessionShell(session)
    if args.run:
        return shell.run_script(args.run)
    return shell.interact()


def cmd_curve(args) -> int:
    cache = ExperimentCache(scale=args.scale)
    curves = speedup_curves(cache, benchmarks=(args.benchmark,))
    print(render_speedup_curve(curves))
    return 0


def cmd_tree(args) -> int:
    cache = ExperimentCache(scale=args.scale)
    tree = classification_tree(cache)
    print(render_tree(tree))
    counts = tree.dominant_component_counts()
    print()
    print("dominant delimiters:",
          ", ".join(f"{k}: {v}" for k, v in sorted(counts.items())))
    return 0


def cmd_regions(args) -> int:
    spec = by_name(args.benchmark)
    machine = _machine(args)
    result = run_region_experiment(
        machine, build_program(spec, args.threads, scale=args.scale),
        name=spec.full_name,
    )
    if not result.stacks:
        print("no barriers -> no regions; try a phased benchmark "
              "(lud, bfs, needle, fft, ...)")
        return 1
    print(render_stack_series(
        result.stacks, title=f"region stacks: {spec.full_name}"
    ))
    return 0


def cmd_timeline(args) -> int:
    spec = by_name(args.benchmark)
    machine = _machine(args)
    bus = EventBus()
    recorder = TimelineRecorder().attach(bus)
    Simulation(
        machine, build_program(spec, args.threads, scale=args.scale),
        bus=bus,
    ).run()
    print(recorder.render_timeline(width=args.width))
    print("core utilization:",
          " ".join(f"{u:.0%}" for u in recorder.core_utilization()))
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(recorder.to_chrome_trace())
        print(f"chrome trace written to {args.out}")
    return 0


def cmd_cpi(args) -> int:
    spec = by_name(args.benchmark)
    machine = _machine(args)
    result = Simulation(
        machine, build_program(spec, args.threads, scale=args.scale)
    ).run()
    print(render_cpi_stacks(cpi_stacks(result)))
    return 0


def cmd_sync(args) -> int:
    spec = by_name(args.benchmark)
    machine = _machine(args)
    result = Simulation(
        machine, build_program(spec, args.threads, scale=args.scale)
    ).run()
    print(render_sync_profile(result))
    return 0


def cmd_cost(args) -> int:
    cost = estimate_cost(MachineConfig(n_cores=args.threads))
    print(f"interference accounting: {cost.interference_bytes_per_core} B/core")
    print(f"spin load table:         {cost.spin_table_bytes} B/core")
    print(f"per core:                {cost.per_core_kb:.2f} KB")
    print(f"{args.threads}-core total: {cost.total_kb:14.2f} KB")
    return 0


def cmd_run_trace(args) -> int:
    try:
        program = load_trace(args.path)
    except TraceParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read trace {args.path}: {exc}", file=sys.stderr)
        return 2
    machine = MachineConfig(n_cores=args.threads or program.n_threads)
    recorder = bus = None
    if args.timeline:
        bus = EventBus()
        recorder = TimelineRecorder().attach(bus)
    result = Simulation(machine, program, bus=bus).run(
        max_cycles=args.max_cycles,
        on_timeout="truncate" if args.max_cycles is not None else "raise",
    )
    truncated = " (TRUNCATED at max-cycles)" if result.truncated else ""
    print(f"{program.n_threads} threads on {machine.n_cores} cores: "
          f"{result.total_cycles} cycles, {result.total_instrs} "
          f"instructions{truncated}")
    if recorder is not None:
        print(recorder.render_timeline())
    return 0


def cmd_trace(args) -> int:
    # harness spans always ride along as an extra track — the cell is
    # re-simulated anyway, so there is no baseline run to perturb
    spans = SpanRecorder()
    result, recorder = trace_cell(
        args.benchmark, args.threads, scale=args.scale,
        max_cycles=args.max_cycles, spans=spans,
    )
    sums = interval_sums(recorder)
    speedup = result.stack.actual_speedup
    doc = json.loads(recorder.to_chrome_trace(metadata={
        "benchmark": args.benchmark,
        "n_threads": args.threads,
        "scale": args.scale,
        "total_cycles": recorder.total_cycles,
        "actual_speedup": speedup,
    }))
    doc["traceEvents"].extend(spans_to_trace_events(spans.to_dicts()))
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
    n_intervals = (
        len(recorder.run_intervals) + len(recorder.spin_segments)
        + len(recorder.yield_intervals) + len(recorder.miss_intervals)
    )
    truncated = " (TRUNCATED)" if recorder.truncated else ""
    speedup_txt = f"{speedup:.2f}" if speedup is not None else "n/a"
    print(f"{args.benchmark}:{args.threads}: {recorder.total_cycles} "
          f"cycles, speedup {speedup_txt}, {n_intervals} intervals on "
          f"{recorder.n_cores} cores{truncated}")
    print(f"  spin {sum(sums['spin_cycles_by_thread'].values())} cy, "
          f"yield {sum(sums['yield_cycles_by_thread'].values())} cy, "
          f"memory interference "
          f"{sum(sums['interference_by_core'].values())} cy")
    print(f"chrome trace written to {args.out} "
          f"(load in chrome://tracing or ui.perfetto.dev; "
          f"{len(spans)} harness spans on the span track)")
    return 0


def _parse_injections(
    specs: list[str] | None, cells: list[tuple[BenchmarkSpec, int]]
) -> dict[str, str]:
    """``--inject KIND@BENCH:N`` -> fault plan {cell key: fault kind}.

    Kinds stay strings (resolved per cell by the runner): strings
    validate eagerly here, travel to worker processes, and record
    cleanly — the closures :func:`make_fault` builds do neither.  A
    key outside the sweep's ``cells`` is refused: it would never fire.
    """
    keys = tuple(f"{spec.full_name}:{n}" for spec, n in cells)
    plan = {}
    for item in specs or ():
        try:
            kind, cell = item.split("@", 1)
            name, n_txt = cell.rsplit(":", 1)
            int(n_txt)
        except ValueError:
            raise ConfigError(
                f"bad --inject {item!r}; expected KIND@BENCH:N, e.g. "
                f"deadlock@cholesky:16"
            ) from None
        make_fault(kind)  # eager kind validation (raises ConfigError)
        key = f"{name}:{n_txt}"
        if key not in keys:
            raise ConfigError(
                f"--inject {item!r} names no cell of this sweep; cells: "
                f"{', '.join(keys)}",
                field="--inject",
                choices=keys,
            )
        plan[key] = kind
    return plan


def cmd_sweep(args) -> int:
    experiment = _load_experiment(args)
    workload, run = experiment.workload, experiment.run
    benchmarks = (
        tuple(args.benchmarks.split(",")) if args.benchmarks
        else workload.benchmarks
    )
    thread_counts = (
        args.threads if args.threads is not None
        else workload.thread_counts
    )
    scale = args.scale if args.scale is not None else workload.scale
    #: the machine only deviates from the per-cell paper default when a
    #: config file supplies one
    machine = experiment.machine if args.config else None
    cells = sweep_cells(benchmarks, thread_counts)
    # the flags that were given override the config's run section
    run = replace(run, **{
        name: value for name, value in (
            ("on_error", args.on_error),
            ("max_retries", args.retries),
            ("backoff_s", args.backoff),
            ("backoff_max_s", args.backoff_max),
            ("max_cycles", args.max_cycles),
            ("livelock_window", args.livelock_window),
            ("jobs", args.jobs),
            ("checkpoint_every", args.checkpoint_every),
            ("checkpoint_dir", args.checkpoint_dir),
        ) if value is not None
    })
    if args.queue_dir and run.checkpoint_dir is None:
        # a durable queue always checkpoints: mid-cell crash-resume is
        # the point of the lease protocol
        run = replace(
            run, checkpoint_dir=os.path.join(args.queue_dir, "checkpoints")
        )
    jobs = run.jobs
    fault_plan = _parse_injections(args.inject, cells)
    journal = SweepJournal(args.journal)
    metrics = MetricsRegistry() if args.emit_metrics else None
    spans = SpanRecorder() if args.emit_spans else None
    bus = None
    if args.progress or args.heartbeat or args.heartbeat_log:
        bus = EventBus()
        # --heartbeat without --progress keeps stderr quiet but still
        # drives the heartbeat file off the same reporter
        ProgressReporter(
            len(cells),
            jobs=jobs,
            stream=sys.stderr if args.progress else io.StringIO(),
            heartbeat_path=args.heartbeat,
            heartbeat_log_path=args.heartbeat_log,
        ).attach(bus)
    drain = DrainController().install()
    try:
        if args.queue_dir:
            os.makedirs(run.checkpoint_dir, exist_ok=True)
            report = run_queue_sweep(
                cells_from_sweep(
                    cells, scale=scale, fault_kinds=fault_plan,
                    machine=machine,
                ),
                workers=jobs,
                policy=run,
                journal=journal,
                resume=args.resume,
                bus=bus,
                metrics=metrics,
                spans=spans,
                queue_dir=args.queue_dir,
                lease_ttl_s=args.lease_ttl,
                poison_after=args.poison_after,
                drain=drain,
            )
        elif jobs > 1:
            report = run_parallel_sweep(
                cells_from_sweep(
                    cells, scale=scale, fault_kinds=fault_plan,
                    machine=machine,
                ),
                jobs=jobs,
                policy=run,
                journal=journal,
                resume=args.resume,
                bus=bus,
                metrics=metrics,
                spans=spans,
                drain=drain,
                lease_ttl_s=args.lease_ttl,
                poison_after=args.poison_after,
            )
        else:
            runner = BatchRunner(
                policy=run,
                scale=scale,
                journal=journal,
                fault_plan=fault_plan,
                bus=bus,
                metrics=metrics,
                spans=spans,
                machine_factory=(
                    machine.with_cores if machine is not None else None
                ),
                drain=drain,
            )
            report = runner.run_sweep(cells, resume=args.resume)
    except ExperimentError as exc:
        # --on-error abort: the cells before this one are journaled
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        drain.uninstall()
    if metrics is not None:
        metrics.write(args.emit_metrics)
        print(f"metrics written to {args.emit_metrics}")
    if spans is not None:
        rows = spans.to_dicts()
        with open(args.emit_spans, "w") as handle:
            json.dump({
                "metadata": {"n_cells": len(cells), "jobs": jobs},
                "spans": rows,
            }, handle, indent=1)
            handle.write("\n")
        print(f"{len(rows)} spans written to {args.emit_spans}")
    for outcome in report.outcomes:
        if outcome.status == "ok":
            result = outcome.result
            flag = (
                " [truncated]" if result.stack.truncated else ""
            )
            speedup = result.stack.actual_speedup
            speedup_txt = f"{speedup:6.2f}" if speedup is not None else "   n/a"
            print(f"  ok      {outcome.key:<28s} speedup {speedup_txt}{flag}")
        elif outcome.status == "resumed":
            print(f"  resumed {outcome.key:<28s} (journal: already ok)")
        else:
            print(f"  FAILED  {outcome.key:<28s} {outcome.error_type}: "
                  f"{outcome.error}")
    print(f"{len(report.completed)} ok, {len(report.resumed)} resumed, "
          f"{len(report.failures)} failed")
    if not report.ok:
        print()
        print(report.render_failure_report())
    if report.interrupted:
        journal.save()  # durable even when zero cells completed
        not_run = len(cells) - len(report.outcomes)
        print(f"interrupted: journal finalized, {not_run} cell(s) not "
              f"run — re-run with --resume to finish", file=sys.stderr)
        return EXIT_INTERRUPTED
    return 0 if report.ok else 1


def cmd_worker(args) -> int:
    """``repro worker <queue-dir>``: one queue worker process.

    Exits 0 when every cell of the queue is terminal, 75
    (:data:`~repro.robustness.drain.EXIT_DRAINED`) when drained by
    SIGTERM/SIGINT after releasing its lease.
    """
    drain = DrainController().install()
    try:
        return run_worker(
            args.queue_dir,
            worker_id=args.worker_id,
            drain=drain,
            poll_s=args.poll,
        )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        drain.uninstall()


def cmd_bench(args) -> int:
    experiment = _load_experiment(args)
    cpu_count = os.cpu_count() or 1
    # bench keeps its own (smaller) fallback defaults when neither the
    # flag nor a config file specifies the value
    benchmarks = (
        tuple(args.benchmarks.split(",")) if args.benchmarks
        else experiment.workload.benchmarks
    )
    if args.threads is not None:
        thread_counts = args.threads
    elif args.config:
        thread_counts = experiment.workload.thread_counts
    else:
        thread_counts = (2, 4)
    if args.scale is not None:
        scale = args.scale
    elif args.config:
        scale = experiment.workload.scale
    else:
        scale = 0.25
    if args.max_cycles is not None:
        max_cycles = args.max_cycles
    elif args.config and experiment.run.max_cycles is not None:
        max_cycles = experiment.run.max_cycles
    else:
        max_cycles = 20_000_000
    profile = args.profile or args.profile_out is not None
    doc = run_bench(
        benchmarks=benchmarks,
        thread_counts=thread_counts,
        scale=scale,
        jobs_list=args.jobs_list or (1, cpu_count),
        repeats=args.repeats,
        max_cycles=max_cycles,
        profile=profile,
    )
    if profile:
        # the collapsed stacks go to their own file (flamegraph.pl /
        # speedscope format), not into the JSON document
        collapsed = doc["profile"].pop("collapsed")
        profile_out = args.profile_out or "profile_collapsed.txt"
        with open(profile_out, "w") as handle:
            handle.write("\n".join(collapsed) + "\n")
    print(render_bench(doc))
    if profile:
        print(f"collapsed stacks written to {profile_out}")
    if args.out:
        write_bench(doc, args.out)
        print(f"written to {args.out}")
    failures, notes = gate_verdicts(
        doc,
        max_observability_overhead=args.max_observability_overhead,
        max_checkpoint_overhead=args.max_checkpoint_overhead,
        min_warm_speedup=args.min_warm_speedup,
        cpu_count=cpu_count,
    )
    for note in notes:
        print(note)
    for failure in failures:
        print(failure, file=sys.stderr)
    return 1 if failures else 0


def cmd_report(args) -> int:
    """``repro report <journal|queue-dir>``: one-file HTML health report.

    A source that is no journal or queue raises :class:`ConfigError`."""
    data = write_report(args.source, args.out)
    cells = data["cells"]
    ok = sum(1 for c in cells if c["status"] == "ok")
    print(f"report on {len(cells)} cells ({ok} ok, {data['kind']} "
          f"source) written to {args.out}")
    return 0


def cmd_config_show(args) -> int:
    """Print the fully resolved experiment config (defaults merged in)."""
    experiment = (
        load_config(args.path) if args.path else ExperimentConfig()
    )
    doc = experiment.to_dict()
    if args.json:
        print(json.dumps(doc, indent=2))
    else:
        print(dumps_toml(doc), end="")
    return 0


def cmd_config_validate(args) -> int:
    """Validate a config file: schema, registry choices, suite names."""
    experiment = load_config(args.path)
    for name in experiment.workload.benchmarks or ():
        by_name(name)  # raises ConfigError with close-match suggestions
    workload = experiment.workload
    n_bench = (
        len(workload.benchmarks) if workload.benchmarks is not None
        else len(SUITE)
    )
    print(f"{args.path}: OK")
    print(
        f"  machine: {experiment.machine.n_cores} cores, "
        f"LLC {experiment.machine.llc.size_bytes // MB}MB "
        f"{experiment.machine.llc.replacement}, "
        f"spin detector {experiment.machine.accounting.spin_detector}"
    )
    print(
        f"  workload: {n_bench} benchmark(s) x threads "
        f"{list(workload.thread_counts)}, scale {workload.scale:g}"
    )
    print(
        f"  run: on_error={experiment.run.on_error}, "
        f"jobs={experiment.run.jobs}"
    )
    for kind in kinds():
        print(f"  registered {kind}: {', '.join(available(kind))}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Speedup stacks (ISPASS 2012) — simulator & analysis",
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="-v: INFO logging, -vv: DEBUG (place before the subcommand)",
    )
    parser.add_argument(
        "--log-json", action="store_true",
        help="emit one JSON object per log record on stderr",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro_version()}",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, benchmark=True, configurable=False):
        if benchmark:
            p.add_argument("benchmark", help="suite benchmark, e.g. cholesky")
        if configurable:
            # default=None so explicit flags override --config values
            p.add_argument("--config", metavar="FILE", default=None,
                           help="experiment config file (TOML or JSON); "
                                "explicit flags override its values")
            p.add_argument("-n", "--threads", type=_positive_int,
                           default=None,
                           help="threads == cores (default 16)")
            p.add_argument("--scale", type=_positive_float, default=None,
                           help="workload scale factor")
        else:
            p.add_argument("-n", "--threads", type=_positive_int, default=16,
                           help="threads == cores (default 16)")
            p.add_argument("--scale", type=_positive_float, default=1.0,
                           help="workload scale factor")
        p.add_argument("--llc-mb", type=_positive_float, default=None,
                       help="LLC size in MB (default 2)")

    sub.add_parser("list", help="list the benchmark suite"
                   ).set_defaults(func=cmd_list)

    p = sub.add_parser("stack", help="speedup stack for one benchmark")
    common(p, configurable=True)
    p.add_argument("--checkpoint", metavar="PATH", default=None,
                   help="save engine checkpoints to this file")
    p.add_argument("--checkpoint-every", type=_positive_int, default=None,
                   metavar="CYCLES",
                   help="periodic save interval in simulated cycles")
    p.add_argument("--resume-from", metavar="CKPT", default=None,
                   help="continue a checkpointed run to completion")
    p.set_defaults(func=cmd_stack)

    p = sub.add_parser("curve", help="speedup vs thread count")
    p.add_argument("benchmark")
    p.add_argument("--scale", type=_positive_float, default=1.0)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("tree", help="Figure 6 classification tree")
    p.add_argument("--scale", type=_positive_float, default=1.0)
    p.set_defaults(func=cmd_tree)

    p = sub.add_parser("regions", help="per-region stacks (Section 4.6)")
    common(p)
    p.set_defaults(func=cmd_regions)

    p = sub.add_parser("timeline", help="scheduling timeline")
    common(p)
    p.add_argument("--width", type=_positive_int, default=72)
    p.add_argument("--out", help="write Chrome trace JSON here")
    p.set_defaults(func=cmd_timeline)

    p = sub.add_parser("cpi", help="per-core CPI stacks")
    common(p)
    p.set_defaults(func=cmd_cpi)

    p = sub.add_parser("sync", help="per-lock contention profile")
    common(p)
    p.set_defaults(func=cmd_sync)

    p = sub.add_parser("cost", help="accounting hardware cost")
    p.add_argument("-n", "--threads", type=_positive_int, default=16)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("run-trace", help="simulate a text op trace")
    p.add_argument("path")
    p.add_argument("-n", "--threads", type=_positive_int, default=None,
                   help="cores (default: one per trace thread)")
    p.add_argument("--timeline", action="store_true")
    p.add_argument("--max-cycles", type=_positive_int, default=None,
                   help="truncate (don't crash) past this simulated time")
    p.set_defaults(func=cmd_run_trace)

    p = sub.add_parser(
        "trace",
        help="Chrome/Perfetto trace of one cell via the event bus",
    )
    p.add_argument("benchmark", help="suite benchmark, e.g. cholesky")
    p.add_argument("-n", "--threads", type=_positive_int, default=16,
                   help="threads == cores (default 16)")
    p.add_argument("--scale", type=_positive_float, default=1.0,
                   help="workload scale factor")
    p.add_argument("--max-cycles", type=_positive_int, default=None,
                   help="watchdog: truncate runs past this simulated time")
    p.add_argument("--out", default="trace.json",
                   help="trace-event JSON output path (default trace.json)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "sweep",
        help="hardened suite sweep: journal, retries, fault injection",
    )
    p.add_argument("--config", metavar="FILE", default=None,
                   help="experiment config file (TOML or JSON); explicit "
                        "flags override its values")
    p.add_argument("--benchmarks", default=None,
                   help="comma-separated full names (default: whole suite)")
    p.add_argument("-n", "--threads", type=_positive_ints, default=None,
                   help="comma-separated thread counts (default 16)")
    p.add_argument("--scale", type=_positive_float, default=None,
                   help="workload scale factor")
    p.add_argument("--journal", default=None,
                   help="checkpoint journal JSON path (enables --resume)")
    p.add_argument("--resume", action="store_true",
                   help="skip cells the journal already records as ok")
    p.add_argument("--on-error", choices=ON_ERROR_MODES, default=None,
                   help="failing cell policy (default: skip)")
    p.add_argument("--retries", type=_non_negative_int, default=None,
                   help="extra attempts per cell with --on-error retry")
    p.add_argument("--backoff", type=_non_negative_float, default=None,
                   help="initial retry backoff in seconds")
    p.add_argument("--backoff-max", type=_non_negative_float, default=None,
                   help="hard cap on any single retry delay in seconds "
                        "(default 60; growth is jittered)")
    p.add_argument("--max-cycles", type=_positive_int, default=None,
                   help="watchdog: truncate runs past this simulated time")
    p.add_argument("--livelock-window", type=_positive_int, default=None,
                   help="watchdog: truncate after this many cycles without "
                        "forward progress")
    p.add_argument("--inject", action="append", metavar="KIND@BENCH:N",
                   help=f"inject a fault into one cell; KIND is one of "
                        f"{', '.join(FAULT_KINDS)} (repeatable)")
    p.add_argument("-j", "--jobs", type=_positive_int, default=None,
                   help="worker processes for the sweep (default 1: "
                        "serial in-process execution; N > 1 forks N "
                        "workers over a private work queue)")
    p.add_argument("--emit-metrics", metavar="PATH", default=None,
                   help="collect per-cell sim/runtime metrics and write "
                        "the aggregated registry JSON here")
    p.add_argument("--emit-spans", metavar="PATH", default=None,
                   help="record harness phase spans (wall-clock; never "
                        "journaled) and write them as JSON here; with "
                        "--queue-dir the spans also land on each "
                        "cell's queue record for `repro report`")
    p.add_argument("--progress", action="store_true",
                   help="live one-line progress + ETA on stderr")
    p.add_argument("--heartbeat", metavar="PATH", default=None,
                   help="write a machine-readable heartbeat JSON here on "
                        "every sweep event")
    p.add_argument("--heartbeat-log", metavar="PATH", default=None,
                   help="append every heartbeat as one JSON line here "
                        "(history, where --heartbeat keeps latest only)")
    p.add_argument("--checkpoint-dir", metavar="DIR", default=None,
                   help="save per-cell engine checkpoints under this "
                        "directory; crashed or truncated cells resume "
                        "from them on the next attempt")
    p.add_argument("--checkpoint-every", type=_positive_int, default=None,
                   metavar="CYCLES",
                   help="periodic save interval in simulated cycles "
                        "(needs --checkpoint-dir)")
    p.add_argument("--queue-dir", metavar="DIR", default=None,
                   help="durable work-queue directory: the --jobs "
                        "workers (and `repro worker DIR` processes on "
                        "other hosts) lease cells from it and "
                        "crash-resume via checkpoints")
    p.add_argument("--lease-ttl", type=_positive_float, default=30.0,
                   metavar="SECONDS",
                   help="queue lease TTL; a worker silent this long "
                        "loses its cell to the reclaimer (default 30)")
    p.add_argument("--poison-after", type=_positive_int, default=3,
                   metavar="N",
                   help="quarantine a cell after N expired leases "
                        "(default 3)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "worker",
        help="run one work-queue worker (see sweep --queue-dir)",
    )
    p.add_argument("queue_dir", help="queue directory to attach to")
    p.add_argument("--worker-id", default=None,
                   help="stable worker name for leases and heartbeats "
                        "(default: worker-<pid>)")
    p.add_argument("--poll", type=_positive_float, default=0.05,
                   metavar="SECONDS",
                   help="idle poll interval (default 0.05)")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "bench",
        help="time the sweep serial vs parallel and the overhead A/Bs; "
             "gate on them",
    )
    p.add_argument("--config", metavar="FILE", default=None,
                   help="experiment config file (TOML or JSON); explicit "
                        "flags override its values")
    p.add_argument("--benchmarks", default=None,
                   help="comma-separated full names (default: whole suite)")
    p.add_argument("-n", "--threads", type=_positive_ints, default=None,
                   help="comma-separated thread counts (default 2,4)")
    p.add_argument("--scale", type=_positive_float, default=None,
                   help="workload scale factor (default 0.25)")
    p.add_argument("--jobs-list", type=_positive_ints, default=None,
                   help="comma-separated --jobs levels "
                        "(default: 1,<cpu_count>)")
    p.add_argument("--repeats", type=_positive_int, default=1,
                   help="repetitions per configuration (best-of)")
    p.add_argument("--max-cycles", type=_positive_int, default=None,
                   help="watchdog for every benchmark run "
                        "(default 20,000,000)")
    p.add_argument("--profile", action="store_true",
                   help="profile one serial cell with the deterministic "
                        "profiler; adds a `profile` section to the JSON "
                        "and writes a collapsed-stack file")
    p.add_argument("--profile-out", metavar="PATH", default=None,
                   help="collapsed-stack output path (default "
                        "profile_collapsed.txt; implies --profile)")
    p.add_argument("--out", default=None,
                   help="also write the JSON document here")
    p.add_argument("--max-observability-overhead", type=_non_negative_float,
                   default=None, metavar="PCT",
                   help="fail (exit 1) when enabled-instrumentation "
                        "overhead exceeds this percentage")
    p.add_argument("--max-checkpoint-overhead", type=_non_negative_float,
                   default=None, metavar="PCT",
                   help="fail (exit 1) when periodic-checkpointing "
                        "overhead exceeds this percentage")
    p.add_argument("--min-warm-speedup", type=_speedup_gate, action="append",
                   default=[], metavar="JOBS:FACTOR",
                   help="fail (exit 1) when the --jobs JOBS sweep "
                        "speedup vs serial is below FACTOR; skipped "
                        "with a note when the host has fewer than "
                        "JOBS CPUs (repeatable)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "report",
        help="self-contained HTML health report for a sweep",
    )
    p.add_argument("source",
                   help="sweep journal JSON or queue directory")
    p.add_argument("--out", default="report.html",
                   help="HTML output path (default report.html)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "config",
        help="inspect and validate experiment config files",
    )
    csub = p.add_subparsers(dest="config_command", required=True)
    ps = csub.add_parser(
        "show", help="print the resolved experiment config"
    )
    ps.add_argument("path", nargs="?", default=None,
                    help="config file (omit for the built-in defaults)")
    ps.add_argument("--json", action="store_true",
                    help="emit JSON instead of TOML")
    ps.set_defaults(func=cmd_config_show)
    pv = csub.add_parser(
        "validate",
        help="validate a config file (schema, registry names, suite names)",
    )
    pv.add_argument("path", help="config file to validate")
    pv.set_defaults(func=cmd_config_validate)

    p = sub.add_parser(
        "inspect",
        help="partial speedup stack of an engine checkpoint",
    )
    p.add_argument("path", help="checkpoint file (.ckpt)")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser(
        "session",
        help="interactive steppable simulation session (REPL or --run "
             "script)",
    )
    p.add_argument("benchmark", nargs="?", default=None,
                   help="suite benchmark (omit with --from-checkpoint)")
    p.add_argument("--config", metavar="FILE", default=None,
                   help="experiment config file; explicit flags override")
    p.add_argument("-n", "--threads", type=_positive_int, default=None,
                   help="threads == cores (default: config's first count)")
    p.add_argument("--scale", type=_positive_float, default=None,
                   help="workload scale factor")
    p.add_argument("--max-cycles", type=_positive_int, default=None,
                   help="watchdog budget in simulated cycles")
    p.add_argument("--livelock-window", type=_positive_int, default=None,
                   help="no-progress watchdog window in scheduling steps")
    p.add_argument("--from-checkpoint", metavar="CKPT", default=None,
                   help="start from a saved checkpoint instead of cycle 0")
    p.add_argument("--events", action="store_true",
                   help="attach an observability bus ('events' command)")
    p.add_argument("--run", metavar="SCRIPT", default=None,
                   help="semicolon-separated commands, e.g. "
                        "'step 5000; stack; inject llc_flush; run; stack'")
    p.set_defaults(func=cmd_session)

    return parser


class _JsonLogFormatter(logging.Formatter):
    """One JSON object per record, for machine-readable log capture."""

    def format(self, record: logging.LogRecord) -> str:
        doc = {
            "ts": round(record.created, 3),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        if record.exc_info:
            doc["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(doc)


def _configure_logging(
    verbosity: int, log_json: bool = False
) -> logging.Handler:
    """Install one invocation's handler on the root logger, with the
    requested format and level, and return it."""
    level = (
        logging.WARNING if verbosity <= 0
        else logging.INFO if verbosity == 1
        else logging.DEBUG
    )
    # ``logging.basicConfig`` is a no-op once the root logger has any
    # handler, yet tests and notebooks call ``main`` many times in one
    # process with *different* verbosity — and any pre-existing foreign
    # handler would freeze the format forever.  Each invocation owns a
    # fresh handler instead, which :func:`main` removes on return.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(
        _JsonLogFormatter() if log_json
        else logging.Formatter("%(levelname)s %(name)s: %(message)s")
    )
    root = logging.getLogger()
    root.addHandler(handler)
    root.setLevel(level)
    return handler


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = _configure_logging(args.verbose, args.log_json)
    try:
        return args.func(args)
    finally:
        # the handler holds this invocation's stderr, which the caller
        # may close or replace once main returns
        logging.getLogger().removeHandler(handler)


def process_main(argv: list[str] | None = None) -> int:
    """:func:`main` for a process: a :class:`ConfigError` (bad config,
    flag value, benchmark name or trace) becomes one ``error:`` line on
    stderr and exit code 2.  In-process callers use :func:`main`, which
    raises."""
    try:
        return main(argv)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(process_main())
