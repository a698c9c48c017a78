"""The gates ``repro bench`` runs: what the repository benchmark cannot.

perfbench (``perfbench/run.py``) is the one measurement of this
repository: fresh processes, medians, bounds from ten-seed spreads.
The committed ``BENCH_sweep.json`` is the summary of its records
(``tools/bench_summary.py``).  This module times, on the host that
runs it, what no perfbench workload does:

* the sweep serially and at each ``--jobs`` level (best of
  ``repeats``), the input of the ``--min-warm-speedup`` gates;
* one accounted cell with the observability layer wide open vs
  disabled, and with periodic checkpointing on vs off;
* on request, one cell under the deterministic profiler.

:func:`gate_verdicts` turns the document and the gate thresholds into
``FAIL:`` and ``note:`` lines.  The document records the host's CPU
count, so a 1-core runner's parallel numbers are not mistaken for a
workstation's.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from collections.abc import Sequence

from repro.checkpoint import (
    CheckpointHook,
    CheckpointPolicy,
    cell_descriptor,
    load_checkpoint,
    resume_simulation,
    save_checkpoint,
)
from repro.config import RunConfig
from repro.experiments.runner import BatchRunner, run_accounted
from repro.observability import MetricsRegistry, TimelineRecorder
from repro.observability.events import EventBus
from repro.observability.profiling import DeterministicProfiler
from repro.observability.spans import SpanRecorder
from repro.parallel import cells_from_sweep, run_parallel_sweep
from repro.robustness.journal import SweepJournal
from repro.config import MachineConfig
from repro.workloads.spec import build_program
from repro.workloads.suite import by_name, sweep_cells

#: sweep defaults: whole suite at two thread counts, scaled down so the
#: harness finishes in CI time while still touching every benchmark
DEFAULT_THREADS = (2, 4)
DEFAULT_SCALE = 0.25
DEFAULT_MAX_CYCLES = 20_000_000

#: the one cell the observability, checkpoint and profile sections run
CELL_BENCHMARK = "cholesky"
CELL_THREADS = 4

#: the checkpoint overhead benchmark runs its cell at full scale (the
#: workloads that need checkpointing are the long ones) and saves once
#: per run — per-save cost is ~constant, so one save against the
#: longest denominator the harness affords is the stable way to detect
#: a save-path regression under a percentage gate
CKPT_SCALE = 1.0
CKPT_INTERVAL = 50_000


def _timed_sweep(cells, scale, policy, jobs, repeats):
    """Best-of-``repeats`` wall-clock for one sweep configuration."""
    times = []
    ok = failed = 0
    for _ in range(repeats):
        start = time.perf_counter()
        if jobs > 1:
            report = run_parallel_sweep(
                cells_from_sweep(cells, scale=scale),
                jobs=jobs, policy=policy, journal=SweepJournal(None),
            )
        else:
            report = BatchRunner(policy=policy, scale=scale).run_sweep(cells)
        times.append(time.perf_counter() - start)
        ok = len(report.completed)
        failed = len(report.failures)
    return {
        "jobs": jobs,
        "wall_s": round(min(times), 4),
        "wall_s_all": [round(t, 4) for t in times],
        "cells_ok": ok,
        "cells_failed": failed,
    }


def _bench_observability(scale, max_cycles, repeats):
    """One accounted cell instrumented wide open vs fully disabled.

    "Wide open" is the worst case the observability layer supports: an
    event bus with a :class:`TimelineRecorder` subscribed to every
    engine event family, a :class:`MetricsRegistry` harvesting the
    cell, *and* a :class:`SpanRecorder` timing the harness phases — so
    the measured overhead bounds what ``repro trace``,
    ``sweep --emit-metrics`` and ``sweep --emit-spans`` cost together.
    Simulated cycles must be identical either way (instrumentation
    observes, never perturbs); CI gates on ``overhead_pct``.
    Disabled/enabled repeats interleave, as in :func:`_bench_checkpoint`,
    and each pair's overhead is reported beside the gated one.  Each
    repeat is timed in process CPU seconds: the cell runs in this
    process, and the wall clock of a shared host swings by more than
    the budget between runs of identical work.
    """
    spec = by_name(CELL_BENCHMARK)
    policy = RunConfig(on_error="skip", max_cycles=max_cycles)
    timings = {False: [], True: []}
    cycles = {}
    n_events = 0
    n_spans = 0
    for _ in range(repeats):
        for enabled in (False, True):
            bus = metrics = spans = None
            if enabled:
                bus = EventBus()
                TimelineRecorder().attach(bus)
                metrics = MetricsRegistry()
                spans = SpanRecorder()
            runner = BatchRunner(
                policy=policy, scale=scale, bus=bus, metrics=metrics,
                spans=spans,
            )
            start = time.process_time()
            outcome = runner.run_cell(spec, CELL_THREADS)
            timings[enabled].append(time.process_time() - start)
            cycles[enabled] = outcome.result.mt_result.total_cycles
            if bus is not None:
                n_events = bus.n_emitted
            if spans is not None:
                n_spans = len(spans)
    assert cycles[True] == cycles[False], (
        "instrumentation changed simulated time — the bus is not "
        "observation-only"
    )
    return {
        "cell": f"{CELL_BENCHMARK}:{CELL_THREADS}",
        **_overhead(timings, "cpu_s"),
        "events_emitted": n_events,
        "spans_recorded": n_spans,
        "total_cycles": cycles[True],
    }


def _overhead(timings, clock: str = "wall_s") -> dict:
    """The best disabled and enabled times (``clock`` names them), the
    gated overhead between them, and the overhead of each
    disabled/enabled pair (its spread)."""
    off, on = min(timings[False]), min(timings[True])
    return {
        f"{clock}_disabled": round(off, 4),
        f"{clock}_enabled": round(on, 4),
        "overhead_pct": round(100.0 * (on - off) / off, 2),
        "pair_overhead_pct": [
            round(100.0 * (pair_on - pair_off) / pair_off, 2)
            for pair_off, pair_on in zip(timings[False], timings[True])
        ],
    }


def _bench_profile(scale, max_cycles, top_n=15):
    """One accounted cell under the deterministic sampling profiler.

    Returns the BENCH ``profile`` section: total self-time, the top-N
    self-time functions and the share of time inside the engine inner
    loop — plus the full collapsed-stack text under ``"collapsed"``
    (callers write it to a ``.collapsed`` artifact and usually pop it
    from the JSON document, where it would dwarf everything else).
    """
    spec = by_name(CELL_BENCHMARK)
    policy = RunConfig(on_error="skip", max_cycles=max_cycles)
    runner = BatchRunner(policy=policy, scale=scale)
    profiler = DeterministicProfiler()
    start = time.perf_counter()
    with profiler:
        outcome = runner.run_cell(spec, CELL_THREADS)
    elapsed = time.perf_counter() - start
    section = {
        "cell": f"{CELL_BENCHMARK}:{CELL_THREADS}",
        "wall_s": round(elapsed, 4),
        "total_cycles": outcome.result.mt_result.total_cycles,
    }
    section.update(profiler.profile_section(top_n=top_n))
    section["collapsed"] = profiler.collapsed()
    return section


def _bench_checkpoint(max_cycles, repeats):
    """One accounted cell with periodic checkpointing on vs off.

    The enabled run saves the full SimState tree to disk every
    :data:`CKPT_INTERVAL` simulated cycles at :data:`CKPT_SCALE`.
    Disabled/enabled repeats interleave so background load drifts into
    both sides of the comparison equally.  Simulated cycles must be
    identical either way (saving never mutates the engine); CI gates on
    ``overhead_pct`` staying within budget, and each pair's overhead is
    reported beside it.  ``save_ms``/``load_ms``
    time one explicit :func:`save_checkpoint` write and one full
    :func:`resume_simulation` rebuild of the same mid-run state.
    """
    spec = by_name(CELL_BENCHMARK)
    machine = MachineConfig(n_cores=CELL_THREADS)
    timings = {False: [], True: []}
    cycles = {}
    n_saves = 0
    save_best = load_best = None
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        path = os.path.join(tmp, "bench.ckpt")
        descriptor = cell_descriptor(
            machine, spec.full_name, CELL_THREADS, CKPT_SCALE,
            max_cycles=max_cycles,
        )
        for _ in range(repeats):
            for enabled in (False, True):
                program = build_program(spec, CELL_THREADS, scale=CKPT_SCALE)
                hook = None
                if enabled:
                    hook = CheckpointHook(
                        path, descriptor,
                        CheckpointPolicy(every_cycles=CKPT_INTERVAL),
                    )
                start = time.perf_counter()
                mt_result, _report = run_accounted(
                    machine, program, max_cycles=max_cycles,
                    on_timeout="truncate", checkpoint=hook,
                )
                timings[enabled].append(time.perf_counter() - start)
                cycles[enabled] = mt_result.total_cycles
                if hook is not None:
                    n_saves = hook.n_saves
        assert cycles[True] == cycles[False], (
            "checkpointing changed simulated time — saving must not "
            "perturb the engine"
        )
        if os.path.exists(path):  # at least one interval save happened
            header, state = load_checkpoint(path)
            for _ in range(repeats):
                start = time.perf_counter()
                save_checkpoint(
                    path, state, descriptor,
                    cycle=header["cycle"], reason=header["reason"],
                )
                elapsed = time.perf_counter() - start
                save_best = (
                    elapsed if save_best is None else min(save_best, elapsed)
                )
                start = time.perf_counter()
                resume_simulation(path, spec=spec)
                elapsed = time.perf_counter() - start
                load_best = (
                    elapsed if load_best is None else min(load_best, elapsed)
                )
    return {
        "cell": f"{CELL_BENCHMARK}:{CELL_THREADS}",
        "scale": CKPT_SCALE,
        "every_cycles": CKPT_INTERVAL,
        **_overhead(timings),
        "n_saves": n_saves,
        "save_ms": (
            None if save_best is None else round(save_best * 1000, 3)
        ),
        "load_ms": (
            None if load_best is None else round(load_best * 1000, 3)
        ),
        "total_cycles": cycles[True],
    }


def run_bench(
    benchmarks=None,
    thread_counts=DEFAULT_THREADS,
    scale=DEFAULT_SCALE,
    jobs_list=(1,),
    repeats=1,
    max_cycles=DEFAULT_MAX_CYCLES,
    profile=False,
) -> dict:
    """Run the whole harness and return the BENCH document.

    With ``profile`` the document gains a ``profile`` section (see
    :func:`_bench_profile`); its ``"collapsed"`` text is meant to be
    popped into a separate artifact file by the caller.
    """
    cells = sweep_cells(benchmarks, tuple(thread_counts))
    policy = RunConfig(on_error="skip", max_cycles=max_cycles)
    jobs_list = sorted(set(jobs_list) | {1})
    runs = [
        _timed_sweep(cells, scale, policy, jobs, repeats)
        for jobs in jobs_list
    ]
    serial_wall = next(r["wall_s"] for r in runs if r["jobs"] == 1)
    for run in runs:
        run["speedup_vs_serial"] = round(serial_wall / run["wall_s"], 3)
    doc = {
        "host": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "config": {
            "benchmarks": sorted({spec.full_name for spec, _ in cells}),
            "thread_counts": list(thread_counts),
            "n_cells": len(cells),
            "scale": scale,
            "max_cycles": max_cycles,
            "repeats": repeats,
        },
        "sweep": runs,
        "observability": _bench_observability(scale, max_cycles, repeats),
        "checkpoint": _bench_checkpoint(max_cycles, repeats),
    }
    if profile:
        doc["profile"] = _bench_profile(scale, max_cycles)
    return doc


def _pairs_text(section: dict) -> str:
    return "/".join(f"{pct:+.1f}" for pct in section["pair_overhead_pct"])


def render_bench(doc: dict) -> str:
    """Human-readable summary of a BENCH document."""
    host = doc["host"]
    config = doc["config"]
    lines = [
        f"sweep benchmark: {config['n_cells']} cells "
        f"(scale {config['scale']}) on {host['cpu_count']} CPU(s)",
        f"{'jobs':>6s} {'wall s':>10s} {'vs serial':>10s} {'ok':>4s} "
        f"{'failed':>7s}",
    ]
    for run in doc["sweep"]:
        lines.append(
            f"{run['jobs']:>6d} {run['wall_s']:>10.3f} "
            f"{run['speedup_vs_serial']:>9.2f}x {run['cells_ok']:>4d} "
            f"{run['cells_failed']:>7d}"
        )
    obs = doc["observability"]
    spans_txt = (
        f", {obs['spans_recorded']} spans"
        if obs.get("spans_recorded") else ""
    )
    lines.append(
        f"observability ({obs['cell']}): "
        f"CPU {obs['cpu_s_disabled']:.3f}s -> "
        f"{obs['cpu_s_enabled']:.3f}s enabled "
        f"({obs['overhead_pct']:+.1f}%, pairs {_pairs_text(obs)}, "
        f"{obs['events_emitted']} events{spans_txt}, cycles identical)"
    )
    prof = doc.get("profile")
    if prof is not None:
        top = prof["top_functions"][:3]
        top_txt = ", ".join(
            f"{entry['function'].rsplit('.', 1)[-1]} "
            f"{entry['self_pct']:.0f}%"
            for entry in top
        )
        lines.append(
            f"profile ({prof['cell']}): "
            f"{prof['engine_inner_loop_pct']:.0f}% in engine inner loop; "
            f"top self-time: {top_txt}"
        )
    ckpt = doc["checkpoint"]
    roundtrip = (
        "no saves triggered" if ckpt["save_ms"] is None
        else f"save {ckpt['save_ms']:.1f}ms / restore "
        f"{ckpt['load_ms']:.1f}ms"
    )
    lines.append(
        f"checkpoint ({ckpt['cell']}): "
        f"{ckpt['wall_s_disabled']:.3f}s -> "
        f"{ckpt['wall_s_enabled']:.3f}s saving every "
        f"{ckpt['every_cycles']} cycles "
        f"({ckpt['overhead_pct']:+.1f}%, pairs {_pairs_text(ckpt)}, "
        f"{ckpt['n_saves']} saves, "
        f"{roundtrip}, cycles identical)"
    )
    return "\n".join(lines)


def gate_verdicts(
    doc: dict,
    *,
    max_observability_overhead: float | None = None,
    max_checkpoint_overhead: float | None = None,
    min_warm_speedup: Sequence[tuple[int, float]] = (),
    cpu_count: int,
) -> tuple[list[str], list[str]]:
    """``(failures, notes)``: one ``FAIL:`` line per gate ``doc``
    misses, and one ``note:`` line per speedup gate this host cannot
    judge.

    An overhead gate fails above its percentage budget.  A
    ``(jobs, factor)`` speedup gate fails when the ``--jobs`` level's
    speedup vs serial is below ``factor`` or was not timed.  It is
    skipped when ``cpu_count < jobs``: a host without the cores cannot
    show the speedup, which is "can't tell", not "failed".
    """
    failures, notes = [], []
    for label, section, budget in (
        ("instrumentation", "observability", max_observability_overhead),
        ("checkpoint", "checkpoint", max_checkpoint_overhead),
    ):
        overhead = doc[section]["overhead_pct"]
        if budget is not None and overhead > budget:
            failures.append(
                f"FAIL: {label} overhead {overhead:.1f}% exceeds the "
                f"{budget:.1f}% budget"
            )
    speedups = {run["jobs"]: run["speedup_vs_serial"] for run in doc["sweep"]}
    for jobs, factor in min_warm_speedup:
        gate = f"--min-warm-speedup {jobs}:{factor:g}"
        if cpu_count < jobs:
            notes.append(
                f"note: skipping {gate} (host has {cpu_count} CPU(s), "
                f"needs >= {jobs})"
            )
        elif jobs not in speedups:
            failures.append(
                f"FAIL: {gate} but --jobs {jobs} was not in the jobs list"
            )
        elif speedups[jobs] < factor:
            failures.append(
                f"FAIL: --jobs {jobs} speedup {speedups[jobs]:.2f}x vs "
                f"serial is below the {factor:g}x gate"
            )
    return failures, notes


def write_bench(doc: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
