"""Sweep wall-clock benchmark harness.

Times the hardened suite sweep end-to-end — serial and at one or more
``--jobs`` levels — plus the engine-level fast paths in isolation
(instruction-block fast-forward on vs. off), the observability layer
wide open vs disabled, and periodic checkpointing on vs off (with
explicit save/restore round-trip timings), and emits a JSON document
(``BENCH_sweep.json``) suitable for checking into the repo or uploading
as a CI artifact.

All numbers are *measured on the machine that ran the harness*; the
document records the host's CPU count precisely so a 1-core CI runner's
parallel numbers are not mistaken for a workstation's.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time

from repro.checkpoint import (
    CheckpointHook,
    CheckpointPolicy,
    cell_descriptor,
    load_checkpoint,
    resume_simulation,
    save_checkpoint,
)
from repro.experiments.runner import BatchRunner, RunPolicy, run_accounted
from repro.observability import MetricsRegistry, TimelineRecorder
from repro.observability.events import EventBus
from repro.observability.profiling import DeterministicProfiler
from repro.observability.spans import SpanRecorder
from repro.parallel import (
    ChunkingPolicy,
    cells_from_sweep,
    plan_chunks,
    run_parallel_sweep,
)
from repro.robustness.journal import SweepJournal
from repro.sim.engine import Simulation
from repro.config import MachineConfig
from repro.workloads.spec import build_program
from repro.workloads.suite import by_name, sweep_cells

#: sweep defaults: whole suite at two thread counts, scaled down so the
#: harness finishes in CI time while still touching every benchmark
DEFAULT_THREADS = (2, 4)
DEFAULT_SCALE = 0.25
DEFAULT_MAX_CYCLES = 20_000_000

#: representative cell for the fast-forward on/off micro-benchmark
FF_BENCHMARK = "cholesky"
FF_THREADS = 4

#: the checkpoint overhead benchmark runs its cell at full scale (the
#: workloads that need checkpointing are the long ones) and saves once
#: per run — per-save cost is ~constant, so one save against the
#: longest denominator the harness affords is the stable way to detect
#: a save-path regression under a percentage gate
CKPT_SCALE = 1.0
CKPT_INTERVAL = 50_000

#: the warm-worker acceptance gate: parallel sweeps must beat serial by
#: this factor at this jobs level — but only on hosts with enough cores
#: to make the comparison meaningful (a 1-core container physically
#: cannot show a parallel speedup; the doc records the gate as
#: unenforced there instead of reporting a bogus failure)
WARM_GATE_JOBS = 4
WARM_GATE_MIN_SPEEDUP = 1.5

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


def _bench_fast_forward(scale, max_cycles, repeats):
    """Same accountant-less run with the engine fast-forward on vs off."""
    spec = by_name(FF_BENCHMARK)
    machine = MachineConfig(n_cores=FF_THREADS)
    timings = {}
    cycles = {}
    for enabled in (True, False):
        best = None
        for _ in range(repeats):
            program = build_program(spec, FF_THREADS, scale=scale)
            start = time.perf_counter()
            result = Simulation(
                machine, program, fast_forward=enabled
            ).run(max_cycles=max_cycles, on_timeout="truncate")
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
            cycles[enabled] = result.total_cycles
        timings[enabled] = best
    assert cycles[True] == cycles[False], (
        "fast-forward changed simulated time — fast path is unsound"
    )
    return {
        "cell": f"{FF_BENCHMARK}:{FF_THREADS}",
        "wall_s_on": round(timings[True], 4),
        "wall_s_off": round(timings[False], 4),
        "speedup": round(timings[False] / timings[True], 3),
        "total_cycles": cycles[True],
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
    """
    spec = by_name(FF_BENCHMARK)
    policy = RunPolicy(on_error="skip", max_cycles=max_cycles)
    timings = {}
    cycles = {}
    n_events = 0
    n_spans = 0
    for enabled in (False, True):
        best = None
        for _ in range(repeats):
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
            start = time.perf_counter()
            outcome = runner.run_cell(spec, FF_THREADS)
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
            cycles[enabled] = outcome.result.mt_result.total_cycles
            if bus is not None:
                n_events = bus.n_emitted
            if spans is not None:
                n_spans = len(spans)
        timings[enabled] = best
    assert cycles[True] == cycles[False], (
        "instrumentation changed simulated time — the bus is not "
        "observation-only"
    )
    return {
        "cell": f"{FF_BENCHMARK}:{FF_THREADS}",
        "wall_s_disabled": round(timings[False], 4),
        "wall_s_enabled": round(timings[True], 4),
        "overhead_pct": round(
            100.0 * (timings[True] - timings[False]) / timings[False], 2
        ),
        "events_emitted": n_events,
        "spans_recorded": n_spans,
        "total_cycles": cycles[True],
    }


def _bench_profile(scale, max_cycles, top_n=15):
    """One accounted cell under the deterministic sampling profiler.

    Returns the BENCH ``profile`` section: total self-time, the top-N
    self-time functions and the share of time inside the engine inner
    loop — plus the full collapsed-stack text under ``"collapsed"``
    (callers write it to a ``.collapsed`` artifact and usually pop it
    from the JSON document, where it would dwarf everything else).
    """
    spec = by_name(FF_BENCHMARK)
    policy = RunPolicy(on_error="skip", max_cycles=max_cycles)
    runner = BatchRunner(policy=policy, scale=scale)
    profiler = DeterministicProfiler()
    start = time.perf_counter()
    with profiler:
        outcome = runner.run_cell(spec, FF_THREADS)
    elapsed = time.perf_counter() - start
    section = {
        "cell": f"{FF_BENCHMARK}:{FF_THREADS}",
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
    ``overhead_pct`` staying within budget.  ``save_ms``/``load_ms``
    time one explicit :func:`save_checkpoint` write and one full
    :func:`resume_simulation` rebuild of the same mid-run state.
    """
    spec = by_name(FF_BENCHMARK)
    machine = MachineConfig(n_cores=FF_THREADS)
    timings = {False: None, True: None}
    cycles = {}
    n_saves = 0
    save_best = load_best = None
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        path = os.path.join(tmp, "bench.ckpt")
        descriptor = cell_descriptor(
            machine, spec.full_name, FF_THREADS, CKPT_SCALE,
            max_cycles=max_cycles,
        )
        for _ in range(repeats):
            for enabled in (False, True):
                program = build_program(spec, FF_THREADS, scale=CKPT_SCALE)
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
                elapsed = time.perf_counter() - start
                best = timings[enabled]
                timings[enabled] = (
                    elapsed if best is None else min(best, elapsed)
                )
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
        "cell": f"{FF_BENCHMARK}:{FF_THREADS}",
        "scale": CKPT_SCALE,
        "every_cycles": CKPT_INTERVAL,
        "wall_s_disabled": round(timings[False], 4),
        "wall_s_enabled": round(timings[True], 4),
        "overhead_pct": round(
            100.0 * (timings[True] - timings[False]) / timings[False], 2
        ),
        "n_saves": n_saves,
        "save_ms": (
            None if save_best is None else round(save_best * 1000, 3)
        ),
        "load_ms": (
            None if load_best is None else round(load_best * 1000, 3)
        ),
        "total_cycles": cycles[True],
    }


def _chunk_plan_stats(cells, scale, jobs) -> dict:
    """Describe the deterministic chunk plan a ``--jobs N`` sweep uses.

    Pure planning — no timing — so the doc shows how the dispatcher
    groups this sweep's cells (how much per-task overhead amortizes,
    how balanced the estimated costs are) on any host.
    """
    pending = list(enumerate(cells_from_sweep(cells, scale=scale)))
    chunks = plan_chunks(pending, jobs, ChunkingPolicy())
    sizes = [len(chunk.cells) for chunk in chunks]
    costs = [chunk.est_cost for chunk in chunks]
    return {
        "jobs": jobs,
        "n_chunks": len(chunks),
        "cells_per_chunk_min": min(sizes),
        "cells_per_chunk_max": max(sizes),
        "cells_per_chunk_mean": round(sum(sizes) / len(sizes), 2),
        "est_cost_imbalance": round(
            max(costs) / (sum(costs) / len(costs)), 3
        ),
    }


def _warm_workers_section(cells, scale, runs) -> dict:
    """Summarize the warm-worker results already measured in ``runs``
    and evaluate the speedup gate (no extra timing).

    ``gate.enforced`` is False when the host has fewer cores than the
    gate's jobs level; ``gate.met`` is None in that case (unknowable
    here), so downstream checks (``tools/bench_sweep.py --min-warm-
    speedup``) can distinguish "failed" from "host can't tell".
    """
    cpu_count = os.cpu_count() or 1
    parallel_runs = [r for r in runs if r["jobs"] > 1]
    gate_run = next(
        (r for r in parallel_runs if r["jobs"] == WARM_GATE_JOBS), None
    )
    enforced = cpu_count >= WARM_GATE_JOBS and gate_run is not None
    return {
        "dispatch": "persistent pool, chunked cells, canonical-JSON "
                    "results, per-worker warm caches",
        "runs": [
            {
                "jobs": r["jobs"],
                "speedup_vs_serial": r["speedup_vs_serial"],
                "chunk_plan": _chunk_plan_stats(cells, scale, r["jobs"]),
            }
            for r in parallel_runs
        ],
        "gate": {
            "jobs": WARM_GATE_JOBS,
            "min_speedup": WARM_GATE_MIN_SPEEDUP,
            "enforced": enforced,
            "met": (
                gate_run["speedup_vs_serial"] >= WARM_GATE_MIN_SPEEDUP
                if enforced else None
            ),
            "note": (
                None if cpu_count >= WARM_GATE_JOBS else
                f"host has {cpu_count} CPU(s); gate needs "
                f">= {WARM_GATE_JOBS} to be meaningful"
            ),
        },
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
    policy = RunPolicy(on_error="skip", max_cycles=max_cycles)
    jobs_list = sorted(set(jobs_list) | {1})
    runs = [
        _timed_sweep(cells, scale, policy, jobs, repeats)
        for jobs in jobs_list
    ]
    serial_wall = next(r["wall_s"] for r in runs if r["jobs"] == 1)
    for run in runs:
        run["speedup_vs_serial"] = round(serial_wall / run["wall_s"], 3)
    doc = {
        "bench": "sweep-wall-clock",
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
        "warm_workers": _warm_workers_section(cells, scale, runs),
        "engine_fast_forward": _bench_fast_forward(
            scale, max_cycles, repeats
        ),
        "observability": _bench_observability(scale, max_cycles, repeats),
        "checkpoint": _bench_checkpoint(max_cycles, repeats),
    }
    if profile:
        doc["profile"] = _bench_profile(scale, max_cycles)
    return doc


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
    warm = doc.get("warm_workers")
    if warm is not None:
        gate = warm["gate"]
        if gate["enforced"]:
            status = "met" if gate["met"] else "NOT met"
            verdict = (
                f"gate >= {gate['min_speedup']}x at --jobs "
                f"{gate['jobs']}: {status}"
            )
        else:
            verdict = f"gate not enforced ({gate['note']})"
        for run in warm["runs"]:
            plan = run["chunk_plan"]
            lines.append(
                f"warm workers --jobs {run['jobs']}: "
                f"{run['speedup_vs_serial']:.2f}x vs serial, "
                f"{plan['n_chunks']} chunks "
                f"(~{plan['cells_per_chunk_mean']:.1f} cells each)"
            )
        lines.append(f"warm workers: {verdict}")
    ff = doc["engine_fast_forward"]
    lines.append(
        f"engine fast-forward ({ff['cell']}): "
        f"{ff['wall_s_off']:.3f}s -> {ff['wall_s_on']:.3f}s "
        f"({ff['speedup']:.2f}x, cycles identical)"
    )
    obs = doc.get("observability")
    if obs is not None:
        spans_txt = (
            f", {obs['spans_recorded']} spans"
            if obs.get("spans_recorded") else ""
        )
        lines.append(
            f"observability ({obs['cell']}): "
            f"{obs['wall_s_disabled']:.3f}s -> "
            f"{obs['wall_s_enabled']:.3f}s enabled "
            f"({obs['overhead_pct']:+.1f}%, {obs['events_emitted']} "
            f"events{spans_txt}, cycles identical)"
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
    ckpt = doc.get("checkpoint")
    if ckpt is not None:
        save_ms = ckpt["save_ms"]
        load_ms = ckpt["load_ms"]
        roundtrip = (
            "no saves triggered" if save_ms is None
            else f"save {save_ms:.1f}ms / restore {load_ms:.1f}ms"
        )
        lines.append(
            f"checkpoint ({ckpt['cell']}): "
            f"{ckpt['wall_s_disabled']:.3f}s -> "
            f"{ckpt['wall_s_enabled']:.3f}s saving every "
            f"{ckpt['every_cycles']} cycles "
            f"({ckpt['overhead_pct']:+.1f}%, {ckpt['n_saves']} saves, "
            f"{roundtrip}, cycles identical)"
        )
    return "\n".join(lines)


def write_bench(doc: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
