"""Warm-worker execution: per-process caches and the chunk entry point.

A pool worker is *persistent* — it lives for the whole sweep and runs
many cells — so everything a cell computes that depends only on frozen
inputs is worth keeping warm across cells:

* **runner cache** (:class:`WorkerCaches`): one
  :class:`~repro.experiments.runner.BatchRunner` per
  ``(policy, scale, machine_json)``, which carries the memoized
  single-threaded reference (``Ts`` measured once per benchmark, shared
  by every thread count the worker sees) exactly like a serial sweep;
* **machine cache**: ``machine_json`` parses to a
  :class:`~repro.config.MachineConfig` once per worker, not once per
  cell — the same base-machine reuse
  :class:`~repro.experiments.scenarios.ExperimentCache` keys on;
* **trace-decode memo** (``workloads/tracefile.py``): global and
  content-keyed, so it warms up per worker automatically;
* **warm-filled cache/ATD structures**: ``reset()``/``warm_fill`` fast
  paths inside the engine reuse allocated tag stores across a runner's
  cells instead of rebuilding them.

Cache *keys* are the whole correctness story: every entry is keyed by
all frozen inputs it depends on, so two cells with different machines
or benchmarks sharing a worker can never bleed state into each other —
``tests/parallel/test_worker_cache.py`` runs warm-vs-cold differentials
to prove it.  :class:`QueueWorker <repro.queue.worker.QueueWorker>`
builds on the same class so distributed workers amortize identically.
"""

from __future__ import annotations

import json
import os
from dataclasses import replace

from repro.config import RunConfig, machine_from_dict
from repro.experiments.runner import BatchRunner, CELL_FAILED, CELL_OK
from repro.observability.metrics import harvest_cell_metrics
from repro.observability.spans import SpanRecorder
from repro.parallel.cells import KILL_ENV, CellResult, CellSpec
from repro.parallel.transport import append_spill, encode_chunk_results


class WorkerCaches:
    """Per-process warm state, keyed by every frozen input it serves.

    One instance lives for a worker process's lifetime; both the pool
    workers here and :class:`~repro.queue.worker.QueueWorker` hold one.
    ``runner_cls`` participates in the key so a queue worker's hook-
    splicing runner subclass never aliases a plain runner's entry.
    """

    def __init__(self) -> None:
        self._machines: dict[str, object] = {}
        self._runners: dict[tuple, BatchRunner] = {}

    def machine_factory(self, machine_json: str | None):
        """Re-coring factory for a cell's base machine (memoized parse);
        None keeps the runner's paper-default machine."""
        if machine_json is None:
            return None
        machine = self._machines.get(machine_json)
        if machine is None:
            machine = machine_from_dict(json.loads(machine_json))
            self._machines[machine_json] = machine
        return machine.with_cores

    def runner(
        self,
        policy: RunConfig,
        scale: float,
        machine_json: str | None,
        runner_cls: type[BatchRunner] = BatchRunner,
        **kwargs,
    ) -> BatchRunner:
        """The warm runner for one (policy, scale, machine) family.

        ``kwargs`` (metrics registry, drain controller, ...) must be
        per-worker constants: they configure the runner on first build
        and are assumed identical on every later hit.
        """
        key = (policy, scale, machine_json, runner_cls)
        runner = self._runners.get(key)
        if runner is None:
            runner = runner_cls(
                policy=policy,
                scale=scale,
                machine_factory=self.machine_factory(machine_json),
                **kwargs,
            )
            self._runners[key] = runner
        return runner

    def clear(self) -> None:
        self._machines.clear()
        self._runners.clear()


#: the process-wide cache instance pool workers execute against
_CACHES = WorkerCaches()


def worker_caches() -> WorkerCaches:
    return _CACHES


def reset_worker_caches() -> None:
    """Drop all warm state (tests use this to simulate a cold worker)."""
    _CACHES.clear()


def span_origin() -> str:
    """Span lane label for this worker process."""
    return f"worker-{os.getpid()}"


def execute_cell(
    runner: BatchRunner,
    cell: CellSpec,
    collect_metrics: bool = False,
    spans: SpanRecorder | None = None,
) -> CellResult:
    """Run one cell on a warm runner and reduce its outcome to the
    finished-cell record both worker kinds ship.

    Runs the standard ``BatchRunner.run_cell`` protocol — fault
    application, retry-with-backoff, outcome classification.  Faults
    travel as (kind, seed), not closures: ``run_cell`` rebuilds the
    fault itself and can then describe it in checkpoint descriptors for
    crash-resume (a closure would be opaque and non-resumable).

    With ``collect_metrics`` the cell's flat ``sim.*`` metrics dict is
    harvested here, with the same
    :func:`~repro.observability.metrics.harvest_cell_metrics` the
    serial runner uses (the live ``chip``/``threads`` objects it reads
    do not pickle) — which keeps serial, pool and queue journals
    byte-identical with metrics enabled.

    ``spans`` is pointed at the runner for just this cell (the cell's
    phase spans land in it); ``runner.spans`` is a mutable attribute
    *outside* the :class:`WorkerCaches` key on purpose — cache keys may
    only hold frozen inputs.  The caller attaches the rows.
    """
    if cell.fault is not None:
        runner.fault_plan = {cell.key: (cell.fault, cell.fault_seed)}
    else:
        runner.fault_plan = {}
    runner.spans = spans
    try:
        outcome = runner.run_cell(cell.spec, cell.n_threads)
    finally:
        runner.spans = None
    if outcome.status != CELL_OK:
        return CellResult(
            name=outcome.name,
            n_threads=outcome.n_threads,
            status=CELL_FAILED,
            attempts=outcome.attempts,
            error=outcome.error,
            error_type=outcome.error_type,
            snapshot=outcome.snapshot,
        )
    result = outcome.result
    assert result is not None
    return CellResult(
        name=outcome.name,
        n_threads=outcome.n_threads,
        status=CELL_OK,
        attempts=outcome.attempts,
        stack=result.stack,
        report=result.report,
        total_cycles=result.total_cycles,
        truncated=result.truncated,
        mt_instrs=result.mt_result.total_instrs,
        mt_spin_instrs=result.mt_result.total_spin_instrs,
        st_instrs=result.st_result.total_instrs if result.st_result else 0,
        metrics=harvest_cell_metrics(result) if collect_metrics else None,
    )


def run_cell_task(
    cell: CellSpec,
    policy: RunConfig,
    collect_metrics: bool = False,
    collect_spans: bool = False,
) -> CellResult:
    """Execute one cell in a pool worker (see :func:`execute_cell`).

    ``abort`` is enforced by the parent (a worker must never raise
    across the pipe), so it is downgraded to ``skip`` here.  With
    ``collect_spans`` a fresh per-cell
    :class:`~repro.observability.spans.SpanRecorder` times the cell and
    its rows travel on ``CellResult.spans`` — so they ride the spill
    protocol too, and a spill-recovered cell keeps its spans exactly
    once.
    """
    if os.environ.get(KILL_ENV) == cell.key:
        os._exit(17)  # simulated hard worker death (test hook)
    if policy.on_error == "abort":
        policy = replace(policy, on_error="skip")
    runner = _CACHES.runner(policy, cell.scale, cell.machine_json)
    recorder = SpanRecorder(origin=span_origin()) if collect_spans else None
    result = execute_cell(runner, cell, collect_metrics, recorder)
    if recorder is None:
        return result
    return replace(result, spans=recorder.to_dicts())


def run_chunk_task(
    chunk_cells: tuple[tuple[int, CellSpec], ...],
    policy: RunConfig,
    collect_metrics: bool = False,
    spill_path: str | None = None,
    collect_spans: bool = False,
) -> bytes:
    """Execute one chunk of cells and return canonical JSON bytes.

    The pool's entry point.  Cells run in chunk order against this
    worker's warm caches; each completed cell is appended (and flushed)
    to ``spill_path`` *before* the next cell starts, so a worker death
    mid-chunk loses at most the in-flight cell — the parent recovers
    the spilled results and re-runs only the remainder.

    With ``collect_spans`` each result carries its own span rows (see
    :func:`run_cell_task`) and the payload envelope additionally ships
    one ``chunk.execute`` span covering the whole chunk.  With spans
    disabled the payload bytes are identical to pre-span builds.
    """
    results: list[tuple[int, CellResult]] = []
    chunk_rec = SpanRecorder(origin=span_origin()) if collect_spans else None
    execute_id = None
    if chunk_rec is not None:
        execute_id = chunk_rec.start(
            "chunk.execute", cat="parallel", n_cells=len(chunk_cells)
        )
    spill = open(spill_path, "w") if spill_path is not None else None
    try:
        for index, cell in chunk_cells:
            result = run_cell_task(
                cell, policy, collect_metrics, collect_spans=collect_spans
            )
            results.append((index, result))
            if spill is not None:
                append_spill(spill, index, result)
    finally:
        if spill is not None:
            spill.close()
    chunk_spans = None
    if chunk_rec is not None:
        chunk_rec.finish(execute_id)
        chunk_spans = chunk_rec.to_dicts()
    return encode_chunk_results(results, spans=chunk_spans)
