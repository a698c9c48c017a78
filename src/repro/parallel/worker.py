"""Warm-worker execution: per-process caches and the one cell step.

A queue worker is *persistent* — it lives for the whole sweep and runs
many cells — so everything a cell computes that depends only on frozen
inputs is worth keeping warm across cells:

* **runner cache** (:class:`WorkerCaches`): one
  :class:`~repro.experiments.runner.BatchRunner` per
  ``(policy, scale, machine_json)``, which carries the memoized
  single-threaded reference (``Ts`` measured once per benchmark, shared
  by every thread count the worker sees) exactly like a serial sweep —
  and the queue's claim rule keeps a benchmark's cells on the worker
  that holds its ``Ts``;
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
to prove it.  Each :class:`QueueWorker <repro.queue.worker.QueueWorker>`
holds one :class:`WorkerCaches`.
"""

from __future__ import annotations

import json

from repro.config import RunConfig, machine_from_dict
from repro.experiments.runner import BatchRunner, CELL_FAILED, CELL_OK
from repro.observability.metrics import harvest_cell_metrics
from repro.observability.spans import SpanRecorder
from repro.parallel.cells import CellResult, CellSpec


class WorkerCaches:
    """Per-process warm state, keyed by every frozen input it serves.

    One instance lives for a worker process's lifetime.
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


def execute_cell(
    runner: BatchRunner,
    cell: CellSpec,
    collect_metrics: bool = False,
    spans: SpanRecorder | None = None,
) -> CellResult:
    """Run one cell on a warm runner and reduce its outcome to the
    finished-cell record a worker commits.

    Runs the standard ``BatchRunner.run_cell`` protocol — fault
    application, retry-with-backoff, outcome classification.  Faults
    travel as (kind, seed), not closures: ``run_cell`` rebuilds the
    fault itself and can then describe it in checkpoint descriptors for
    crash-resume (a closure would be opaque and non-resumable).

    With ``collect_metrics`` the cell's flat ``sim.*`` metrics dict is
    harvested here, with the same
    :func:`~repro.observability.metrics.harvest_cell_metrics` the
    serial runner uses (the live ``chip``/``threads`` objects it reads
    do not serialize) — which keeps serial and queue journals
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
