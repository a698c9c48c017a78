"""Parallel execution for suite sweeps.

Sweep cells — one (benchmark, thread-count) experiment each — are
embarrassingly parallel: every cell's result derives only from its
:class:`~repro.workloads.spec.BenchmarkSpec` and the machine
configuration, and all workload randomness is seeded per cell from
:func:`repro.workloads.generators.seed_for`.  ``sweep --jobs N`` runs
them on the work queue (:mod:`repro.queue`) with forked, persistent
workers while keeping the observable behaviour of the serial
:class:`~repro.experiments.runner.BatchRunner` path exactly — journals
are byte-identical at any ``--jobs`` value.

Layout:

* :mod:`~repro.parallel.cells` — the :class:`CellSpec` /
  :class:`CellResult` value objects crossing the process boundary;
* :mod:`~repro.parallel.worker` — worker-side execution against
  per-process warm caches (:class:`WorkerCaches`,
  :func:`execute_cell`);
* :mod:`~repro.parallel.transport` — the canonical plain-data form of
  a finished-cell record;
* :mod:`~repro.parallel.dispatch` — :func:`run_parallel_sweep`, the
  queue on a private temporary directory.
"""

from repro.parallel.cells import CellResult, CellSpec, cells_from_sweep
from repro.parallel.dispatch import run_parallel_sweep
from repro.parallel.worker import WorkerCaches

__all__ = [
    "CellResult",
    "CellSpec",
    "WorkerCaches",
    "cells_from_sweep",
    "run_parallel_sweep",
]
