"""Parallel execution for suite sweeps.

Sweep cells — one (benchmark, thread-count) experiment each — are
embarrassingly parallel: every cell's result derives only from its
:class:`~repro.workloads.spec.BenchmarkSpec` and the machine
configuration, and all workload randomness is seeded per cell from
:func:`repro.workloads.generators.seed_for`.  ``sweep --jobs N`` runs
them on the work queue (:mod:`repro.queue`) with forked, persistent
workers while keeping the observable behaviour of the serial
:class:`~repro.experiments.runner.BatchRunner` path exactly — journals
are byte-identical at any ``--jobs`` value, and the returned
:class:`~repro.experiments.runner.SweepReport` compares ``==`` to the
serial one.

Layout:

* :mod:`~repro.parallel.cells` — :class:`CellSpec`, the value object
  a worker runs a cell from;
* :mod:`~repro.parallel.transport` — the canonical plain-data form of
  a finished cell's outcome (its queue record);
* :mod:`~repro.parallel.dispatch` — :func:`run_parallel_sweep`, the
  queue on a private temporary directory.

A queue worker runs each cell with
:meth:`BatchRunner.run_cell <repro.experiments.runner.BatchRunner.run_cell>`
(see :mod:`repro.queue.worker`).
"""

from repro.parallel.cells import CellSpec, cells_from_sweep
from repro.parallel.dispatch import run_parallel_sweep

__all__ = [
    "CellSpec",
    "cells_from_sweep",
    "run_parallel_sweep",
]
