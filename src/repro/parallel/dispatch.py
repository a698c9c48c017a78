"""``sweep --jobs N``: the work queue on a private directory.

A local parallel sweep is the durable work queue
(:func:`~repro.queue.run_queue_sweep`) run on a temporary directory by
``jobs`` forked workers, so a local sweep and a multi-host
``--queue-dir`` sweep share one claim protocol, one crash recovery and
one journal merge.  The directory lives only as long as the call: a
``--resume`` re-run recovers finished cells from the journal.
"""

from __future__ import annotations

import tempfile

from repro.config import RunConfig
from repro.experiments.runner import SweepReport
from repro.parallel.cells import CellSpec
from repro.robustness.journal import SweepJournal


def run_parallel_sweep(
    cells: list[CellSpec],
    jobs: int,
    policy: RunConfig | None = None,
    journal: SweepJournal | None = None,
    resume: bool = False,
    bus=None,
    metrics=None,
    drain=None,
    spans=None,
    *,
    lease_ttl_s: float = 30.0,
    poison_after: int = 3,
) -> SweepReport:
    """Run a sweep on ``jobs`` forked workers over a private queue.

    The drop-in parallel counterpart of
    :meth:`~repro.experiments.runner.BatchRunner.run_sweep`: same
    resume semantics, same journal bytes, an equal
    :class:`SweepReport` (see :func:`~repro.queue.run_queue_sweep`,
    which this runs with ``workers=jobs``).  A dead worker's cell is
    reclaimed and re-run in the same sweep; with ``on_error="abort"``
    the first failed cell raises :class:`~repro.errors.ExperimentError`
    after in-order journaling of the cells before it.  ``lease_ttl_s``
    and ``poison_after`` are the queue's lease TTL and quarantine
    threshold.
    """
    # imported here: the queue builds on this package's cell specs and
    # their transport, so it cannot be imported while this one loads
    from repro.queue.driver import run_queue_sweep

    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as queue_dir:
        return run_queue_sweep(
            cells, workers=jobs, policy=policy, journal=journal,
            resume=resume, bus=bus, metrics=metrics, spans=spans,
            queue_dir=queue_dir, drain=drain, lease_ttl_s=lease_ttl_s,
            poison_after=poison_after,
        )
