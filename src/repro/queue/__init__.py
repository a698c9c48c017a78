"""Durable filesystem work queue for distributed sweeps.

The execution layer the ROADMAP calls "take sweeps distributed":
workers lease cells under a TTL, renew through heartbeats, crash-resume
from the checkpoint files, and a reclaimer guarantees no killed or hung
worker ever strands a cell — all on atomic renames over a shared
directory, no external services.  See ``docs/distributed.md`` for the
queue layout, the lease state machine, and the failure matrix.

* :mod:`repro.queue.store` — :class:`QueueStore`, the on-disk state
  machine (pending → leased → done/failed/quarantined);
* :mod:`repro.queue.worker` — :class:`QueueWorker` /
  :func:`run_worker`, the ``repro worker`` process loop;
* :mod:`repro.queue.driver` — :func:`run_queue_sweep`, the parent that
  forks workers and merges the byte-identical journal (``--jobs N``
  runs it on a private temporary directory, ``--queue-dir`` on a
  durable one).
"""

from repro.experiments.runner import POISON_CELL
from repro.queue.driver import run_queue_sweep
from repro.queue.store import (
    DONE,
    FAILED,
    LEASED,
    PENDING,
    QUARANTINED,
    Lease,
    QueueCounts,
    QueueStore,
    ReclaimEvent,
)
from repro.queue.worker import QueueWorker, run_worker

__all__ = [
    "DONE",
    "FAILED",
    "LEASED",
    "PENDING",
    "POISON_CELL",
    "QUARANTINED",
    "Lease",
    "QueueCounts",
    "QueueStore",
    "QueueWorker",
    "ReclaimEvent",
    "run_queue_sweep",
    "run_worker",
]
