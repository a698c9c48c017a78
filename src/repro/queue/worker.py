"""Queue worker: claim → run → complete, forever, and die gracefully.

A :class:`QueueWorker` attaches to a queue directory and loops:

1. claim the first claimable pending cell (single-winner rename);
2. start a renewal thread that extends the lease every TTL/3 and
   refreshes the worker's heartbeat file;
3. run the cell on its warm runner
   (:func:`~repro.parallel.worker.execute_cell`) — faults,
   retry-with-backoff, and crucially *checkpoint resume*: a cell
   reclaimed from a dead worker picks up that worker's config-hash-
   guarded checkpoint and continues from the saved cycle instead of
   cycle 0;
4. commit the finished-cell record — the
   :class:`~repro.parallel.cells.CellResult` dict, plus the resume
   cycle and the cell's spans — with a fencing-token check: a worker
   whose lease expired mid-run (stalled heartbeat, long GC pause)
   discovers it here and discards its result; the new owner recomputes
   the byte-identical record.

A failing cell is recorded, never raised: ``--on-error abort`` runs as
``skip`` here, and the driver aborts at merge time in canonical order.
Idle workers run the reclaimer, so a fleet of bare ``repro worker``
processes is self-sufficient: no parent needed for liveness, only for
the final journal merge.  A worker exits 0 once every cell is terminal,
and :data:`~repro.robustness.drain.EXIT_DRAINED` when drained by
SIGTERM/SIGINT — mid-cell the engine checkpoints first (when
checkpointing is armed), then the lease is released with no expiry
penalty.

Chaos hooks (test-only, armed via environment variables, firing at
most once per queue thanks to the store's one-shot markers):

* ``REPRO_TEST_KILL_CELL=<key>`` — ``os._exit(17)`` at claim time,
  before any work: the reclaim path must recover a cell that never
  even started.
* ``REPRO_TEST_KILL_AFTER_SAVE=<key>`` — ``os._exit(29)`` right after
  the first periodic checkpoint save of that cell: the recovering
  worker *must* resume from a cycle > 0 (the acceptance criterion for
  mid-cell crash-resume).
* ``REPRO_TEST_STALL_HEARTBEAT=<key>`` — the renewal thread silently
  stops renewing while holding that cell, simulating a hung worker;
  the reclaimer takes the lease and the worker's completion loses the
  fencing-token check.
"""

from __future__ import annotations

import logging
import os
import threading
import time
from dataclasses import replace

from repro.experiments.runner import BatchRunner
from repro.observability.spans import SpanRecorder, maybe_span
from repro.parallel.cells import CellResult
from repro.parallel.transport import result_to_dict
from repro.parallel.worker import WorkerCaches, execute_cell
from repro.queue.store import Lease, QueueStore
from repro.robustness.drain import (
    EXIT_DRAINED,
    DrainController,
    DrainRequested,
)

logger = logging.getLogger(__name__)

KILL_AT_CLAIM_ENV = "REPRO_TEST_KILL_CELL"
KILL_AFTER_SAVE_ENV = "REPRO_TEST_KILL_AFTER_SAVE"
STALL_HEARTBEAT_ENV = "REPRO_TEST_STALL_HEARTBEAT"

#: distinct exit codes for the chaos kills (assertable in tests)
KILL_AT_CLAIM_EXIT = 17
KILL_AFTER_SAVE_EXIT = 29


class _KillAfterSaveHook:
    """Checkpoint-hook wrapper that hard-kills the process right after
    the first successful periodic save (chaos hook); everything else
    is the wrapped hook's."""

    def __init__(self, inner) -> None:
        self.inner = inner

    def __getattr__(self, name: str):
        return getattr(self.inner, name)

    def save(self, sim, reason: str):
        header = self.inner.save(sim, reason)
        if reason == "interval":
            os._exit(KILL_AFTER_SAVE_EXIT)
        return header


class _QueueRunner(BatchRunner):
    """BatchRunner with the kill-after-save chaos hook spliced into the
    checkpoint chain of one cell (see module doc)."""

    kill_after_save_key: str | None = None

    def _open_cell(self, spec, n_threads, fault, attempt):
        cell = super()._open_cell(spec, n_threads, fault, attempt)
        hook = cell.kernel.checkpoint
        key = f"{spec.full_name}:{n_threads}"
        if hook is not None and key == self.kill_after_save_key:
            cell.kernel.checkpoint = _KillAfterSaveHook(hook)
        return cell


class _LeaseRenewer(threading.Thread):
    """Renews one lease every TTL/3 until stopped (or told to stall).

    With ``spans`` attached each renewal is recorded retroactively —
    :meth:`SpanRecorder.record` is thread-safe, and retroactive rows
    keep the renewer's spans off the worker thread's parent stack.
    """

    def __init__(
        self, store: QueueStore, lease: Lease, stall: bool = False,
        spans: SpanRecorder | None = None,
    ) -> None:
        super().__init__(name=f"lease-renew-{lease.key}", daemon=True)
        self.store = store
        self.lease = lease
        self.stall = stall
        self.spans = spans
        self.lost = threading.Event()
        self._halt = threading.Event()

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=self.store.lease_ttl_s)

    def run(self) -> None:
        interval = self.store.lease_ttl_s / 3.0
        while not self._halt.wait(interval):
            if self.stall:
                logger.warning(
                    "chaos: stalling heartbeat for %s", self.lease.key
                )
                return
            t0 = self.spans.now_us() if self.spans is not None else 0
            renewed = self.store.renew(self.lease)
            if self.spans is not None:
                self.spans.record(
                    "queue.lease_renew", "queue",
                    t0, self.spans.now_us() - t0,
                    key=self.lease.key, renewed=renewed,
                )
            if not renewed:
                logger.warning(
                    "lease on %s lost (reclaimed); result will be "
                    "discarded at completion", self.lease.key,
                )
                self.lost.set()
                return


class QueueWorker:
    """One worker process loop over a queue directory."""

    def __init__(
        self,
        store: QueueStore,
        worker_id: str | None = None,
        drain: DrainController | None = None,
        poll_s: float = 0.05,
    ) -> None:
        self.store = store
        self.worker_id = worker_id or f"worker-{os.getpid()}"
        self.drain = drain or DrainController()
        self.poll_s = poll_s
        self.cells_run = 0
        # a failing cell must reach the queue as a record: the driver
        # enforces abort at merge time, in canonical order
        self._policy = store.policy
        if self._policy.on_error == "abort":
            self._policy = replace(self._policy, on_error="skip")
        # warm runner per (policy, scale, machine) family and a memoized
        # machine parse, so reference runs and trace decodes amortize
        # across the worker's claimed cells; the drain controller is a
        # per-worker constant, which is exactly what WorkerCaches
        # requires of runner kwargs
        self._caches = WorkerCaches()

    # -- cell execution -------------------------------------------------

    def _run_cell(
        self, lease: Lease, spans: SpanRecorder | None = None
    ) -> tuple[CellResult, int | None]:
        """The cell's finished-cell record and the checkpoint cycle it
        resumed from (None for a fresh run)."""
        cell = lease.cell
        runner = self._caches.runner(
            self._policy,
            cell.scale,
            cell.machine_json,
            runner_cls=_QueueRunner,
            drain=self.drain,
        )
        runner.kill_after_save_key = None
        if os.environ.get(KILL_AFTER_SAVE_ENV) == cell.key:
            if self.store.chaos_armed("kill-after-save", cell.key):
                runner.kill_after_save_key = cell.key
        # the cell's own spans (trace.decode, engine.advance, ...) nest
        # under queue.run via the runner's thread-local span stack
        with maybe_span(spans, "queue.run", cat="queue", key=cell.key):
            result = execute_cell(
                runner, cell, self.store.collect_metrics, spans
            )
        return result, runner.resumed_from

    # -- the loop -------------------------------------------------------

    def _heartbeat(self, key: str | None) -> None:
        try:
            self.store.write_worker_heartbeat(self.worker_id, {
                "worker": self.worker_id,
                "pid": os.getpid(),
                "timestamp": time.time(),
                "current_cell": key,
                "cells_run": self.cells_run,
            })
        except OSError:
            logger.debug("worker heartbeat write failed", exc_info=True)

    def run(self, run_reclaimer: bool = True) -> int:
        """Work until the queue is fully terminal (0) or a drain signal
        arrives (:data:`EXIT_DRAINED`)."""
        store = self.store
        logger.info(
            "worker %s attached to %s (%d cells, TTL %.1fs, poison "
            "after %d)",
            self.worker_id, store.root, len(store.order),
            store.lease_ttl_s, store.poison_after,
        )
        while True:
            if self.drain.requested:
                self._heartbeat(None)
                return EXIT_DRAINED
            # per-cell recorder, created before claim so the claim span
            # can be recorded retroactively once the winner is known;
            # discarded when the claim comes back empty
            recorder = (
                SpanRecorder(origin=self.worker_id)
                if store.collect_spans else None
            )
            t_claim = recorder.now_us() if recorder is not None else 0
            lease = store.claim(self.worker_id)
            if lease is None:
                recorder = None
                if run_reclaimer:
                    store.reclaim_expired()
                if store.all_terminal():
                    self._heartbeat(None)
                    logger.info(
                        "worker %s: queue drained (%d cells run here)",
                        self.worker_id, self.cells_run,
                    )
                    return 0
                self.drain.wait(self.poll_s)
                continue
            if recorder is not None:
                recorder.record(
                    "queue.claim", "queue",
                    t_claim, recorder.now_us() - t_claim, key=lease.key,
                )
            if os.environ.get(KILL_AT_CLAIM_ENV) == lease.key:
                if store.chaos_armed("kill-at-claim", lease.key):
                    os._exit(KILL_AT_CLAIM_EXIT)
            self._heartbeat(lease.key)
            stall = os.environ.get(STALL_HEARTBEAT_ENV) == lease.key and (
                store.chaos_armed("stall-heartbeat", lease.key)
            )
            renewer = _LeaseRenewer(store, lease, stall=stall, spans=recorder)
            renewer.start()
            try:
                result, resumed_from = self._run_cell(lease, spans=recorder)
            except DrainRequested as exc:
                renewer.stop()
                released = store.release(lease)
                logger.warning(
                    "worker %s drained (%s) mid-cell %s: lease %s%s",
                    self.worker_id, exc.reason, lease.key,
                    "released" if released else "already lost",
                    ", checkpoint saved" if exc.saved else "",
                )
                self._heartbeat(None)
                return EXIT_DRAINED
            renewer.stop()
            if recorder is not None:
                # attached after the renewer stops so late lease-renew
                # rows are included; the driver's merge absorbs them
                # and never journals them (spans are wall-clock)
                result = replace(result, spans=recorder.to_dicts())
            record = result_to_dict(result)
            if resumed_from is not None:
                record["resumed_from_cycle"] = resumed_from
            self.cells_run += 1
            if not store.complete(lease, record):
                logger.warning(
                    "worker %s: lost lease on %s before completion; "
                    "discarding result (new owner recomputes it)",
                    self.worker_id, lease.key,
                )
            self._heartbeat(None)


def run_worker(
    queue_dir: str,
    worker_id: str | None = None,
    drain: DrainController | None = None,
    poll_s: float = 0.05,
) -> int:
    """Entry point behind ``repro worker <queue-dir>``."""
    store = QueueStore(queue_dir)
    worker = QueueWorker(
        store, worker_id=worker_id, drain=drain, poll_s=poll_s
    )
    return worker.run()
