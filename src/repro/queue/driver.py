"""Queue sweep driver: fork workers, watch the queue, merge the journal.

The parent process behind every parallel ``repro sweep`` — ``--jobs N``
on a private temporary queue (:func:`~repro.parallel.run_parallel_sweep`)
and ``--queue-dir DIR`` on a durable one:

1. create (or, with ``--resume``, attach to) the
   :class:`~repro.queue.store.QueueStore`, enqueueing every cell the
   journal does not already record as ok;
2. fork ``workers`` worker processes through the default
   :mod:`multiprocessing` context — and respawn any that die, within a
   budget, emitting :class:`~repro.observability.events.WorkerCrashed`
   after expiring the dead worker's leases at once (no TTL wait); the
   driver starts no thread, so forking is safe, and it reaps every
   worker before it returns, so ``RUSAGE_CHILDREN`` counts their work.
   ``repro worker DIR`` processes on other hosts may join the same
   queue directory;
3. run the reclaimer and translate queue state transitions into the
   standard sweep event stream (``CellStarted`` / ``CellFinished`` /
   ``LeaseExpired`` / ``CellRequeued`` / ``CellQuarantined``) and
   ``runtime.*`` metrics, so ``--progress`` / ``--heartbeat`` work
   unchanged.  Lease expiries are read from the reclaim history the
   cells' records carry, so an expiry an idle worker reclaimed is
   reported exactly like one the driver reclaimed itself;
4. once every cell is terminal, merge the finished-cell records into
   the :class:`~repro.robustness.journal.SweepJournal` **in canonical
   (manifest) order**, through the same
   :func:`~repro.experiments.runner.record_outcome` the serial sweep
   uses — the journal file is byte-identical to a serial sweep's no
   matter how many workers ran, died, or stalled, because cells are
   deterministic.  Under ``--on-error abort`` the merge raises
   :class:`~repro.errors.ExperimentError` at the first failed cell,
   before journaling it, exactly like the serial runner.

A drain signal (SIGINT/SIGTERM via the attached
:class:`~repro.robustness.drain.DrainController`) forwards SIGTERM to
every worker, waits for them to drain (finish or checkpoint + release
their lease), merges what is terminal, and returns with
``report.interrupted`` — re-running with ``--resume`` finishes the
rest.
"""

from __future__ import annotations

import logging
import multiprocessing
import sys
import time
from pathlib import Path

from repro.config import RunConfig
from repro.errors import ConfigError, ExperimentError
from repro.experiments.runner import (
    CELL_FAILED,
    CELL_OK,
    POISON_CELL,
    CellOutcome,
    SweepReport,
    completed_outcome,
    record_outcome,
)
from repro.observability.events import (
    CellFinished,
    CellQuarantined,
    CellRequeued,
    CellStarted,
    LeaseExpired,
    SweepFinished,
    SweepStarted,
    WorkerCrashed,
    WorkerHeartbeat,
)
from repro.parallel.cells import CellResult, CellSpec
from repro.parallel.transport import result_from_dict
from repro.queue.store import (
    DONE,
    LEASED,
    MANIFEST_NAME,
    QUARANTINED,
    QueueStore,
    TERMINAL_STATES,
)
from repro.queue.worker import run_worker
from repro.robustness.drain import DrainController
from repro.robustness.journal import SweepJournal

logger = logging.getLogger(__name__)

#: how long a finished sweep waits for its workers to exit on their own
_EXIT_WAIT_S = 1.0


def _worker_main(queue_dir: str, worker_id: str) -> None:
    """A forked worker: its own drain handling, then the worker loop."""
    drain = DrainController().install()
    sys.exit(run_worker(queue_dir, worker_id=worker_id, drain=drain))


class _WorkerFleet:
    """Fork/respawn bookkeeping for the local worker processes."""

    def __init__(self, queue_dir: Path, n: int, max_respawns: int):
        self.queue_dir = queue_dir
        self.max_respawns = max_respawns
        self.respawns = 0
        self._next_index = 0
        self.procs: list[multiprocessing.Process] = [
            self._fork() for _ in range(n)
        ]

    def _fork(self) -> multiprocessing.Process:
        worker_id = f"w{self._next_index}"
        self._next_index += 1
        proc = multiprocessing.Process(
            target=_worker_main, args=(str(self.queue_dir), worker_id),
            name=worker_id,
        )
        proc.start()
        return proc

    def reap_and_respawn(self) -> list[multiprocessing.Process]:
        """Collect dead workers; respawn crashed ones within budget.
        Returns the workers that crashed since the last pass."""
        crashed: list[multiprocessing.Process] = []
        alive: list[multiprocessing.Process] = []
        for proc in self.procs:
            code = proc.exitcode
            if code is None:
                alive.append(proc)
                continue
            if code == 0:
                continue  # clean exit: queue fully terminal
            crashed.append(proc)
            logger.warning(
                "queue worker %s (pid %d) died with exit code %d",
                proc.name, proc.pid, code,
            )
            if self.respawns < self.max_respawns:
                self.respawns += 1
                alive.append(self._fork())
            else:
                logger.error(
                    "worker respawn budget (%d) exhausted", self.max_respawns
                )
        self.procs = alive
        return crashed

    @property
    def any_alive(self) -> bool:
        return any(proc.is_alive() for proc in self.procs)

    def join(self, timeout: float) -> None:
        """Wait up to ``timeout`` for the workers to exit on their own."""
        deadline = time.monotonic() + timeout
        for proc in self.procs:
            proc.join(max(0.0, deadline - time.monotonic()))

    def terminate(self, grace_s: float) -> None:
        """SIGTERM every live worker (each drains: finishes or
        checkpoints its cell and releases the lease), then reap all of
        them, killing any that outlive ``grace_s``."""
        for proc in self.procs:
            if proc.exitcode is None:
                proc.terminate()
        deadline = time.monotonic() + grace_s
        for proc in self.procs:
            proc.join(max(0.1, deadline - time.monotonic()))
            if proc.exitcode is None:
                logger.warning(
                    "worker %s (pid %d) ignored SIGTERM; killing",
                    proc.name, proc.pid,
                )
                proc.kill()
                proc.join()


def run_queue_sweep(
    cells: list[CellSpec],
    workers: int,
    policy: RunConfig | None = None,
    journal: SweepJournal | None = None,
    resume: bool = False,
    bus=None,
    metrics=None,
    spans=None,
    *,
    queue_dir: str | Path,
    lease_ttl_s: float = 30.0,
    poison_after: int = 3,
    poll_s: float = 0.1,
    drain=None,
    max_respawns: int | None = None,
) -> SweepReport:
    """Run a sweep through the work queue at ``queue_dir`` on
    ``workers`` forked workers (see module doc).

    The drop-in counterpart of
    :meth:`~repro.experiments.runner.BatchRunner.run_sweep`: same
    resume semantics, same journal records (written by the parent, in
    canonical order), same :class:`SweepReport` shape — ok outcomes
    carry the :class:`~repro.parallel.cells.CellResult` their worker
    committed, which exposes the same ``stack`` / ``actual_speedup``
    surface as an ``ExperimentResult``.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    policy = policy or RunConfig()
    journal = journal or SweepJournal(None)
    queue_dir = Path(queue_dir)
    if max_respawns is None:
        max_respawns = 3 * workers

    store = None
    if (queue_dir / MANIFEST_NAME).exists():
        if not resume:
            raise ConfigError(
                f"queue already exists at {queue_dir}; pass --resume to "
                "attach to it or choose a fresh --queue-dir"
            )
        store = QueueStore(queue_dir)

    if bus is not None:
        bus.emit(SweepStarted(len(cells), workers))
    skipped = [
        completed_outcome(journal, cell.name, cell.n_threads, resume, bus)
        for cell in cells
    ]
    live_cells = [
        cell for cell, outcome in zip(cells, skipped) if outcome is None
    ]
    if store is not None:
        expected = {cell.key for cell in live_cells}
        unknown = [key for key in store.order if key not in expected]
        if unknown:
            raise ConfigError(
                f"queue at {queue_dir} holds cells not in this sweep: "
                f"{unknown[:5]}"
            )
    else:
        store = QueueStore.create(
            queue_dir, live_cells, policy,
            lease_ttl_s=lease_ttl_s,
            poison_after=poison_after,
            collect_metrics=metrics is not None,
            collect_spans=spans is not None,
        )

    interrupted = False
    if store.order and not store.all_terminal():
        interrupted = _supervise(
            store, queue_dir, workers, bus=bus, metrics=metrics,
            poll_s=poll_s, drain=drain, max_respawns=max_respawns,
        )

    report = _merge(
        store, cells, skipped, journal, policy,
        metrics=metrics, spans=spans, interrupted=interrupted,
    )
    if bus is not None:
        bus.emit(SweepFinished(
            len(report.completed), len(report.failures),
            len(report.resumed),
        ))
    logger.info(
        "queue sweep done (%d workers): %d ok, %d resumed, %d failed%s",
        workers, len(report.completed), len(report.resumed),
        len(report.failures), " [interrupted]" if report.interrupted else "",
    )
    return report


class QueueWatch:
    """The driver's view of a queue: one :meth:`poll` reclaims expired
    leases and reports what changed since the last poll as sweep events
    and ``runtime.*`` counts.

    Each lease expiry is reported once, from the reclaim history the
    cell's records carry — whoever reclaimed it (this driver, or an
    idle worker).  A cell's record is read only when its state changes,
    so an expiry cycle that completes between two polls surfaces with
    the cell's next visible state at the latest (its terminal record
    keeps the whole history).
    """

    def __init__(self, store: QueueStore, bus=None, metrics=None) -> None:
        self.store = store
        self.bus = bus
        self.metrics = metrics
        self._states: dict[str, str] = {}
        self._started: set[str] = set()
        self._expiries: dict[str, int] = {}
        self._heartbeats: dict[str, float] = {}

    def poll(self) -> None:
        self.store.reclaim_expired()
        if self.bus is None and self.metrics is None:
            return
        for key, state in self.store.states().items():
            if state is None or self._states.get(key) == state:
                continue
            record = self.store.read(state, key)
            if record is None:
                continue  # moved on under us: seen on a later poll
            self._states[key] = state
            self._report_expiries(key, state, record)
            if self.bus is None:
                continue
            if state == LEASED and key not in self._started:
                self._started.add(key)
                self.bus.emit(CellStarted(key, 1))
            elif state in TERMINAL_STATES:
                status = CELL_OK if state == DONE else CELL_FAILED
                self.bus.emit(CellFinished(
                    key, status, record.get("attempts", 0)
                ))
        self._report_heartbeats()

    def _report_expiries(self, key: str, state: str, record: dict) -> None:
        expiries = record.get("expiries", 0)
        reclaims = record.get("reclaims", [])
        seen = self._expiries.get(key, 0)
        for n in range(seen + 1, expiries + 1):
            reclaim = reclaims[n - 1] if n <= len(reclaims) else {}
            quarantined = state == QUARANTINED and n == expiries
            if self.metrics is not None:
                self.metrics.counter("runtime.lease_expiries").inc()
                if quarantined:
                    self.metrics.counter("runtime.quarantined").inc()
                else:
                    self.metrics.counter("runtime.requeues").inc()
            if self.bus is None:
                continue
            self.bus.emit(LeaseExpired(
                key, reclaim.get("worker", "unknown"), n
            ))
            if quarantined:
                self.bus.emit(CellQuarantined(key, n))
            else:
                self.bus.emit(CellRequeued(key, reclaim.get("delay_s", 0.0)))
        self._expiries[key] = max(seen, expiries)

    def _report_heartbeats(self) -> None:
        """Fresh worker heartbeat files as :class:`WorkerHeartbeat`
        events (one per new timestamp)."""
        if self.bus is None:
            return
        for worker, doc in self.store.worker_heartbeats().items():
            ts = doc.get("timestamp")
            if not isinstance(ts, (int, float)) or isinstance(ts, bool):
                continue
            if self._heartbeats.get(worker) == ts:
                continue
            self._heartbeats[worker] = ts
            self.bus.emit(WorkerHeartbeat(worker, ts, doc.get("current_cell")))


def _supervise(
    store: QueueStore,
    queue_dir: Path,
    workers: int,
    *,
    bus,
    metrics,
    poll_s: float,
    drain,
    max_respawns: int,
) -> bool:
    """Worker fleet + reclaimer + event translation until the queue is
    terminal (returns False) or a drain cuts it short (True)."""
    fleet = _WorkerFleet(queue_dir, workers, max_respawns)
    watch = QueueWatch(store, bus, metrics)
    grace_s = max(5.0, 2 * store.lease_ttl_s)
    try:
        while True:
            if drain is not None and drain.requested:
                logger.warning(
                    "drain: asking %d worker(s) to finish or checkpoint",
                    len(fleet.procs),
                )
                fleet.terminate(grace_s)
                return True
            # checked before the poll, so that once every cell is
            # terminal the poll still reports the last changes: a cell
            # reclaimed and re-leased between two polls shows its expiry
            # only on its terminal record
            terminal = store.all_terminal()
            watch.poll()
            if terminal:
                # an idle worker sees a terminal queue within one poll
                # and exits 0; only a straggler gets the drain signal
                fleet.join(_EXIT_WAIT_S)
                return False
            for proc in fleet.reap_and_respawn():
                # the worker is gone, so its leases expire now, a lease
                # it had moved to tmp/ to renew included; the next poll
                # reports each expiry from the cell's record
                store.restore_staged(proc.pid)
                suspects = tuple(
                    event.key
                    for event in store.reclaim_expired(worker=proc.name)
                    if event.worker == proc.name
                )
                if metrics is not None:
                    metrics.counter("runtime.worker_crashes").inc()
                if bus is not None:
                    bus.emit(WorkerCrashed(suspects))
            if not fleet.any_alive:
                raise ExperimentError(
                    "queue", 0,
                    "all queue workers died and the respawn budget "
                    f"({max_respawns}) is exhausted; "
                    f"{store.counts().terminal}/{len(store.order)} cells "
                    "terminal — re-run with --resume to continue",
                )
            if drain is not None:
                drain.wait(poll_s)
            else:
                time.sleep(poll_s)
    finally:
        fleet.terminate(grace_s)


def _terminal_result(cell: CellSpec, record: dict) -> CellResult:
    """The finished-cell record of a terminal queue entry: what the
    worker shipped, or — for a quarantined poison cell — a failure
    built from its lease-expiry history."""
    if record.get("status") != QUARANTINED:
        return result_from_dict(record)
    return CellResult(
        name=cell.name,
        n_threads=cell.n_threads,
        status=CELL_FAILED,
        attempts=record["expiries"],
        error=(
            f"poison cell: {record['expiries']} lease expiries "
            f"(last worker {record.get('last_worker', 'unknown')})"
        ),
        error_type=POISON_CELL,
        snapshot=record.get("postmortem"),
    )


def _merge(
    store: QueueStore,
    cells: list[CellSpec],
    skipped: list[CellOutcome | None],
    journal: SweepJournal,
    policy: RunConfig,
    *,
    metrics,
    spans=None,
    interrupted: bool,
) -> SweepReport:
    """Fold terminal queue records into the journal in canonical order.

    Journal fields come from the same in-cell values the serial runner
    writes (``attempts`` is in-cell retry attempts — infrastructure
    requeues never touch it), so the merged journal is byte-identical
    to a serial sweep's.  Worker span rows riding on the done records
    are absorbed into the parent recorder here (under one
    ``queue.merge`` span) and never journaled — spans are wall-clock.
    """
    merge_id = (
        spans.start("queue.merge", cat="queue") if spans is not None else None
    )
    report = SweepReport(interrupted=interrupted)
    try:
        for cell, outcome in zip(cells, skipped):
            if outcome is not None:  # resumed
                report.outcomes.append(outcome)
                continue
            record = store.result(cell.key)
            if record is None:
                # non-terminal (drained mid-sweep): nothing to journal; a
                # --resume re-run picks the cell up from the queue
                report.interrupted = True
                continue
            if spans is not None and record.get("spans"):
                spans.absorb(record["spans"], parent=merge_id)
            result = _terminal_result(cell, record)
            if result.status == CELL_FAILED and policy.on_error == "abort":
                # match the serial runner: abort raises before the
                # failing cell's record reaches the journal
                raise ExperimentError(
                    result.name, result.n_threads,
                    result.error or "cell failed",
                )
            record_outcome(
                report, journal, CellOutcome.from_result(result),
                metrics, spans,
            )
    finally:
        if spans is not None:
            spans.finish(merge_id)
    return report
