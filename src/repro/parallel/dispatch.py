"""Parent-side chunked dispatch over a persistent warm-worker pool.

The driver behind ``sweep --jobs N``.  Observable behaviour is the
serial :class:`~repro.experiments.runner.BatchRunner` path, exactly:

* **determinism** — a cell computes the same speedup stack in any
  worker, in any chunk, at any ``--jobs`` value, because nothing about
  a cell's inputs depends on the process running it (the differential
  suite under ``tests/parallel/`` locks this down bit-for-bit);
* **ordered collection** — chunk results carry sweep indices and are
  merged back into submission order, so the journal file is
  byte-identical to a serial sweep's regardless of chunk shape or
  completion order;
* **parent-only journal writes** — workers never see the journal;
  every append happens in the parent (the journal additionally refuses
  to save from a foreign process, see
  :class:`~repro.robustness.journal.SweepJournal`);
* **crash containment with spill recovery** — a worker dying breaks
  the pool; cells its chunk had already completed are recovered from
  the chunk's spill file (journaled, never re-executed), the first
  incomplete cell of each broken chunk is re-run alone in a
  single-worker pool for exact attribution, and the rest requeue onto
  a rebuilt pool.

In-simulation failures (deadlock, livelock, parse errors) never cross
the process boundary as exceptions: the worker classifies them into a
:class:`~repro.parallel.cells.CellResult` exactly like
``BatchRunner.run_cell`` does, so retry/backoff runs inside the worker
and only canonical JSON bytes travel over the pipe.
"""

from __future__ import annotations

import logging
import os
import tempfile
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

from repro.config import RunConfig
from repro.errors import ExperimentError
from repro.experiments.runner import (
    CELL_FAILED,
    CELL_OK,
    CellOutcome,
    SweepReport,
    completed_outcome,
    record_outcome,
)
from repro.observability.events import (
    CellFinished,
    CellStarted,
    ChunkDispatched,
    ChunkFinished,
    SweepFinished,
    SweepStarted,
    WorkerCrashed,
)
from repro.parallel.cells import WORKER_CRASH, CellResult, CellSpec
from repro.parallel.chunking import Chunk, ChunkingPolicy, plan_chunks
from repro.parallel.transport import decode_chunk_payload, read_spill
from repro.parallel.worker import run_chunk_task
from repro.robustness.journal import SweepJournal

logger = logging.getLogger(__name__)


def _crashed_result(cell: CellSpec, attempts: int) -> CellResult:
    return CellResult(
        name=cell.name,
        n_threads=cell.n_threads,
        status=CELL_FAILED,
        attempts=attempts,
        error="worker process died while running this cell",
        error_type=WORKER_CRASH,
    )


def _run_quarantined(
    index: int, cell: CellSpec, policy: RunConfig, max_attempts: int,
    collect_metrics: bool = False, collect_spans: bool = False,
) -> CellResult:
    """Re-run one crash suspect alone in single-worker pools.

    With exactly one single-cell chunk per pool, a broken pool
    attributes the crash to this cell beyond doubt; an innocent
    bystander of someone else's crash simply completes on its first
    quarantined attempt.
    """
    attempts = 0
    while attempts < max_attempts:
        attempts += 1
        with ProcessPoolExecutor(max_workers=1) as pool:
            try:
                payload = pool.submit(
                    run_chunk_task, ((index, cell),), policy,
                    collect_metrics, None, collect_spans,
                ).result()
                return decode_chunk_payload(payload)[0][0][1]
            except BrokenExecutor:
                logger.warning(
                    "cell %s crashed its worker (quarantined attempt %d/%d)",
                    cell.key, attempts, max_attempts,
                )
    return _crashed_result(cell, attempts)


def _execute_cells(
    pending: list[tuple[int, CellSpec]],
    jobs: int,
    policy: RunConfig,
    collect_metrics: bool = False,
    bus=None,
    drain=None,
    chunking: ChunkingPolicy | None = None,
    metrics=None,
    spans=None,
) -> tuple[dict[int, CellResult], bool]:
    """Run cells on a warm pool in chunks; survive worker deaths.

    The pool is built once per dispatch round and its workers persist
    across every chunk of the round — the warm caches in
    :mod:`repro.parallel.worker` amortize reference runs, machine
    parses and trace decodes over all the cells a worker executes.

    When a worker dies, *every* unfinished chunk future fails with
    :class:`BrokenExecutor` and the true victim is not directly
    observable.  Each broken chunk's spill file tells the parent which
    cells completed (recovered, never re-run); the first incomplete
    cell of each of the first ``jobs`` broken chunks — the only cells
    that can have been in flight — is quarantined
    (:func:`_run_quarantined`) for exact attribution, and every other
    incomplete cell is re-planned into fresh chunks on a rebuilt pool.

    ``drain`` (a :class:`~repro.robustness.drain.DrainController`)
    makes the pool signal-aware: on a drain request, queued chunks are
    cancelled, in-flight chunks run to completion (pool workers cannot
    be unwound mid-cell), and the second element of the returned tuple
    is True — collected results cover exactly the cells that finished.
    """
    results: dict[int, CellResult] = {}
    interrupted = False
    chunking = chunking or ChunkingPolicy()
    collect_spans = spans is not None
    max_crash_attempts = 1 + (
        policy.max_retries if policy.on_error == "retry" else 0
    )
    # Live progress: journaling stays in submission order, but the bus
    # hears about each chunk's cells as its future actually completes —
    # possibly from the executor's callback thread, so decoded payloads
    # are cached under a lock (the collector reuses them) and emissions
    # are deduplicated per chunk.
    decoded: dict[str, tuple[list[tuple[int, CellResult]], list]] = {}
    decode_lock = threading.Lock()

    def _decode_once(chunk: Chunk, payload: bytes):
        with decode_lock:
            cached = decoded.get(chunk.chunk_id)
            if cached is not None:
                return cached[0], cached[1], False
            pairs, chunk_spans = decode_chunk_payload(payload)
            decoded[chunk.chunk_id] = (pairs, chunk_spans)
            return pairs, chunk_spans, True

    def _absorb_chunk(
        chunk: Chunk, t0_us: int,
        chunk_spans: list, cell_results,
    ) -> None:
        """Record the parent's chunk.dispatch span (submit → collect)
        and merge the worker's chunk + per-cell span rows under it.
        Runs only in the collector thread, once per chunk."""
        dispatch_id = spans.record(
            "chunk.dispatch", "parallel",
            t0_us, spans.now_us() - t0_us, chunk=chunk.chunk_id,
        )
        if chunk_spans:
            spans.absorb(chunk_spans, parent=dispatch_id)
        for result in cell_results:
            if result.spans:
                spans.absorb(result.spans, parent=dispatch_id)

    def _notify_done(chunk: Chunk, future) -> None:
        try:
            payload = future.result()
        except BaseException:
            return  # crash handling (and its events) happen in the collector
        pairs, _chunk_spans, fresh = _decode_once(chunk, payload)
        if not fresh:
            return
        ok = failed = 0
        for _, result in pairs:
            if result.status == CELL_OK:
                ok += 1
            else:
                failed += 1
            bus.emit(CellFinished(result.key, result.status, result.attempts))
        bus.emit(ChunkFinished(chunk.chunk_id, len(pairs), ok, failed))

    queue = list(pending)
    round_no = 0
    with tempfile.TemporaryDirectory(prefix="repro-sweep-spill-") as spill_dir:
        while queue:
            chunks = plan_chunks(
                queue, jobs, chunking, id_prefix=f"r{round_no}-"
            )
            requeue: list[tuple[int, CellSpec]] = []
            suspects: list[tuple[int, CellSpec]] = []
            recovered_total = 0
            submit_t0: dict[str, int] = {}
            with ProcessPoolExecutor(max_workers=jobs) as pool:
                futures = []
                for chunk in chunks:
                    spill = os.path.join(
                        spill_dir, f"{chunk.chunk_id}.jsonl"
                    )
                    if spans is not None:
                        submit_t0[chunk.chunk_id] = spans.now_us()
                    future = pool.submit(
                        run_chunk_task, chunk.cells, policy,
                        collect_metrics, spill, collect_spans,
                    )
                    if metrics is not None:
                        metrics.counter("runtime.chunks_dispatched").inc()
                    if bus is not None:
                        bus.emit(ChunkDispatched(
                            chunk.chunk_id, chunk.keys,
                            round(chunk.est_cost, 3),
                        ))
                        for _, cell in chunk.cells:
                            bus.emit(CellStarted(cell.key, 1))
                        future.add_done_callback(
                            lambda f, c=chunk: _notify_done(c, f)
                        )
                    futures.append((chunk, spill, future))
                broken_chunks = 0
                for chunk, spill, future in futures:
                    if (
                        not interrupted
                        and drain is not None and drain.requested
                    ):
                        interrupted = True
                        pool.shutdown(wait=False, cancel_futures=True)
                        logger.warning(
                            "drain: cancelled queued chunks; waiting for "
                            "in-flight chunks to finish"
                        )
                    if interrupted and future.cancelled():
                        continue
                    try:
                        payload = future.result()
                    except BrokenExecutor:
                        spilled = read_spill(spill)
                        results.update(spilled)
                        recovered_total += len(spilled)
                        if spans is not None and spilled:
                            # spill lines carry each completed cell's
                            # spans: recovered cells keep them exactly
                            # once (the chunk envelope died unreturned)
                            _absorb_chunk(
                                chunk, submit_t0[chunk.chunk_id],
                                [], spilled.values(),
                            )
                        incomplete = [
                            (i, cell) for i, cell in chunk.cells
                            if i not in spilled
                        ]
                        if bus is not None:
                            for i, result in spilled.items():
                                bus.emit(CellFinished(
                                    result.key, result.status,
                                    result.attempts,
                                ))
                        # Only the first incomplete cell of a chunk can
                        # have been running when the pool broke: cells
                        # behind it in the chunk had not started.
                        if incomplete:
                            if broken_chunks < jobs:
                                broken_chunks += 1
                                suspects.append(incomplete[0])
                                requeue.extend(incomplete[1:])
                            else:
                                requeue.extend(incomplete)
                        continue
                    pairs, chunk_spans, _fresh = _decode_once(
                        chunk, payload
                    )
                    results.update(dict(pairs))
                    if spans is not None:
                        _absorb_chunk(
                            chunk, submit_t0[chunk.chunk_id],
                            chunk_spans, [r for _, r in pairs],
                        )
                    if metrics is not None:
                        metrics.counter("runtime.chunks_finished").inc()
            if metrics is not None and recovered_total:
                metrics.counter(
                    "runtime.cells_recovered_from_spill"
                ).inc(recovered_total)
            if interrupted:
                return results, True
            if suspects:
                logger.warning(
                    "worker pool broke; recovered %d spilled cell(s), "
                    "quarantining %d suspect(s), requeueing %d",
                    recovered_total, len(suspects), len(requeue),
                )
                if bus is not None:
                    bus.emit(WorkerCrashed(
                        tuple(cell.key for _, cell in suspects)
                    ))
            for index, cell in suspects:
                results[index] = _run_quarantined(
                    index, cell, policy, max_crash_attempts,
                    collect_metrics, collect_spans,
                )
                if spans is not None and results[index].spans:
                    spans.absorb(results[index].spans)
                if bus is not None:
                    bus.emit(CellFinished(
                        cell.key, results[index].status,
                        results[index].attempts,
                    ))
            queue = requeue
            round_no += 1
    return results, interrupted


def run_parallel_sweep(
    cells: list[CellSpec],
    jobs: int,
    policy: RunConfig | None = None,
    journal: SweepJournal | None = None,
    resume: bool = False,
    bus=None,
    metrics=None,
    drain=None,
    chunking: ChunkingPolicy | None = None,
    spans=None,
) -> SweepReport:
    """Fan a sweep out over ``jobs`` persistent worker processes.

    The drop-in parallel counterpart of
    :meth:`~repro.experiments.runner.BatchRunner.run_sweep`: same
    resume semantics, same journal records (written by the parent, in
    submission order), same :class:`SweepReport` shape — each ok/failed
    outcome's ``result`` is a :class:`CellResult` instead of an
    ``ExperimentResult``, but exposes the same ``stack`` /
    ``actual_speedup`` surface the CLI and tests consume.  With
    ``on_error="abort"`` the first failed cell raises
    :class:`~repro.errors.ExperimentError` after in-order journaling of
    the cells before it.

    ``chunking`` shapes the cell→chunk assignment (default: adaptive by
    estimated cost — see
    :class:`~repro.parallel.chunking.ChunkingPolicy`); any policy
    produces byte-identical journals, only wall time changes.

    ``bus`` receives sweep/chunk/cell lifecycle events in the parent —
    cell-finished events fire as chunk futures complete (live
    progress), while journaling stays in submission order.  ``metrics``
    turns on worker-side harvest: each ok cell's ``sim.*`` dict is
    absorbed into the registry and journaled, exactly as the serial
    runner does.

    ``drain`` makes the sweep signal-aware: a SIGINT/SIGTERM cancels
    the queued chunks, lets in-flight chunks finish, journals
    everything that completed, and returns with ``report.interrupted``
    set — a ``--resume`` re-run finishes the rest.

    ``spans`` (a :class:`~repro.observability.spans.SpanRecorder`)
    turns on worker-side span collection: each cell's harness spans
    and each chunk's ``chunk.execute`` envelope come back in the chunk
    payload and are absorbed here under per-chunk ``chunk.dispatch``
    spans — the same merge path metrics take, and like metrics it
    never changes the journal (spans are wall-clock, so they are never
    journaled at all).
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    policy = policy or RunConfig()
    journal = journal or SweepJournal(None)

    outcomes: list[CellOutcome | None] = []
    pending: list[tuple[int, CellSpec]] = []
    if bus is not None:
        bus.emit(SweepStarted(len(cells), jobs))
    for index, cell in enumerate(cells):
        outcomes.append(completed_outcome(
            journal, cell.name, cell.n_threads, resume, bus
        ))
        if outcomes[-1] is None:
            pending.append((index, cell))

    results, interrupted = _execute_cells(
        pending, jobs, policy,
        collect_metrics=metrics is not None, bus=bus, drain=drain,
        chunking=chunking, metrics=metrics, spans=spans,
    )

    report = SweepReport(interrupted=interrupted)
    for index, outcome in enumerate(outcomes):
        if outcome is not None:  # resumed
            report.outcomes.append(outcome)
            continue
        result = results.get(index)
        if result is None:
            # drained before this cell ran: nothing to journal; a
            # --resume re-run picks it up
            report.interrupted = True
            continue
        if result.status == CELL_FAILED and policy.on_error == "abort":
            # match the serial runner: abort raises before the failing
            # cell's record hits the journal
            raise ExperimentError(
                result.name, result.n_threads,
                result.error or "cell failed",
            )
        record_outcome(
            report, journal, CellOutcome.from_result(result), metrics, spans
        )
        if metrics is not None and result.error_type == WORKER_CRASH:
            metrics.counter("runtime.worker_crashes").inc()
    if bus is not None:
        bus.emit(SweepFinished(
            len(report.completed), len(report.failures),
            len(report.resumed),
        ))
    logger.info(
        "parallel sweep done (%d jobs): %d ok, %d resumed, %d failed",
        jobs, len(report.completed), len(report.resumed),
        len(report.failures),
    )
    return report
