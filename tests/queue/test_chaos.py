"""The chaos harness: the acceptance invariant for the queue backend.

A 3-worker queue sweep with a worker SIGKILLed mid-cell (right after a
checkpoint save), a second worker whose heartbeat stalls mid-lease,
and a third killed the instant it claims a cell must still:

* complete every cell and finish with a clean report;
* write a journal byte-identical to the serial run's;
* resume the killed cell from its checkpoint, not from cycle 0;
* reclaim every orphaned lease via TTL expiry (observable in the
  ``runtime.*`` counters).

The chaos hooks are one-shot (``chaos/`` markers), so respawned
workers do not re-die on the same cell and the sweep converges.
"""

from __future__ import annotations

import pytest

from repro.config import RunConfig
from repro.experiments.runner import BatchRunner
from repro.observability.events import EventBus, LeaseExpired
from repro.observability.metrics import MetricsRegistry
from repro.parallel import cells_from_sweep
from repro.queue import QueueStore, run_queue_sweep
from repro.robustness.journal import SweepJournal
from repro.workloads.suite import sweep_cells

BENCHMARKS = ("cholesky", "blackscholes_small")
THREADS = (2, 4)
SCALE = 1.0
LEASE_TTL_S = 1.0
CHECKPOINT_EVERY = 20_000

KILLED_CELL = "cholesky:4"       # SIGKILL right after a checkpoint save
STALLED_CELL = "cholesky:2"      # heartbeat stops renewing mid-lease
CLAIM_KILL_CELL = "blackscholes_small:2"  # dies the moment it claims


@pytest.fixture(scope="module")
def serial_journal(tmp_path_factory):
    # instrumented, like the chaos run below: with a metrics registry
    # attached the journal carries per-cell sim.* metrics, so the
    # byte-identity assertion covers those too
    path = tmp_path_factory.mktemp("serial") / "journal.json"
    BatchRunner(
        policy=RunConfig(), scale=SCALE, journal=SweepJournal(str(path)),
        metrics=MetricsRegistry(),
    ).run_sweep(sweep_cells(BENCHMARKS, THREADS))
    return path.read_bytes()


def test_chaos_sweep_matches_serial(tmp_path, monkeypatch, serial_journal):
    monkeypatch.setenv("REPRO_TEST_KILL_AFTER_SAVE", KILLED_CELL)
    monkeypatch.setenv("REPRO_TEST_STALL_HEARTBEAT", STALLED_CELL)
    monkeypatch.setenv("REPRO_TEST_KILL_CELL", CLAIM_KILL_CELL)

    bus = EventBus()
    expired: list[LeaseExpired] = []
    bus.subscribe(LeaseExpired, expired.append)
    metrics = MetricsRegistry()
    journal = tmp_path / "journal.json"
    policy = RunConfig(
        checkpoint_dir=str(tmp_path / "ckpt"),
        checkpoint_every=CHECKPOINT_EVERY,
    )
    report = run_queue_sweep(
        cells_from_sweep(sweep_cells(BENCHMARKS, THREADS), scale=SCALE),
        workers=3,
        policy=policy,
        journal=SweepJournal(str(journal)),
        bus=bus,
        metrics=metrics,
        queue_dir=tmp_path / "q",
        lease_ttl_s=LEASE_TTL_S,
    )

    # every cell completed despite two dead workers and a stalled lease
    assert report.ok and not report.interrupted
    assert len(report.completed) == 4
    # ... and the journal is byte-for-byte the serial journal
    assert journal.read_bytes() == serial_journal

    store = QueueStore(tmp_path / "q")
    counts = store.counts()
    assert counts.done == 4 and counts.terminal == 4

    # the killed cell resumed from its checkpoint, not cycle 0
    done = store.result(KILLED_CELL)
    assert done["resumed_from_cycle"] >= CHECKPOINT_EVERY

    # both kill modes orphaned a lease the reclaimer had to expire
    # (the reclaimer runs every driver poll, well inside 2x TTL)
    assert metrics.counter("runtime.lease_expiries").value >= 2
    assert metrics.counter("runtime.requeues").value >= 2
    assert metrics.counter("runtime.quarantined").value == 0
    assert {e.key for e in expired} >= {KILLED_CELL, CLAIM_KILL_CELL}
    assert metrics.counter("runtime.worker_crashes").value >= 2
    assert metrics.counter("runtime.cells_ok").value == 4

    # chaos hooks fired exactly once each (the one-shot markers exist)
    chaos = {p.name for p in (tmp_path / "q" / "chaos").iterdir()}
    assert chaos == {
        "kill-after-save-cholesky@4.json",
        "stall-heartbeat-cholesky@2.json",
        "kill-at-claim-blackscholes_small@2.json",
    }


def test_spans_merge_exactly_once_under_worker_death(tmp_path, monkeypatch):
    """Worker death mid-cell must not duplicate or drop spans: the
    fenced ``complete`` writes each cell's span batch on the terminal
    record only, so the merged document carries every cell exactly once
    — including the cell that crash-resumed from a checkpoint."""
    from repro.observability.spans import SpanRecorder, validate_span_rows

    killed = "cholesky:2"
    monkeypatch.setenv("REPRO_TEST_KILL_AFTER_SAVE", killed)
    spans = SpanRecorder()
    cells = cells_from_sweep(
        sweep_cells(("cholesky", "fft"), (2,)), scale=SCALE,
    )
    report = run_queue_sweep(
        cells,
        workers=2,
        policy=RunConfig(
            checkpoint_dir=str(tmp_path / "ckpt"),
            checkpoint_every=CHECKPOINT_EVERY,
        ),
        journal=SweepJournal(str(tmp_path / "journal.json")),
        spans=spans,
        queue_dir=tmp_path / "q",
        lease_ttl_s=LEASE_TTL_S,
    )
    assert report.ok and len(report.completed) == 2

    store = QueueStore(tmp_path / "q")
    assert store.result(killed)["resumed_from_cycle"] >= CHECKPOINT_EVERY

    rows = spans.to_dicts()
    assert validate_span_rows(rows) == []
    by_name: dict[str, list[dict]] = {}
    for row in rows:
        by_name.setdefault(row["name"], []).append(row)
    # one terminal record per cell -> exactly one queue.run span and one
    # cell span each, even for the killed-and-resumed cell
    assert len(by_name["queue.run"]) == 2
    for key in ("cholesky:2", "fft:2"):
        assert len(by_name[key]) == 1, f"{key}: {by_name.get(key)}"
    # the resumed cell's spans came from the worker that finished it
    (killed_span,) = by_name[killed]
    assert killed_span["origin"].startswith("w")  # a worker, not "main"
    # driver-side merge structure: everything absorbed under queue.merge
    (merge,) = by_name["queue.merge"]
    assert all(
        row["parent"] is not None
        for run in by_name["queue.run"] for row in [run]
    )
    assert {row["parent"] for row in by_name["queue.run"]} == {merge["id"]}


def test_corrupt_lease_mid_sweep_is_reclaimed(tmp_path):
    """Scribbling garbage over a live lease file mid-sweep must not
    strand the cell: the reclaimer treats corrupt leases as expired and
    the (deterministic) cell completes on a later claim."""
    cells = cells_from_sweep(sweep_cells(("cholesky",), (2,)), scale=0.2)
    store = QueueStore.create(
        tmp_path / "q", cells, RunConfig(), lease_ttl_s=30.0,
    )
    lease = store.claim("doomed")
    (tmp_path / "q" / "leased" / "cholesky@2.json").write_text("garbage")
    [event] = store.reclaim_expired()
    assert event.corrupt and event.key == "cholesky:2"
    # the zombie owner is fenced out (its token predates the reclaim)
    assert not store.complete(lease, {"status": "ok", "attempts": 1})

    serial = tmp_path / "serial.json"
    BatchRunner(
        policy=RunConfig(), scale=0.2, journal=SweepJournal(str(serial)),
    ).run_sweep(sweep_cells(("cholesky",), (2,)))
    journal = tmp_path / "journal.json"
    report = run_queue_sweep(
        cells, workers=1, policy=RunConfig(),
        journal=SweepJournal(str(journal)),
        resume=True, queue_dir=tmp_path / "q",
    )
    assert report.ok
    assert journal.read_bytes() == serial.read_bytes()
