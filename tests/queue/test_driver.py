"""Queue-sweep driver: journal byte-identity, resume, quarantine merge.

These tests run real worker subprocesses (the default spawn) over the
tiny fixture benchmark — fast enough for tier 1; the heavyweight chaos
scenarios live in ``test_chaos.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.config import RunConfig
from repro.errors import ConfigError
from repro.experiments.runner import BatchRunner
from repro.observability.events import (
    CellFinished,
    CellQuarantined,
    CellRequeued,
    EventBus,
    LeaseExpired,
    SweepFinished,
)
from repro.observability.metrics import MetricsRegistry
from repro.parallel import cells_from_sweep
from repro.queue import POISON_CELL, QueueStore, run_queue_sweep
from repro.queue.driver import QueueWatch
from repro.robustness.journal import SweepJournal
from repro.workloads.suite import sweep_cells

POLICY = RunConfig(on_error="skip")


def _serial_journal(tmp_path, tiny_spec):
    path = tmp_path / "serial.json"
    BatchRunner(
        policy=POLICY, journal=SweepJournal(str(path)),
    ).run_sweep([(tiny_spec, 2), (tiny_spec, 4)])
    return path.read_bytes()


class TestQueueSweep:
    def test_journal_byte_identical_to_serial(
        self, tmp_path, tiny_spec, tiny_cells
    ):
        serial = _serial_journal(tmp_path, tiny_spec)
        journal = tmp_path / "queue.json"
        report = run_queue_sweep(
            tiny_cells, workers=2, policy=POLICY,
            journal=SweepJournal(str(journal)),
            queue_dir=tmp_path / "q",
        )
        assert report.ok and not report.interrupted
        assert [o.key for o in report.completed] == ["tiny:2", "tiny:4"]
        assert journal.read_bytes() == serial
        # ok outcomes expose the CLI's display surface
        stack = report.completed[0].result.stack
        assert stack.actual_speedup > 1.0

    def test_resume_skips_journaled_cells(self, tmp_path, tiny_cells):
        journal_path = tmp_path / "j.json"
        journal = SweepJournal(str(journal_path))
        journal.record_ok("tiny", 2, attempts=1, total_cycles=123)
        report = run_queue_sweep(
            tiny_cells, workers=1, policy=POLICY, journal=journal,
            resume=True, queue_dir=tmp_path / "q",
        )
        statuses = {o.key: o.status for o in report.outcomes}
        assert statuses == {"tiny:2": "resumed", "tiny:4": "ok"}
        # only the live cell ever entered the queue
        assert QueueStore(tmp_path / "q").order == ["tiny:4"]

    def test_existing_queue_requires_resume(
        self, tmp_path, tiny_cells, policy
    ):
        QueueStore.create(tmp_path / "q", tiny_cells, policy)
        with pytest.raises(ConfigError, match="--resume"):
            run_queue_sweep(
                tiny_cells, workers=1, policy=POLICY,
                queue_dir=tmp_path / "q",
            )

    def test_foreign_queue_rejected(self, tmp_path, tiny_cells, policy):
        QueueStore.create(tmp_path / "q", tiny_cells, policy)
        with pytest.raises(ConfigError, match="not in this sweep"):
            run_queue_sweep(
                tiny_cells[:1], workers=1, policy=POLICY, resume=True,
                queue_dir=tmp_path / "q",
            )

    def test_instrumented_journal_matches_serial(
        self, tmp_path, tiny_spec, tiny_cells
    ):
        """With metrics enabled, workers harvest per-cell sim.* metrics
        (the manifest's collect_metrics flag) so the journal still
        matches an instrumented serial run byte for byte."""
        serial_path = tmp_path / "serial.json"
        serial_metrics = MetricsRegistry()
        BatchRunner(
            policy=POLICY, journal=SweepJournal(str(serial_path)),
            metrics=serial_metrics,
        ).run_sweep([(tiny_spec, 2), (tiny_spec, 4)])

        queue_path = tmp_path / "queue.json"
        queue_metrics = MetricsRegistry()
        report = run_queue_sweep(
            tiny_cells, workers=2, policy=POLICY,
            journal=SweepJournal(str(queue_path)),
            metrics=queue_metrics,
            queue_dir=tmp_path / "q",
        )
        assert report.ok
        assert queue_path.read_bytes() == serial_path.read_bytes()
        sim = lambda reg: {  # noqa: E731
            k: v.value for k, v in reg.counters.items()
            if k.startswith("sim.")
        }
        assert sim(queue_metrics) == sim(serial_metrics) != {}

    def test_workers_must_be_positive(self, tmp_path, tiny_cells):
        with pytest.raises(ValueError, match="workers"):
            run_queue_sweep(
                tiny_cells, workers=0, queue_dir=tmp_path / "q",
            )


class TestQuarantineMerge:
    def test_poison_cell_reaches_journal_and_report(
        self, tmp_path, tiny_cells, policy
    ):
        """A cell quarantined by the reclaimer merges as a journal
        failure with the poison error type (no wall-clock: the store is
        driven to quarantine with explicit timestamps first)."""
        store = QueueStore.create(
            tmp_path / "q", tiny_cells, policy,
            lease_ttl_s=10.0, poison_after=1,
        )
        lease = store.claim("dead-worker", now=0.0)
        [event] = store.reclaim_expired(now=100.0)
        assert event.quarantined and lease.key == "tiny:2"

        bus = EventBus()
        quarantined, finished = [], []
        bus.subscribe(CellQuarantined, quarantined.append)
        bus.subscribe(CellFinished, finished.append)
        bus.subscribe(SweepFinished, lambda e: None)
        metrics = MetricsRegistry()
        journal_path = tmp_path / "j.json"
        report = run_queue_sweep(
            tiny_cells, workers=1, policy=policy,
            journal=SweepJournal(str(journal_path)),
            resume=True, queue_dir=tmp_path / "q",
            bus=bus, metrics=metrics,
        )
        assert not report.ok
        [failure] = report.failures
        assert failure.key == "tiny:2"
        assert failure.error_type == POISON_CELL
        assert "1 lease expiries" in failure.error
        assert "dead-worker" in failure.error
        entry = json.loads(journal_path.read_text())["cells"]["tiny:2"]
        assert entry["status"] == "failed"
        assert entry["error_type"] == POISON_CELL
        # the healthy sibling still completed normally
        assert [o.key for o in report.completed] == ["tiny:4"]
        assert metrics.counter("runtime.cells_failed").value == 1
        assert metrics.counter("runtime.cells_ok").value == 1


class TestReclaimReporting:
    """The driver reports a lease expiry once, whoever reclaimed it."""

    def _watch(self, store):
        bus = EventBus()
        events = []
        for kind in (LeaseExpired, CellRequeued, CellQuarantined):
            bus.subscribe(kind, events.append)
        metrics = MetricsRegistry()
        return QueueWatch(store, bus, metrics), events, metrics

    def test_expiry_reclaimed_by_an_idle_worker_is_reported_once(
        self, tmp_path, tiny_cells, policy
    ):
        store = QueueStore.create(
            tmp_path / "q", tiny_cells, policy, lease_ttl_s=10.0,
        )
        store.claim("dead-worker", now=0.0)
        # a second store on the same directory stands in for an idle
        # worker running the reclaimer before the driver's next poll
        [event] = QueueStore(tmp_path / "q").reclaim_expired(now=100.0)
        assert event.key == "tiny:2" and not event.quarantined

        watch, events, metrics = self._watch(store)
        watch.poll()
        watch.poll()  # nothing new to report
        assert events == [
            LeaseExpired("tiny:2", "dead-worker", 1),
            CellRequeued("tiny:2", 1.0),
        ]
        assert metrics.counter("runtime.lease_expiries").value == 1
        assert metrics.counter("runtime.requeues").value == 1

    def test_expiry_surfaces_from_the_terminal_record(
        self, tmp_path, tiny_cells, policy
    ):
        """A requeued cell that is claimed again and completes before
        the driver polls still reports its expiry: the done record
        keeps the cell's reclaim history."""
        store = QueueStore.create(
            tmp_path / "q", tiny_cells, policy, lease_ttl_s=10.0,
        )
        store.claim("dead-worker", now=0.0)
        store.reclaim_expired(now=100.0)
        lease = store.claim("w2", now=200.0)
        assert lease.key == "tiny:2"
        assert store.complete(lease, {"status": "ok", "attempts": 1})
        assert store.result("tiny:2")["expiries"] == 1

        watch, events, metrics = self._watch(store)
        watch.poll()
        assert events == [
            LeaseExpired("tiny:2", "dead-worker", 1),
            CellRequeued("tiny:2", 1.0),
        ]
        assert metrics.counter("runtime.lease_expiries").value == 1


def test_version_1_queue_refused_on_resume(tmp_path):
    """``repro sweep --backend queue --resume`` on a queue written by an
    older build exits 2 with one ``error:`` line, never a traceback."""
    queue_dir = tmp_path / "q"
    QueueStore.create(
        queue_dir, cells_from_sweep(sweep_cells(("fft",), (2,))),
        RunConfig(),
    )
    manifest = queue_dir / "queue.json"
    doc = json.loads(manifest.read_text())
    doc["version"] = 1
    manifest.write_text(json.dumps(doc))

    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--benchmarks", "fft",
         "-n", "2", "--backend", "queue", "--queue-dir", str(queue_dir),
         "--resume"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "version 1" in proc.stderr
