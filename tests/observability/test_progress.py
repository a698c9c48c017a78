"""ProgressReporter: rendered lines, ETA, and the heartbeat file."""

from __future__ import annotations

import io
import json

from repro.observability.events import (
    CellFinished,
    CellRetry,
    CellStarted,
    EventBus,
    SweepFinished,
    SweepStarted,
    WorkerCrashed,
    WorkerHeartbeat,
)
from repro.observability.progress import ProgressReporter, _fmt_duration


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def reporter_with_bus(
    n_cells=4, jobs=2, heartbeat_path=None, heartbeat_log_path=None
):
    bus = EventBus()
    stream = io.StringIO()
    clock = FakeClock()
    reporter = ProgressReporter(
        n_cells, jobs=jobs, stream=stream,
        heartbeat_path=heartbeat_path,
        heartbeat_log_path=heartbeat_log_path,
        clock=clock, wall_clock=clock,
    ).attach(bus)
    return bus, reporter, stream, clock


class TestRendering:
    def test_lifecycle_counts(self):
        bus, reporter, stream, clock = reporter_with_bus()
        bus.emit(SweepStarted(4, 2))
        bus.emit(CellStarted("a:2", 1))
        clock.t = 2.0
        bus.emit(CellFinished("a:2", "ok", 1))
        bus.emit(CellFinished("b:2", "resumed", 0))
        bus.emit(CellStarted("c:2", 1))
        bus.emit(CellFinished("c:2", "failed", 1))
        assert reporter.ok == 1
        assert reporter.resumed == 1
        assert reporter.failed == 1
        assert reporter.done == 3
        last = stream.getvalue().splitlines()[-1]
        assert "sweep 3/4" in last and "failed=1" in last

    def test_active_cells_shown_with_age(self):
        bus, _, stream, clock = reporter_with_bus()
        bus.emit(CellStarted("slow:16", 1))
        clock.t = 3.0
        bus.emit(CellStarted("quick:2", 1))
        assert "active: quick:2 (0.0s), slow:16 (3.0s)" in (
            stream.getvalue().splitlines()[-1]
        )

    def test_retry_and_crash_counters(self):
        bus, reporter, stream, _ = reporter_with_bus()
        bus.emit(CellRetry("a:2", 2, 0.5, "boom"))
        bus.emit(WorkerCrashed(("a:2", "b:2")))
        assert reporter.retries == 1 and reporter.crashes == 1
        assert "crashes=1" in stream.getvalue().splitlines()[-1]

    def test_sweep_finished_flushes_final_line(self):
        bus, _, stream, _ = reporter_with_bus()
        bus.emit(SweepFinished(4, 0, 0))
        assert "finished" in stream.getvalue()


class TestEta:
    def test_no_eta_until_a_cell_finishes(self):
        _, reporter, _, _ = reporter_with_bus()
        assert reporter.eta_seconds() is None

    def test_eta_is_mean_duration_scaled_by_remaining_over_jobs(self):
        bus, reporter, _, clock = reporter_with_bus(n_cells=5, jobs=2)
        bus.emit(CellStarted("a:2", 1))
        clock.t = 4.0
        bus.emit(CellFinished("a:2", "ok", 1))
        # one 4s cell done, 4 remaining over 2 workers -> 8s
        assert reporter.eta_seconds() == 8.0

    def test_eta_zero_once_all_done(self):
        bus, reporter, _, clock = reporter_with_bus(n_cells=1, jobs=1)
        bus.emit(CellStarted("a:2", 1))
        clock.t = 1.0
        bus.emit(CellFinished("a:2", "ok", 1))
        assert reporter.eta_seconds() == 0.0


class TestWorkerHeartbeats:
    def test_heartbeat_ages_in_line(self):
        bus, reporter, stream, clock = reporter_with_bus()
        clock.t = 10.0
        bus.emit(WorkerHeartbeat("w0", 10.0, "a:2"))
        bus.emit(WorkerHeartbeat("w1", 10.0, None))
        clock.t = 13.5
        bus.emit(CellStarted("a:2", 1))
        last = stream.getvalue().splitlines()[-1]
        assert "hb w0=3.5s w1=3.5s" in last

    def test_heartbeats_refresh_file_without_printing(self, tmp_path):
        path = tmp_path / "hb.json"
        bus, _, stream, clock = reporter_with_bus(heartbeat_path=str(path))
        clock.t = 5.0
        bus.emit(WorkerHeartbeat("w0", 4.0, "a:2"))
        assert stream.getvalue() == ""  # no stderr line for a heartbeat
        doc = json.loads(path.read_text())
        assert doc["workers"] == {
            "w0": {"age_s": 1.0, "current_cell": "a:2"},
        }

    def test_heartbeat_log_appends_history(self, tmp_path):
        log = tmp_path / "hb.jsonl"
        bus, _, _, clock = reporter_with_bus(
            heartbeat_log_path=str(log),
        )
        bus.emit(CellStarted("a:2", 1))
        clock.t = 1.0
        bus.emit(CellFinished("a:2", "ok", 1))
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(lines) == 2
        assert lines[0]["done"] == 0 and lines[1]["done"] == 1
        # history is valid under the artifact validator's rules
        assert lines[0]["timestamp"] <= lines[1]["timestamp"]


class TestHeartbeat:
    def test_heartbeat_file_tracks_state(self, tmp_path):
        path = tmp_path / "heartbeat.json"
        bus, _, _, clock = reporter_with_bus(heartbeat_path=str(path))
        bus.emit(SweepStarted(4, 2))
        bus.emit(CellStarted("a:2", 1))
        clock.t = 1.5
        bus.emit(CellFinished("a:2", "ok", 1))
        doc = json.loads(path.read_text())
        assert doc["total"] == 4
        assert doc["done"] == 1 and doc["ok"] == 1
        assert doc["jobs"] == 2
        assert doc["active"] == {}
        assert doc["eta_s"] == 2.25  # 1.5s mean * 3 remaining / 2 jobs

    def test_heartbeat_written_atomically(self, tmp_path):
        path = tmp_path / "heartbeat.json"
        bus, _, _, _ = reporter_with_bus(heartbeat_path=str(path))
        bus.emit(CellStarted("a:2", 1))
        assert json.loads(path.read_text())["active"] == {"a:2": 0.0}
        assert list(tmp_path.iterdir()) == [path]  # no leftover temp file


class TestFormatting:
    def test_fmt_duration(self):
        assert _fmt_duration(2.34) == "2.3s"
        assert _fmt_duration(61) == "1m01s"
        assert _fmt_duration(3660) == "1h01m"
