"""Live sweep telemetry: stderr progress lines and a heartbeat file.

A :class:`ProgressReporter` subscribes to the sweep-level events
(:class:`~repro.observability.events.CellStarted` /
:class:`CellFinished` / :class:`CellRetry` / :class:`WorkerCrashed`)
and renders a one-line status on every change::

    sweep 12/48 ok=11 failed=1 | running cholesky:16 (8.2s) | eta 1m03s

ETA is the mean duration of finished cells times the remaining count,
divided by the worker slots — crude, but it converges as cells finish
and needs no prior model of cell cost.  Parallel sweeps additionally
feed :class:`~repro.observability.events.WorkerHeartbeat` events, and
the line then carries each worker's last-heartbeat age.

With a ``heartbeat_path`` the reporter also writes a small JSON
document (atomically: temp file + rename) on every event, so an
external monitor — or a human with ``watch cat`` — can follow a
headless sweep without parsing stderr.  Heartbeats carry wall-clock
timestamps and are *never* part of the journal, which must stay
byte-deterministic.

The reporter is thread-safe, so a caller may emit events from more
than one thread.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

from repro.observability.events import (
    CellFinished,
    CellQuarantined,
    CellRequeued,
    CellRetry,
    CellStarted,
    EventBus,
    LeaseExpired,
    SweepFinished,
    SweepStarted,
    WorkerCrashed,
    WorkerHeartbeat,
)


def _fmt_duration(seconds: float) -> str:
    if seconds < 60:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 60:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class ProgressReporter:
    """Renders sweep progress to a stream and (optionally) a heartbeat
    file, driven entirely by bus events."""

    def __init__(
        self,
        n_cells: int,
        jobs: int = 1,
        stream=None,
        heartbeat_path: str | None = None,
        heartbeat_log_path: str | None = None,
        clock=time.monotonic,
        wall_clock=time.time,
    ) -> None:
        self.n_cells = n_cells
        self.jobs = max(1, jobs)
        self.stream = stream if stream is not None else sys.stderr
        self.heartbeat_path = heartbeat_path
        self.heartbeat_log_path = heartbeat_log_path
        self._clock = clock
        self._wall = wall_clock
        self._lock = threading.Lock()
        self._t0 = clock()
        self._running: dict[str, float] = {}  # key -> start time
        self._durations: list[float] = []
        self.ok = 0
        self.failed = 0
        self.resumed = 0
        self.retries = 0
        self.crashes = 0
        self.lease_expiries = 0
        self.requeues = 0
        self.quarantined = 0
        #: worker -> (last heartbeat wall timestamp, current cell)
        self._worker_beats: dict[str, tuple[float, str | None]] = {}

    # -- bus wiring -----------------------------------------------------

    _SUBSCRIPTIONS = (
        (SweepStarted, "_on_sweep_started"),
        (SweepFinished, "_on_sweep_finished"),
        (CellStarted, "_on_cell_started"),
        (CellRetry, "_on_cell_retry"),
        (CellFinished, "_on_cell_finished"),
        (WorkerCrashed, "_on_worker_crashed"),
        (WorkerHeartbeat, "_on_worker_heartbeat"),
        (LeaseExpired, "_on_lease_expired"),
        (CellRequeued, "_on_cell_requeued"),
        (CellQuarantined, "_on_cell_quarantined"),
    )

    def attach(self, bus: EventBus) -> "ProgressReporter":
        for event_type, method in self._SUBSCRIPTIONS:
            bus.subscribe(event_type, getattr(self, method))
        return self

    def detach(self, bus: EventBus) -> None:
        for event_type, method in self._SUBSCRIPTIONS:
            bus.unsubscribe(event_type, getattr(self, method))

    # -- derived state --------------------------------------------------

    @property
    def done(self) -> int:
        return self.ok + self.failed + self.resumed

    def eta_seconds(self) -> float | None:
        with self._lock:
            return self._eta_locked()

    # -- handlers -------------------------------------------------------

    def _on_sweep_started(self, event) -> None:
        with self._lock:
            self.n_cells = event.n_cells
            self.jobs = max(1, event.jobs)
            self._t0 = self._clock()
        self._emit("started")

    def _on_sweep_finished(self, event) -> None:
        self._emit("finished", final=True)

    def _on_cell_started(self, event) -> None:
        with self._lock:
            self._running.setdefault(event.key, self._clock())
        self._emit(f"run {event.key}")

    def _on_cell_retry(self, event) -> None:
        with self._lock:
            self.retries += 1
        self._emit(f"retry {event.key} (attempt {event.attempt})")

    def _on_cell_finished(self, event) -> None:
        with self._lock:
            started = self._running.pop(event.key, None)
            if started is not None:
                self._durations.append(self._clock() - started)
            if event.status == "ok":
                self.ok += 1
            elif event.status == "resumed":
                self.resumed += 1
            else:
                self.failed += 1
        self._emit(f"{event.status} {event.key}")

    def _on_worker_crashed(self, event) -> None:
        with self._lock:
            self.crashes += 1
        self._emit(f"worker crashed ({len(event.suspects)} cells suspect)")

    def _on_worker_heartbeat(self, event) -> None:
        # heartbeats are frequent and carry no sweep-state change, so
        # they refresh the heartbeat file but never print a line; the
        # ages surface on the next rendered event
        with self._lock:
            self._worker_beats[event.worker] = (
                event.timestamp, event.current_cell
            )
            heartbeat = (
                self._heartbeat_locked()
                if self.heartbeat_path or self.heartbeat_log_path
                else None
            )
        if heartbeat is not None:
            self._write_heartbeat(heartbeat)

    def _on_lease_expired(self, event) -> None:
        with self._lock:
            self.lease_expiries += 1
            # the cell is no longer making progress under that worker
            self._running.pop(event.key, None)
        self._emit(
            f"lease expired {event.key} "
            f"(worker {event.worker}, expiry #{event.expiries})"
        )

    def _on_cell_requeued(self, event) -> None:
        with self._lock:
            self.requeues += 1
        self._emit(f"requeued {event.key} (+{event.delay_s:.1f}s backoff)")

    def _on_cell_quarantined(self, event) -> None:
        with self._lock:
            self.quarantined += 1
        self._emit(
            f"quarantined {event.key} after {event.expiries} lease expiries"
        )

    # -- output ---------------------------------------------------------

    def _emit(self, what: str, final: bool = False) -> None:
        with self._lock:
            line = self._render_locked(what)
            heartbeat = (
                self._heartbeat_locked()
                if self.heartbeat_path or self.heartbeat_log_path
                else None
            )
        print(line, file=self.stream)
        if final:
            self.stream.flush()
        if heartbeat is not None:
            self._write_heartbeat(heartbeat)

    def _render_locked(self, what: str) -> str:
        now = self._clock()
        parts = [
            f"sweep {self.done}/{self.n_cells}",
            f"ok={self.ok}",
        ]
        if self.resumed:
            parts.append(f"resumed={self.resumed}")
        if self.failed:
            parts.append(f"failed={self.failed}")
        if self.retries:
            parts.append(f"retries={self.retries}")
        if self.crashes:
            parts.append(f"crashes={self.crashes}")
        if self.lease_expiries:
            parts.append(f"expiries={self.lease_expiries}")
        if self.requeues:
            parts.append(f"requeues={self.requeues}")
        if self.quarantined:
            parts.append(f"quarantined={self.quarantined}")
        line = " ".join(parts) + f" | {what}"
        if self._running:
            active = ", ".join(
                f"{key} ({_fmt_duration(now - t)})"
                for key, t in sorted(self._running.items())
            )
            line += f" | active: {active}"
        if self._worker_beats:
            wall = self._wall()
            ages = " ".join(
                f"{worker}={_fmt_duration(max(0.0, wall - ts))}"
                for worker, (ts, _cell) in sorted(self._worker_beats.items())
            )
            line += f" | hb {ages}"
        eta = self._eta_locked()
        if eta is not None:
            line += f" | eta {_fmt_duration(eta)}"
        return line

    def _eta_locked(self) -> float | None:
        if not self._durations:
            return None
        remaining = self.n_cells - self.done
        if remaining <= 0:
            return 0.0
        mean = sum(self._durations) / len(self._durations)
        return mean * remaining / self.jobs

    def _heartbeat_locked(self) -> dict:
        now = self._clock()
        doc = {
            "timestamp": self._wall(),
            "elapsed_s": round(now - self._t0, 3),
            "total": self.n_cells,
            "done": self.done,
            "ok": self.ok,
            "failed": self.failed,
            "resumed": self.resumed,
            "retries": self.retries,
            "worker_crashes": self.crashes,
            "lease_expiries": self.lease_expiries,
            "requeues": self.requeues,
            "quarantined": self.quarantined,
            "jobs": self.jobs,
            "active": {
                key: round(now - t, 3)
                for key, t in sorted(self._running.items())
            },
            "eta_s": (
                round(self._eta_locked(), 3)
                if self._eta_locked() is not None else None
            ),
        }
        if self._worker_beats:
            wall = self._wall()
            doc["workers"] = {
                worker: {
                    "age_s": round(max(0.0, wall - ts), 3),
                    "current_cell": cell,
                }
                for worker, (ts, cell) in sorted(self._worker_beats.items())
            }
        return doc

    def _write_heartbeat(self, payload: dict) -> None:
        if self.heartbeat_path is not None:
            tmp = f"{self.heartbeat_path}.tmp.{os.getpid()}"
            with open(tmp, "w") as handle:
                json.dump(payload, handle, indent=1)
                handle.write("\n")
            os.replace(tmp, self.heartbeat_path)
        if self.heartbeat_log_path is not None:
            # append-only JSONL history of every heartbeat, one compact
            # object per line — the input `repro report` and
            # tools/validate_trace.py --kind heartbeat-log consume
            try:
                with open(self.heartbeat_log_path, "a") as handle:
                    handle.write(
                        json.dumps(payload, separators=(",", ":")) + "\n"
                    )
            except OSError:
                pass  # history is advisory; never fail the sweep for it
