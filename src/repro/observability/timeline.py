"""Execution timelines of a simulated run: Chrome trace and ASCII chart.

A :class:`TimelineRecorder` subscribes to the engine's event bus and
collects four interval families per core:

* **run** — which thread occupied the core, and why it left;
* **spin** — spin-waiting segments (lock, barrier, futex), labelled
  with how each segment ended;
* **yield** — intervals a thread spent scheduled out on
  synchronization (the paper's Section 4.4 yield intervals);
* **mem** — ROB-blocking LLC-miss windows with the cycles attributed
  to other cores' interference.

The recorder is built so the trace *reconciles* with the speedup
stack: per-thread spin sums equal the engine's ground-truth
``gt_spin_cycles``, yield sums equal the cycles the accountant's
yielding component is computed from, and per-core interference sums
equal the raw ``memory_interference_stall`` counter behind the
negative-memory component.  :func:`interval_sums` exposes exactly
those sums so tests (and skeptical users) can check the invariant.

:func:`trace_cell` runs one (benchmark, N) cell with a recorder
attached; ``repro trace`` is a thin CLI wrapper over it.  The exported
JSON loads in ``chrome://tracing`` and Perfetto; one "process" per
core, one named track per interval family.  The run track also renders
as an ASCII per-core chart (:meth:`TimelineRecorder.render_timeline`,
what ``repro timeline`` prints) for a quick look at convoys, idle cores
and stragglers.
"""

from __future__ import annotations

import json

from repro.observability.events import (
    EventBus,
    MissBlocked,
    SimEnded,
    SimStarted,
    SpinSegment,
    ThreadDescheduled,
    ThreadDispatched,
    YieldInterval,
)

#: track (Chrome "tid") layout within each core's "process"
TRACK_RUN = 0
TRACK_SPIN = 1
TRACK_YIELD = 2
TRACK_MEM = 3
TRACK_NAMES = {
    TRACK_RUN: "run",
    TRACK_SPIN: "spin",
    TRACK_YIELD: "yield",
    TRACK_MEM: "mem interference",
}

#: span lanes live in a pid range far above any plausible core count,
#: so the harness's self-profiling track never collides with a core's
#: "process" in the exported trace
SPAN_PID_BASE = 1000


class TimelineRecorder:
    """Collects per-core interval tracks from a simulation's event bus."""

    def __init__(self) -> None:
        self.n_cores = 0
        self.n_threads = 0
        self.total_cycles = 0
        self.truncated = False
        #: (core, tid, start, end, end_reason)
        self.run_intervals: list[tuple[int, int, int, int, str]] = []
        #: (core, tid, start, end, outcome)
        self.spin_segments: list[tuple[int, int, int, int, str]] = []
        #: (core, tid, start, end)
        self.yield_intervals: list[tuple[int, int, int, int]] = []
        #: (core, start, end, interference, is_load)
        self.miss_intervals: list[tuple[int, int, int, int, bool]] = []
        self._open: dict[int, tuple[int, int]] = {}  # tid -> (core, start)

    # -- bus wiring -----------------------------------------------------

    _SUBSCRIPTIONS = (
        (SimStarted, "_on_started"),
        (SimEnded, "_on_ended"),
        (ThreadDispatched, "_on_dispatched"),
        (ThreadDescheduled, "_on_descheduled"),
        (SpinSegment, "_on_spin"),
        (YieldInterval, "_on_yield"),
        (MissBlocked, "_on_miss"),
    )

    def attach(self, bus: EventBus) -> "TimelineRecorder":
        for event_type, method in self._SUBSCRIPTIONS:
            bus.subscribe(event_type, getattr(self, method))
        return self

    def detach(self, bus: EventBus) -> None:
        for event_type, method in self._SUBSCRIPTIONS:
            bus.unsubscribe(event_type, getattr(self, method))

    # -- handlers -------------------------------------------------------

    def _on_started(self, event) -> None:
        self.n_cores = max(self.n_cores, event.n_cores)
        self.n_threads = max(self.n_threads, event.n_threads)

    def _on_ended(self, event) -> None:
        self.total_cycles = event.total_cycles
        self.truncated = event.truncated
        # a truncated run leaves threads mid-interval; close them at the
        # cut point so every track still tiles the full timeline
        for tid, (core, start) in sorted(self._open.items()):
            self.run_intervals.append(
                (core, tid, start, max(start, event.total_cycles),
                 "truncated")
            )
        self._open.clear()

    def _on_dispatched(self, event) -> None:
        self._open[event.tid] = (event.core, event.t)

    def _on_descheduled(self, event) -> None:
        entry = self._open.pop(event.tid, None)
        if entry is None:
            return
        core, start = entry
        self.run_intervals.append(
            (core, event.tid, start, max(start, event.t), event.reason)
        )

    def _on_spin(self, event) -> None:
        self.spin_segments.append(
            (event.core, event.tid, event.start, event.end, event.outcome)
        )

    def _on_yield(self, event) -> None:
        self.yield_intervals.append(
            (event.core, event.tid, event.start, event.end)
        )

    def _on_miss(self, event) -> None:
        self.miss_intervals.append(
            (event.core, event.start, event.end, event.interference,
             event.is_load)
        )

    # -- text views -----------------------------------------------------

    def _end_time(self) -> int:
        return max((end for _, _, _, end, _ in self.run_intervals), default=0)

    def core_utilization(self) -> list[float]:
        """Fraction of the run each core spent running a thread."""
        total = self._end_time()
        if total == 0:
            return [0.0] * self.n_cores
        busy = [0] * self.n_cores
        for core, _, start, end, _ in self.run_intervals:
            busy[core] += end - start
        return [cycles / total for cycles in busy]

    def render_timeline(self, width: int = 72) -> str:
        """ASCII Gantt chart of the run track: one row per core, one
        column per time slice, showing the thread that ran longest in
        the slice ('.' while the core is idle)."""
        total = self._end_time()
        if total == 0:
            return "(empty trace)"
        slice_len = max(1, total // width)
        # per core and column: the cycles each thread ran there
        cells: list[list[dict[int, int]]] = [
            [{} for _ in range(width)] for _ in range(self.n_cores)
        ]
        for core, tid, start, end, _ in self.run_intervals:
            row = cells[core]
            first = min(width - 1, start // slice_len)
            last = min(width - 1, max(start, end - 1) // slice_len)
            for column in range(first, last + 1):
                lo = max(start, column * slice_len)
                hi = min(end, (column + 1) * slice_len)
                if hi > lo:
                    row[column][tid] = row[column].get(tid, 0) + hi - lo
        lines = [f"timeline: {total} cycles, {slice_len} cycles/column"]
        for core, row in enumerate(cells):
            glyphs = "".join(
                _thread_glyph(max(cell, key=cell.get)) if cell else "."
                for cell in row
            )
            lines.append(f"core {core:2d} |{glyphs}|")
        return "\n".join(lines)

    # -- export ---------------------------------------------------------

    def to_trace_events(self) -> list[dict]:
        """Chrome trace-event list: metadata naming each core's tracks,
        then one complete ('X') event per interval, cycle-for-µs."""
        events: list[dict] = []
        for core in range(self.n_cores):
            events.append({
                "name": "process_name", "ph": "M", "pid": core,
                "args": {"name": f"core {core}"},
            })
            events.append({
                "name": "process_sort_index", "ph": "M", "pid": core,
                "args": {"sort_index": core},
            })
            for track, label in TRACK_NAMES.items():
                events.append({
                    "name": "thread_name", "ph": "M", "pid": core,
                    "tid": track, "args": {"name": label},
                })
                events.append({
                    "name": "thread_sort_index", "ph": "M", "pid": core,
                    "tid": track, "args": {"sort_index": track},
                })
        for core, tid, start, end, reason in self.run_intervals:
            events.append({
                "name": f"T{tid}", "cat": "run", "ph": "X",
                "pid": core, "tid": TRACK_RUN,
                "ts": start, "dur": end - start,
                "args": {"thread": tid, "end": reason},
            })
        for core, tid, start, end, outcome in self.spin_segments:
            events.append({
                "name": f"spin T{tid}", "cat": "spin", "ph": "X",
                "pid": core, "tid": TRACK_SPIN,
                "ts": start, "dur": end - start,
                "args": {"thread": tid, "outcome": outcome},
            })
        for core, tid, start, end in self.yield_intervals:
            events.append({
                "name": f"yield T{tid}", "cat": "yield", "ph": "X",
                "pid": core, "tid": TRACK_YIELD,
                "ts": start, "dur": end - start,
                "args": {"thread": tid},
            })
        for core, start, end, interference, is_load in self.miss_intervals:
            events.append({
                "name": "miss blocked", "cat": "mem", "ph": "X",
                "pid": core, "tid": TRACK_MEM,
                "ts": start, "dur": end - start,
                "args": {
                    "interference_cycles": interference,
                    "is_load": is_load,
                },
            })
        return events

    def to_chrome_trace(self, metadata: dict | None = None) -> str:
        doc = {
            "traceEvents": self.to_trace_events(),
            "displayTimeUnit": "ns",
            "otherData": metadata or {},
        }
        return json.dumps(doc, indent=1)


_GLYPHS = "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _thread_glyph(thread_id: int) -> str:
    if 0 <= thread_id < len(_GLYPHS):
        return _GLYPHS[thread_id]
    return "#"


def interval_sums(recorder: TimelineRecorder) -> dict:
    """The reconciliation sums of a recorded timeline.

    These are exactly the quantities the speedup-stack components are
    built from — the golden-trace test asserts equality against the
    engine's ground truth and the accountant's raw counters.
    """
    spin_by_thread: dict[int, int] = {}
    for _, tid, start, end, _ in recorder.spin_segments:
        spin_by_thread[tid] = spin_by_thread.get(tid, 0) + (end - start)
    yield_by_thread: dict[int, int] = {}
    for _, tid, start, end in recorder.yield_intervals:
        yield_by_thread[tid] = yield_by_thread.get(tid, 0) + (end - start)
    interference_by_core: dict[int, int] = {}
    blocked_by_core: dict[int, int] = {}
    for core, start, end, interference, _ in recorder.miss_intervals:
        interference_by_core[core] = (
            interference_by_core.get(core, 0) + interference
        )
        blocked_by_core[core] = blocked_by_core.get(core, 0) + (end - start)
    run_by_core: dict[int, int] = {}
    end_by_thread: dict[int, int] = {}
    for core, tid, start, end, _ in recorder.run_intervals:
        run_by_core[core] = run_by_core.get(core, 0) + (end - start)
        end_by_thread[tid] = max(end_by_thread.get(tid, 0), end)
    return {
        "total_cycles": recorder.total_cycles,
        "spin_cycles_by_thread": spin_by_thread,
        "yield_cycles_by_thread": yield_by_thread,
        "interference_by_core": interference_by_core,
        "miss_blocked_by_core": blocked_by_core,
        "run_cycles_by_core": run_by_core,
        "last_run_end_by_thread": end_by_thread,
    }


def spans_to_trace_events(rows: list[dict]) -> list[dict]:
    """Chrome trace events for a harness span document.

    One "process" lane per span origin (``pid >= SPAN_PID_BASE``) —
    origins use different process epochs, so pretending their
    timestamps align on one lane would be a lie.  Spans become complete
    ('X') events whose ts/dur are the recorder's integer microseconds;
    nesting falls out of interval containment, which is how the
    recorder produced them in the first place.
    """
    origins = sorted({row.get("origin", "main") for row in rows})
    lane = {origin: SPAN_PID_BASE + i for i, origin in enumerate(origins)}
    events: list[dict] = []
    for origin in origins:
        pid = lane[origin]
        events.append({
            "name": "process_name", "ph": "M", "pid": pid,
            "args": {"name": f"spans: {origin}"},
        })
        events.append({
            "name": "process_sort_index", "ph": "M", "pid": pid,
            "args": {"sort_index": pid},
        })
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid,
            "tid": 0, "args": {"name": "harness spans"},
        })
    for row in rows:
        args: dict = {"span_id": row["id"]}
        if row.get("parent") is not None:
            args["parent"] = row["parent"]
        if row.get("args"):
            args.update(row["args"])
        events.append({
            "name": row["name"],
            "cat": f"span:{row.get('cat', 'runner')}",
            "ph": "X",
            "pid": lane[row.get("origin", "main")],
            "tid": 0,
            "ts": max(0, int(row["t0_us"])),
            "dur": max(0, int(row.get("dur_us") or 0)),
            "args": args,
        })
    return events


def validate_trace_events(doc) -> list[str]:
    """Structural validation against the trace-event format.

    Returns a list of problems (empty when the document is valid);
    checks what Chrome/Perfetto actually require to load the file —
    a ``traceEvents`` array of objects with ``ph``, integer ``pid`` /
    ``tid``, non-negative ``ts``/``dur`` on complete events, and
    ``args`` objects on metadata events.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"document is {type(doc).__name__}, expected object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-array traceEvents"]
    for i, event in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        if ph not in ("X", "B", "E", "I", "M", "C"):
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if not isinstance(event.get("name"), str):
            problems.append(f"{where}: missing name")
        if not isinstance(event.get("pid"), int):
            problems.append(f"{where}: missing integer pid")
        if ph == "X":
            if not isinstance(event.get("tid"), int):
                problems.append(f"{where}: missing integer tid")
            ts, dur = event.get("ts"), event.get("dur")
            if not isinstance(ts, int) or ts < 0:
                problems.append(f"{where}: bad ts {ts!r}")
            if not isinstance(dur, int) or dur < 0:
                problems.append(f"{where}: bad dur {dur!r}")
        elif ph == "M":
            if not isinstance(event.get("args"), dict):
                problems.append(f"{where}: metadata without args")
    return problems


def trace_cell(
    benchmark: str,
    n_threads: int,
    scale: float = 1.0,
    max_cycles: int | None = None,
    livelock_window: int | None = None,
    spans=None,
):
    """Run one (benchmark, N) cell with a timeline recorder attached.

    Returns ``(experiment_result, recorder)`` — the full protocol runs
    (reference + accounted), so the caller holds both the speedup stack
    and the timeline it should reconcile with.  Pass a
    :class:`~repro.observability.spans.SpanRecorder` to additionally
    capture the harness's own phase spans for the exported span track.
    """
    from repro.config import MachineConfig
    from repro.experiments.runner import run_experiment
    from repro.workloads.spec import build_program
    from repro.workloads.suite import by_name

    spec = by_name(benchmark)
    machine = MachineConfig(n_cores=n_threads)
    bus = EventBus()
    recorder = TimelineRecorder().attach(bus)
    result = run_experiment(
        spec.full_name, machine,
        build_program(spec, n_threads, scale=scale),
        build_program(spec, 1, scale=scale),
        max_cycles=max_cycles,
        livelock_window=livelock_window,
        on_timeout="truncate" if max_cycles or livelock_window else "raise",
        bus=bus,
        spans=spans,
    )
    return result, recorder
