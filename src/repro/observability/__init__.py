"""Structured instrumentation for the simulator and the sweep stack.

The paper's contribution is *attribution* — explaining where a thread's
cycles went — and this package applies the same discipline to the
runner itself.  Four cooperating pieces:

* :mod:`repro.observability.events` — a typed event bus.  Producers
  (engine, chip, accountant, batch runner, queue driver) hold an
  optional ``bus`` reference and emit frozen event values only when one
  is attached, so the disabled path costs a single ``is not None``
  check at scheduling frequency and *nothing* on the per-op hot path.
* :mod:`repro.observability.metrics` — a counters/gauges/histograms
  registry.  Deterministic simulation metrics are harvested from the
  engine's existing counters *after* a run (zero in-run overhead),
  serialized into the sweep journal per cell, and merged across
  ``--jobs N`` workers through the driver's journal merge.
* :mod:`repro.observability.timeline` — a Chrome trace-event /
  Perfetto exporter with per-core tracks for scheduling, spin, yield
  and memory-interference intervals (``repro trace <cell>``), built so
  the interval sums reconcile exactly with the cell's speedup-stack
  components.
* :mod:`repro.observability.progress` — live sweep telemetry: a
  ``--progress`` stderr renderer with ETA and a machine-readable
  heartbeat file for external monitoring.
* :mod:`repro.observability.spans` — hierarchical wall-clock spans
  around the harness's own phase boundaries (trace decode, ST
  reference, engine advance, harvest, journal write, queue
  claim/run/merge), shipped cross-process like metrics and
  exportable as an extra Chrome-trace track.  Spans are wall-clock and
  therefore never journaled.
* :mod:`repro.observability.profiling` — an opt-in deterministic
  ``sys.setprofile`` profiler feeding ``repro bench --profile``'s
  collapsed-stack file and BENCH ``profile`` section.
* :mod:`repro.observability.report` — ``repro report``: a
  self-contained HTML sweep health report built from a journal or a
  queue directory plus optional spans/metrics/heartbeat artifacts.

Everything here is observation only: attaching a bus, a registry, a
recorder or a reporter never changes a simulated cycle.  The
differential and golden suites pin that down.
"""

from repro.observability.events import (
    EVENT_TYPES,
    CellFinished,
    CellRetry,
    CellStarted,
    DeadlockDetected,
    EventBus,
    FaultArmed,
    InterThreadAccess,
    MissBlocked,
    SimEnded,
    SimStarted,
    SpinSegment,
    SpinTruncated,
    SweepFinished,
    SweepStarted,
    ThreadDescheduled,
    ThreadDispatched,
    WatchdogFired,
    WorkerCrashed,
    WorkerHeartbeat,
    YieldInterval,
)
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    harvest_cell_metrics,
)
from repro.observability.profiling import DeterministicProfiler
from repro.observability.progress import ProgressReporter
from repro.observability.report import (
    load_report_data,
    render_report_html,
    write_report,
)
from repro.observability.spans import SpanRecorder, maybe_span, validate_span_rows
from repro.observability.timeline import (
    SPAN_PID_BASE,
    TimelineRecorder,
    interval_sums,
    spans_to_trace_events,
    trace_cell,
    validate_trace_events,
)

__all__ = [
    "CellFinished",
    "CellRetry",
    "CellStarted",
    "Counter",
    "DeadlockDetected",
    "DeterministicProfiler",
    "EVENT_TYPES",
    "EventBus",
    "FaultArmed",
    "Gauge",
    "harvest_cell_metrics",
    "Histogram",
    "InterThreadAccess",
    "interval_sums",
    "load_report_data",
    "maybe_span",
    "MetricsRegistry",
    "MissBlocked",
    "ProgressReporter",
    "render_report_html",
    "SimEnded",
    "SimStarted",
    "SPAN_PID_BASE",
    "SpanRecorder",
    "spans_to_trace_events",
    "SpinSegment",
    "SpinTruncated",
    "SweepFinished",
    "SweepStarted",
    "ThreadDescheduled",
    "ThreadDispatched",
    "TimelineRecorder",
    "trace_cell",
    "validate_span_rows",
    "validate_trace_events",
    "WatchdogFired",
    "WorkerCrashed",
    "WorkerHeartbeat",
    "write_report",
    "YieldInterval",
]
