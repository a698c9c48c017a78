"""Journal byte-identity under observability.

The sweep journal is the repo's resume/differential anchor: with
observability *disabled* it must be byte-identical to the pre-metrics
format (no ``metrics`` key, same bytes run-to-run), and with metrics
*enabled* the deterministic ``sim.*`` payload must journal identically
from a serial and a ``--jobs 2`` sweep.
"""

from __future__ import annotations

import io
import json

from repro.config import RunConfig
from repro.experiments.runner import BatchRunner
from repro.observability.events import EventBus
from repro.observability.metrics import MetricsRegistry
from repro.observability.progress import ProgressReporter
from repro.observability.spans import SpanRecorder
from repro.parallel import CellSpec, run_parallel_sweep
from repro.robustness.journal import SweepJournal
from repro.workloads.suite import by_name

SCALE = 0.1
CELLS = [("cholesky", 2), ("fft", 2)]


def serial_journal(path, metrics=None, spans=None, bus=None):
    journal = SweepJournal(str(path))
    runner = BatchRunner(
        policy=RunConfig(), scale=SCALE, journal=journal, metrics=metrics,
        spans=spans, bus=bus,
    )
    runner.run_sweep([(by_name(name), n) for name, n in CELLS])
    return path.read_bytes()


def parallel_journal(path, metrics=None, spans=None):
    journal = SweepJournal(str(path))
    run_parallel_sweep(
        [CellSpec(by_name(name), n, scale=SCALE) for name, n in CELLS],
        jobs=2, policy=RunConfig(), journal=journal, metrics=metrics,
        spans=spans,
    )
    return path.read_bytes()


class TestDisabledPath:
    def test_serial_journal_is_reproducible_and_metrics_free(self, tmp_path):
        bytes_1 = serial_journal(tmp_path / "a.json")
        bytes_2 = serial_journal(tmp_path / "b.json")
        assert bytes_1 == bytes_2
        doc = json.loads(bytes_1)
        for entry in doc["cells"].values():
            assert "metrics" not in entry
            assert set(entry) == {
                "status", "attempts", "total_cycles", "truncated"
            }

    def test_parallel_journal_matches_serial(self, tmp_path):
        assert (serial_journal(tmp_path / "serial.json")
                == parallel_journal(tmp_path / "parallel.json"))


class TestEnabledPath:
    def test_metrics_enabled_keeps_results_identical(self, tmp_path):
        plain = json.loads(serial_journal(tmp_path / "plain.json"))
        with_metrics = json.loads(
            serial_journal(tmp_path / "metrics.json", MetricsRegistry())
        )
        for key, entry in plain["cells"].items():
            enriched = dict(with_metrics["cells"][key])
            metrics = enriched.pop("metrics")
            assert enriched == entry  # only the metrics key is new
            assert metrics["sim.total_cycles"] == entry["total_cycles"]

    def test_serial_and_parallel_journal_identical_with_metrics(
        self, tmp_path
    ):
        parallel = parallel_journal(
            tmp_path / "parallel.json", MetricsRegistry()
        )
        assert (
            serial_journal(tmp_path / "serial.json", MetricsRegistry())
            == parallel
        )
        # workers harvest from the live chip before the cell's machine
        # is released, so every journaled cell carries metrics
        for entry in json.loads(parallel)["cells"].values():
            assert entry["metrics"]["sim.cells"] == 1
            assert entry["metrics"]["sim.l1_hits{core=0}"] > 0


class TestSpansDifferential:
    """Spans are wall-clock, so enabling them must leave journal bytes
    untouched — for the serial runner and for ``--jobs 2`` (where
    worker spans travel on the cells' queue records)."""

    def test_serial_journal_unchanged_by_spans(self, tmp_path):
        plain = serial_journal(tmp_path / "plain.json")
        recorder = SpanRecorder()
        with_spans = serial_journal(tmp_path / "spans.json", spans=recorder)
        assert with_spans == plain
        assert len(recorder) > 0  # spans actually recorded

    def test_parallel_journal_unchanged_by_spans(self, tmp_path):
        plain = parallel_journal(tmp_path / "plain.json")
        recorder = SpanRecorder()
        with_spans = parallel_journal(
            tmp_path / "spans.json", spans=recorder
        )
        assert with_spans == plain
        # worker-side cell spans crossed the process boundary and were
        # absorbed under the driver's queue.merge span
        names = {row["name"] for row in recorder.to_dicts()}
        assert "queue.merge" in names
        assert "engine.advance" in names

    def test_spans_and_metrics_together_add_only_metrics(self, tmp_path):
        with_metrics = serial_journal(
            tmp_path / "metrics.json", MetricsRegistry()
        )
        both = serial_journal(
            tmp_path / "both.json", MetricsRegistry(), SpanRecorder()
        )
        assert both == with_metrics


class TestProgressDifferential:
    """A progress line (and the heartbeat built on the same bus) only
    subscribes to sweep events, so a serial sweep that renders one
    journals the same bytes as a sweep without a bus."""

    def test_serial_journal_unchanged_by_progress_bus(self, tmp_path):
        plain = serial_journal(tmp_path / "plain.json")
        bus = EventBus()
        reporter = ProgressReporter(len(CELLS), stream=io.StringIO())
        reporter.attach(bus)
        assert serial_journal(tmp_path / "progress.json", bus=bus) == plain
        assert reporter.ok == len(CELLS)
