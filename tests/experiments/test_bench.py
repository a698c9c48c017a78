"""``repro bench``: the overhead and ``--jobs`` speedup gates."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.cli import main
from repro.experiments import bench
from repro.experiments.bench import gate_verdicts, render_bench


def _doc(observability=1.0, checkpoint=2.0, speedups=None) -> dict:
    speedups = speedups or {1: 1.0, 2: 1.4}
    return {
        "observability": {"overhead_pct": observability},
        "checkpoint": {"overhead_pct": checkpoint},
        "sweep": [
            {"jobs": jobs, "speedup_vs_serial": speedup}
            for jobs, speedup in speedups.items()
        ],
    }


class TestGateVerdicts:
    def test_everything_within_budget_passes(self):
        assert gate_verdicts(
            _doc(), max_observability_overhead=10,
            max_checkpoint_overhead=10, min_warm_speedup=[(2, 0.95)],
            cpu_count=2,
        ) == ([], [])

    def test_no_thresholds_no_verdicts(self):
        doc = _doc(observability=500.0, checkpoint=500.0)
        assert gate_verdicts(doc, cpu_count=1) == ([], [])

    @pytest.mark.parametrize("section, kwarg, label", [
        ("observability", "max_observability_overhead", "instrumentation"),
        ("checkpoint", "max_checkpoint_overhead", "checkpoint"),
    ])
    def test_overhead_over_budget_fails(self, section, kwarg, label):
        doc = _doc(**{section: 10.5})
        failures, notes = gate_verdicts(doc, **{kwarg: 10}, cpu_count=8)
        assert failures == [
            f"FAIL: {label} overhead 10.5% exceeds the 10.0% budget"
        ]
        assert notes == []
        # the budget is inclusive: exactly on it passes
        assert gate_verdicts(
            doc, **{kwarg: 10.5}, cpu_count=8
        ) == ([], [])

    def test_speedup_below_factor_fails(self):
        failures, _ = gate_verdicts(
            _doc(), min_warm_speedup=[(2, 1.5)], cpu_count=2,
        )
        assert failures == [
            "FAIL: --jobs 2 speedup 1.40x vs serial is below the 1.5x gate"
        ]

    def test_jobs_above_cpu_count_is_a_note_not_a_failure(self):
        failures, notes = gate_verdicts(
            _doc(speedups={1: 1.0, 4: 0.5}), min_warm_speedup=[(4, 1.5)],
            cpu_count=2,
        )
        assert failures == []
        assert notes == [
            "note: skipping --min-warm-speedup 4:1.5 (host has 2 CPU(s), "
            "needs >= 4)"
        ]

    def test_missing_jobs_level_fails(self):
        failures, notes = gate_verdicts(
            _doc(), min_warm_speedup=[(4, 1.5)], cpu_count=4,
        )
        assert failures == [
            "FAIL: --min-warm-speedup 4:1.5 but --jobs 4 was not in the "
            "jobs list"
        ]
        assert notes == []

    def test_every_failing_gate_is_reported(self):
        failures, notes = gate_verdicts(
            _doc(observability=20.0, checkpoint=20.0),
            max_observability_overhead=10, max_checkpoint_overhead=10,
            min_warm_speedup=[(2, 2.0), (3, 1.0), (64, 1.0)], cpu_count=4,
        )
        assert len(failures) == 4
        assert len(notes) == 1


@pytest.mark.parametrize("factor, status", [("1", 0), ("1000", 1)])
def test_bench_cli_gates_the_serial_speedup(factor, status, tmp_path,
                                            capsys):
    """``--jobs-list 1`` times the serial sweep only, whose speedup vs
    serial is exactly 1.0: a 1x gate passes, a 1000x gate fails."""
    out = tmp_path / "bench.json"
    argv = ["bench", "--benchmarks", "fft", "-n", "2", "--scale", "0.05",
            "--repeats", "1", "--jobs-list", "1", "--out", str(out),
            "--min-warm-speedup", f"1:{factor}"]
    assert main(argv) == status
    captured = capsys.readouterr()
    if status:
        assert captured.err == (
            "FAIL: --jobs 1 speedup 1.00x vs serial is below the "
            "1000x gate\n"
        )
    else:
        assert "FAIL" not in captured.err
    doc = json.loads(out.read_text())
    assert set(doc) == {
        "host", "config", "sweep", "observability", "checkpoint",
    }
    assert [run["jobs"] for run in doc["sweep"]] == [1]
    assert doc["sweep"][0]["speedup_vs_serial"] == 1.0
    assert doc["sweep"][0]["cells_failed"] == 0


class _Clock:
    """The wall and CPU clocks, which each fake run advances: 1 s
    disabled, 1.1 s enabled, plus the drift of a host that slows down
    run by run.  ``read`` records which clock each section used."""

    def __init__(self):
        self.now = 0.0
        self.runs = 0
        self.read = set()

    def perf_counter(self):
        self.read.add("wall")
        return self.now

    def process_time(self):
        self.read.add("cpu")
        return self.now

    def run(self, enabled):
        self.runs += 1
        self.now += (1.1 if enabled else 1.0) + 0.05 * self.runs


def test_overhead_repeats_alternate_and_report_each_pair(monkeypatch):
    """Both overhead sections run disabled, enabled, disabled, ... so a
    host that drifts lands on both sides, and each pair's overhead
    shows in the document and the printed line."""
    clock = _Clock()
    order = {"observability": [], "checkpoint": []}
    result = SimpleNamespace(total_cycles=1234)

    class Runner:
        def __init__(self, bus=None, **kwargs):
            self.enabled = bus is not None

        def run_cell(self, spec, n_threads):
            order["observability"].append(self.enabled)
            clock.run(self.enabled)
            return SimpleNamespace(result=SimpleNamespace(mt_result=result))

    def run_accounted(machine, program, checkpoint=None, **kwargs):
        order["checkpoint"].append(checkpoint is not None)
        clock.run(checkpoint is not None)
        return result, None

    monkeypatch.setattr(bench, "time", clock)
    monkeypatch.setattr(bench, "BatchRunner", Runner)
    monkeypatch.setattr(bench, "run_accounted", run_accounted)
    observability = bench._bench_observability(0.05, 10**6, 3)
    # the in-process cell is timed in CPU seconds, the checkpoint cell
    # (whose cost includes the write) on the wall clock
    assert clock.read == {"cpu"}
    clock.read.clear()
    checkpoint = bench._bench_checkpoint(10**6, 3)
    assert clock.read == {"wall"}
    assert observability["cpu_s_disabled"] == 1.05
    assert checkpoint["wall_s_disabled"] == 1.35
    doc = {
        "host": {"cpu_count": 1},
        "config": {"n_cells": 0, "scale": 0.05},
        "sweep": [],
        "observability": observability,
        "checkpoint": checkpoint,
    }
    for section in ("observability", "checkpoint"):
        assert order[section] == [False, True] * 3
        pairs = doc[section]["pair_overhead_pct"]
        assert len(pairs) == 3
        assert pairs[0] > pairs[1] > pairs[2] > 0  # drift shrinks each
    # disabled then enabled all at once would read 1.05 s against 1.25 s
    assert doc["observability"]["pair_overhead_pct"] == [14.29, 13.04, 12.0]
    assert doc["observability"]["overhead_pct"] == 14.29
    assert "pairs +14.3/+13.0/+12.0" in render_bench(doc)
