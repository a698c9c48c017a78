"""Run intervals of a simulated run, recorded from the event bus, and
their renderings."""

from __future__ import annotations

import json

from repro.config import MachineConfig, SchedConfig
from repro.observability.events import EventBus
from repro.observability.timeline import (
    TRACK_RUN,
    TimelineRecorder,
    interval_sums,
    validate_trace_events,
)
from repro.sim.engine import Simulation
from repro.workloads.program import BarrierWait, Compute, Program

from tests.conftest import compute_only_program, lock_step_program


def traced(machine, program):
    bus = EventBus()
    trace = TimelineRecorder().attach(bus)
    result = Simulation(machine, program, bus=bus).run()
    return trace, result


def reasons(trace) -> list[str]:
    return [reason for *_, reason in trace.run_intervals]


def run_cycles_of_thread(trace, tid: int) -> int:
    return sum(end - start for _, t, start, end, _ in trace.run_intervals
               if t == tid)


class TestRecording:
    def test_compute_program_one_interval_per_thread(self, machine4):
        trace, result = traced(machine4, compute_only_program(4))
        assert len(trace.run_intervals) == 4
        for _, _, start, end, reason in trace.run_intervals:
            assert reason == "finished"
            assert end > start

    def test_interval_times_within_run(self, machine4):
        trace, result = traced(machine4, lock_step_program(4))
        for _, _, start, end, _ in trace.run_intervals:
            assert 0 <= start <= end
            assert end <= result.total_cycles

    def test_blocking_produces_multiple_intervals(self, machine4):
        def body(tid):
            yield Compute(100 if tid else 50_000)
            yield BarrierWait(0)
            yield Compute(100)

        trace, __ = traced(machine4, Program("b", [body(t) for t in range(4)]))
        # early arrivals block at the barrier -> >= 2 intervals each
        for tid in (1, 2, 3):
            assert sum(1 for _, t, *_ in trace.run_intervals if t == tid) >= 2
        assert "blocked" in reasons(trace)

    def test_preemption_recorded(self):
        machine = MachineConfig(
            n_cores=1, sched=SchedConfig(timeslice_cycles=1_000)
        )
        trace, __ = traced(machine, compute_only_program(2, 20_000))
        assert "preempted" in reasons(trace)

    def test_core_accounting_consistent(self, machine4):
        trace, result = traced(machine4, lock_step_program(4))
        busy = interval_sums(trace)["run_cycles_by_core"]
        for core in range(4):
            assert 0 <= busy.get(core, 0) <= result.total_cycles

    def test_thread_run_cycles_positive(self, machine4):
        trace, __ = traced(machine4, lock_step_program(4))
        for tid in range(4):
            assert run_cycles_of_thread(trace, tid) > 0


class TestUtilization:
    def test_busy_cores_high_idle_cores_zero(self, machine4):
        trace, __ = traced(machine4, compute_only_program(2))
        utilization = trace.core_utilization()
        assert len(utilization) == 4
        assert utilization[0] > 0.5
        assert utilization[2] == 0.0
        assert utilization[3] == 0.0

    def test_empty_trace(self):
        trace = TimelineRecorder()
        assert trace.core_utilization() == []
        assert trace.run_intervals == []


class TestExports:
    def test_chrome_trace_valid_json(self, machine4):
        trace, __ = traced(machine4, lock_step_program(4))
        data = json.loads(trace.to_chrome_trace())
        assert validate_trace_events(data) == []
        runs = [event for event in data["traceEvents"]
                if event.get("cat") == "run"]
        assert len(runs) == len(trace.run_intervals)
        for event in runs:
            assert event["ph"] == "X"
            assert event["tid"] == TRACK_RUN
            assert event["dur"] >= 0
            assert event["args"]["end"] in ("finished", "blocked", "preempted")

    def test_timeline_rows(self, machine4):
        trace, __ = traced(machine4, compute_only_program(4))
        text = trace.render_timeline(width=40)
        lines = text.splitlines()
        assert len(lines) == 5  # header + 4 cores
        # every core ran its own thread: glyphs 0..3 each appear
        for tid in range(4):
            assert str(tid) in text

    def test_timeline_idle_core_dots(self, machine4):
        trace, __ = traced(machine4, compute_only_program(1))
        text = trace.render_timeline(width=20)
        core3_row = text.splitlines()[4]
        assert set(core3_row.split("|")[1]) == {"."}

    def test_timeline_empty(self):
        assert "empty" in TimelineRecorder().render_timeline()

    def test_truncated_run_draws_open_intervals_to_the_cut(self, machine4):
        bus = EventBus()
        trace = TimelineRecorder().attach(bus)
        result = Simulation(
            machine4, compute_only_program(4, 40_000), bus=bus,
        ).run(max_cycles=2_000, on_timeout="truncate")
        assert result.truncated
        assert reasons(trace) == ["truncated"] * 4
        rows = trace.render_timeline(width=20).splitlines()[1:]
        for tid, row in enumerate(rows):
            assert row.split("|")[1].endswith(str(tid) * 10)
