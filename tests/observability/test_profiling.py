"""Unit tests for the deterministic self-profiler."""

from __future__ import annotations

import pytest

from repro.observability.profiling import (
    ENGINE_PREFIX,
    DeterministicProfiler,
)


def ticking_clock(step_ns=1_000_000):
    state = {"now": 0}

    def clock():
        state["now"] += step_ns
        return state["now"]

    return clock


def leaf():
    return sum(range(10))


def caller():
    return leaf() + leaf()


class TestCapture:
    def test_captures_nested_call_stacks(self):
        profiler = DeterministicProfiler(clock=ticking_clock())
        with profiler:
            caller()
        paths = {";".join(path) for path in profiler.stacks}
        assert any(path.endswith("caller;" + __name__ + ".leaf")
                   for path in paths), paths
        assert profiler.calls[f"{__name__}.leaf"] == 2
        assert profiler.calls[f"{__name__}.caller"] == 1

    def test_collapsed_lines_are_sorted_and_formatted(self):
        profiler = DeterministicProfiler(clock=ticking_clock())
        with profiler:
            caller()
        lines = profiler.collapsed()
        assert lines == sorted(lines)
        for line in lines:
            path, _, amount = line.rpartition(" ")
            assert path
            assert int(amount) > 0

    def test_profile_is_deterministic_for_deterministic_code(self):
        def run():
            profiler = DeterministicProfiler(clock=ticking_clock())
            with profiler:
                caller()
            return set(profiler.stacks)

        assert run() == run()

    def test_nesting_rejected_and_stop_idempotent(self):
        profiler = DeterministicProfiler(clock=ticking_clock())
        profiler.start()
        with pytest.raises(RuntimeError):
            profiler.start()
        profiler.stop()
        profiler.stop()


class TestReporting:
    def test_top_functions_ranked_by_self_time(self):
        profiler = DeterministicProfiler(clock=ticking_clock())
        profiler.stacks = {("a",): 5_000_000, ("a", "b"): 10_000_000}
        profiler.calls = {"a": 1, "b": 3}
        top = profiler.top_functions(2)
        assert [entry["function"] for entry in top] == ["b", "a"]
        assert top[0]["calls"] == 3
        assert top[0]["self_us"] == 10_000
        assert top[0]["self_pct"] == pytest.approx(66.67, abs=0.01)

    def test_pct_in_prefix_counts_leaf_functions_only(self):
        profiler = DeterministicProfiler()
        profiler.stacks = {
            ("x", "repro.sim.engine.Simulation.run"): 3_000_000,
            ("repro.sim.engine.Simulation.run", "x"): 1_000_000,
        }
        assert profiler.pct_in_prefix(ENGINE_PREFIX) == 75.0

    def test_profile_section_shape(self):
        profiler = DeterministicProfiler(clock=ticking_clock())
        with profiler:
            caller()
        section = profiler.profile_section(top_n=3)
        assert section["profiler"] == "deterministic (sys.setprofile)"
        assert section["engine_prefix"] == ENGINE_PREFIX
        assert section["total_self_us"] > 0
        assert section["distinct_stacks"] == len(profiler.stacks)
        assert len(section["top_functions"]) <= 3

    def test_engine_run_dominates_a_real_cell(self):
        # the structural CI assertion: profiling an actual simulation
        # shows the engine package on the hot path
        from repro.config import RunConfig
        from repro.experiments.runner import BatchRunner
        from repro.workloads.suite import by_name

        runner = BatchRunner(policy=RunConfig(), scale=0.05)
        profiler = DeterministicProfiler()
        with profiler:
            runner.run_cell(by_name("fft"), 2)
        assert profiler.pct_in_prefix("repro.sim.") > 10.0
        assert any(
            key.startswith(ENGINE_PREFIX) for key in profiler.calls
        )
