"""The hardened batch runner: isolation, retries, journal, resume."""

from __future__ import annotations

import json

import pytest

from repro.config import RunConfig
from repro.errors import ConfigError, ExperimentError
from repro.experiments.runner import (
    BatchRunner,
    CellResult,
    CELL_FAILED,
    CELL_OK,
    CELL_RESUMED,
)
from repro.robustness.faults import FaultInjector, make_fault
from repro.robustness.journal import JOURNAL_VERSION, SweepJournal


@pytest.fixture
def cells(tiny_spec):
    return [(tiny_spec, 2), (tiny_spec, 4)]


class TestPolicy:
    def test_bad_on_error_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(on_error="panic")

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            RunConfig(max_retries=-1)


class TestSweepIsolation:
    def test_one_bad_cell_does_not_kill_the_sweep(self, cells, tmp_path):
        """The acceptance scenario: inject a deadlock into one cell,
        every other cell completes, and the failure report names the
        failed cell with its engine-state snapshot."""
        journal_path = tmp_path / "sweep.json"
        runner = BatchRunner(
            journal=SweepJournal(str(journal_path)),
            fault_plan={"tiny:2": make_fault("deadlock")},
        )
        report = runner.run_sweep(cells)
        assert [o.key for o in report.failures] == ["tiny:2"]
        assert [o.key for o in report.completed] == ["tiny:4"]
        failed = report.failures[0]
        assert failed.error_type == "DeadlockError"
        assert failed.snapshot is not None
        assert failed.snapshot["threads"]

        text = report.render_failure_report()
        assert "tiny:2" in text
        assert "DeadlockError" in text
        assert "engine state" in text

        data = json.loads(journal_path.read_text())
        assert data["version"] == JOURNAL_VERSION
        assert data["cells"]["tiny:2"]["status"] == "failed"
        assert data["cells"]["tiny:2"]["snapshot"]["threads"]
        assert data["cells"]["tiny:4"]["status"] == "ok"

    def test_resume_reruns_only_the_failed_cell(self, cells, tmp_path):
        journal_path = tmp_path / "sweep.json"
        runner = BatchRunner(
            journal=SweepJournal(str(journal_path)),
            fault_plan={"tiny:2": make_fault("deadlock")},
        )
        assert not runner.run_sweep(cells).ok

        # second run: fault gone, resume from the journal
        resumed = BatchRunner(journal=SweepJournal(str(journal_path)))
        report = resumed.run_sweep(cells, resume=True)
        by_key = {o.key: o.status for o in report.outcomes}
        assert by_key == {"tiny:2": CELL_OK, "tiny:4": CELL_RESUMED}
        assert report.ok

        data = json.loads(journal_path.read_text())
        assert all(c["status"] == "ok" for c in data["cells"].values())

    def test_clean_sweep_report(self, cells):
        report = BatchRunner().run_sweep(cells)
        assert report.ok
        assert report.render_failure_report() == ""
        assert len(report.completed) == 2

    def test_truncated_cell_still_counts_as_ok(self, tiny_spec, tmp_path):
        journal_path = tmp_path / "sweep.json"
        runner = BatchRunner(
            policy=RunConfig(max_cycles=2_000),
            journal=SweepJournal(str(journal_path)),
        )
        report = runner.run_sweep([(tiny_spec, 2)])
        assert report.ok
        outcome = report.completed[0]
        assert outcome.result.truncated
        assert outcome.result.stack.truncated
        data = json.loads(journal_path.read_text())
        assert data["cells"]["tiny:2"]["truncated"] is True


class TestMachineRelease:
    def test_sweep_outcomes_drop_the_machine(self, cells, tiny_spec):
        """A sweep keeps each cell's ``CellResult`` — stack, report and
        run totals — but not its simulated machine, nor the shared
        reference's; ``run_cell`` still returns the live chip."""
        report = BatchRunner().run_sweep(cells)
        assert len(report.completed) == 2
        for outcome in report.completed:
            live = BatchRunner().run_cell(tiny_spec, outcome.n_threads)
            kept, fresh = outcome.result, live.result
            assert isinstance(kept, CellResult)
            assert fresh.mt_result.chip is not None
            assert kept.stack == fresh.stack
            assert kept.report == fresh.report
            assert kept.total_cycles == fresh.mt_result.total_cycles
            assert kept.mt_instrs == fresh.mt_result.total_instrs
            assert kept.mt_spin_instrs == fresh.mt_result.total_spin_instrs
            assert kept.st_instrs == fresh.st_result.total_instrs
            assert kept.truncated == fresh.mt_result.truncated


class TestRetries:
    def test_retry_recovers_from_transient_fault(self, tiny_spec):
        """A fault that strikes only the first attempt: retry mode must
        converge on the second attempt."""
        injector = FaultInjector(0)
        calls = {"n": 0}

        def transient(program, machine):
            calls["n"] += 1
            if calls["n"] == 1:
                return injector.drop_lock_releases(program), machine
            return program, machine

        sleeps = []
        policy = RunConfig(
            on_error="retry", max_retries=2, backoff_s=0.25,
            backoff_jitter=False,
        )
        runner = BatchRunner(
            policy=policy,
            fault_plan={"tiny:2": transient},
            sleep=sleeps.append,
        )
        outcome = runner.run_cell(tiny_spec, 2)
        assert outcome.status == CELL_OK
        assert outcome.attempts == 2
        assert sleeps == [0.25]

    def test_retry_exhaustion_records_failure_with_backoff(self, tiny_spec):
        sleeps = []
        runner = BatchRunner(
            policy=RunConfig(
                on_error="retry", max_retries=2,
                backoff_s=0.5, backoff_factor=3.0, backoff_jitter=False,
            ),
            fault_plan={"tiny:2": make_fault("deadlock")},
            sleep=sleeps.append,
        )
        outcome = runner.run_cell(tiny_spec, 2)
        assert outcome.status == CELL_FAILED
        assert outcome.attempts == 3
        assert sleeps == [0.5, 1.5]  # exponential backoff (no jitter)

    def test_jittered_backoff_is_deterministic_and_capped(self, tiny_spec):
        """Default policy: full jitter in [0, capped delay], seeded from
        (cell key, attempt) — reproducible everywhere, bounded above."""
        sleeps = []
        runner = BatchRunner(
            policy=RunConfig(
                on_error="retry", max_retries=2,
                backoff_s=0.5, backoff_factor=3.0,
            ),
            fault_plan={"tiny:2": make_fault("deadlock")},
            sleep=sleeps.append,
        )
        outcome = runner.run_cell(tiny_spec, 2)
        assert outcome.status == CELL_FAILED
        policy = runner.policy
        assert sleeps == [
            policy.backoff_delay(2, "tiny:2"),
            policy.backoff_delay(3, "tiny:2"),
        ]
        assert all(0.0 <= s for s in sleeps)
        assert sleeps[0] <= 0.5 and sleeps[1] <= 1.5

    def test_backoff_cap(self):
        policy = RunConfig(
            on_error="retry", backoff_s=1.0, backoff_factor=10.0,
            backoff_max_s=5.0, backoff_jitter=False,
        )
        assert policy.backoff_delay(2, "x") == 1.0
        assert policy.backoff_delay(3, "x") == 5.0   # capped from 10
        assert policy.backoff_delay(9, "x") == 5.0   # stays capped
        uncapped = RunConfig(
            on_error="retry", backoff_s=1.0, backoff_factor=10.0,
            backoff_max_s=None, backoff_jitter=False,
        )
        assert uncapped.backoff_delay(3, "x") == 10.0

    def test_backoff_validation(self):
        import pytest

        with pytest.raises(ValueError, match="backoff_max_s"):
            RunConfig(backoff_max_s=-1.0)
        with pytest.raises(ValueError, match="backoff_factor"):
            RunConfig(backoff_factor=0.5)

    def test_skip_mode_never_retries(self, tiny_spec):
        sleeps = []
        runner = BatchRunner(
            policy=RunConfig(on_error="skip", max_retries=5, backoff_s=1.0),
            fault_plan={"tiny:2": make_fault("deadlock")},
            sleep=sleeps.append,
        )
        outcome = runner.run_cell(tiny_spec, 2)
        assert outcome.status == CELL_FAILED
        assert outcome.attempts == 1
        assert sleeps == []


class TestAbortMode:
    def test_abort_raises_experiment_error(self, tiny_spec):
        runner = BatchRunner(
            policy=RunConfig(on_error="abort"),
            fault_plan={"tiny:2": make_fault("deadlock")},
        )
        with pytest.raises(ExperimentError) as err:
            runner.run_cell(tiny_spec, 2)
        assert err.value.benchmark == "tiny"
        assert err.value.n_threads == 2
        assert err.value.__cause__ is not None
        assert "tiny:2" in str(err.value)


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "j.json")
        journal = SweepJournal(path)
        journal.record_ok("a", 4, attempts=1, total_cycles=123)
        journal.record_failure(
            "b", 8, attempts=3, error="boom", error_type="DeadlockError",
            snapshot={"cycle": 7},
        )
        reloaded = SweepJournal(path)
        assert reloaded.completed("a", 4)
        assert not reloaded.completed("b", 8)
        assert reloaded.failed_keys == ["b:8"]
        assert reloaded.entry("b", 8)["snapshot"] == {"cycle": 7}
        assert reloaded.status("c", 2) is None

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "j.json"
        path.write_text(json.dumps({"version": 99, "cells": {}}))
        with pytest.raises(ConfigError, match="version 99"):
            SweepJournal(str(path))

    def test_in_memory_journal_never_touches_disk(self):
        journal = SweepJournal(None)
        journal.record_ok("a", 2, attempts=1, total_cycles=10)
        assert journal.completed("a", 2)
        journal.save()  # no-op, no path
