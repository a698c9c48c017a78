"""BatchRunner checkpoint lifecycle: arm, keep-on-truncation, resume
(also under a raised limit), refuse-on-mismatch or tighter limits,
unlink-on-success; and the periodic saves of a resumed cell."""

from __future__ import annotations

import logging

import pytest

from repro.checkpoint import read_header, save_checkpoint
from repro.config import MachineConfig, RunConfig
from repro.core.rendering import render_stack
from repro.experiments.runner import BatchRunner, open_cell
from repro.workloads.suite import by_name

BENCH = "cholesky"
N, SCALE = 4, 0.2


def _policy(tmp_path, **kwargs):
    return RunConfig(
        on_error="skip", checkpoint_dir=str(tmp_path), **kwargs
    )


class TestCellCheckpointLifecycle:
    def test_truncated_cell_keeps_its_checkpoint(self, tmp_path):
        runner = BatchRunner(
            policy=_policy(tmp_path, max_cycles=10_000), scale=SCALE
        )
        outcome = runner.run_cell(by_name(BENCH), N)
        assert outcome.result.mt_result.truncated
        ckpt = tmp_path / f"{BENCH}_n{N}.ckpt"
        assert ckpt.exists()
        header = read_header(ckpt)
        assert header["reason"] == "max_cycles"
        assert header["descriptor"]["benchmark"] == BENCH

    def test_clean_cell_unlinks_its_checkpoint(self, tmp_path):
        runner = BatchRunner(
            policy=_policy(tmp_path, checkpoint_every=2_000), scale=0.05
        )
        outcome = runner.run_cell(by_name(BENCH), N)
        assert not outcome.result.mt_result.truncated
        assert not (tmp_path / f"{BENCH}_n{N}.ckpt").exists()

    def test_rerun_resumes_and_matches_fresh_outcome(self, tmp_path, caplog):
        policy = _policy(tmp_path, max_cycles=10_000)
        first = BatchRunner(policy=policy, scale=SCALE).run_cell(
            by_name(BENCH), N
        )
        assert (tmp_path / f"{BENCH}_n{N}.ckpt").exists()
        with caplog.at_level(logging.INFO, "repro.experiments.runner"):
            second = BatchRunner(policy=policy, scale=SCALE).run_cell(
                by_name(BENCH), N
            )
        assert any("resuming" in r.message for r in caplog.records)
        # the resumed re-run reproduces the fresh run's stack exactly
        assert render_stack(second.result.stack) == render_stack(
            first.result.stack
        )
        assert (
            second.result.mt_result.total_cycles
            == first.result.mt_result.total_cycles
        )

    @pytest.mark.parametrize("raised", [None, 10**9])
    def test_raised_limit_resumes_and_matches_fresh(
        self, tmp_path, caplog, raised
    ):
        """A cell cut by ``max_cycles`` continues from its checkpoint
        under a raised (or no) limit and ends where a fresh run under
        that limit ends."""
        BatchRunner(
            policy=_policy(tmp_path, max_cycles=10_000), scale=SCALE
        ).run_cell(by_name(BENCH), N)
        with caplog.at_level(logging.INFO, "repro.experiments.runner"):
            resumed = BatchRunner(
                policy=_policy(tmp_path, max_cycles=raised), scale=SCALE
            ).run_cell(by_name(BENCH), N)
        assert any("resuming" in r.message for r in caplog.records)
        fresh = BatchRunner(
            policy=RunConfig(on_error="skip", max_cycles=raised),
            scale=SCALE,
        ).run_cell(by_name(BENCH), N)
        assert not resumed.result.truncated
        assert resumed.result.stack == fresh.result.stack
        assert resumed.result.total_cycles == fresh.result.total_cycles
        # a clean finish deletes the checkpoint
        assert not (tmp_path / f"{BENCH}_n{N}.ckpt").exists()

    def test_tighter_limit_runs_fresh(self, tmp_path, caplog):
        """A limit below the checkpoint's cycle (and below the limit it
        was saved under) would have stopped a fresh run sooner: the
        checkpoint is ignored and the cell runs from cycle 0."""
        BatchRunner(
            policy=_policy(tmp_path, max_cycles=20_000), scale=SCALE
        ).run_cell(by_name(BENCH), N)
        with caplog.at_level(logging.INFO, "repro.experiments.runner"):
            rerun = BatchRunner(
                policy=_policy(tmp_path, max_cycles=10_000), scale=SCALE
            ).run_cell(by_name(BENCH), N)
        messages = [r.message for r in caplog.records]
        assert any("ignoring checkpoint" in m for m in messages)
        assert not any("resuming" in m for m in messages)
        fresh = BatchRunner(
            policy=RunConfig(on_error="skip", max_cycles=10_000),
            scale=SCALE,
        ).run_cell(by_name(BENCH), N)
        assert rerun.result.stack == fresh.result.stack
        assert rerun.result.total_cycles == fresh.result.total_cycles

    def test_livelock_cut_reruns_fresh_under_the_same_window(
        self, tmp_path, caplog
    ):
        """The resumed run would not repeat the livelock check that cut
        the saved one, so under the same window the cell runs fresh and
        stops where a fresh run stops."""
        def runner(checkpoint_dir):
            policy = RunConfig(
                on_error="skip", livelock_window=50_000,
                checkpoint_dir=checkpoint_dir,
            )
            return BatchRunner(
                policy=policy, scale=0.05,
                fault_plan={f"{BENCH}:2": ("livelock", 0)},
            )

        fresh = runner(None).run_cell(by_name(BENCH), 2)
        assert fresh.result.mt_result.truncation_reason == "livelock"
        runner(str(tmp_path)).run_cell(by_name(BENCH), 2)
        with caplog.at_level(logging.INFO, "repro.experiments.runner"):
            rerun = runner(str(tmp_path)).run_cell(by_name(BENCH), 2)
        assert any(
            "ignoring checkpoint" in r.message for r in caplog.records
        )
        assert rerun.result.total_cycles == fresh.result.total_cycles

    def test_mismatched_checkpoint_runs_fresh(self, tmp_path, caplog):
        """A checkpoint from a different experiment at the cell's path
        is ignored with a warning, never resumed."""
        path = tmp_path / f"{BENCH}_n{N}.ckpt"
        save_checkpoint(
            path, {"bogus": True}, {"benchmark": BENCH, "other": "config"},
            cycle=123, reason="interval",
        )
        runner = BatchRunner(policy=_policy(tmp_path), scale=0.05)
        with caplog.at_level(logging.WARNING, "repro.experiments.runner"):
            outcome = runner.run_cell(by_name(BENCH), N)
        assert any(
            "ignoring checkpoint" in r.message for r in caplog.records
        )
        assert outcome.status == "ok"
        assert not outcome.result.mt_result.truncated

    def test_no_checkpoint_dir_means_no_files(self, tmp_path):
        runner = BatchRunner(
            policy=RunConfig(on_error="skip", max_cycles=10_000),
            scale=SCALE,
        )
        runner.run_cell(by_name(BENCH), N)
        assert list(tmp_path.iterdir()) == []


class TestResumedSchedule:
    def test_resumed_cell_saves_one_interval_on(self, tmp_path):
        """A cell resumed from a periodic save is next due one interval
        past it, as if it had just saved there: its first step does not
        rewrite the checkpoint it was loaded from."""
        every = 5_000
        spec, machine = by_name(BENCH), MachineConfig(n_cores=N)
        first = tmp_path / "first.ckpt"
        fresh = open_cell(
            machine, spec, N, SCALE, RunConfig(),
            checkpoint=first, checkpoint_every=every,
        )
        while fresh.kernel.checkpoint.n_saves == 0:
            fresh.kernel.step(1_000)
        saved = read_header(first)["cycle"]
        resumed = open_cell(
            machine, spec, N, SCALE, RunConfig(),
            checkpoint=tmp_path / "again.ckpt", checkpoint_every=every,
            resume_from=first,
        )
        assert resumed.resumed_from == saved >= every
        hook = resumed.kernel.checkpoint
        resumed.kernel.step(1)
        assert hook.n_saves == 0
        assert not (tmp_path / "again.ckpt").exists()
        resumed.kernel.step(every)
        assert hook.n_saves == 1
        assert read_header(tmp_path / "again.ckpt")["cycle"] >= (
            saved // every + 1
        ) * every


class TestPolicyPlumbing:
    def test_from_run_maps_checkpoint_fields(self):
        from repro.config import ExperimentConfig

        run = RunConfig(checkpoint_every=500, checkpoint_dir="ckpts")
        runner = BatchRunner(experiment=ExperimentConfig(run=run))
        assert runner.policy.checkpoint_every == 500
        assert runner.policy.checkpoint_dir == "ckpts"

    def test_policy_stays_hashable(self, tmp_path):
        """The run options are a frozen value: equal ones hash equal."""
        policy = _policy(tmp_path, checkpoint_every=100)
        assert hash(policy) == hash(
            _policy(tmp_path, checkpoint_every=100)
        )
