"""BatchRunner checkpoint lifecycle: arm, keep-on-truncation, resume,
refuse-on-mismatch, unlink-on-success."""

from __future__ import annotations

import logging

from repro.checkpoint import read_header, save_checkpoint
from repro.config import RunConfig
from repro.core.rendering import render_stack
from repro.experiments.runner import BatchRunner
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


class TestPolicyPlumbing:
    def test_from_run_maps_checkpoint_fields(self):
        from repro.config import ExperimentConfig

        run = RunConfig(checkpoint_every=500, checkpoint_dir="ckpts")
        runner = BatchRunner(experiment=ExperimentConfig(run=run))
        assert runner.policy.checkpoint_every == 500
        assert runner.policy.checkpoint_dir == "ckpts"

    def test_policy_stays_hashable(self, tmp_path):
        """The parallel worker cache keys on the policy dataclass."""
        policy = _policy(tmp_path, checkpoint_every=100)
        assert hash(policy) == hash(
            _policy(tmp_path, checkpoint_every=100)
        )
