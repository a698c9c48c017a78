"""CLI surface of checkpointing: --version, stack --checkpoint /
--resume-from, inspect, sweep --checkpoint-dir."""

from __future__ import annotations

import json

import pytest

from repro._version import repro_version
from repro.cli import main

SCALE = ["--scale", "0.05"]


class TestVersion:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert f"repro {repro_version()}" in capsys.readouterr().out

    def test_package_dunder_matches(self):
        import repro

        assert repro.__version__ == repro_version()


class TestStackCheckpoint:
    def test_save_inspect_resume_flow(self, capsys, tmp_path):
        ckpt = tmp_path / "c.ckpt"
        assert main(
            ["stack", "cholesky", "-n", "4", "--checkpoint", str(ckpt),
             "--checkpoint-every", "2000"] + SCALE
        ) == 0
        out = capsys.readouterr().out
        assert "speedup stack: cholesky" in out
        assert "checkpoint:" in out and "save(s)" in out
        assert ckpt.exists()

        assert main(["inspect", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "checkpoint: cholesky n=4" in out
        assert "speedup stack" in out
        assert "TRUNCATED RUN" in out  # mid-run state -> partial stack

        assert main(
            ["stack", "cholesky", "--resume-from", str(ckpt)] + SCALE
        ) == 0
        out = capsys.readouterr().out
        assert "resuming cholesky n=4 from cycle" in out
        assert "speedup stack: cholesky" in out
        assert "[TRUNCATED RUN]" not in out  # the resumed run finished

    def test_checkpoint_every_requires_target(self, capsys):
        assert main(
            ["stack", "cholesky", "--checkpoint-every", "100"] + SCALE
        ) == 2
        assert "--checkpoint-every needs" in capsys.readouterr().err

    def test_resume_from_wrong_benchmark(self, capsys, tmp_path):
        ckpt = tmp_path / "c.ckpt"
        assert main(
            ["stack", "cholesky", "-n", "2", "--checkpoint", str(ckpt),
             "--checkpoint-every", "2000"] + SCALE
        ) == 0
        capsys.readouterr()
        assert main(
            ["stack", "fft", "--resume-from", str(ckpt)] + SCALE
        ) == 2
        err = capsys.readouterr().err
        assert "belongs to cholesky" in err

    @pytest.mark.parametrize("config,field", [
        # a 4 MB LLC in the config, the default 2 MB one in the checkpoint
        ("[machine.llc]\nsize_bytes = 4194304\nassoc = 16\n"
         "hit_latency = 30\nhidden_latency = 30\n",
         "machine.llc.size_bytes"),
        # a budget below the cycle the checkpoint was saved at
        ("[run]\nmax_cycles = 1000\n", "max_cycles"),
    ], ids=["llc-size", "tighter-max-cycles"])
    def test_resume_from_refuses_what_the_config_rules_out(
        self, capsys, tmp_path, config, field
    ):
        """With ``--config`` the checkpoint must be that experiment's
        cell, under limits no tighter than its own: one error line
        naming the field, exit 2."""
        ckpt = tmp_path / "c.ckpt"
        assert main(
            ["stack", "cholesky", "-n", "4", "--checkpoint", str(ckpt),
             "--checkpoint-every", "2000"] + SCALE
        ) == 0
        capsys.readouterr()
        cfg = tmp_path / "cfg.toml"
        cfg.write_text("[workload]\nscale = 0.05\n\n" + config)
        assert main(
            ["stack", "cholesky", "--config", str(cfg),
             "--resume-from", str(ckpt)]
        ) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert field in captured.err
        assert "resuming" not in captured.out

    def test_resume_from_missing_file(self, capsys, tmp_path):
        assert main(
            ["stack", "cholesky",
             "--resume-from", str(tmp_path / "nope.ckpt")] + SCALE
        ) == 2
        assert "error:" in capsys.readouterr().err


class TestInspect:
    def test_inspect_missing_file(self, capsys, tmp_path):
        assert main(["inspect", str(tmp_path / "nope.ckpt")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_inspect_non_checkpoint(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"some": "json"}\n')
        assert main(["inspect", str(path)]) == 2
        assert "not a repro checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["inspect"],
        ["stack", "fft", "--resume-from"],
        ["session", "--from-checkpoint"],
    ])
    def test_header_without_descriptor(self, capsys, tmp_path, argv):
        """Every command that reads a checkpoint header answers a
        header with no descriptor with one error line naming the key
        and exit 2."""
        from repro.checkpoint import save_checkpoint

        path = tmp_path / "bad.ckpt"
        header = save_checkpoint(
            path, {}, {}, cycle=1, reason="interval"
        )
        del header["descriptor"]
        path.write_text(json.dumps(header) + "\n{}\n")
        assert main([*argv, str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "'descriptor'" in err


class TestSweepCheckpointDir:
    def test_truncated_cell_leaves_resumable_checkpoint(
        self, capsys, tmp_path
    ):
        ckpt_dir = tmp_path / "ckpts"
        journal = tmp_path / "j.json"
        assert main(
            ["sweep", "--benchmarks", "cholesky", "-n", "4",
             "--scale", "0.2", "--max-cycles", "10000",
             "--checkpoint-dir", str(ckpt_dir),
             "--journal", str(journal)]
        ) == 0
        out = capsys.readouterr().out
        assert "[truncated]" in out
        ckpt = ckpt_dir / "cholesky_n4.ckpt"
        assert ckpt.exists()
        # the kept checkpoint is inspectable
        assert main(["inspect", str(ckpt)]) == 0
        assert "cholesky n=4" in capsys.readouterr().out

    def test_clean_sweep_leaves_no_checkpoints(self, capsys, tmp_path):
        ckpt_dir = tmp_path / "ckpts"
        assert main(
            ["sweep", "--benchmarks", "cholesky", "-n", "2",
             "--checkpoint-dir", str(ckpt_dir),
             "--checkpoint-every", "2000"] + SCALE
        ) == 0
        capsys.readouterr()
        assert not ckpt_dir.exists() or list(ckpt_dir.iterdir()) == []
