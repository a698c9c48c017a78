"""Signal handling: SIGTERM/SIGINT drain with distinct exit codes.

Each test runs the real CLI in a subprocess, lets it get mid-cell,
delivers the signal, and asserts the documented exit code:

* ``repro stack`` / ``repro sweep`` — :data:`EXIT_INTERRUPTED` (95),
  work finalized (journal written) before exit;
* ``repro worker`` — :data:`EXIT_DRAINED` (75), lease released back to
  pending so another worker can pick the cell up.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.config import RunConfig
from repro.parallel import cells_from_sweep
from repro.queue import PENDING, QueueStore
from repro.robustness.drain import EXIT_DRAINED, EXIT_INTERRUPTED
from repro.workloads.suite import sweep_cells

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _spawn(*argv: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, env=env,
    )


def _signal_after(proc: subprocess.Popen, sig: int, delay_s: float = 2.0):
    """Deliver ``sig`` once the process has had time to get mid-cell,
    then wait for a prompt drain."""
    time.sleep(delay_s)
    assert proc.poll() is None, (
        f"process exited early (rc={proc.returncode}): {proc.stderr.read()}"
    )
    proc.send_signal(sig)
    try:
        return proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        pytest.fail("process ignored the drain signal for 60s")


class TestStackAndSweep:
    def test_sweep_sigterm_exits_interrupted(self, tmp_path):
        journal = tmp_path / "j.json"
        proc = _spawn(
            "sweep", "--benchmarks", "cholesky", "--threads", "2,4",
            "--scale", "10", "--journal", str(journal),
        )
        _, err = _signal_after(proc, signal.SIGTERM)
        assert proc.returncode == EXIT_INTERRUPTED
        assert "interrupted" in err
        # the journal was finalized on the way out (valid, loadable)
        assert isinstance(json.loads(journal.read_text())["cells"], dict)

    def test_parallel_sweep_sigterm_drains_its_workers(self, tmp_path):
        """``--jobs 2``: the driver forwards the drain to its forked
        workers, each releases its lease mid-cell, and the sweep exits
        95 with its journal finalized."""
        journal = tmp_path / "j.json"
        proc = _spawn(
            "sweep", "--benchmarks", "cholesky", "--threads", "2,4",
            "--scale", "10", "--jobs", "2", "--journal", str(journal),
        )
        _, err = _signal_after(proc, signal.SIGTERM)
        assert proc.returncode == EXIT_INTERRUPTED, err
        assert "interrupted" in err
        assert err.count("lease released") == 2
        assert isinstance(json.loads(journal.read_text())["cells"], dict)

    def test_stack_sigint_exits_interrupted(self):
        proc = _spawn("stack", "cholesky", "-n", "4", "--scale", "10")
        _, err = _signal_after(proc, signal.SIGINT)
        assert proc.returncode == EXIT_INTERRUPTED
        assert "interrupted" in err

    def test_stack_sigterm_saves_checkpoint(self, tmp_path):
        ckpt = tmp_path / "stack.ckpt"
        proc = _spawn(
            "stack", "cholesky", "-n", "4", "--scale", "10",
            "--checkpoint", str(ckpt), "--checkpoint-every", "5000",
        )
        _, err = _signal_after(proc, signal.SIGTERM)
        assert proc.returncode == EXIT_INTERRUPTED
        assert "checkpoint saved" in err
        assert ckpt.exists()


class TestWorkerDrain:
    def test_worker_sigterm_releases_lease_and_exits_75(
        self, tmp_path, tiny_spec
    ):
        cells = cells_from_sweep(
            sweep_cells(("cholesky",), (4,)), scale=10.0
        )
        store = QueueStore.create(
            tmp_path / "q", cells,
            RunConfig(checkpoint_dir=str(tmp_path / "ckpt"),
                      checkpoint_every=5000),
            lease_ttl_s=30.0,
        )
        proc = _spawn("worker", str(tmp_path / "q"), "--worker-id", "wa")
        _, err = _signal_after(proc, signal.SIGTERM)
        assert proc.returncode == EXIT_DRAINED, err
        # the lease went back to pending — nothing is stranded and no
        # TTL has to expire before another worker picks the cell up
        assert store.state_of("cholesky:4") == PENDING
