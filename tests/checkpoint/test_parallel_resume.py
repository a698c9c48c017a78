"""Parallel sweeps with cell checkpoints: worker-kill quarantine-resume
and journal byte-equivalence with the serial path.

Checkpoint-enabled parallel sweeps must keep the ``repro.parallel``
contract: journals byte-identical to serial, and a killed worker's cell
heals on ``--resume`` with identical results.
"""

from __future__ import annotations

import pytest

from repro.config import RunConfig
from repro.experiments.runner import BatchRunner
from repro.parallel import WORKER_CRASH, cells_from_sweep, run_parallel_sweep
from repro.robustness.journal import SweepJournal
from repro.workloads.suite import sweep_cells

BENCHMARKS = ("cholesky", "blackscholes_small")
THREADS = (2, 4)
SCALE = 0.1
VICTIM = "cholesky:4"


def _policy(tmp_path):
    return RunConfig(
        on_error="skip",
        max_cycles=2_000_000,
        checkpoint_dir=str(tmp_path / "ckpts"),
        checkpoint_every=2_000,
    )


def _serial(tmp_path, journal_path):
    runner = BatchRunner(
        policy=_policy(tmp_path), scale=SCALE,
        journal=SweepJournal(str(journal_path)),
    )
    return runner.run_sweep(sweep_cells(BENCHMARKS, THREADS))


def _parallel(tmp_path, journal_path, resume=False):
    return run_parallel_sweep(
        cells_from_sweep(sweep_cells(BENCHMARKS, THREADS), scale=SCALE),
        jobs=2,
        policy=_policy(tmp_path),
        journal=SweepJournal(str(journal_path)),
        resume=resume,
    )


def test_checkpointed_parallel_matches_serial_journal(tmp_path):
    s_journal = tmp_path / "serial.json"
    p_journal = tmp_path / "parallel.json"
    serial = _serial(tmp_path / "s", s_journal)
    parallel = _parallel(tmp_path / "p", p_journal)
    assert (
        [(o.key, o.status) for o in serial.outcomes]
        == [(o.key, o.status) for o in parallel.outcomes]
    )
    for ser, par in zip(serial.outcomes, parallel.outcomes):
        assert ser.result.stack == par.result.stack, ser.key
    assert p_journal.read_bytes() == s_journal.read_bytes()


def test_worker_kill_then_checkpoint_resume(tmp_path, monkeypatch):
    """Kill the worker running the victim cell, then ``--resume``: the
    sweep heals and its journal converges byte-for-byte on a clean
    run's."""
    clean_journal = tmp_path / "clean.json"
    _serial(tmp_path / "clean", clean_journal)

    journal = tmp_path / "journal.json"
    monkeypatch.setenv("REPRO_TEST_KILL_CELL", VICTIM)
    crashed = _parallel(tmp_path / "kill", journal)
    assert [o.key for o in crashed.failures] == [VICTIM]
    assert crashed.failures[0].error_type == WORKER_CRASH

    monkeypatch.delenv("REPRO_TEST_KILL_CELL")
    resumed = _parallel(tmp_path / "kill", journal, resume=True)
    statuses = {o.key: o.status for o in resumed.outcomes}
    assert statuses.pop(VICTIM) == "ok"
    assert set(statuses.values()) == {"resumed"}
    assert journal.read_bytes() == clean_journal.read_bytes()


def test_fault_plan_ships_resumable_tuples():
    """Workers receive (kind, seed) fault plans — a checkpoint saved in
    a worker stays resumable because the descriptor can name the fault."""
    cells = cells_from_sweep(
        sweep_cells(("cholesky",), (2,)), scale=SCALE,
        fault_kinds={"cholesky:2": "mem-spike"},
    )
    cell = cells[0]
    assert cell.fault == "mem-spike"
    assert isinstance(cell.fault_seed, int)


def test_unknown_checkpoint_dir_parent_is_created(tmp_path):
    """checkpoint_dir need not pre-exist — the first save creates it."""
    deep = tmp_path / "does" / "not" / "exist"
    policy = RunConfig(
        on_error="skip", max_cycles=10_000,
        checkpoint_dir=str(deep), checkpoint_every=2_000,
    )
    from repro.workloads.suite import by_name

    BatchRunner(policy=policy, scale=0.2).run_cell(by_name("cholesky"), 4)
    assert (deep / "cholesky_n4.ckpt").exists()


@pytest.mark.parametrize("jobs", [1])
def test_jobs_one_uses_serial_path_with_checkpoints(tmp_path, jobs):
    """--jobs 1 goes through the in-process runner; checkpoint config
    must not break that degenerate case."""
    journal = tmp_path / "j.json"
    report = run_parallel_sweep(
        cells_from_sweep(sweep_cells(("cholesky",), (2,)), scale=SCALE),
        jobs=jobs,
        policy=_policy(tmp_path),
        journal=SweepJournal(str(journal)),
    )
    assert [o.status for o in report.outcomes] == ["ok"]
