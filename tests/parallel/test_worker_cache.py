"""Warm-worker cache correctness and crash-mid-chunk recovery.

The warm caches in :mod:`repro.parallel.worker` only earn their keep if
they are *invisible*: a worker that has already run other benchmarks
and other machines must produce exactly the result a cold worker
produces.  These tests run warm/cold differentials in-process (same
cache instance the pool workers use), then exercise the spill protocol
end to end: a worker killed mid-chunk must lose only its in-flight
cell — completed cells are journaled from the spill, never re-executed.
"""

from __future__ import annotations

import json

import pytest

from repro.config import MachineConfig, RunConfig
from repro.experiments.runner import BatchRunner
from repro.observability.metrics import MetricsRegistry
from repro.parallel import (
    WORKER_CRASH,
    ChunkingPolicy,
    cells_from_sweep,
    reset_worker_caches,
    run_cell_task,
    run_parallel_sweep,
    worker_caches,
)
from repro.parallel.transport import read_spill
from repro.robustness.journal import SweepJournal
from repro.workloads.suite import sweep_cells

POLICY = RunConfig(on_error="skip", max_cycles=2_000_000)
SCALE = 0.2

#: an LLC half the default size: different stacks, so cross-machine
#: cache bleed would be loud
SMALL_LLC = MachineConfig().with_llc_size(1024 * 1024)


@pytest.fixture(autouse=True)
def cold_caches():
    """Every test starts and ends with cold process-wide caches."""
    reset_worker_caches()
    yield
    reset_worker_caches()


def _cold_run(cell):
    reset_worker_caches()
    return run_cell_task(cell, POLICY)


def test_warm_worker_mixed_benchmarks_match_cold():
    """A worker that has run other benchmarks produces byte-identical
    results for the next one: the ST-reference memo and trace decode it
    warmed up must key on the benchmark, not leak across it."""
    cells = cells_from_sweep(
        sweep_cells(("cholesky", "blackscholes_small"), (2, 4)),
        scale=SCALE,
    )
    cold = [_cold_run(cell) for cell in cells]
    reset_worker_caches()
    warm = [run_cell_task(cell, POLICY) for cell in cells]
    assert warm == cold
    # the warm pass really did share one runner across all four cells
    assert len(worker_caches()._runners) == 1


def test_warm_worker_mixed_machines_match_cold():
    """Two machines interleaved through one worker stay isolated: the
    runner cache keys on machine_json, so the small-LLC cell can never
    see the default machine's warm cache arrays (or vice versa)."""
    sweep = sweep_cells(("cholesky",), (2,))
    default_cell = cells_from_sweep(sweep, scale=SCALE)[0]
    small_cell = cells_from_sweep(sweep, scale=SCALE, machine=SMALL_LLC)[0]
    cold_default = _cold_run(default_cell)
    cold_small = _cold_run(small_cell)
    # a smaller LLC must actually change the result, or this test
    # could not detect bleed at all
    assert cold_small.stack != cold_default.stack
    reset_worker_caches()
    interleaved = [
        run_cell_task(default_cell, POLICY),
        run_cell_task(small_cell, POLICY),
        run_cell_task(default_cell, POLICY),
    ]
    assert interleaved[0] == cold_default
    assert interleaved[1] == cold_small
    assert interleaved[2] == cold_default
    assert len(worker_caches()._runners) == 2


def test_crash_mid_chunk_spills_completed_cells(tmp_path, monkeypatch):
    """Kill a worker halfway through a whole-sweep chunk: every cell it
    completed before dying is recovered from the spill (journaled, not
    re-executed), only the in-flight victim fails, and the cells behind
    it requeue and finish."""
    benchmarks = ("cholesky", "blackscholes_small", "facesim_small")
    sweep = sweep_cells(benchmarks, (2, 4))
    serial_journal = tmp_path / "serial.json"
    # both sides collect metrics (they become journal entries, so the
    # byte comparison needs them on the serial side too)
    serial_report = BatchRunner(
        policy=POLICY, scale=SCALE,
        journal=SweepJournal(str(serial_journal)),
        metrics=MetricsRegistry(),
    ).run_sweep(sweep)
    assert not serial_report.failures

    # sweep order is benchmark-major: the victim at index 3 leaves three
    # completed cells in the spill and two more queued behind it
    victim = "blackscholes_small:4"
    assert [f"{s.full_name}:{n}" for s, n in sweep][3] == victim
    monkeypatch.setenv("REPRO_TEST_KILL_CELL", victim)
    journal = tmp_path / "journal.json"
    metrics = MetricsRegistry()
    crashed = run_parallel_sweep(
        cells_from_sweep(sweep, scale=SCALE),
        jobs=2,
        policy=POLICY,
        journal=SweepJournal(str(journal)),
        metrics=metrics,
        chunking=ChunkingPolicy(chunk_cells=len(sweep)),
    )
    assert [o.key for o in crashed.failures] == [victim]
    assert crashed.failures[0].error_type == WORKER_CRASH
    assert len(crashed.completed) == len(sweep) - 1
    # the three pre-victim cells came back via the spill, not a re-run
    assert metrics.counter("runtime.cells_recovered_from_spill").value == 3

    monkeypatch.delenv("REPRO_TEST_KILL_CELL")
    resumed = run_parallel_sweep(
        cells_from_sweep(sweep, scale=SCALE),
        jobs=2,
        policy=POLICY,
        journal=SweepJournal(str(journal)),
        resume=True,
        metrics=MetricsRegistry(),
        chunking=ChunkingPolicy(chunk_cells=len(sweep)),
    )
    statuses = {o.key: o.status for o in resumed.outcomes}
    assert statuses.pop(victim) == "ok"
    assert set(statuses.values()) == {"resumed"}
    assert journal.read_bytes() == serial_journal.read_bytes()


def test_spilled_cells_not_reexecuted(tmp_path, monkeypatch):
    """The over-retry regression: completed cells of a crashed chunk
    must be journaled from the spill with their original attempt
    counts — not re-run (which would also double any side effects)."""
    sweep = sweep_cells(("cholesky", "facesim_small"), (2, 4))
    victim = f"{sweep[-1][0].full_name}:{sweep[-1][1]}"
    monkeypatch.setenv("REPRO_TEST_KILL_CELL", victim)
    metrics = MetricsRegistry()
    report = run_parallel_sweep(
        cells_from_sweep(sweep, scale=SCALE),
        jobs=1,
        policy=POLICY,
        journal=SweepJournal(str(tmp_path / "journal.json")),
        metrics=metrics,
        chunking=ChunkingPolicy(chunk_cells=len(sweep)),
    )
    # all three survivors recovered from the spill of the single chunk:
    # with chunk_cells=len(sweep) nothing was left to requeue, so a
    # re-execution would have left this counter below 3
    assert metrics.counter("runtime.cells_recovered_from_spill").value == 3
    assert metrics.counter("runtime.cells_ok").value == 3
    assert [o.key for o in report.failures] == [victim]
    assert all(o.attempts == 1 for o in report.completed)


def test_read_spill_tolerates_torn_lines(tmp_path):
    """A worker killed mid-write leaves a truncated last line; recovery
    keeps every complete line and drops the torn one."""
    cells = cells_from_sweep(sweep_cells(("cholesky",), (2,)), scale=SCALE)
    result = run_cell_task(cells[0], POLICY)
    spill = tmp_path / "chunk.jsonl"
    with open(spill, "w") as handle:
        from repro.parallel.transport import append_spill

        append_spill(handle, 0, result)
        full_line = json.dumps({"index": 1, "result": {"name": "x"}})
        handle.write(full_line[: len(full_line) // 2])  # torn mid-write
    recovered = read_spill(str(spill))
    assert list(recovered) == [0]
    assert recovered[0] == result


def test_read_spill_missing_file(tmp_path):
    assert read_spill(str(tmp_path / "nope.jsonl")) == {}
