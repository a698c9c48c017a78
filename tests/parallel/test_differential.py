"""Differential tests: parallel sweeps must be indistinguishable from serial.

The contract of ``repro.parallel`` is *bit-for-bit* equivalence with the
serial :class:`~repro.experiments.runner.BatchRunner` path at any
``--jobs`` level **and any chunk shape**: identical speedup-stack
components (the Eq. 4 decomposition), identical Eq. 4 / Eq. 6 scalar
metrics, and byte-identical journal files — healthy, under injected
faults, and across a worker kill + ``--resume`` cycle.
"""

from __future__ import annotations

import json

import pytest

from repro.config import RunConfig
from repro.experiments.runner import BatchRunner
from repro.parallel import (
    WORKER_CRASH,
    CellSpec,
    ChunkingPolicy,
    cells_from_sweep,
    run_parallel_sweep,
)
from repro.robustness.journal import SweepJournal
from repro.workloads.suite import sweep_cells

#: 6-cell sweep: three benchmarks at two thread counts, scaled down so
#: each full sweep stays in the single-second range
BENCHMARKS = ("cholesky", "blackscholes_small", "facesim_small")
THREADS = (2, 4)
SCALE = 0.2
POLICY = RunConfig(on_error="skip", max_cycles=2_000_000)

FAULT_PLAN = {"cholesky:2": "deadlock", "blackscholes_small:2": "mem-spike"}

#: the chunk shapes each differential sweep is repeated under:
#: single-cell chunks (maximum dispatch overhead, the old one-task-per-
#: cell behaviour), 3-cell chunks (uneven split of the 6-cell sweep),
#: one whole-sweep chunk (a single worker runs everything warm), and
#: the default adaptive plan
CHUNK_SHAPES = (1, 3, len(BENCHMARKS) * len(THREADS), None)


def _cells():
    return sweep_cells(BENCHMARKS, THREADS)


def _serial(journal_path, fault_plan=None):
    runner = BatchRunner(
        policy=POLICY, scale=SCALE,
        journal=SweepJournal(str(journal_path)),
        fault_plan=dict(fault_plan or {}),
    )
    return runner.run_sweep(_cells())


def _parallel(
    journal_path, jobs, fault_plan=None, resume=False, chunk_cells=None
):
    return run_parallel_sweep(
        cells_from_sweep(_cells(), scale=SCALE,
                         fault_kinds=dict(fault_plan or {})),
        jobs=jobs,
        policy=POLICY,
        journal=SweepJournal(str(journal_path)),
        resume=resume,
        chunking=(
            ChunkingPolicy(chunk_cells=chunk_cells)
            if chunk_cells is not None else None
        ),
    )


def _assert_equivalent(serial_report, parallel_report):
    """Every observable of every cell must match exactly (no tolerance:
    both sides are integer-cycle deterministic)."""
    assert (
        [(o.key, o.status) for o in serial_report.outcomes]
        == [(o.key, o.status) for o in parallel_report.outcomes]
    )
    for ser, par in zip(serial_report.outcomes, parallel_report.outcomes):
        if ser.status == "ok":
            s_res, p_res = ser.result, par.result
            # full Eq. 4 decomposition: SpeedupStack is a frozen
            # dataclass, == compares every component field
            assert s_res.stack == p_res.stack, ser.key
            assert s_res.stack.segments() == p_res.stack.segments()
            # Eq. 4 estimate and Eq. 6 estimation error
            assert s_res.stack.estimated_speedup == p_res.stack.estimated_speedup
            assert s_res.stack.actual_speedup == p_res.stack.actual_speedup
            assert s_res.stack.estimation_error == p_res.stack.estimation_error
            # Section 6 instruction-overhead proxy
            assert (s_res.parallelization_overhead
                    == p_res.parallelization_overhead), ser.key
            # the per-thread accounting behind the stack
            assert (s_res.report.component_totals()
                    == p_res.report.component_totals()), ser.key
        else:
            assert ser.error == par.error, ser.key
            assert ser.error_type == par.error_type, ser.key
            assert ser.attempts == par.attempts, ser.key


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("serial") / "journal.json"
    report = _serial(path)
    return report, path.read_bytes()


@pytest.mark.parametrize("chunk_cells", CHUNK_SHAPES)
@pytest.mark.parametrize("jobs", [2, 4])
def test_differential_healthy(serial_run, tmp_path, jobs, chunk_cells):
    serial_report, serial_journal = serial_run
    journal = tmp_path / "journal.json"
    parallel_report = _parallel(journal, jobs=jobs, chunk_cells=chunk_cells)
    _assert_equivalent(serial_report, parallel_report)
    assert journal.read_bytes() == serial_journal


@pytest.mark.parametrize("chunk_cells", CHUNK_SHAPES)
def test_differential_with_faults(tmp_path, chunk_cells):
    """Fault-injected cells fail identically in both execution modes,
    and the healthy cells around them are untouched — chunking must not
    leak a fault into the other cells sharing the chunk's worker."""
    s_journal = tmp_path / "serial.json"
    p_journal = tmp_path / "parallel.json"
    serial_report = _serial(s_journal, fault_plan=FAULT_PLAN)
    parallel_report = _parallel(
        p_journal, jobs=2, fault_plan=FAULT_PLAN, chunk_cells=chunk_cells
    )
    assert [o.key for o in serial_report.failures] == ["cholesky:2"]
    assert serial_report.failures[0].error_type == "DeadlockError"
    # mem-spike degrades but does not fail the cell
    assert {o.key for o in serial_report.completed} >= {
        "blackscholes_small:2"
    }
    _assert_equivalent(serial_report, parallel_report)
    assert p_journal.read_bytes() == s_journal.read_bytes()


def test_worker_kill_then_resume(serial_run, tmp_path, monkeypatch):
    """A hard worker death fails exactly the victim cell; ``--resume``
    re-runs only that cell and converges on the serial journal bytes."""
    serial_report, serial_journal = serial_run
    journal = tmp_path / "journal.json"
    victim = "facesim_small:4"
    monkeypatch.setenv("REPRO_TEST_KILL_CELL", victim)
    crashed = _parallel(journal, jobs=2)
    assert [o.key for o in crashed.failures] == [victim]
    assert crashed.failures[0].error_type == WORKER_CRASH
    entry = json.loads(journal.read_text())["cells"][victim]
    assert entry["status"] == "failed"
    assert entry["error_type"] == WORKER_CRASH
    # every non-victim cell survived the pool break
    assert len(crashed.completed) == len(serial_report.outcomes) - 1

    monkeypatch.delenv("REPRO_TEST_KILL_CELL")
    resumed = _parallel(journal, jobs=2, resume=True)
    statuses = {o.key: o.status for o in resumed.outcomes}
    assert statuses.pop(victim) == "ok"
    assert set(statuses.values()) == {"resumed"}
    _assert_equivalent(
        serial_report,
        # splice the resumed victim into the crash run's ok cells for a
        # full-sweep comparison
        _spliced(crashed, resumed, victim),
    )
    # journal dict order is insertion order and record_ok overwrites the
    # victim's entry in place, so the bytes converge on serial's exactly
    assert journal.read_bytes() == serial_journal


def _spliced(crashed, resumed, victim):
    """Crash-run report with the victim's outcome replaced by its
    resumed re-run (same shape as one clean sweep)."""
    from repro.experiments.runner import SweepReport

    fixed = {o.key: o for o in resumed.outcomes if o.status == "ok"}
    report = SweepReport()
    for outcome in crashed.outcomes:
        report.outcomes.append(fixed.get(outcome.key, outcome))
    return report


def test_cellspec_rejects_unknown_fault():
    spec, n_threads = _cells()[0]
    with pytest.raises(ValueError, match="unknown fault kind"):
        CellSpec(spec=spec, n_threads=n_threads, fault="gamma-ray")


def test_jobs_must_be_positive():
    with pytest.raises(ValueError, match="jobs"):
        run_parallel_sweep([], jobs=0)
