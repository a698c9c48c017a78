"""Differential tests: parallel sweeps must be indistinguishable from serial.

The contract of ``repro.parallel`` is *bit-for-bit* equivalence with the
serial :class:`~repro.experiments.runner.BatchRunner` path at any
``--jobs`` level: identical speedup-stack components (the Eq. 4
decomposition), identical Eq. 4 / Eq. 6 scalar metrics, and
byte-identical journal files — healthy, under injected faults, from
any point a stopped sweep is resumed at, and across a worker kill that
the queue recovers within the same sweep.
"""

from __future__ import annotations

import pytest

from repro.config import RunConfig
from repro.experiments.runner import CELL_OK, CELL_RESUMED, BatchRunner
from repro.observability.events import EventBus, LeaseExpired, WorkerCrashed
from repro.parallel import CellSpec, cells_from_sweep, run_parallel_sweep
from repro.robustness.journal import SweepJournal
from repro.workloads.suite import sweep_cells

#: 6-cell sweep: three benchmarks at two thread counts, scaled down so
#: each full sweep stays in the single-second range
BENCHMARKS = ("cholesky", "blackscholes_small", "facesim_small")
THREADS = (2, 4)
SCALE = 0.2
POLICY = RunConfig(on_error="skip", max_cycles=2_000_000)

FAULT_PLAN = {"cholesky:2": "deadlock", "blackscholes_small:2": "mem-spike"}

#: the journal each differential sweep starts from: a sweep stopped
#: after its first cell, after an uneven 3-of-6 split, after its last
#: cell (``--resume`` re-runs only the failed cells), and none at all
#: (a fresh sweep)
RESUME_AFTER = (1, 3, len(BENCHMARKS) * len(THREADS), None)


def _cells():
    return sweep_cells(BENCHMARKS, THREADS)


def _serial(journal_path, fault_plan=None, cells=None):
    runner = BatchRunner(
        policy=POLICY, scale=SCALE,
        journal=SweepJournal(str(journal_path)),
        fault_plan=dict(fault_plan or {}),
    )
    return runner.run_sweep(_cells() if cells is None else cells)


def _stop_after(journal_path, n_cells, fault_plan=None):
    """Leave the journal of a serial sweep that stopped after its first
    ``n_cells`` cells (None: leave none, for a fresh sweep)."""
    if n_cells is not None:
        _serial(journal_path, fault_plan, cells=_cells()[:n_cells])


def _parallel(journal_path, jobs, fault_plan=None, resume=False, bus=None):
    return run_parallel_sweep(
        cells_from_sweep(_cells(), scale=SCALE,
                         fault_kinds=dict(fault_plan or {})),
        jobs=jobs,
        policy=POLICY,
        journal=SweepJournal(str(journal_path)),
        resume=resume,
        bus=bus,
    )


def _assert_equivalent(serial_report, parallel_report, resumed=0):
    """Every observable of every cell must match exactly (no tolerance:
    both sides are integer-cycle deterministic).  When the parallel
    sweep resumed a journal of the first ``resumed`` cells, the ok ones
    among them are ``resumed`` and the failed ones ran again."""
    assert [
        (o.key, CELL_RESUMED if i < resumed and o.status == CELL_OK
         else o.status)
        for i, o in enumerate(serial_report.outcomes)
    ] == [(o.key, o.status) for o in parallel_report.outcomes]
    for ser, par in zip(serial_report.outcomes, parallel_report.outcomes):
        if par.status == CELL_RESUMED:
            continue
        # the whole outcome: attempts, errors and post-mortems, and the
        # CellResult — the full Eq. 4 decomposition (SpeedupStack is a
        # frozen dataclass, == compares every component field), the
        # per-thread accounting behind it and the Section 6
        # instruction counts
        assert ser == par, ser.key


@pytest.fixture(scope="module")
def serial_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("serial") / "journal.json"
    report = _serial(path)
    return report, path.read_bytes()


@pytest.mark.parametrize("resume_after", RESUME_AFTER)
@pytest.mark.parametrize("jobs", [2, 4])
def test_differential_healthy(serial_run, tmp_path, jobs, resume_after):
    serial_report, serial_journal = serial_run
    journal = tmp_path / "journal.json"
    _stop_after(journal, resume_after)
    parallel_report = _parallel(
        journal, jobs=jobs, resume=resume_after is not None
    )
    _assert_equivalent(serial_report, parallel_report, resume_after or 0)
    assert journal.read_bytes() == serial_journal


@pytest.mark.parametrize("resume_after", RESUME_AFTER)
def test_differential_with_faults(tmp_path, resume_after):
    """Fault-injected cells fail identically in both execution modes,
    and the healthy cells around them are untouched — a fault must not
    leak into the other cells a warm worker runs after it, and a resumed
    sweep re-runs a failed cell to the same failure."""
    s_journal = tmp_path / "serial.json"
    p_journal = tmp_path / "parallel.json"
    serial_report = _serial(s_journal, fault_plan=FAULT_PLAN)
    _stop_after(p_journal, resume_after, FAULT_PLAN)
    parallel_report = _parallel(
        p_journal, jobs=2, fault_plan=FAULT_PLAN,
        resume=resume_after is not None,
    )
    assert [o.key for o in serial_report.failures] == ["cholesky:2"]
    assert serial_report.failures[0].error_type == "DeadlockError"
    # mem-spike degrades but does not fail the cell
    assert {o.key for o in serial_report.completed} >= {
        "blackscholes_small:2"
    }
    _assert_equivalent(serial_report, parallel_report, resume_after or 0)
    assert p_journal.read_bytes() == s_journal.read_bytes()


def test_worker_kill_then_resume(serial_run, tmp_path, monkeypatch):
    """A hard worker death costs one lease: the driver reaps the dead
    worker, expires its lease at once (the default 30 s TTL never
    runs out), and the cell re-runs in the same sweep on a respawned
    worker — the journal is the serial one, and ``--resume`` finds
    nothing left to do."""
    serial_report, serial_journal = serial_run
    journal = tmp_path / "journal.json"
    victim = "facesim_small:4"
    monkeypatch.setenv("REPRO_TEST_KILL_CELL", victim)
    bus = EventBus()
    expired: list[LeaseExpired] = []
    crashed: list[WorkerCrashed] = []
    bus.subscribe(LeaseExpired, expired.append)
    bus.subscribe(WorkerCrashed, crashed.append)
    report = _parallel(journal, jobs=2, bus=bus)
    _assert_equivalent(serial_report, report)
    assert journal.read_bytes() == serial_journal
    assert [event.key for event in expired] == [victim]
    assert [event.suspects for event in crashed] == [(victim,)]

    monkeypatch.delenv("REPRO_TEST_KILL_CELL")
    resumed = _parallel(journal, jobs=2, resume=True)
    assert {o.status for o in resumed.outcomes} == {"resumed"}
    assert journal.read_bytes() == serial_journal


def test_cellspec_rejects_unknown_fault():
    spec, n_threads = _cells()[0]
    with pytest.raises(ValueError, match="unknown fault kind"):
        CellSpec(spec=spec, n_threads=n_threads, fault="gamma-ray")


def test_jobs_must_be_positive():
    with pytest.raises(ValueError, match="jobs"):
        run_parallel_sweep([], jobs=0)
