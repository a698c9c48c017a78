"""SimulationKernel: the batch path re-hosted, byte-identically.

The golden differential for the ISSUE-10 refactor: the batch protocol
(`run_accounted` / `run_experiment` / the batch runner) now drives its
engines through :class:`repro.session.SimulationKernel`, and these
tests prove the re-hosting is invisible — the six pinned golden stacks
reproduce exactly, both through the (kernel-hosted) batch API and
through a *stepped* interactive :class:`~repro.session.Session`, and a
journal written from stepped-session results is byte-identical to the
batch runner's.  (The serial-vs-``--jobs 2`` journal differential runs
against the same kernel-hosted path in
``tests/parallel/test_differential.py``.)
"""

from __future__ import annotations

import json

import pytest

from repro.config import MachineConfig, RunConfig
from repro.experiments.runner import BatchRunner, run_accounted
from repro.robustness.journal import SweepJournal
from repro.session import Session, SimulationKernel
from repro.workloads.spec import build_program
from repro.workloads.suite import by_name

from tests.golden.test_golden_stacks import (
    GOLDEN_CELLS,
    MAX_CYCLES,
    SCALE,
    _fixture_path,
    diff_stacks,
    stack_to_dict,
)


def _golden_session(name: str, n_threads: int) -> Session:
    return Session.from_config(
        name, n_threads, scale=SCALE, max_cycles=MAX_CYCLES,
    )


@pytest.mark.parametrize(
    "name,n_threads", GOLDEN_CELLS,
    ids=[f"{n}:{t}" for n, t in GOLDEN_CELLS],
)
def test_stepped_session_matches_golden_stack(name, n_threads):
    """A Session advanced in uneven steps lands on the pinned stack."""
    session = _golden_session(name, n_threads)
    # deliberately ragged partition; the tail runs to completion
    session.step(10_000).step(1).step(250_000)
    stack = session.stack()
    expected = json.loads(_fixture_path(name, n_threads).read_text())
    diff = diff_stacks(expected, stack_to_dict(stack))
    assert not diff, (
        f"stepped session {name}:{n_threads} diverged from golden "
        "fixture:\n  " + "\n  ".join(diff)
    )


def test_kernel_batch_equals_run_accounted():
    """One-shot kernel lifecycle == the public batch function."""
    spec = by_name("cholesky")
    machine = MachineConfig(n_cores=4)
    program = build_program(spec, 4, scale=0.05)
    batch_result, batch_report = run_accounted(machine, program)

    kernel = SimulationKernel(
        machine, build_program(spec, 4, scale=0.05),
    )
    result = kernel.finish()
    assert result.total_cycles == batch_result.total_cycles
    assert kernel.report() == batch_report
    # finishing twice is idempotent
    assert kernel.finish() is result
    assert kernel.step(1_000) is result


def test_kernel_step_partition_equals_one_shot():
    spec = by_name("cholesky")
    machine = MachineConfig(n_cores=4)

    one_shot = SimulationKernel(machine, build_program(spec, 4, scale=0.05))
    one_shot.finish()

    stepped = SimulationKernel(machine, build_program(spec, 4, scale=0.05))
    while not stepped.done:
        stepped.step(500)
    assert stepped.snapshot() == one_shot.snapshot()
    assert stepped.report() == one_shot.report()


def test_kernel_peek_report_is_pure():
    spec = by_name("cholesky")
    machine = MachineConfig(n_cores=4)
    kernel = SimulationKernel(machine, build_program(spec, 4, scale=0.05))
    kernel.step(2_000)
    before = kernel.snapshot()
    partial = kernel.peek_report()
    assert partial is not None
    assert partial.truncated
    assert kernel.snapshot() == before
    kernel.finish()
    assert kernel.peek_report() == kernel.report()


def test_unaccounted_kernel_has_no_report():
    from repro.errors import SimulationError

    spec = by_name("cholesky")
    kernel = SimulationKernel(
        MachineConfig(n_cores=1), build_program(spec, 1, scale=0.05),
        accounted=False,
    )
    assert kernel.peek_report() is None
    kernel.finish()
    with pytest.raises(SimulationError):
        kernel.report()


def test_session_journal_matches_batch_journal(tmp_path):
    """Journals recorded from stepped-session results are byte-identical
    to the batch runner's — the refactor moved the run host, not one
    bit of the observable output."""
    cells = [(by_name("cholesky"), 2), (by_name("blackscholes_small"), 2)]
    policy = RunConfig(max_cycles=MAX_CYCLES)

    batch_path = tmp_path / "batch.json"
    runner = BatchRunner(
        policy=policy, scale=SCALE, journal=SweepJournal(str(batch_path)),
    )
    report = runner.run_sweep(cells)
    assert report.ok

    session_path = tmp_path / "session.json"
    journal = SweepJournal(str(session_path))
    for spec, n_threads in cells:
        session = _golden_session(spec.full_name, n_threads)
        session.step(7_000)
        while not session.done:
            session.step(300_000)
        result = session.result
        journal.record_ok(
            spec.full_name, n_threads,
            attempts=1,
            total_cycles=result.total_cycles,
            truncated=result.truncated,
        )
    assert session_path.read_bytes() == batch_path.read_bytes()
