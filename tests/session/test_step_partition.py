"""Property: every step partition of a run is the same run.

The keystone guarantee of the ISSUE-10 refactor —

    step(N) then step(M)  ≡  step(N+M)  ≡  one-shot batch run

— holds for *arbitrary* partitions, including a snapshot/restore onto a
fresh session mid-run.  Hypothesis drives the partition; the comparison
is the canonical JSON of the full engine state tree plus the accounting
report, so a single diverging counter anywhere fails.  The expected
side is an unarmed one-shot run, which runs core-local ops ahead of the
horizon, while the stepped side pauses (and arms ``max_cycles``), which
keeps to the per-step order: the two engine paths must agree.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import MachineConfig
from repro.session import Session, SimulationKernel
from repro.workloads.spec import build_program
from repro.workloads.suite import by_name

BENCH = "cholesky"
N_THREADS = 4
SCALE = 0.05
MAX_CYCLES = 2_000_000


def canon(state: dict) -> str:
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


@pytest.fixture(scope="module")
def one_shot():
    """The unarmed one-shot run, and a check that arming the watchdog
    does not change it."""
    session = Session.from_config(BENCH, N_THREADS, scale=SCALE).run()
    armed = Session.from_config(
        BENCH, N_THREADS, scale=SCALE, max_cycles=MAX_CYCLES,
    ).run()
    assert canon(armed.snapshot()) == canon(session.snapshot())
    assert armed.stack() == session.stack()
    return canon(session.snapshot()), session.stack()


@settings(
    max_examples=10, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    steps=st.lists(st.integers(500, 50_000), min_size=1, max_size=6),
    restore_at=st.integers(0, 5),
    armed=st.booleans(),
)
def test_any_partition_matches_one_shot(one_shot, steps, restore_at, armed):
    """Stepped (and restored) sessions end where the one-shot run does,
    whether the final ``run()`` keeps the watchdog armed or runs
    ahead from the last pause."""
    expected_state, expected_stack = one_shot
    max_cycles = MAX_CYCLES if armed else None
    session = Session.from_config(
        BENCH, N_THREADS, scale=SCALE, max_cycles=max_cycles,
    )
    for i, n_cycles in enumerate(steps):
        if i == restore_at % len(steps):
            # snapshot → fresh session → restore → continue: must be
            # invisible
            state = session.snapshot()
            session = Session.from_config(
                BENCH, N_THREADS, scale=SCALE, max_cycles=max_cycles,
            ).load(state)
        session.step(n_cycles)
    session.run()
    assert canon(session.snapshot()) == expected_state
    assert session.stack() == expected_stack


def test_pause_at_never_mutates():
    """Pausing is a pure return: resuming the same Simulation object
    continues the identical trajectory (engine-level check, below the
    Session layer)."""
    spec = by_name(BENCH)
    machine = MachineConfig(n_cores=N_THREADS)

    reference = SimulationKernel(
        machine, build_program(spec, N_THREADS, scale=SCALE),
    )
    reference.finish()

    paused = SimulationKernel(
        machine, build_program(spec, N_THREADS, scale=SCALE),
    )
    result = paused.step(1_000)
    assert result.paused and not paused.done
    paused.finish()
    assert paused.snapshot() == reference.snapshot()
