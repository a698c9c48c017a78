"""The keystone invariant, locked across every registered policy.

For any checkpoint cycle C: *run-to-completion* and *save-at-C → load
→ continue* must produce byte-identical final state trees, identical
speedup stacks, and identical scalar metrics — for every replacement
policy, DRAM page policy and spin detector, and with an injected
fault replayed on resume.  An armed checkpoint hook must also never
perturb the run it observes.  The clean run is unarmed (no watchdog, no
hook), so it runs core-local ops ahead of the horizon while the
observed and resumed runs keep to the per-step order: every comparison
is also one across the two engine paths.
"""

from __future__ import annotations

import json

import pytest

from repro.accounting.accountant import CycleAccountant
from repro.checkpoint import (
    CheckpointHook,
    CheckpointPolicy,
    cell_descriptor,
    fault_descriptor,
    resume_simulation,
)
from repro.config import (
    AccountingConfig,
    CacheConfig,
    DramConfig,
    KB,
    MachineConfig,
)
from repro.core.rendering import render_stack
from repro.core.stack import build_stack
from repro.robustness.faults import make_fault
from repro.sim.engine import Simulation
from repro.workloads.spec import build_program
from repro.workloads.suite import by_name

BENCH = "cholesky"
N, SCALE = 4, 0.05
MAX_CYCLES = 2_000_000
EVERY = 3_000  # the scale-0.05 cell runs ~6.4k cycles -> 2 saves


def canon(state: dict) -> str:
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def _machine(replacement="lru", page_policy="open", spin_detector="tian"):
    return MachineConfig(
        n_cores=N,
        llc=CacheConfig(
            size_bytes=256 * KB, assoc=8, hit_latency=30,
            hidden_latency=30, replacement=replacement,
        ),
        dram=DramConfig(page_policy=page_policy),
        accounting=AccountingConfig(spin_detector=spin_detector),
    )


def _run(machine, hook=None, fault_kind=None, fault_seed=0, armed=True):
    """One accounted run of the keystone cell; returns (sim, result).
    ``armed=False`` runs with no watchdog (the one-shot clean run)."""
    spec = by_name(BENCH)
    program = build_program(spec, N, scale=SCALE)
    if fault_kind is not None:
        program, machine = make_fault(fault_kind, fault_seed)(
            program, machine
        )
    sim = Simulation(machine, program, CycleAccountant(machine))
    if not armed:
        return sim, sim.run(checkpoint=hook)
    result = sim.run(
        max_cycles=MAX_CYCLES, on_timeout="truncate", checkpoint=hook,
    )
    return sim, result


def _stack_text(sim, result):
    return render_stack(
        build_stack(BENCH, sim.accountant.report(result))
    )


POLICY_MATRIX = [
    ("lru", "open", "tian"),
    ("lru", "closed", "li"),
    ("fifo", "open", "li"),
    ("fifo", "closed", "tian"),
    ("random", "open", "tian"),
    ("random", "closed", "li"),
]


@pytest.mark.parametrize(
    "replacement,page_policy,spin_detector", POLICY_MATRIX
)
def test_keystone_across_policies(
    tmp_path, replacement, page_policy, spin_detector
):
    machine = _machine(replacement, page_policy, spin_detector)
    clean_sim, clean_result = _run(machine, armed=False)
    clean_state = canon(clean_sim.state_dict())

    descriptor = cell_descriptor(
        machine, BENCH, N, SCALE, max_cycles=MAX_CYCLES
    )
    hook = CheckpointHook(
        tmp_path / "cell.ckpt", descriptor,
        CheckpointPolicy(every_cycles=EVERY),
    )
    observed_sim, observed_result = _run(machine, hook=hook)
    assert hook.n_saves >= 1
    # an armed hook never perturbs the run it observes
    assert canon(observed_sim.state_dict()) == clean_state
    assert observed_result.total_cycles == clean_result.total_cycles

    # the file holds a mid-run save; loading and continuing must land
    # on the very same final state, stack, and metrics
    resumed_sim, header = resume_simulation(
        hook.path, expected_descriptor=descriptor
    )
    assert 0 < header["cycle"] < clean_result.total_cycles
    resumed_result = resumed_sim.run(
        max_cycles=MAX_CYCLES, on_timeout="truncate"
    )
    assert canon(resumed_sim.state_dict()) == clean_state
    assert resumed_result.total_cycles == clean_result.total_cycles
    assert (
        resumed_result.thread_end_times == clean_result.thread_end_times
    )
    assert _stack_text(resumed_sim, resumed_result) == _stack_text(
        clean_sim, clean_result
    )

    # continued with no watchdog, the restored run runs ahead from the
    # checkpoint and lands on the same state
    unarmed_sim, _header = resume_simulation(
        hook.path, expected_descriptor=descriptor
    )
    unarmed_result = unarmed_sim.run()
    assert canon(unarmed_sim.state_dict()) == clean_state
    assert _stack_text(unarmed_sim, unarmed_result) == _stack_text(
        clean_sim, clean_result
    )


def test_keystone_under_injected_fault(tmp_path):
    """A mem-spike fault (machine transform, seeded) is recorded in the
    descriptor and replayed on resume — the resumed run continues the
    same degraded experiment."""
    kind, seed = "mem-spike", 11
    machine = _machine()
    clean_sim, clean_result = _run(
        machine, fault_kind=kind, fault_seed=seed, armed=False,
    )
    clean_state = canon(clean_sim.state_dict())

    descriptor = cell_descriptor(
        machine, BENCH, N, SCALE,
        fault=fault_descriptor(kind, seed, 1),
        max_cycles=MAX_CYCLES,
    )
    hook = CheckpointHook(
        tmp_path / "cell.ckpt", descriptor,
        CheckpointPolicy(every_cycles=EVERY),
    )
    _run(machine, hook=hook, fault_kind=kind, fault_seed=seed)
    assert hook.n_saves >= 1

    resumed_sim, _header = resume_simulation(
        hook.path, expected_descriptor=descriptor
    )
    resumed_result = resumed_sim.run(
        max_cycles=MAX_CYCLES, on_timeout="truncate"
    )
    assert canon(resumed_sim.state_dict()) == clean_state
    assert resumed_result.total_cycles == clean_result.total_cycles
    assert _stack_text(resumed_sim, resumed_result) == _stack_text(
        clean_sim, clean_result
    )


def test_every_interval_checkpoint_resumes_to_same_end(tmp_path):
    """Not just the last save: *each* periodic checkpoint along the run
    is a valid resume point converging on the same final state."""
    machine = _machine()
    clean_sim, clean_result = _run(machine, armed=False)
    clean_state = canon(clean_sim.state_dict())

    descriptor = cell_descriptor(
        machine, BENCH, N, SCALE, max_cycles=MAX_CYCLES
    )

    saved_paths = []

    class _ForkingHook(CheckpointHook):
        """Keeps every interval save instead of overwriting in place."""

        def save(self, sim, reason):
            self.path = tmp_path / f"c{len(saved_paths)}.ckpt"
            header = super().save(sim, reason)
            saved_paths.append(self.path)
            return header

    hook = _ForkingHook(
        tmp_path / "c.ckpt", descriptor,
        CheckpointPolicy(every_cycles=2_000),
    )
    _run(machine, hook=hook)
    assert len(saved_paths) >= 2

    # each checkpoint is resumed both armed and unarmed (run-ahead)
    for path in saved_paths:
        for watchdog in ({"max_cycles": MAX_CYCLES, "on_timeout": "truncate"},
                         {}):
            resumed_sim, _ = resume_simulation(
                path, expected_descriptor=descriptor
            )
            result = resumed_sim.run(**watchdog)
            assert canon(resumed_sim.state_dict()) == clean_state, path
            assert result.total_cycles == clean_result.total_cycles
