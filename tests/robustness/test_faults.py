"""The seeded fault injector: determinism and end-to-end pathologies."""

from __future__ import annotations

import json

import pytest

from repro.config import MachineConfig
from repro.errors import ConfigError, DeadlockError, TraceParseError
from repro.osmodel.thread import FINISHED
from repro.robustness.faults import FAULT_KINDS, FaultInjector, make_fault
from repro.sim.engine import simulate
from repro.workloads.program import (
    Compute,
    Load,
    LockAcquire,
    LockRelease,
    Program,
    Store,
    TAG_LOCK_RELEASE,
)
from repro.workloads.tracefile import dump_trace, parse_trace

from tests.conftest import lock_step_program

CLEAN_TRACE = dump_trace([
    [Compute(50), Load(0x1000), Store(0x2000)] * 4,
    [Compute(70), Load(0x3000), Store(0x4000)] * 4,
])


def tags(program: Program) -> list[list[int]]:
    """Materialize per-thread op tags (consumes the program)."""
    return [[op.TAG for op in body] for body in program.thread_bodies]


class TestCorruptTrace:
    def test_deterministic(self):
        a = FaultInjector(7).corrupt_trace(CLEAN_TRACE, n_corruptions=3)
        b = FaultInjector(7).corrupt_trace(CLEAN_TRACE, n_corruptions=3)
        assert a == b
        assert a != CLEAN_TRACE

    def test_every_seed_breaks_the_parser(self):
        """On a C/L/S trace every corruption style is a parse error —
        corruption must fail loudly, never mis-parse silently."""
        for seed in range(12):
            corrupted = FaultInjector(seed).corrupt_trace(
                CLEAN_TRACE, n_corruptions=2
            )
            assert corrupted != CLEAN_TRACE
            with pytest.raises(TraceParseError) as err:
                parse_trace(corrupted, name=f"fuzz-{seed}")
            assert err.value.source == f"fuzz-{seed}"
            assert err.value.line_no is not None

    def test_comments_and_blanks_untouched(self):
        text = "# only a comment\n\n# another\n"
        assert FaultInjector(0).corrupt_trace(text) == text

    def test_corruption_count_clamped(self):
        text = "T0 C 10\n"
        corrupted = FaultInjector(1).corrupt_trace(text, n_corruptions=99)
        with pytest.raises(TraceParseError):
            parse_trace(corrupted)


class TestProgramFaults:
    def test_drop_lock_releases_removes_all(self):
        program = Program("p", [
            iter([LockAcquire(0), Compute(10), LockRelease(0), Compute(5)]),
        ])
        dropped = FaultInjector(0).drop_lock_releases(program)
        body = tags(dropped)[0]
        assert TAG_LOCK_RELEASE not in body
        assert len(body) == 3  # everything else survives

    def test_drop_fraction_zero_is_identity(self):
        program = Program("p", [
            iter([LockAcquire(0), LockRelease(0)]),
        ])
        kept = FaultInjector(0).drop_lock_releases(program, fraction=0.0)
        assert tags(kept)[0].count(TAG_LOCK_RELEASE) == 1

    def test_dropped_releases_deadlock_the_engine(self, machine4):
        faulted = FaultInjector(0).drop_lock_releases(lock_step_program(4))
        with pytest.raises(DeadlockError) as err:
            simulate(machine4, faulted)
        snapshot = err.value.snapshot
        assert snapshot is not None
        held = [s for s in snapshot.locks if s.holder_tid is not None]
        assert held, "post-mortem must show the stuck lock"
        assert any(s.waiter_tids for s in snapshot.locks)

    def test_post_mortem_dict_is_its_json_form(self, machine4):
        """The dict a failed outcome carries is already what its JSON
        round trip gives back (lists, not tuples), so a failure reads
        the same from a queue record as from the serial runner."""
        faulted = FaultInjector(0).drop_lock_releases(lock_step_program(4))
        with pytest.raises(DeadlockError) as err:
            simulate(machine4, faulted)
        doc = err.value.snapshot.to_dict()
        assert doc == json.loads(json.dumps(doc))
        assert isinstance(doc["core_clocks"], list)

    def test_skewed_barriers_still_finish_but_slower(self, machine4):
        baseline = simulate(machine4, lock_step_program(4)).total_cycles
        skewed = FaultInjector(0).skew_barrier_arrivals(
            lock_step_program(4), extra_instrs=50_000, fraction=1.0
        )
        result = simulate(machine4, skewed)
        assert all(t.state == FINISHED for t in result.threads)
        assert result.total_cycles > baseline

    def test_spin_forever_overrides_budget(self):
        program = lock_step_program(2)
        forever = FaultInjector(0).spin_forever(program)
        assert forever.spin_threshold_override == 1 << 60
        assert forever.n_threads == 2

    def test_spike_memory_latency(self, machine4):
        spiked = FaultInjector(0).spike_memory_latency(machine4, factor=8)
        assert spiked.dram.t_cas == machine4.dram.t_cas * 8
        assert spiked.dram.t_rcd == machine4.dram.t_rcd * 8
        assert spiked.dram.t_rp == machine4.dram.t_rp * 8
        assert spiked.dram.bus_cycles == machine4.dram.bus_cycles * 8
        assert spiked.n_cores == machine4.n_cores
        # the original machine is untouched
        assert machine4.dram.t_cas != spiked.dram.t_cas

    def test_transforms_are_seed_deterministic(self):
        def fresh():
            return Program("p", [iter(
                [LockAcquire(0), Compute(10), LockRelease(0)] * 10
            ) for __ in range(2)])

        a = tags(FaultInjector(5).drop_lock_releases(fresh(), fraction=0.5))
        b = tags(FaultInjector(5).drop_lock_releases(fresh(), fraction=0.5))
        assert a == b


class TestMakeFault:
    def test_all_kinds_build(self):
        for kind in FAULT_KINDS:
            assert callable(make_fault(kind))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            make_fault("gremlins")

    def test_deadlock_fault_leaves_machine_alone(self, machine4):
        program, machine = make_fault("deadlock")(
            lock_step_program(2), machine4
        )
        assert machine is machine4
        assert TAG_LOCK_RELEASE not in tags(program)[0]

    def test_mem_spike_fault_leaves_program_alone(self, machine4):
        original = lock_step_program(2)
        program, machine = make_fault("mem-spike")(original, machine4)
        assert program is original
        assert machine.dram.t_cas > machine4.dram.t_cas

    def test_livelock_fault_composes(self, machine4):
        program, __ = make_fault("livelock")(lock_step_program(2), machine4)
        assert program.spin_threshold_override == 1 << 60
