"""Program synthesis from benchmark specs."""

from __future__ import annotations

import pytest

from repro.workloads.program import (
    AddressRegions,
    BarrierWait,
    Compute,
    Load,
    LockAcquire,
    LockRelease,
    Store,
)
from repro.workloads.spec import BenchmarkSpec, build_program
from repro.workloads.suite import SUITE, by_name
from repro.workloads import generators as g


def collect(spec: BenchmarkSpec, n_threads: int):
    """Materialize all ops per thread."""
    program = build_program(spec, n_threads)
    return program, [list(body) for body in program.thread_bodies]


def instr_count(ops) -> int:
    total = 0
    for op in ops:
        if isinstance(op, Compute):
            total += op.n
        elif isinstance(op, (Load, Store)):
            total += 1
    return total


BASE = BenchmarkSpec(
    name="t", total_kinstrs=40, mem_per_kinstr=100, private_ws_kb=16,
    par_overhead=0.0,
)


class TestWorkDivision:
    def test_strong_scaling_divides_work(self):
        __, one = collect(BASE, 1)
        __, four = collect(BASE, 4)
        total_one = instr_count(one[0])
        total_four = sum(instr_count(ops) for ops in four)
        assert abs(total_four - total_one) / total_one < 0.05

    def test_single_thread_close_to_spec_total(self):
        __, bodies = collect(BASE, 1)
        assert abs(instr_count(bodies[0]) - 40_000) / 40_000 < 0.05

    def test_par_overhead_adds_instructions(self):
        spec = BenchmarkSpec(
            name="t", total_kinstrs=40, mem_per_kinstr=0, par_overhead=0.25,
        )
        __, one = collect(spec, 1)
        __, two = collect(spec, 2)
        total_one = instr_count(one[0])
        total_two = sum(instr_count(ops) for ops in two)
        # MT executes ~25% more instructions; ST is unaffected
        assert total_two / total_one == pytest.approx(1.25, rel=0.03)


class TestMemoryMix:
    def test_memory_op_rate(self):
        __, bodies = collect(BASE, 2)
        for ops in bodies:
            mem = sum(1 for op in ops if isinstance(op, (Load, Store)))
            total = instr_count(ops)
            assert mem / total == pytest.approx(0.1, rel=0.15)

    def test_private_addresses_in_own_region(self):
        __, bodies = collect(BASE, 2)
        for tid, ops in enumerate(bodies):
            base = g.private_base(tid)
            for op in ops:
                if isinstance(op, (Load, Store)) and op.addr < g.SHARED_BASE:
                    assert base <= op.addr < base + 32 * 1024 * 1024

    def test_shared_accesses_present_when_configured(self):
        spec = BenchmarkSpec(
            name="t", total_kinstrs=40, mem_per_kinstr=100,
            shared_ws_kb=64, shared_fraction=0.5, par_overhead=0.0,
        )
        __, bodies = collect(spec, 2)
        shared = sum(
            1 for ops in bodies for op in ops
            if isinstance(op, (Load, Store))
            and g.SHARED_BASE <= op.addr < g.SHARED_BASE + 0x100_0000
        )
        assert shared > 0

    def test_dependent_fraction_marks_loads(self):
        spec = BenchmarkSpec(
            name="t", total_kinstrs=40, mem_per_kinstr=100,
            dependent_fraction=0.5, store_fraction=0.0, par_overhead=0.0,
        )
        __, bodies = collect(spec, 1)
        loads = [op for op in bodies[0] if isinstance(op, Load)]
        dependent = sum(1 for ld in loads if ld.dependent)
        assert 0.3 < dependent / len(loads) < 0.7


class TestSynchronization:
    def test_critical_sections_emitted(self):
        spec = BenchmarkSpec(
            name="t", total_kinstrs=40, mem_per_kinstr=0,
            n_locks=2, cs_per_kinstr=1.0, cs_len_instrs=100,
            par_overhead=0.0,
        )
        __, bodies = collect(spec, 2)
        for ops in bodies:
            acquires = [op for op in ops if isinstance(op, LockAcquire)]
            releases = [op for op in ops if isinstance(op, LockRelease)]
            assert len(acquires) == len(releases)
            assert len(acquires) == pytest.approx(20, abs=3)
            assert {op.lock_id for op in acquires} <= {0, 1}

    def test_acquire_release_properly_nested(self):
        spec = BenchmarkSpec(
            name="t", total_kinstrs=40, mem_per_kinstr=0,
            cs_per_kinstr=1.0, par_overhead=0.0,
        )
        __, bodies = collect(spec, 2)
        for ops in bodies:
            held = None
            for op in ops:
                if isinstance(op, LockAcquire):
                    assert held is None
                    held = op.lock_id
                elif isinstance(op, LockRelease):
                    assert held == op.lock_id
                    held = None
            assert held is None

    def test_phases_emit_barriers(self):
        spec = BenchmarkSpec(
            name="t", total_kinstrs=40, mem_per_kinstr=0, n_phases=4,
            par_overhead=0.0,
        )
        __, bodies = collect(spec, 2)
        for ops in bodies:
            barriers = [op for op in ops if isinstance(op, BarrierWait)]
            # 3 inter-phase barriers + the final convergence barrier
            assert len(barriers) == 4

    def test_final_barrier_optional(self):
        spec = BenchmarkSpec(
            name="t", total_kinstrs=40, mem_per_kinstr=0,
            final_barrier=False, par_overhead=0.0,
        )
        __, bodies = collect(spec, 2)
        assert not any(
            isinstance(op, BarrierWait) for ops in bodies for op in ops
        )


def _warmup_list(spec: BenchmarkSpec, tid: int) -> list[int]:
    """Reference: the per-address list the warm-up was built as before
    it became an :class:`~repro.workloads.program.AddressRegions`."""
    addrs = []
    if spec.cold_ws_kb > 0 and spec.cold_fraction > 0:
        cold_base = g.private_base(tid) + 0x100_0000
        for offset in range(0, spec.cold_ws_kb * 1024, g.LINE):
            addrs.append(cold_base + offset)
    if spec.shared_ws_kb > 0 and spec.shared_fraction > 0:
        for offset in range(0, spec.shared_ws_kb * 1024, g.LINE):
            addrs.append(g.SHARED_BASE + offset)
    base = g.private_base(tid)
    for offset in range(0, spec.private_ws_kb * 1024, g.LINE):
        addrs.append(base + offset)
    return addrs


class TestWarmup:
    @pytest.mark.parametrize("name", [spec.full_name for spec in SUITE])
    def test_regions_match_the_address_lists(self, name):
        spec = by_name(name)
        for n_threads in (1, 2, 4):
            program = build_program(spec, n_threads, scale=0.05)
            assert program.warmup is not None
            for tid, addrs in enumerate(program.warmup):
                assert isinstance(addrs, AddressRegions)
                assert list(addrs) == _warmup_list(spec, tid)

    def test_warmup_covers_private_ws(self):
        program = build_program(BASE, 2)
        assert program.warmup is not None
        for tid, addrs in enumerate(program.warmup):
            assert len(addrs) == 16 * 1024 // 64
            assert addrs[-1] == g.private_base(tid) + 16 * 1024 - 64

    def test_warmup_includes_shared_and_cold(self):
        spec = BenchmarkSpec(
            name="t", total_kinstrs=10, shared_ws_kb=64, shared_fraction=0.2,
            cold_ws_kb=64, cold_fraction=0.1, private_ws_kb=16,
        )
        program = build_program(spec, 1)
        addrs = program.warmup[0]
        assert len(addrs) == 3 * (64 + 64 + 16) * 1024 // 64 // 3
        # hot private data comes last (most recently used at start)
        assert addrs[-1] < g.SHARED_BASE

    def test_lock_policy_and_spin_threshold_propagate(self):
        spec = BenchmarkSpec(
            name="t", total_kinstrs=10, lock_fifo=True, spin_threshold=99,
        )
        program = build_program(spec, 2)
        assert program.lock_fifo_handoff
        assert program.spin_threshold_override == 99


class TestScaling:
    def test_scaled_reduces_work(self):
        scaled = BASE.scaled(0.25)
        assert scaled.total_kinstrs == 10
        assert BASE.total_kinstrs == 40  # frozen original untouched

    def test_build_program_scale_param(self):
        program = build_program(BASE, 1, scale=0.5)
        total = instr_count(list(program.thread_bodies[0]))
        assert total == pytest.approx(20_000, rel=0.06)

    def test_full_name(self):
        assert BASE.full_name == "t"
        spec = BenchmarkSpec(name="x", input_class="small")
        assert spec.full_name == "x_small"

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            build_program(BASE, 0)


class TestDeterminism:
    def test_same_spec_same_ops(self):
        __, a = collect(BASE, 2)
        __, b = collect(BASE, 2)
        for ops_a, ops_b in zip(a, b):
            assert len(ops_a) == len(ops_b)
            for op_a, op_b in zip(ops_a, ops_b):
                assert type(op_a) is type(op_b)
                if isinstance(op_a, (Load, Store)):
                    assert op_a.addr == op_b.addr
