"""Workload address streams and helpers: determinism, ranges, skew."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import generators as g
from repro.workloads.program import Load, Store
from repro.workloads.spec import (
    COLD_OFFSET,
    SHARED_HOT_FRACTION,
    SHARED_HOT_LINES,
    BenchmarkSpec,
    build_program,
)


class TestSeeding:
    def test_stable_across_calls(self):
        assert g.seed_for("bench", 3) == g.seed_for("bench", 3)

    def test_distinct_per_thread_and_name(self):
        seeds = {g.seed_for(name, tid)
                 for name in ("a", "b") for tid in range(8)}
        assert len(seeds) == 16


class TestPrivateBase:
    def test_regions_disjoint(self):
        for tid in range(15):
            end = g.private_base(tid) + 32 * 1024 * 1024
            assert end <= g.private_base(tid + 1)

    def test_bank_interleaving(self):
        """Thread bases must not all land on the same DRAM bank."""
        banks = {(g.private_base(tid) >> 12) & 7 for tid in range(16)}
        assert len(banks) > 1


def _accesses(spec: BenchmarkSpec, n_threads: int = 1, tid: int = 0):
    """The addresses of thread ``tid``'s loads and stores, in order."""
    body = build_program(spec, n_threads).thread_bodies[tid]
    return [op.addr for op in body if isinstance(op, (Load, Store))]


def _private(**knobs) -> BenchmarkSpec:
    """A spec whose every access goes to the private working set."""
    return BenchmarkSpec(name="private", total_kinstrs=20,
                         mem_per_kinstr=100, par_overhead=0.0, **knobs)


class TestAddressStream:
    """The private and cold regions: a stride that wraps, or a random
    line, as drawn by the thread bodies."""

    def test_deterministic(self):
        spec = _private(private_ws_kb=4, stride_fraction=0.5)
        assert _accesses(spec, 2, 1) == _accesses(spec, 2, 1)
        assert _accesses(spec, 2, 1) != _accesses(spec, 2, 0)

    def test_addresses_within_region(self):
        spec = _private(private_ws_kb=4, stride_fraction=0.5,
                        cold_ws_kb=8, cold_fraction=0.3,
                        cold_stride_fraction=0.5)
        base = g.private_base(1)
        cold = base + COLD_OFFSET
        addrs = _accesses(spec, 2, 1)
        in_private = [a for a in addrs if base <= a < base + 4096]
        in_cold = [a for a in addrs if cold <= a < cold + 8192]
        assert len(in_private) + len(in_cold) == len(addrs)
        assert in_private and in_cold
        # random picks reach the region's far end, not just the stride's
        assert max(in_private) >= base + 4096 - 64
        assert max(in_cold) >= cold + 8192 - 64

    def test_pure_stride_wraps(self):
        spec = _private(private_ws_kb=1, stride_fraction=1.0,
                        stride_bytes=64, store_fraction=0.0)
        base = g.private_base(0)
        addrs = _accesses(spec)
        assert [a - base for a in addrs[:18]] == [
            *range(0, 1024, 64), 0, 64,
        ]

    def test_sub_line_stride(self):
        spec = _private(private_ws_kb=1, stride_fraction=1.0,
                        stride_bytes=8, store_fraction=0.0)
        addrs = _accesses(spec)
        # 8 accesses per 64-byte line before moving on
        assert len({a // 64 for a in addrs[:8]}) == 1
        assert addrs[8] // 64 == addrs[0] // 64 + 1

    def test_too_small_region_rejected(self):
        """An empty private working set is refused at the body's first
        op (building the program draws nothing)."""
        program = build_program(_private(private_ws_kb=0), 1)
        with pytest.raises(ValueError, match="smaller than one cache line"):
            next(program.thread_bodies[0])


class TestSharedStream:
    """The shared region: most accesses go to its hot set."""

    @staticmethod
    def _shared(shared_ws_kb: int) -> BenchmarkSpec:
        return BenchmarkSpec(
            name="shared", total_kinstrs=40, mem_per_kinstr=100,
            shared_ws_kb=shared_ws_kb, shared_fraction=1.0,
            par_overhead=0.0,
        )

    def test_hot_bias(self):
        addrs = _accesses(self._shared(1024))
        hot = sum(
            1 for a in addrs
            if (a - g.SHARED_BASE) // 64 < SHARED_HOT_LINES
        )
        # the hot share plus the sweeps that land in the hot set
        expected = SHARED_HOT_FRACTION + (1 - SHARED_HOT_FRACTION) * (
            SHARED_HOT_LINES / (1024 * 1024 // 64)
        )
        assert hot / len(addrs) == pytest.approx(expected, abs=0.05)

    def test_within_region(self):
        addrs = _accesses(self._shared(4))
        assert len(addrs) > 200
        for addr in addrs:
            assert g.SHARED_BASE <= addr < g.SHARED_BASE + 4096


class TestSkew:
    def test_disabled_for_single_thread(self):
        assert g.skew_factor(0, 0, 1, 0.9) == 1.0

    def test_disabled_for_zero_amplitude(self):
        assert g.skew_factor(3, 2, 8, 0.0) == 1.0

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 20),
           st.floats(0.05, 0.95))
    def test_mean_close_to_one(self, n_threads, phase, amplitude):
        values = [
            g.skew_factor(tid, phase, n_threads, amplitude)
            for tid in range(n_threads)
        ]
        mean = sum(values) / n_threads
        assert abs(mean - 1.0) < 0.15

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 20), st.floats(0.05, 0.95))
    def test_bounded_by_amplitude(self, n_threads, phase, amplitude):
        for tid in range(n_threads):
            value = g.skew_factor(tid, phase, n_threads, amplitude)
            assert 1.0 - amplitude - 1e-9 <= value <= 1.0 + amplitude + 1e-9

    def test_straggler_rotates_across_phases(self):
        slowest = {
            max(range(8), key=lambda t: g.skew_factor(t, p, 8, 0.5))
            for p in range(8)
        }
        assert len(slowest) > 1


class TestChunks:
    def test_exact_division(self):
        assert list(g.chunks(300, 100)) == [100, 100, 100]

    def test_remainder(self):
        assert list(g.chunks(250, 100)) == [100, 100, 50]

    def test_zero(self):
        assert list(g.chunks(0, 100)) == []

    @given(st.integers(0, 10_000), st.integers(1, 500))
    def test_sum_preserved(self, total, chunk):
        parts = list(g.chunks(total, chunk))
        assert sum(parts) == total
        assert all(0 < p <= chunk for p in parts)
