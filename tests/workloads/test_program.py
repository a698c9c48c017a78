"""Program IR: ops, tags, program construction."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.program import (
    AddressRegions,
    BarrierWait,
    Compute,
    Load,
    LockAcquire,
    LockRelease,
    Program,
    Store,
    TAG_BARRIER_WAIT,
    TAG_COMPUTE,
    TAG_LOAD,
    TAG_LOCK_ACQUIRE,
    TAG_LOCK_RELEASE,
    TAG_STORE,
)


class TestOps:
    def test_tags_distinct(self):
        tags = {
            Compute.TAG, Load.TAG, Store.TAG,
            LockAcquire.TAG, LockRelease.TAG, BarrierWait.TAG,
        }
        assert len(tags) == 6

    def test_tag_constants_match(self):
        assert Compute(1).TAG == TAG_COMPUTE
        assert Load(0).TAG == TAG_LOAD
        assert Store(0).TAG == TAG_STORE
        assert LockAcquire(0).TAG == TAG_LOCK_ACQUIRE
        assert LockRelease(0).TAG == TAG_LOCK_RELEASE
        assert BarrierWait(0).TAG == TAG_BARRIER_WAIT

    def test_load_defaults(self):
        load = Load(0x1234)
        assert load.overlappable
        assert not load.dependent
        assert load.pc == 0

    def test_reprs(self):
        assert "Compute(5)" == repr(Compute(5))
        assert "0x1234" in repr(Load(0x1234))
        assert "0x10" in repr(Store(0x10))
        assert "LockAcquire(2)" == repr(LockAcquire(2))
        assert "LockRelease(2)" == repr(LockRelease(2))
        assert "BarrierWait(1)" == repr(BarrierWait(1))


class TestProgram:
    def test_from_factory(self):
        program = Program.from_factory(
            "p", 3, lambda tid: iter([Compute(tid + 1)])
        )
        assert program.n_threads == 3
        ops = [list(body) for body in program.thread_bodies]
        assert [op[0].n for op in ops] == [1, 2, 3]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Program("p", [])

    def test_warmup_validation(self):
        with pytest.raises(ValueError):
            Program("p", [iter(())], warmup=[[1], [2]])

    def test_defaults(self):
        program = Program("p", [iter(())])
        assert program.warmup is None
        assert not program.lock_fifo_handoff
        assert program.spin_threshold_override is None


_ranges = st.lists(
    st.builds(
        range,
        st.integers(-50, 50), st.integers(-50, 50),
        st.integers(-7, 7).filter(bool),
    ),
    max_size=4,
)


class TestAddressRegions:
    """A warm-up region sequence behaves exactly like the list of its
    addresses (empty and negative-step ranges included)."""

    @settings(max_examples=200, deadline=None)
    @given(ranges=_ranges, data=st.data())
    def test_matches_list(self, ranges, data):
        regions = AddressRegions(tuple(ranges))
        expected = [addr for region in ranges for addr in region]
        assert len(regions) == len(expected)
        assert list(regions) == expected
        assert list(regions) == expected  # iteration repeats
        assert bool(regions) == bool(expected)
        for i in range(-len(expected), len(expected)):
            assert regions[i] == expected[i]
        for i in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                regions[i]
        bound = len(expected) + 3
        index = slice(
            data.draw(st.none() | st.integers(-bound, bound)),
            data.draw(st.none() | st.integers(-bound, bound)),
            data.draw(st.none() | st.integers(-4, 4).filter(bool)),
        )
        assert regions[index] == expected[index]
        probe = data.draw(st.integers(-60, 60))
        assert (probe in regions) == (probe in expected)
