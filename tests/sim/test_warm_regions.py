"""Region warm-ups against the per-line loop, jumps included.

A warm-up of :class:`AddressRegions` runs each segment (the rows
between two range ends of any thread) until the cache state repeats one
period on, shifted, and then jumps over the segment's whole periods
(``Simulation._warm_regions``).  On ``TINY`` a period is 4 rows of
one-line steps (the LLC's 4 sets), so a few dozen lines per range make
the jump fire.  Every case here must leave exactly the state
``_warm_per_line`` leaves: caches in set order, the sharer dict in
insertion order, the ATDs and every eviction counter.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.sim.engine import Simulation
from repro.workloads.program import AddressRegions, Program
from tests.sim.test_warm_fused import (
    LINE, TINY, _sim, _warm_both, _with_replacement,
)


def _regions_program(warmup: list[tuple[range, ...]]) -> Program:
    return Program(
        "regions", [iter(()) for _ in warmup],
        warmup=[AddressRegions(ranges) for ranges in warmup],
    )


@st.composite
def _region_cases(draw):
    n_cores = draw(st.integers(1, 3))
    # up to two threads more than cores: several threads share an L1
    n_threads = draw(st.integers(1, n_cores + 2))
    # a few region bases the threads draw from: two threads on one base
    # share a range or overlap it, and a thread on a base it used
    # before re-reads it in a later segment
    bases = draw(st.lists(st.integers(0, 48), min_size=1, max_size=3))
    warmup = []
    for _ in range(n_threads):
        ranges = []
        for _ in range(draw(st.integers(1, 3))):
            step = draw(st.sampled_from([LINE // 2, LINE, 2 * LINE]))
            start = (
                draw(st.sampled_from(bases)) * LINE
                + draw(st.sampled_from([0, LINE // 2]))
                + draw(st.integers(0, 3)) * step
            )
            length = draw(st.integers(0, 48))
            ranges.append(range(start, start + length * step, step))
        warmup.append(tuple(ranges))
    policy = draw(st.sampled_from(["lru", "fifo"]))
    machine = _with_replacement(TINY, policy).with_cores(n_cores)
    return machine, warmup, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(case=_region_cases())
def test_random_regions_warm_identically(case):
    machine, warmup, accounted = case
    per_line, fused, _ = _warm_both(
        machine, _regions_program(warmup), accounted
    )
    assert fused == per_line


def _spy_jumps(monkeypatch) -> list[tuple[int, int]]:
    """Record the (lines, repeats) of every jump, and still take it."""
    jumps = []
    jump = Simulation._warm_jump

    def spy(self, lines, repeats, before):
        jumps.append((lines, repeats))
        jump(self, lines, repeats, before)

    monkeypatch.setattr(Simulation, "_warm_jump", spy)
    return jumps


def test_a_long_shared_and_private_warm_up_jumps(monkeypatch):
    """Two threads stream 64 private lines each, then a shared range
    together.  The private segment brings in two lines a row, so it
    compares from row 4 on (the LLC's 8 lines, or a core's 4 L1 lines);
    its state at row 8 is the state at row 4 shifted by 4 lines, and it
    jumps the 14 periods of 4 rows left.  The shared segment, one line
    a row, jumps too.  The result is the per-line state."""
    jumps = _spy_jumps(monkeypatch)
    shared = range(1024 * LINE, 1088 * LINE, LINE)
    warmup = [
        (range(tid * 256 * LINE, (tid * 256 + 64) * LINE, LINE), shared)
        for tid in range(2)
    ]
    per_line, fused, _ = _warm_both(TINY, _regions_program(warmup), True)
    assert fused == per_line
    assert jumps[0] == (14 * 4, 14)
    assert len(jumps) == 2, jumps


def test_a_dirty_line_stops_the_jump(monkeypatch):
    """Line ``x`` is pre-filled dirty in the LLC behind ``x - 4``, which
    the stream reaches first: both are hits, so the LLC set holds
    ``[x - 4, x*]`` until ``x + 4`` evicts ``x - 4``.  One period later
    the keys have shifted by 4 lines while ``x`` is still dirty, so a
    jump there would carry the dirty bit to ``x + 4m``; the dirty line
    must hold the jump off until it is evicted."""
    jumps = _spy_jumps(monkeypatch)
    x = 64
    warmup = [(range((x - 4) * LINE, (x + 36) * LINE, LINE),)]
    program = _regions_program(warmup)
    states = []
    for loop in ("_warm_per_line", "_warm_fused"):
        sim = _sim(TINY, program, accounted=False)
        llc_set = sim.chip.llc._sets[x % 4]
        llc_set[x - 4] = False
        llc_set[x] = True
        getattr(sim, loop)(program.warmup)
        states.append(sim.state_dict())
    assert states[1] == states[0]
    # the jump came, after the dirty line left: rows 16 to 40 of 40
    assert jumps == [(6 * 4, 6)]
