"""Region warm-ups against the per-line loop, jumps included.

A warm-up of :class:`AddressRegions` runs each segment (the rows
between two range ends of any thread) until its cores' L1s and their
lines' sharer entries repeat one L1 period on, shifted, and then jumps
over the segment's whole periods, refilling the LLC set by set
(``Simulation._warm_regions``).  On ``TINY`` and ``BIG_LLC`` an L1
period is 2 rows of one-line steps (the L1's 2 sets) and an L1 turns
over in 4, so a few dozen lines per range make the jump fire.  Every
case here must leave exactly the state ``_warm_per_line`` leaves:
caches in set order, the sharer dict in insertion order, the ATDs and
every eviction counter.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.config import AccountingConfig, CacheConfig, MachineConfig
from repro.sim.engine import Simulation
from repro.workloads.program import AddressRegions, Program
from repro.workloads.spec import build_program
from repro.workloads.suite import by_name
from tests.sim.test_warm_fused import (
    LINE, TINY, _sim, _warm_both, _with_replacement,
)

#: 3 cores with ``TINY``'s L1s (2 sets x 2 ways) and an LLC of 8 sets x
#: 4 ways: it holds eight L1s' worth of lines, so a segment jumps long
#: before the LLC turns over, with old lines still at the front of its
#: sets and idle cores still holding old lines
BIG_LLC = MachineConfig(
    n_cores=3,
    l1d=CacheConfig(size_bytes=4 * LINE, assoc=2),
    llc=CacheConfig(size_bytes=32 * LINE, assoc=4),
    accounting=AccountingConfig(atd_sample_period=2),
)


def _regions_program(warmup: list[tuple[range, ...]]) -> Program:
    return Program(
        "regions", [iter(()) for _ in warmup],
        warmup=[AddressRegions(ranges) for ranges in warmup],
    )


@st.composite
def _region_cases(draw, machine=TINY, base_lines=48, max_rows=48):
    n_cores = draw(st.integers(1, 3))
    # up to two threads more than cores: several threads share an L1
    n_threads = draw(st.integers(1, n_cores + 2))
    # a few region bases the threads draw from: two threads on one base
    # share a range or overlap it, and a thread on a base it used
    # before re-reads it in a later segment
    bases = draw(st.lists(st.integers(0, base_lines), min_size=1, max_size=3))
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
            length = draw(st.integers(0, max_rows))
            ranges.append(range(start, start + length * step, step))
        warmup.append(tuple(ranges))
    policy = draw(st.sampled_from(["lru", "fifo"]))
    machine = _with_replacement(machine, policy).with_cores(n_cores)
    return machine, warmup, draw(st.booleans())


@settings(max_examples=400, deadline=None)
@given(case=_region_cases())
def test_random_regions_warm_identically(case):
    machine, warmup, accounted = case
    per_line, fused, _ = _warm_both(
        machine, _regions_program(warmup), accounted
    )
    assert fused == per_line


@settings(max_examples=400, deadline=None)
@given(case=_region_cases(BIG_LLC, base_lines=640, max_rows=120))
def test_random_regions_on_a_big_llc_warm_identically(case):
    """Bases up to 640 lines apart keep many streams disjoint over 120
    rows, so most long segments jump, some with idle cores and old LLC
    lines left from earlier segments."""
    machine, warmup, accounted = case
    per_line, fused, _ = _warm_both(
        machine, _regions_program(warmup), accounted
    )
    assert fused == per_line


def _spy_jumps(monkeypatch) -> list[tuple[int, int]]:
    """Record the (lines, arrivals) of every jump, and still take it."""
    jumps = []
    jump = Simulation._warm_jump

    def spy(self, cores, lines, young, streams, n_arrivals):
        jumps.append((lines, n_arrivals))
        jump(self, cores, lines, young, streams, n_arrivals)

    monkeypatch.setattr(Simulation, "_warm_jump", spy)
    return jumps


def _shared_then_private(n_threads: int) -> list[tuple[range, ...]]:
    """All threads stream 64 shared lines together, then each streams 64
    private lines; the private lines of two threads land in the same
    LLC sets in the same rows, so the last jump's refill order shows
    in the final LLC."""
    shared = range(1024 * LINE, 1088 * LINE, LINE)
    return [
        (shared, range(tid * 256 * LINE, (tid * 256 + 64) * LINE, LINE))
        for tid in range(n_threads)
    ]


def test_a_long_shared_and_private_warm_up_jumps(monkeypatch):
    """On ``BIG_LLC`` both segments of two threads jump.  Each compares
    its state at row 6 with row 4 (an L1 turns over in 4 rows) and
    jumps the 29 periods of 2 rows left: 58 lines per stream, one
    shared stream, then two private ones.  The result is the per-line
    state."""
    jumps = _spy_jumps(monkeypatch)
    machine = BIG_LLC.with_cores(2)
    program = _regions_program(_shared_then_private(2))
    per_line, fused, _ = _warm_both(machine, program, True)
    assert fused == per_line
    assert jumps == [(58, 58), (58, 2 * 58)]


def test_lines_the_llc_drops_from_the_l1s_still_jump(monkeypatch):
    """On ``TINY`` two private streams land in the same LLC set in the
    same row, so a line leaves the 2-way LLC 4 rows after it arrives,
    while its L1 still holds it.  Every line of a stream leaves that
    many rows after it arrives, so the drops repeat with the L1s and
    both segments jump, exactly."""
    jumps = _spy_jumps(monkeypatch)
    program = _regions_program(_shared_then_private(2))
    per_line, fused, _ = _warm_both(TINY, program, True)
    assert fused == per_line
    assert jumps == [(58, 58), (58, 2 * 58)]


def test_a_row_that_overfills_an_llc_set_runs_every_row(monkeypatch):
    """Three streams bring three lines into one 2-way LLC set each row,
    so the first leaves in the row it arrives, and the fourth thread,
    which streams the first one's lines, brings it in again.  That
    segment runs every row."""
    jumps = _spy_jumps(monkeypatch)
    first = range(0, 64 * LINE, LINE)
    warmup = [
        (first,),
        (range(1000 * LINE, 1064 * LINE, LINE),),
        (range(2000 * LINE, 2064 * LINE, LINE),),
        (first,),
    ]
    per_line, fused, _ = _warm_both(
        TINY.with_cores(3), _regions_program(warmup), True
    )
    assert fused == per_line
    assert jumps == []


def _prefilled(loop: str, warmup, lines: dict[int, bool]):
    """Warm ``warmup`` on ``TINY`` through ``loop`` after putting
    ``lines`` (line -> dirty) into their LLC sets, in order."""
    program = _regions_program(warmup)
    sim = _sim(TINY, program, accounted=False)
    for line, dirty in lines.items():
        sim.chip.llc._sets[line % 4][line] = dirty
    getattr(sim, loop)(program.warmup)
    return sim.state_dict()


def test_a_dirty_line_stops_the_jump(monkeypatch):
    """Line 1001 is pre-filled dirty at the front of an LLC set; the
    stream never reads it, and it is evicted within a few rows.  A
    dirty line holds every jump of the segment off, and the state
    matches the per-line loop's."""
    jumps = _spy_jumps(monkeypatch)
    warmup = [(range(0, 40 * LINE, LINE),)]
    states = [
        _prefilled(loop, warmup, {1001: True})
        for loop in ("_warm_per_line", "_warm_fused")
    ]
    assert states[1] == states[0]
    assert jumps == []
    # the same line clean lets the segment jump
    _prefilled("_warm_fused", warmup, {1001: False})
    assert len(jumps) == 1


def test_an_old_line_read_again_stops_the_jump(monkeypatch):
    """Line 1 is resident behind older line 1001 when the stream starts:
    the stream hits it instead of bringing it in, so it sits at the
    front of its set and leaves early.  A streamed line that is
    resident when its segment starts holds the segment's jump off."""
    jumps = _spy_jumps(monkeypatch)
    warmup = [(range(0, 40 * LINE, LINE),)]
    old = {1001: False, 1: False}
    states = [
        _prefilled(loop, warmup, old)
        for loop in ("_warm_per_line", "_warm_fused")
    ]
    assert states[1] == states[0]
    assert jumps == []


def test_rows_simulated_are_pinned(monkeypatch):
    """The rows ``_warm_rows`` simulates for two ``warm16`` cells and the
    reference of one, and for ``run16``'s ``cholesky:16``: each segment
    that jumps runs 1,280 rows (its L1s turn over in 1,024 and the
    next 256 repeat them) plus its rows past the last whole period,
    and the 1,024-row private segments run every row.  A jump that
    stops firing fails here, not only in the benchmark."""
    counted = []
    warm_rows = Simulation._warm_rows

    def spy(self, cores, rows):
        rows = list(rows)
        counted.append(len(rows))
        warm_rows(self, cores, rows)

    monkeypatch.setattr(Simulation, "_warm_rows", spy)
    simulated = {}
    for name, n_cores, scale in [
        ("fft", 1, 0.3), ("canneal_medium", 16, 0.3), ("cholesky", 16, 2.5),
    ]:
        counted.clear()
        program = build_program(by_name(name), n_cores, scale=scale)
        machine = MachineConfig(n_cores=n_cores)
        _sim(machine, program, accounted=False)._warm_caches()
        simulated[name, n_cores] = sum(counted)
    assert simulated == {
        ("fft", 1): 2_304,
        ("canneal_medium", 16): 3_584,
        ("cholesky", 16): 2_304,
    }
