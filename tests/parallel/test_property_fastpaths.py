"""Property tests for the engine fast paths and stack invariants.

The instruction-block fast-forward and run-ahead are pure wall-clock
optimizations.  Three paths must end in the same engine state, down to
the bytes of ``state_dict()``: the per-op reference loop
(``fast_forward=False``), the fast-forward block with a watchdog armed
(no run-ahead), and the unarmed run, which runs core-local ops ahead of
the horizon.  Hypothesis drives them over random programs that block
and wake (a low spin budget, futex handshakes, barriers), queue
dependent loads on one DRAM bank, touch private ranges they declare,
and run with threads both at most and more than the cores.  Any
divergence is an unsound fast path, not noise.
"""

from __future__ import annotations

import json
import random

from hypothesis import given, settings, strategies as st

from repro.accounting.accountant import CycleAccountant
from repro.config import MachineConfig
from repro.core.stack import build_stack
from repro.errors import DeadlockError
from repro.sim.engine import Simulation
from repro.workloads.program import (
    BarrierWait,
    Compute,
    FutexWait,
    FutexWake,
    Load,
    LockAcquire,
    LockRelease,
    Program,
    Store,
    YieldCpu,
)

_ACTION = st.sampled_from([
    "compute", "load", "store", "pingpong", "cs", "barrier", "yield",
    "bank", "futex",
])

#: each thread's private region (declared when the case says so)
_PRIVATE_BASE = 0x100_0000
_PRIVATE_LINES = 32
#: a few lines every thread loads and stores
_SHARED_BASE = 0x200_0000
_SHARED_LINES = 4
#: pages of DRAM bank 0 (8 banks of 4 KB pages)
_BANK_BASE = 0x300_0000
_BANK_STRIDE = 8 * 4096
_FUTEX = 0x5000_0000


def _private_base(tid: int) -> int:
    return _PRIVATE_BASE + (tid << 22)


@st.composite
def programs(draw):
    """Small random programs mixing compute, private and shared memory,
    a reader racing writers on one line, one-bank dependent loads,
    locks, barriers, yields and futexes."""
    n_threads = draw(st.integers(min_value=1, max_value=4))
    n_cores = draw(st.integers(min_value=1, max_value=n_threads + 1))
    actions = draw(st.lists(_ACTION, min_size=1, max_size=16))
    compute_n = draw(st.integers(min_value=1, max_value=300))
    skew = draw(st.integers(min_value=0, max_value=4))
    n_lines = draw(st.integers(min_value=1, max_value=_PRIVATE_LINES))
    shared_fraction = draw(st.sampled_from([0.0, 0.3, 1.0]))
    declare = draw(st.booleans())
    spin_threshold = draw(st.sampled_from([None, 1, 3]))
    seed = draw(st.integers(min_value=0, max_value=2**16))

    def body(tid: int):
        # a per-thread generator keeps every thread's stream its own
        rng = random.Random(seed * 31 + tid)
        barrier_id = 0
        for index, action in enumerate(actions):
            if action == "compute":
                yield Compute(compute_n * (1 + skew * tid))
            elif action in ("load", "store"):
                line = (index * 7 + rng.randrange(n_lines)) % n_lines
                if rng.random() < shared_fraction:
                    addr = _SHARED_BASE + (line % _SHARED_LINES) * 64
                else:
                    addr = _private_base(tid) + line * 64
                # mostly the action's kind, so threads at the same
                # action still mix loads and stores of a shared line
                store_share = 0.8 if action == "store" else 0.2
                for repeat in range(1 + rng.randrange(4)):
                    if rng.random() < store_share:
                        yield Store(addr)
                    else:
                        yield Load(addr)
                    yield Compute(1 + repeat)
            elif action == "pingpong":
                # thread 0 re-reads one shared line while the others
                # write it: each write invalidates thread 0's copy
                if tid == 0:
                    for _ in range(8):
                        yield Load(_SHARED_BASE)
                        yield Compute(2)
                else:
                    for _ in range(4):
                        yield Compute(3 + skew * tid)
                        yield Store(_SHARED_BASE)
            elif action == "bank":
                base = _BANK_BASE + tid * 0x10_0000
                for k in range(6):
                    yield Load(base + k * _BANK_STRIDE, overlappable=False,
                               dependent=True)
            elif action == "cs":
                yield LockAcquire(0)
                yield Compute(40)
                yield Store(0x9000_0000)
                yield LockRelease(0)
            elif action == "barrier":
                yield BarrierWait(barrier_id)
                barrier_id += 1
            elif action == "yield":
                yield YieldCpu()
            elif action == "futex":
                # thread 0 wakes everyone after some work; the others
                # sleep on the word (and may sleep forever: a deadlock
                # every path must report in the same state)
                if tid == 0:
                    yield Compute(compute_n * 4)
                    yield FutexWake(_FUTEX, wake_all=True)
                else:
                    yield FutexWait(_FUTEX)

    def factory() -> Program:
        private = None
        if declare:
            private = [
                range(_private_base(t), _private_base(t) + _PRIVATE_LINES * 64)
                for t in range(n_threads)
            ]
        return Program(
            "fuzz-ff", [body(t) for t in range(n_threads)],
            spin_threshold_override=spin_threshold, private=private,
        )

    return factory, n_threads, n_cores


def canon(state: dict) -> str:
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


#: the three paths: (fast_forward, run() keyword arguments)
PATHS = {
    "reference": (False, {}),
    "armed": (True, {"max_cycles": 10**8}),
    "run-ahead": (True, {}),
}


def _run(case, path, accounted):
    """(outcome, canonical state, simulation, result) of one path;
    the outcome is "ok" or "deadlock"."""
    factory, _, n_cores = case
    fast_forward, run_kwargs = PATHS[path]
    machine = MachineConfig(n_cores=n_cores)
    accountant = CycleAccountant(machine) if accounted else None
    args = (accountant,) if accounted else ()
    sim = Simulation(machine, factory(), *args, fast_forward=fast_forward)
    try:
        result = sim.run(**run_kwargs)
    except DeadlockError:
        return "deadlock", canon(sim.state_dict()), sim, None
    return "ok", canon(sim.state_dict()), sim, result


@settings(max_examples=200, deadline=None)
@given(programs())
def test_fast_forward_is_invisible(case):
    """Reference, armed and run-ahead paths: the same outcome and the
    same engine state, byte for byte."""
    outcome, state, _, _ = _run(case, "reference", accounted=False)
    for path in ("armed", "run-ahead"):
        other_outcome, other_state, _, _ = _run(case, path, accounted=False)
        assert other_outcome == outcome, path
        assert other_state == state, path


@settings(max_examples=25, deadline=None)
@given(programs())
def test_fast_forward_preserves_stack_components(case):
    """With the accountant attached, the accounted state and every
    Eq. 4 component are identical on all three paths."""
    outcome, state, sim, result = _run(case, "reference", accounted=True)
    for path in ("armed", "run-ahead"):
        other_outcome, other_state, other_sim, other_result = _run(
            case, path, accounted=True,
        )
        assert other_outcome == outcome, path
        assert other_state == state, path
        if outcome != "ok" or case[1] > case[2]:
            continue  # stacks need a finished, pinned run
        report = sim.accountant.report(result)
        other_report = other_sim.accountant.report(other_result)
        assert report.component_totals() == other_report.component_totals()
        assert build_stack("fuzz-ff", report) == build_stack(
            "fuzz-ff", other_report
        )


@settings(max_examples=25, deadline=None)
@given(programs())
def test_stack_invariants(case):
    """Eq. 4 structural invariants on random programs: segments sum to
    N, base > 0, and no overhead segment is negative (net_negative_llc
    folds the positive-LLC credit in, so it alone may go negative)."""
    factory, n_threads, n_cores = case
    outcome, _, sim, result = _run(
        (factory, n_threads, max(n_cores, n_threads)), "run-ahead",
        accounted=True,
    )
    if outcome != "ok":
        return
    stack = build_stack("fuzz-ff", sim.accountant.report(result))
    stack.validate_consistency()
    segments = {comp.value: v for comp, v in stack.segments().items()}
    assert abs(sum(segments.values()) - n_threads) < 1e-6
    assert segments["base_speedup"] > 0
    for name, value in segments.items():
        if name in ("base_speedup", "net_negative_llc"):
            continue
        assert value >= 0, (name, value)
    assert stack.estimated_speedup > 0
