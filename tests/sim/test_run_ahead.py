"""Run-ahead scheduling: cores run core-local ops past the horizon.

Past the fast-forward horizon a core keeps executing ``Compute`` ops and
loads that hit its L1 on its thread's declared private lines, and holds
its first other op for its next pick.  Those ops commute with every
other core's ops, so a run-ahead run must end in exactly the state the
per-op reference loop (``fast_forward=False``) reaches: every case here
compares full ``state_dict()`` trees.  The rest pins when the engine
runs ahead, and how ``Program.private`` is checked.
"""

from __future__ import annotations

import dataclasses
import io
import json

import pytest

from repro import cli
from repro.accounting.accountant import CycleAccountant
from repro.checkpoint import CheckpointHook, CheckpointPolicy
from repro.config import CacheConfig, ExperimentConfig, KB, MachineConfig
from repro.core.regions import RegionObserver
from repro.errors import ConfigError, SimulationError
from repro.experiments import multiprogram
from repro.experiments.runner import BatchRunner, run_experiment
from repro.observability.events import EventBus, SimEnded
from repro.observability.progress import ProgressReporter
from repro.observability.timeline import TimelineRecorder
from repro.robustness.drain import DrainableHook, DrainController
from repro.sim.engine import Simulation
from repro.sync.primitives import SYNC_REGION_BASE
from repro.workloads import generators as g
from repro.workloads.program import (
    BarrierWait,
    Compute,
    Load,
    Program,
    Store,
)
from repro.workloads.spec import build_program
from repro.workloads.suite import SUITE, by_name

SCALE = 0.05


def canon(state: dict) -> str:
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


class _Counted(Simulation):
    """A simulation that counts its core picks."""

    picks = 0

    def _pick_core(self):
        self.picks += 1
        return super()._pick_core()


# ----------------------------------------------------------------------
# the same run as the per-op reference
# ----------------------------------------------------------------------


@pytest.mark.parametrize("n_threads", [2, 4, 16])
@pytest.mark.parametrize("spec", SUITE, ids=lambda spec: spec.full_name)
def test_suite_matches_per_op_reference(spec, n_threads):
    """Every suite benchmark: the run-ahead run and the per-op
    reference, both from the same warmed state (a zero-step pause after
    the warm-up), end with identical state trees."""
    machine = MachineConfig(n_cores=n_threads)
    fast = Simulation(
        machine, build_program(spec, n_threads, scale=SCALE),
        CycleAccountant(machine),
    )
    fast.run(pause_at=-1)
    reference = Simulation(
        machine, build_program(spec, n_threads, scale=SCALE),
        CycleAccountant(machine), fast_forward=False,
    )
    reference.load_state_dict(fast.state_dict())
    assert fast.run().total_cycles == reference.run().total_cycles
    assert canon(fast.state_dict()) == canon(reference.state_dict())


def test_one_pick_per_shared_op():
    """On a busy 16-thread cell the engine picks far less often than it
    executes ops, and the run is still the reference run."""
    machine = MachineConfig(n_cores=16)
    spec = by_name("heartwall")
    fast = _Counted(
        machine, build_program(spec, 16, scale=0.2), CycleAccountant(machine),
    )
    fast.run()
    reference = _Counted(
        machine, build_program(spec, 16, scale=0.2), CycleAccountant(machine),
        fast_forward=False,
    )
    reference.run()
    assert canon(fast.state_dict()) == canon(reference.state_dict())
    ops = sum(thread.ops_taken for thread in fast.threads)
    assert reference.picks > ops
    assert fast.picks * 4 < ops


def test_woken_core_bounds_the_waker_block():
    """Regression: a sync op that wakes another core must lower the
    fast-forward horizon.  Thread 1 yields at the barrier while thread 0
    computes; thread 0's arrival wakes it, and both then issue dependent
    loads to one DRAM bank.  With a stale horizon thread 0 ran all its
    loads before thread 1's first, and the run took 22,225 cycles
    instead of the reference's 18,890."""
    bank_stride = 8 * 4096  # consecutive pages of one bank

    def body(tid, compute):
        if compute:
            yield Compute(compute)
        yield BarrierWait(0)
        base = 0x1000_0000 + tid * 0x100_0000
        for k in range(40):
            yield Load(base + k * bank_stride, overlappable=False,
                       dependent=True)

    def run(fast_forward, **kwargs):
        program = Program("wake", [body(0, 20_000), body(1, 0)])
        return Simulation(
            MachineConfig(n_cores=2), program, fast_forward=fast_forward,
        ).run(**kwargs).total_cycles

    assert run(False) == 18_890
    assert run(True) == 18_890
    assert run(True, max_cycles=10**8) == 18_890


def test_end_of_stream_is_held_like_a_shared_op():
    """A body that yields None ends there on every path: run-ahead
    holds the None and the next pick finishes the thread, leaving the
    rest of the stream unread."""
    def body(tid):
        yield Compute(100 + 50 * tid)
        yield None
        yield Compute(10**6)

    def run(fast_forward):
        program = Program("none", [body(0), body(1)],
                          private=[range(0), range(0)])
        sim = Simulation(MachineConfig(n_cores=2), program,
                         fast_forward=fast_forward)
        sim.run()
        return sim

    fast, reference = run(True), run(False)
    assert [t.instrs for t in fast.threads] == [100, 150]
    assert canon(fast.state_dict()) == canon(reference.state_dict())


# ----------------------------------------------------------------------
# when the engine runs ahead
# ----------------------------------------------------------------------


def _picks(n_cores=4, n_threads=4, private=True, sim_kwargs=None,
           **run_kwargs):
    machine = MachineConfig(n_cores=n_cores)
    program = build_program(by_name("cholesky"), n_threads, scale=SCALE)
    if not private:
        program.private = None
    sim_kwargs = dict(sim_kwargs or {})
    accountant = sim_kwargs.pop("accountant", CycleAccountant(machine))
    sim = _Counted(machine, program, accountant, **sim_kwargs)
    sim.run(**run_kwargs)
    return sim.picks


def _bus(*attach):
    """A bus with each ``attach(bus)`` applied."""
    bus = EventBus()
    for subscribe in attach:
        subscribe(bus)
    return bus


def test_run_ahead_conditions(tmp_path):
    """Anything that observes the global interleaving takes the loop
    without run-ahead, which picks exactly as an armed watchdog does.
    On the event bus that is a handler for a simulation event: a bus
    that carries only sweep events, or none, still runs ahead."""
    armed = _picks(max_cycles=10**9)
    plain = _picks()
    assert plain < armed / 2
    hook = CheckpointHook(
        tmp_path / "c.ckpt", {}, CheckpointPolicy(every_cycles=10**9),
    )
    observer = RegionObserver(CycleAccountant(MachineConfig(n_cores=4)), 4)
    progress = ProgressReporter(1, stream=io.StringIO())
    for picks in (
        _picks(private=False),
        _picks(livelock_window=10**9),
        _picks(checkpoint=hook),
        _picks(pause_at=10**9),
        _picks(sim_kwargs={"bus": _bus(TimelineRecorder().attach)}),
        _picks(sim_kwargs={"bus": _bus(observer.attach)}),
        _picks(sim_kwargs={"bus": _bus(
            lambda bus: bus.subscribe_all(lambda event: None))}),
        _picks(sim_kwargs={"bus": _bus(
            lambda bus: bus.subscribe(SimEnded, lambda event: None))}),
    ):
        assert picks == armed
    for picks in (
        _picks(sim_kwargs={"bus": EventBus()}),
        _picks(sim_kwargs={"bus": _bus(progress.attach)}),
    ):
        assert picks == plain
    # more threads than cores: a woken thread could preempt the runner
    assert _picks(n_cores=2) == _picks(n_cores=2, max_cycles=10**9)


def test_drain_only_hook_still_runs_ahead(monkeypatch, capsys,
                                         tmp_path):
    """`repro stack` and a signal-aware `BatchRunner` poll a drain
    through a checkpoint hook that saves no state, so their cells run
    ahead and pick exactly as often as a run with no hook at all."""
    picks = [0]
    pick = Simulation._pick_core

    def counting_pick(self):
        picks[0] += 1
        return pick(self)

    monkeypatch.setattr(Simulation, "_pick_core", counting_pick)

    def count(run, *args, **kwargs):
        picks[0] = 0
        run(*args, **kwargs)
        return picks[0]

    spec = by_name("cholesky")
    machine = ExperimentConfig().machine.with_cores(4)

    def experiment(**kwargs):
        run_experiment(
            spec.full_name, machine, build_program(spec, 4, scale=SCALE),
            build_program(spec, 1, scale=SCALE), **kwargs,
        )

    unhooked = count(experiment)
    armed = count(experiment, max_cycles=10**9)
    assert unhooked < armed / 2
    assert count(experiment, checkpoint=DrainableHook(
        None, DrainController())) == unhooked
    # wrapping a hook that saves state keeps the loop without run-ahead
    saving = CheckpointHook(tmp_path / "c.ckpt", {}, CheckpointPolicy(
        every_cycles=10**9))
    assert count(experiment, checkpoint=DrainableHook(
        saving, DrainController())) == armed
    assert count(cli.main, [
        "stack", spec.full_name, "-n", "4", "--scale", str(SCALE),
    ]) == unhooked
    assert "speedup stack: cholesky" in capsys.readouterr().out
    runner = BatchRunner(scale=SCALE, drain=DrainController())
    assert count(runner.run_cell, spec, 4) == unhooked


def test_multiprogram_corun_declares_nothing_and_matches_reference(
    monkeypatch,
):
    """Every co-run program uses thread 0's base, so the co-run declares
    no private ranges; its result equals the per-op reference's."""
    specs = [by_name("facesim_small"), by_name("dedup_small")]
    fast = multiprogram.run_multiprogram(specs, scale=SCALE)
    programs = []

    class Reference(Simulation):
        def __init__(self, machine, program, *args, **kwargs):
            programs.append(program)
            super().__init__(machine, program, *args, fast_forward=False,
                             **kwargs)

    monkeypatch.setattr(multiprogram, "Simulation", Reference)
    assert multiprogram.run_multiprogram(specs, scale=SCALE) == fast
    assert programs[-1].n_threads == 2
    assert programs[-1].private is None


# ----------------------------------------------------------------------
# Program.private: filled by build_program, checked, guarded
# ----------------------------------------------------------------------


def test_build_program_declares_each_private_working_set():
    spec = by_name("lud")
    program = build_program(spec, 4, scale=SCALE)
    size = spec.private_ws_kb * 1024
    assert program.private == [
        range(g.private_base(tid), g.private_base(tid) + size)
        for tid in range(4)
    ]
    # a working set that reaches the next thread's base declares nothing
    huge = dataclasses.replace(spec, cold_ws_kb=g.PRIVATE_STRIDE // 1024)
    assert build_program(huge, 2).private is None


def _never_started():
    raise AssertionError("an op ran before the declaration was checked")
    yield  # pragma: no cover


@pytest.mark.parametrize("private, match", [
    ([range(0, 4096)], "one range per thread"),
    ([range(0, 4096), range(4096, 8192, 64)], "step-1 range"),
    ([range(0, 4096), [4096]], "step-1 range"),
    ([range(0, 4096), range(2048, 8192)], "threads 0 and 1 overlap"),
    ([range(8192, 16384), range(0, 12288)], "threads 1 and 0 overlap"),
    ([range(0, 4096), range(SYNC_REGION_BASE - 64, SYNC_REGION_BASE + 64)],
     "below the sync region"),
])
def test_bad_declarations_raise_before_any_op(private, match):
    with pytest.raises(ConfigError, match=match) as err:
        Program("bad", [_never_started(), _never_started()],
                private=private)
    assert err.value.field == "private"


def test_declarations_must_be_line_aligned_for_the_machine():
    program = Program("misaligned", [_never_started(), _never_started()],
                      private=[range(0, 4096), range(4096 + 32, 8192)])
    with pytest.raises(ConfigError, match="64-byte lines") as err:
        Simulation(MachineConfig(n_cores=2), program)
    assert err.value.field == "private"
    # the same range is fine on a machine with 32-byte lines
    machine = MachineConfig(
        n_cores=2,
        l1d=CacheConfig(size_bytes=32 * KB, assoc=8, line_bytes=32),
        llc=CacheConfig(size_bytes=1024 * KB, assoc=16, line_bytes=32),
    )
    Simulation(machine, program)


def _false_declaration(fast_forward=True, **run_kwargs):
    """Thread 0 re-reads 20 lines it declared private; thread 1 writes
    them between slow DRAM loads, which the declaration says never
    happens."""
    base = 0x1000_0000
    far = 0x3000_0000

    def reader():
        for _ in range(10):
            for k in range(20):
                yield Load(base + k * 64)
                yield Compute(40)

    def writer():
        for sweep in range(5):
            for k in range(20):
                yield Load(far + (sweep * 20 + k) * 8 * 4096,
                           overlappable=False, dependent=True)
                yield Store(base + k * 64)

    program = Program("liar", [reader(), writer()],
                      private=[range(base, base + 20 * 64), range(0)])
    sim = Simulation(MachineConfig(n_cores=2), program,
                     fast_forward=fast_forward)
    return sim, sim.run(**run_kwargs)


def test_false_declaration_is_caught_on_the_run_ahead_path():
    with pytest.raises(SimulationError) as err:
        _false_declaration()
    message = str(err.value)
    assert "thread 1" in message and "thread 0" in message
    assert "0x10000000" in message
    assert err.value.snapshot is not None


def test_false_declaration_is_harmless_off_the_run_ahead_path():
    """Without run-ahead the declaration is never relied on: the
    reference and the armed path agree on the misses thread 1's stores
    cause in thread 0's L1 (run ahead with no guard, thread 0 counted
    175 hits and 25 misses)."""
    reference, _ = _false_declaration(fast_forward=False)
    armed, _ = _false_declaration(max_cycles=10**8)
    assert canon(reference.state_dict()) == canon(armed.state_dict())
    stats = reference.chip.stats[0]
    assert (stats.l1_hits, stats.l1_misses) == (166, 34)
