"""Multi-core execution engine.

The engine is a conservative discrete-event simulator: every core owns a
local clock, and the engine repeatedly advances the runnable core with
the *smallest* clock by one step (a compute chunk, one memory operation,
one spin-loop iteration, or one scheduling action).  Because shared
state — the memory hierarchy, lock/barrier state, run queues — is only
touched at a step's start time, and steps execute in global start-time
order, the simulation is causally consistent and fully deterministic.

Past that horizon a core may *run ahead*: it keeps executing ops that
touch only its own state (``Compute`` ops, and loads that hit its L1 on
a line its thread declared private in :attr:`Program.private`) and
holds its first other op until its next pick, where that op runs in
the usual (start time, core id) order.  Core-local ops commute with
every other core's ops, so the simulated run is unchanged; the engine
just makes one scheduling decision per shared op instead of one per
op.  :meth:`Simulation.run` lists when it runs ahead.

The engine also embodies the OS model: per-core run queues, round-robin
thread placement, timeslice preemption, and futex-style block/wakeup
used by the spin-then-yield synchronization library.  Yield intervals
("the time a thread is scheduled out", Section 4.4) are reported to the
accounting layer from here, exactly as the paper has the operating
system do it.
"""

from __future__ import annotations

import logging
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, replace
from itertools import zip_longest

from repro.accounting.accountant import CycleAccountant
from repro.accounting.interface import NULL_ACCOUNTANT
from repro.components.replacement import FifoPolicy, LruPolicy
from repro.config import MachineConfig
from repro.errors import (
    CheckpointError,
    ConfigError,
    DeadlockError,
    LivelockError,
    SimulationError,
)
from repro.observability.events import (
    BarrierArrived,
    BarrierReleased,
    DeadlockDetected,
    SimEnded,
    SimStarted,
    SpinSegment,
    ThreadDescheduled,
    ThreadDispatched,
    WatchdogFired,
    YieldInterval,
)
from repro.robustness.snapshot import capture_snapshot
from repro.osmodel.thread import (
    BLOCKED,
    BLOCK_PREEMPT,
    BLOCK_SYNC,
    FINISHED,
    READY,
    RUNNING,
    SoftwareThread,
    SpinContext,
)
from repro.sim.cache import SetAssocCache
from repro.sim.cmp import Chip
from repro.sim.coherence import NEVER_WRITTEN, UNWRITTEN, CoherenceDirectory
from repro.sync import primitives as sync_pc
from repro.sync.primitives import BarrierState, LockState, SyncManager
from repro.workloads.program import (
    Program,
    TAG_BARRIER_WAIT,
    TAG_COMPUTE,
    TAG_LOAD,
    TAG_LOCK_ACQUIRE,
    TAG_LOCK_RELEASE,
    TAG_FUTEX_WAIT,
    TAG_FUTEX_WAKE,
    TAG_STORE,
    TAG_YIELD_CPU,
)

_INFINITY = float("inf")

#: sentinel distinguishing "generator exhausted" from a yielded None
#: during checkpoint-restore op replay
_EXHAUSTED = object()

#: a core's ``held`` slot when it holds no op (a held None is the end
#: of its thread's stream)
_NOTHING = object()

logger = logging.getLogger(__name__)

#: steps between watchdog progress checks (cheap: amortized O(1/step))
_WATCHDOG_STRIDE = 1024

#: replacement policies whose victim is always the set front, the only
#: ones the fused warm-up loop inlines
_FRONT_EVICTING = (LruPolicy, FifoPolicy)

#: what the block reads as a core's miss window when an accountant
#: other than :class:`CycleAccountant` takes the chip's hooks: never
#: empty, so every op of that run goes through the chip
_ALWAYS_OUTSTANDING = (None,)


class _CoreRuntime:
    """Per-core scheduling state."""

    __slots__ = ("core_id", "now", "current", "queue", "busy_cycles", "held")

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        self.now = 0
        self.current: SoftwareThread | None = None
        self.queue: deque[SoftwareThread] = deque()
        self.busy_cycles = 0
        #: the op a run-ahead block pulled but may not run past the
        #: horizon; it starts at ``now`` and runs at the core's next pick
        self.held = _NOTHING


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    machine: MachineConfig
    threads: list[SoftwareThread]
    #: the simulated memory hierarchy as the run left it (caches, ATDs,
    #: directory, DRAM, per-core stats); None on a copy made by
    #: :meth:`without_machine`
    chip: Chip | None
    sync: SyncManager
    #: multi-threaded execution time: cycles until the last thread ends
    total_cycles: int
    #: True when the watchdog cut the run short (max_cycles / livelock);
    #: unfinished threads then have their end_time set to the cut point,
    #: so downstream accounting still works on the partial run
    truncated: bool = False
    #: why the run was truncated: "max_cycles" or "livelock" (or None)
    truncation_reason: str | None = None
    #: True when ``run(pause_at=...)`` returned at a step boundary with
    #: work remaining; unlike truncation, *nothing* was mutated — thread
    #: end times are untouched and the run continues with another
    #: ``run()`` call (see :class:`repro.session.SimulationKernel`)
    paused: bool = False

    @property
    def n_threads(self) -> int:
        return len(self.threads)

    @property
    def unfinished_tids(self) -> list[int]:
        """Threads that had not finished when the run ended (empty for a
        complete run)."""
        return [t.tid for t in self.threads if t.state != FINISHED]

    @property
    def thread_end_times(self) -> list[int]:
        return [t.end_time for t in self.threads]

    @property
    def imbalance_cycles(self) -> list[int]:
        """Per-thread end-of-program imbalance (Section 4.6): the gap
        between each thread's finish time and the slowest thread's."""
        return [self.total_cycles - t.end_time for t in self.threads]

    @property
    def total_instrs(self) -> int:
        return sum(t.instrs for t in self.threads)

    @property
    def total_spin_instrs(self) -> int:
        return sum(t.spin_instrs for t in self.threads)

    def without_machine(self) -> "SimResult":
        """A copy with ``chip=None``: threads, sync state and every
        total kept, the megabytes of simulated cache state released.
        What a sweep keeps of a finished run once its stack is built."""
        return replace(self, chip=None)


class Simulation:
    """Execute a :class:`Program` on a simulated CMP."""

    def __init__(
        self,
        machine: MachineConfig,
        program: Program,
        accountant=NULL_ACCOUNTANT,
        fast_forward: bool = True,
        bus=None,
    ) -> None:
        self.machine = machine
        self.program = program
        self.accountant = accountant
        #: optional observability EventBus, the engine's one observer;
        #: every emission is guarded by ``is not None`` and sits on
        #: scheduling-frequency paths only, so the disabled run pays
        #: nothing on the per-op hot loop
        self.bus = bus
        #: instruction-block fast-forward to the horizon, and run-ahead
        #: past it when run() allows; off keeps the one-op-per-pick
        #: reference loop for tests, which must give identical results
        #: (see tests/parallel/test_property_fastpaths.py)
        self.fast_forward = fast_forward
        self.chip = Chip(machine, accountant, bus=bus)
        self.sync = SyncManager(
            program.n_threads,
            lock_fifo_handoff=getattr(program, "lock_fifo_handoff", False),
        )
        self.threads = [
            SoftwareThread(tid, body)
            for tid, body in enumerate(program.thread_bodies)
        ]
        self.cores = [_CoreRuntime(i) for i in range(machine.n_cores)]
        for thread in self.threads:
            core = self.cores[thread.tid % machine.n_cores]
            thread.core_id = core.core_id
            core.queue.append(thread)
        self._n_finished = 0
        self._ff_limit = _INFINITY
        #: per thread, the (start, stop) of its declared private range;
        #: None when the program declares none
        self._private = self._private_spans(machine, program)
        #: the declared ranges as (start, stop, tid), sorted by start
        self._guard_spans = sorted(
            (start, stop, tid)
            for tid, (start, stop) in enumerate(self._private or ())
            if start < stop
        )
        self._guard_starts = [span[0] for span in self._guard_spans]
        #: set by run(): whether cores run ahead, and whether in-order
        #: loads and stores then go through :meth:`_check_access` (a
        #: flag, not a bound method: that would make the simulation a
        #: reference cycle, freed only by the cyclic collector; and only
        #: with two threads, as a thread cannot break its own declaration)
        self._run_ahead = False
        self._guarded = False
        #: set by run(): per core, what the block's inline paths touch
        #: (see :meth:`_gather_core_refs`)
        self._core_refs: list[tuple] = []
        # Watchdog progress state lives on the instance (not as run()
        # locals) so a checkpoint restored mid-run resumes the stride
        # and livelock bookkeeping byte-identically.
        self._steps = 0
        self._last_progress = (0, 0)
        self._last_progress_time = 0
        self._warmed = False
        #: armed :class:`~repro.checkpoint.policy.CheckpointHook` (or
        #: None); consulted once per scheduling step and on watchdog/
        #: fault exits
        self._checkpoint = None
        # One-shot SimStarted guard: a paused-and-continued run is one
        # logical run, so the event fires once per simulation object.
        # Deliberately not in state_dict(): a checkpoint-restored sim is
        # a new process-level run and re-announces itself, exactly as
        # the pre-pause engine did.
        self._sim_started = False
        self._dispatch_cost = (
            machine.sched.context_switch_cycles
            + machine.sched.overhead_per_core_cycles * machine.n_cores
        )
        self._width = machine.core.dispatch_width
        override = getattr(program, "spin_threshold_override", None)
        self._spin_threshold = (
            override if override is not None else machine.sync.spin_threshold
        )

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(
        self,
        max_cycles: int | None = None,
        *,
        livelock_window: int | None = None,
        on_timeout: str = "raise",
        checkpoint=None,
        pause_at: int | None = None,
    ) -> SimResult:
        """Run to completion (or until the watchdog fires).

        ``max_cycles`` bounds the simulated time; ``livelock_window``
        (cycles) arms the no-forward-progress detector: if no thread
        retires a non-spin instruction or finishes for that many cycles,
        the run is livelocked.  ``on_timeout`` selects what happens when
        either watchdog fires: ``"raise"`` (default) raises
        :class:`SimulationError`/:class:`LivelockError` with an engine
        snapshot attached, ``"truncate"`` returns a truncated-but-usable
        :class:`SimResult` flagged ``truncated=True``.  Deadlock always
        raises — there is nothing left to simulate.

        ``checkpoint`` arms an optional
        :class:`~repro.checkpoint.policy.CheckpointHook`: periodic
        every-N-cycles saves from the scheduling loop, plus
        save-before-report on watchdog fires and engine faults (as the
        hook's policy selects).  Saving never mutates simulation state,
        so an interrupted-and-resumed run is byte-identical to an
        uninterrupted one.  On a simulation restored with
        :meth:`load_state_dict`, ``run`` continues from the restored
        point (cache warmup is skipped — the warmed state is part of
        the checkpoint).

        ``pause_at`` suspends the run — without mutating anything — at
        the first scheduling-loop boundary whose earliest runnable core
        clock exceeds it, returning a :class:`SimResult` flagged
        ``paused=True``.  A paused simulation continues with another
        ``run()`` call; because the pause check is side-effect-free and
        every scheduling decision depends only on simulation state (all
        of which persists on the instance), any partition of a run into
        pauses is byte-identical to the uninterrupted run.  The
        instruction-block fast-forward may overshoot ``pause_at``: the
        contract is "pause at the first loop-top boundary at or after
        this cycle", not an exact cut.
        When both fire, the ``max_cycles`` watchdog wins over a pause.

        Cores run ahead of the horizon (see :meth:`_fast_forward_block`)
        only when nothing can observe the global interleaving of ops:
        the program declares :attr:`Program.private`, which also makes
        its op streams independent of one another; there are no more
        threads than cores, so nothing preempts a running thread; no
        ``max_cycles``, ``livelock_window``, ``pause_at`` or checkpoint
        hook that saves state, which act at step boundaries (a
        drain-only hook saves nothing: a drain discards the run); no
        handler on the event bus for a simulation event, which would
        see those events in global order (a bus that carries only sweep
        events does not count, see
        :attr:`~repro.observability.events.EventBus.observes_simulation`);
        and no accountant but the per-core :class:`CycleAccountant`.
        Any other run takes the same loop without running ahead.
        """
        if on_timeout not in ("raise", "truncate"):
            raise ValueError(f"on_timeout must be raise|truncate: {on_timeout!r}")
        self._checkpoint = checkpoint
        if not self._warmed:
            self._warm_caches()
            self._warmed = True
            self._last_progress = self._progress_metric()
        n_threads = len(self.threads)
        fast_forward = self.fast_forward
        self._run_ahead = fast_forward and self._can_run_ahead(
            max_cycles, livelock_window, checkpoint, pause_at
        )
        self._guarded = (
            self._run_ahead and bool(self._guard_spans) and n_threads > 1
        )
        self._core_refs = self._gather_core_refs()
        if self.bus is not None and not self._sim_started:
            self.bus.emit(SimStarted(n_threads, self.machine.n_cores))
        self._sim_started = True
        steps = self._steps
        while self._n_finished < n_threads:
            core = self._pick_core()
            if core is None:
                blocked = [t.tid for t in self.threads if t.state == BLOCKED]
                logger.error("deadlock: blocked threads %s", blocked)
                if self.bus is not None:
                    self.bus.emit(DeadlockDetected(
                        max(c.now for c in self.cores), tuple(blocked)
                    ))
                self._steps = steps
                raise self._error(DeadlockError(
                    f"no runnable core; blocked threads: {blocked}"
                ), reason="deadlock")
            if max_cycles is not None and core.now > max_cycles:
                self._steps = steps
                if on_timeout == "truncate":
                    return self._truncate("max_cycles")
                raise self._error(SimulationError(
                    f"exceeded max_cycles={max_cycles} at t={core.now}"
                ), reason="max_cycles")
            if pause_at is not None and core.now > pause_at:
                self._steps = steps
                return self._pause()
            steps += 1
            if livelock_window is not None and steps % _WATCHDOG_STRIDE == 0:
                progress = self._progress_metric()
                if progress != self._last_progress:
                    self._last_progress = progress
                    self._last_progress_time = core.now
                elif core.now - self._last_progress_time > livelock_window:
                    self._steps = steps
                    if on_timeout == "truncate":
                        return self._truncate("livelock")
                    raise self._error(LivelockError(
                        f"no forward progress for {livelock_window} cycles "
                        f"at t={core.now}"
                    ), reason="livelock")
            if fast_forward:
                steps = self._fast_forward_block(
                    core, max_cycles, livelock_window, steps
                )
            else:
                self._step(core)
            if checkpoint is not None and checkpoint.due(core.now):
                self._steps = steps
                checkpoint.save(self, "interval")
        self._steps = steps
        total = max(t.end_time for t in self.threads)
        logger.debug(
            "run complete: %d threads, %d cycles", n_threads, total
        )
        if self.bus is not None:
            self.bus.emit(SimEnded(
                total, sum(t.instrs for t in self.threads), False
            ))
        return SimResult(
            machine=self.machine,
            threads=self.threads,
            chip=self.chip,
            sync=self.sync,
            total_cycles=total,
        )

    def _can_run_ahead(
        self, max_cycles, livelock_window, checkpoint, pause_at
    ) -> bool:
        """The run-ahead conditions listed in :meth:`run`."""
        accountant = self.accountant
        bus = self.bus
        return (
            self._private is not None
            and len(self.threads) <= self.machine.n_cores
            and max_cycles is None
            and livelock_window is None
            and (checkpoint is None or not checkpoint.saves_state)
            and pause_at is None
            and (bus is None or not bus.observes_simulation)
            and (not accountant.enabled
                 or type(accountant) is CycleAccountant)
        )

    def _private_spans(
        self, machine: MachineConfig, program: Program
    ) -> list[tuple[int, int]] | None:
        """Each thread's declared private range as ``(start, stop)``,
        checked to cover whole lines of this machine's L1 (the
        coherence unit), or None when the program declares none."""
        private = getattr(program, "private", None)
        if private is None:
            return None
        line = machine.l1d.line_bytes
        for tid, region in enumerate(private):
            if region and (region.start % line or region.stop % line):
                raise ConfigError(
                    f"private[{tid}] [0x{region.start:x}, "
                    f"0x{region.stop:x}) is not aligned to this machine's "
                    f"{line}-byte lines", field="private",
                )
        return [(region.start, region.stop) for region in private]

    def _check_access(self, thread: SoftwareThread, addr: int) -> None:
        """The run-ahead guard: an in-order load or store by ``thread``
        must not touch a line another thread declared private."""
        index = bisect_right(self._guard_starts, addr) - 1
        if index < 0:
            return
        _, stop, owner = self._guard_spans[index]
        if addr < stop and owner != thread.tid:
            raise self._error(SimulationError(
                f"thread {thread.tid} accessed 0x{addr:x}, which thread "
                f"{owner} declared private"
            ))

    def _progress_metric(self) -> tuple[int, int]:
        """Forward progress: finishes plus non-spin instructions retired.

        Spin-loop instructions are excluded on purpose — a livelocked
        run retires spin instructions at full speed while doing no real
        work.
        """
        real_instrs = 0
        for t in self.threads:
            real_instrs += t.instrs - t.spin_instrs
        return self._n_finished, real_instrs

    def _save_checkpoint(self, reason: str) -> None:
        """Best-effort checkpoint save on a watchdog/fault exit path;
        a failing save must never mask the underlying condition."""
        hook = self._checkpoint
        if hook is None or not hook.wants(reason):
            return
        try:
            hook.save(self, reason)
        except Exception:
            logger.exception("checkpoint save on %s failed", reason)

    def _error(
        self, exc: SimulationError, reason: str = "fault"
    ) -> SimulationError:
        """Attach a post-mortem snapshot to an engine error (and save a
        checkpoint first, when the armed policy covers ``reason``)."""
        self._save_checkpoint(reason)
        try:
            exc.snapshot = capture_snapshot(self)
        except Exception:  # diagnostics must never mask the real error
            logger.exception("failed to capture engine snapshot")
        return exc

    def _truncate(self, reason: str) -> SimResult:
        """Close out a watchdog-cut run into a usable partial result.

        When a checkpoint hook with ``on_watchdog`` is armed, the full
        state is saved *before* the truncation mutates thread end
        times, so the saved checkpoint stays resumable (e.g. under a
        raised ``max_cycles``) and the post-mortem
        :class:`~repro.robustness.snapshot.EngineSnapshot` is simply a
        view over it.
        """
        self._save_checkpoint(reason)
        now = max(core.now for core in self.cores)
        unfinished = 0
        for thread in self.threads:
            if thread.state != FINISHED:
                thread.end_time = now
                unfinished += 1
        logger.warning(
            "run truncated (%s) at t=%d with %d/%d threads unfinished",
            reason, now, unfinished, len(self.threads),
        )
        if self.bus is not None:
            self.bus.emit(WatchdogFired(reason, now))
            self.bus.emit(SimEnded(
                now, sum(t.instrs for t in self.threads), True, reason
            ))
        return SimResult(
            machine=self.machine,
            threads=self.threads,
            chip=self.chip,
            sync=self.sync,
            total_cycles=now,
            truncated=True,
            truncation_reason=reason,
        )

    def _pause(self) -> SimResult:
        """Close out a ``pause_at`` suspension with zero mutation.

        Unlike :meth:`_truncate`, no thread end time is touched and no
        event is emitted — the run is not over, merely parked between
        scheduling steps.  ``total_cycles`` is the frontier clock (the
        furthest any core has simulated); partial accounting over a
        paused run goes through
        :func:`repro.accounting.report.partial_run_view`, which treats
        unfinished threads as ending at this frontier exactly like
        ``repro inspect`` does for a checkpoint.
        """
        return SimResult(
            machine=self.machine,
            threads=self.threads,
            chip=self.chip,
            sync=self.sync,
            total_cycles=max(core.now for core in self.cores),
            paused=True,
        )

    def _warm_caches(self) -> None:
        """Untimed warmup: interleave the threads' working-set addresses
        round-robin through the cache hierarchy so LLC occupancy starts
        from a fair steady state.

        The standard chip takes the fused loop (:meth:`_warm_fused`);
        any other takes the per-line loop (:meth:`_warm_per_line`),
        which is also the reference the fused loop is tested against.
        """
        warmup = self.program.warmup
        if not warmup:
            return
        if self._can_fuse_warm():
            self._warm_fused(warmup)
        else:
            self._warm_per_line(warmup)

    def _warm_per_line(self, warmup) -> None:
        """One :meth:`Chip.warm_line` call per interleaved address."""
        n_cores = self.machine.n_cores
        warm_line = self.chip.warm_line
        iters = [iter(addrs) for addrs in warmup]
        live = [(tid, tid % n_cores, iters[tid]) for tid in range(len(iters))]
        while live:
            still_live = []
            for entry in live:
                addr = next(entry[2], None)
                if addr is None:
                    continue
                warm_line(entry[1], addr)
                still_live.append(entry)
            live = still_live

    def _can_fuse_warm(self) -> bool:
        """Whether :meth:`_warm_fused` reproduces the per-line loop:
        plain set-associative caches that evict the set front (``lru``
        or ``fifo``; ``random`` and the ``llc_quotas`` partitioned LLC
        fall back), the standard directory with no invalid tags (none
        exist before the first store), and no accountant or one whose
        only warmed state is its sampled ATDs (``atd_shadow_oracle``
        falls back)."""
        chip = self.chip
        for cache in (chip.llc, *chip.l1d):
            if (type(cache) is not SetAssocCache
                    or type(cache._policy) not in _FRONT_EVICTING):
                return False
        directory = chip.directory
        if (type(directory) is not CoherenceDirectory
                or any(directory._invalid_tags)):
            return False
        accountant = self.accountant
        return not accountant.enabled or (
            type(accountant) is CycleAccountant
            and accountant.oracle_atds is None
        )

    def _warm_fused(self, warmup) -> None:
        """:meth:`Chip.warm_line` inlined into one loop over the cache
        sets and the directory's sharer dict.

        Each address makes the same dict operations in the same order
        as the per-line loop, so the warmed state is identical down to
        set order and the sharer dict's insertion order: the LLC fill
        without promote and the drop of its victim's L1 copies, the
        sampled ATD fill, the clean L1 fill, and the sharer updates.
        A set is a plain ``dict`` in replacement order, so a promote
        re-inserts the line and an eviction deletes the first key.
        The invalid-tag discards of the per-line path are left out:
        warm-up never stores, so those sets stay empty.
        """
        chip = self.chip
        n_cores = self.machine.n_cores
        shift = chip._l1_line_shift
        llc = chip.llc
        llc_sets = llc._sets
        llc_mask = llc._set_mask
        assoc = llc.assoc
        l1_sets = [l1._sets for l1 in chip.l1d]
        l1_mask = chip.l1d[0]._set_mask
        l1_assoc = chip.l1d[0].assoc
        sharers = chip.directory._sharers
        accountant = self.accountant
        atd_sets = None
        if accountant.enabled:
            atds = accountant.atds
            atd_sets = [atd._tags._sets for atd in atds]
            period = atds[0].sample_period
            offset = atds[0]._sample_offset
            atd_promote = atds[0]._tags._promote_on_hit
        llc_evictions = 0
        l1_evictions = [0] * n_cores
        atd_evictions = [0] * n_cores
        cores = [tid % n_cores for tid in range(len(warmup))]
        for row in zip_longest(*warmup):
            for cid, addr in zip(cores, row):
                if addr is None:
                    continue  # this thread's list is exhausted
                line = addr >> shift
                # LLC: a resident line stays put; a full set evicts its
                # front, and every L1 copy of the victim goes with it
                set_index = line & llc_mask
                cache_set = llc_sets[set_index]
                if line not in cache_set:
                    if len(cache_set) >= assoc:
                        victim = next(iter(cache_set))
                        del cache_set[victim]
                        llc_evictions += 1
                        holders = sharers.pop(victim, None)
                        if holders:
                            victim_set = victim & l1_mask
                            for core in holders:
                                l1_sets[core][victim_set].pop(victim, None)
                    cache_set[line] = False
                # sampled ATD: a resident line is promoted only under LRU
                if atd_sets is not None and set_index % period == offset:
                    cache_set = atd_sets[cid][set_index]
                    if line in cache_set:
                        if atd_promote:
                            cache_set[line] = cache_set.pop(line)
                    else:
                        if len(cache_set) >= assoc:
                            del cache_set[next(iter(cache_set))]
                            atd_evictions[cid] += 1
                        cache_set[line] = False
                # clean L1 fill, always to MRU; its victim loses this sharer
                cache_set = l1_sets[cid][line & l1_mask]
                if line in cache_set:
                    cache_set[line] = cache_set.pop(line)
                else:
                    if len(cache_set) >= l1_assoc:
                        victim = next(iter(cache_set))
                        del cache_set[victim]
                        l1_evictions[cid] += 1
                        holders = sharers.get(victim)
                        if holders is not None:
                            holders.discard(cid)
                            if not holders:
                                del sharers[victim]
                    cache_set[line] = False
                holders = sharers.get(line)
                if holders is None:
                    sharers[line] = {cid}
                else:
                    holders.add(cid)
        llc.n_evictions += llc_evictions
        for l1, count in zip(chip.l1d, l1_evictions):
            l1.n_evictions += count
        if atd_sets is not None:
            for atd, count in zip(atds, atd_evictions):
                atd._tags.n_evictions += count

    def _pick_core(self) -> _CoreRuntime | None:
        """The core that can act earliest, or None when every core is
        idle with an empty queue (the deadlock signal).

        Earliest-first is the order the engine's causality argument
        needs: shared state is touched at step start times, and steps
        run in global start-time order, with ties broken by core id
        (the scan order).
        """
        best = None
        best_time = second_time = _INFINITY
        for core in self.cores:
            if core.current is not None:
                avail = core.now
            elif core.queue:
                earliest = min(t.ready_time for t in core.queue)
                avail = earliest if earliest > core.now else core.now
            else:
                continue
            if avail < best_time:
                second_time = best_time
                best_time = avail
                best = core
            elif avail < second_time:
                second_time = avail
        # The earliest instant any *other* core could act — the horizon
        # the fast-forward block may run to without a global reschedule.
        self._ff_limit = second_time
        if best is not None and best.current is None and best_time > best.now:
            best.now = int(best_time)
        return best

    # ------------------------------------------------------------------
    # one step of one core
    # ------------------------------------------------------------------

    def _step(self, core: _CoreRuntime) -> None:
        thread = core.current
        if thread is None:
            self._dispatch(core)
            return
        before = core.now
        if thread.spin is not None:
            self._spin_iteration(core, thread)
            thread.gt_spin_cycles += core.now - before
        else:
            self._execute_next_op(core, thread)
        core.busy_cycles += core.now - before
        self.chip.stats[core.core_id].busy_cycles += core.now - before
        self._maybe_preempt(core)

    def _dispatch(self, core: _CoreRuntime) -> None:
        thread = self._pop_eligible(core)
        if thread is None:
            raise self._error(SimulationError(
                f"dispatch on core {core.core_id} with no eligible thread"
            ))
        core.now += self._dispatch_cost
        if thread.block_reason == BLOCK_SYNC:
            thread.gt_yield_cycles += core.now - thread.block_start
        if self.accountant.enabled:
            self.accountant.on_context_switch(core.core_id)
            if thread.block_reason == BLOCK_SYNC:
                self.accountant.on_yield_interval(
                    thread.tid, thread.block_start, core.now
                )
        if self.bus is not None:
            if thread.block_reason == BLOCK_SYNC:
                self.bus.emit(YieldInterval(
                    thread.tid, core.core_id, thread.block_start, core.now
                ))
            self.bus.emit(ThreadDispatched(thread.tid, core.core_id, core.now))
        thread.block_reason = ""
        thread.state = RUNNING
        thread.run_start = core.now
        core.current = thread
        if thread.spin is not None:
            thread.spin.restart(core.now)

    def _pop_eligible(self, core: _CoreRuntime) -> SoftwareThread | None:
        queue = core.queue
        for index, thread in enumerate(queue):
            if thread.ready_time <= core.now:
                del queue[index]
                return thread
        return None

    # ------------------------------------------------------------------
    # quiescent-region fast-forward
    # ------------------------------------------------------------------

    def _gather_core_refs(self) -> list[tuple]:
        """Per core, the objects and settings the block's inline paths
        read, gathered once per :meth:`run` call: a restored checkpoint
        replaces the stats, miss windows and directory dicts, and
        ``Session.swap`` the spin detectors, only between two calls.

        Inline paths stand in for :meth:`Chip.compute`, :meth:`Chip.load`
        and :meth:`Chip.store` with no accountant or the
        :class:`CycleAccountant`, whose only hook on an L1 hit is the
        spin detector's ``on_load``; any other accountant gets every
        call (its cores read as always having a miss outstanding).
        """
        chip = self.chip
        directory = chip.directory
        accountant = self.accountant
        detectors = None
        if type(accountant) is CycleAccountant:
            detectors = accountant.spin_detectors
        foreign = accountant.enabled and detectors is None
        return [
            (
                chip.stats[cid], l1, l1._sets, l1._set_mask,
                l1._promote_on_hit,
                (_ALWAYS_OUTSTANDING if foreign
                 else chip._mem_state[cid].outstanding),
                None if detectors is None else detectors[cid],
                frozenset((cid,)), directory._sharers,
                directory._word_versions,
            )
            for cid, l1 in enumerate(chip.l1d)
        ]

    @staticmethod
    def _write_back(core, thread, stats, l1, now, instrs, taken, computed,
                    loads, stores, stall) -> None:
        """Store what a block kept in locals: the core clock, the
        thread's instruction and op counts, and the counters of the ops
        it ran inline (``computed`` instructions, ``loads`` and
        ``stores`` that hit the L1, ``stall`` cycles)."""
        core.now = now
        thread.instrs += instrs
        thread.ops_taken += taken
        hits = loads + stores
        stats.instrs += computed + hits
        stats.loads += loads
        stats.stores += stores
        stats.l1_hits += hits
        stats.stall_cycles += stall
        l1.n_hits += hits

    def _fast_forward_block(
        self,
        core: _CoreRuntime,
        max_cycles: int | None,
        livelock_window: int | None,
        steps: int,
    ) -> int:
        """Run the picked core's step, then a block of ops on it without
        returning to the global scheduling loop; return the updated
        step count.

        The picked step is a ``Compute``, load or store of the core's
        running thread, run here as the first op of the block, or
        anything else (a dispatch, a spin iteration, a sync op, the end
        of the stream, or a thread with others in its run queue), which
        :meth:`_step` runs before the block.

        This is purely an optimization: the block executes exactly the
        ops the per-op reference loop would, with the same effects.  Up
        to the horizon ``self._ff_limit`` it runs any op, because the
        preconditions make each one the op the reference loop would
        execute next:

        * ``core`` is *strictly* the earliest-available core (it stays
          that way while its clock is below the horizon, since plain
          compute/memory ops never change another core's availability,
          and :meth:`_wake` lowers the horizon to a woken core's);
        * its thread is running and not spinning, and the local run
          queue is empty — so there is no dispatch, preemption, or spin
          state machine to consult between ops;
        * the block stops *before* a step on which the engine watchdog
          would run, and never executes an op past ``max_cycles`` — so
          watchdog progress checks fire on exactly the same step index
          and engine state as in the reference loop;
        * any synchronization op is executed through the same handler
          the reference loop uses, and then ends the block.

        Past the horizon, on a run-ahead run (see :meth:`run`), it runs
        only ops that touch nothing but this core's and its thread's
        own state: ``Compute`` ops, and loads that hit the core's L1 on
        a line of the thread's private range.  No other thread touches
        that line, so no other core's op can change the hit, and the
        load reads and updates only this core's L1 set, counters, miss
        window and spin detector.  These ops commute with every other
        core's ops.  The first op that is not core-local (a store, any
        other load, a sync op, or the end of the stream) is held in
        ``core.held``; the core's clock then reads that op's start
        time, and the op runs at the core's next pick, in the reference
        loop's (start time, core id) order.

        While no miss is outstanding, the block runs three kinds of op
        itself instead of calling the chip: a ``Compute`` op, a load
        that hits the L1, and a store that hits the L1 on a line no
        other core holds (its directory update is the word's version
        bump alone).  It keeps the clock, the thread's counts and those
        ops' counters in locals and writes them back at the end, and
        before any call that reads them or can raise (the access guard,
        a sync op, the end of the thread).

        Differential and property tests assert that a run with
        ``fast_forward`` off is identical down to its ``state_dict()``.
        """
        thread = core.current
        op = _NOTHING
        if thread is not None and thread.spin is None and not core.queue:
            op = core.held
            core.held = _NOTHING
            if op is _NOTHING:
                op = next(thread.body, None)
            if op is None or op.TAG > TAG_STORE:  # the rest are sync ops
                core.held = op
                op = _NOTHING
        if op is _NOTHING:
            self._step(core)
            thread = core.current
            if thread is None or thread.spin is not None or core.queue:
                return steps
        run_ahead = self._run_ahead
        limit = self._ff_limit
        now = core.now
        if op is _NOTHING and now >= limit and not run_ahead:
            return steps
        cid = core.core_id
        chip = self.chip
        (stats, l1, l1_sets, l1_mask, promote, outstanding, detector, alone,
         sharers, word_versions) = self._core_refs[cid]
        shift = chip._l1_line_shift
        l1_stall = chip._l1_stall
        hit_latency = self.machine.l1d.hit_latency
        width = self._width
        body = thread.body
        guarded = self._guarded
        if run_ahead:
            start, stop = self._private[thread.tid]
        else:
            start = stop = 0
        instrs = taken = computed = loads = stores = stall = 0
        picked = op is not _NOTHING
        ahead = False  # past the horizon, where only core-local ops run
        pending = _NOTHING  # a sync op or end of stream, run after the block
        block_start = now
        while True:
            if picked:
                picked = False  # its step was counted at the pick
            else:
                if now < limit:
                    if max_cycles is not None and now > max_cycles:
                        break
                    if (livelock_window is not None
                            and (steps + 1) % _WATCHDOG_STRIDE == 0):
                        break
                elif run_ahead:
                    ahead = True
                else:
                    break
                op = next(body, None)
                if op is None:
                    if ahead:
                        core.held = None  # the next pick finishes the thread
                    else:
                        steps += 1
                        pending = None
                    break
                steps += 1
            taken += 1
            tag = op.TAG
            if tag == TAG_COMPUTE:
                n = op.n
                instrs += n
                if outstanding:
                    now += -(-n // width) + chip.compute(cid, n, now)
                else:
                    computed += n
                    now += -(-n // width)
            elif tag == TAG_LOAD:
                addr = op.addr
                line = addr >> shift
                cache_set = l1_sets[line & l1_mask]
                if ahead and (line not in cache_set
                              or not start <= addr < stop):
                    core.held = op  # not a hit on a private line
                    steps -= 1  # it counts when it runs, at the next pick
                    taken -= 1
                    break
                if guarded and not start <= addr < stop:
                    self._write_back(core, thread, stats, l1, now, instrs,
                                     taken, computed, loads, stores, stall)
                    instrs = taken = computed = loads = stores = stall = 0
                    self._check_access(thread, addr)
                instrs += 1
                if outstanding or line not in cache_set:
                    now += 1 + chip.load(
                        cid, addr, op.pc, now,
                        overlappable=op.overlappable, dependent=op.dependent,
                    )
                    continue
                if promote:
                    cache_set[line] = cache_set.pop(line)
                if detector is not None:
                    # addr & ~7 is the directory's word (word_addr)
                    version, writer = word_versions.get(
                        addr & ~7, NEVER_WRITTEN
                    )
                    detector.on_load(op.pc, addr, version, writer, now, cid)
                loads += 1
                hit_stall = hit_latency if op.dependent else l1_stall
                stall += hit_stall
                now += 1 + hit_stall
            elif ahead:
                core.held = op  # a store or a sync op
                steps -= 1
                taken -= 1
                break
            elif tag == TAG_STORE:
                addr = op.addr
                if guarded and not start <= addr < stop:
                    self._write_back(core, thread, stats, l1, now, instrs,
                                     taken, computed, loads, stores, stall)
                    instrs = taken = computed = loads = stores = stall = 0
                    self._check_access(thread, addr)
                instrs += 1
                line = addr >> shift
                cache_set = l1_sets[line & l1_mask]
                if (outstanding or line not in cache_set
                        or sharers.get(line) != alone):
                    now += 1 + chip.store(cid, addr, op.pc, now)
                    continue
                word = addr & ~7
                word_versions[word] = (
                    word_versions.get(word, UNWRITTEN)[0] + 1, cid
                )
                if promote:
                    del cache_set[line]
                cache_set[line] = True
                stores += 1
                now += 1
            else:
                pending = op
                break
        self._write_back(core, thread, stats, l1, now, instrs, taken,
                         computed, loads, stores, stall)
        if pending is None:
            self._finish_thread(core, thread)
        elif pending is not _NOTHING:
            self._execute_sync_op(core, thread, pending, pending.TAG)
        delta = core.now - block_start
        core.busy_cycles += delta
        stats.busy_cycles += delta
        if pending is not _NOTHING:
            self._maybe_preempt(core)
        return steps

    def _maybe_preempt(self, core: _CoreRuntime) -> None:
        thread = core.current
        if thread is None or not core.queue:
            return
        if core.now - thread.run_start < self.machine.sched.timeslice_cycles:
            return
        if not any(t.ready_time <= core.now for t in core.queue):
            return
        bus = self.bus
        if bus is not None and thread.spin is not None:
            # the preemption drain below happens outside the spin-step
            # extent, so the segment ends before it (gt_spin parity)
            bus.emit(SpinSegment(
                thread.tid, core.core_id,
                thread.spin.segment_start, core.now, "preempted",
            ))
        core.now += self.chip.drain(core.core_id, core.now)
        thread.state = READY
        thread.ready_time = core.now
        thread.block_reason = BLOCK_PREEMPT
        core.queue.append(thread)
        core.current = None
        if bus is not None:
            bus.emit(ThreadDescheduled(
                thread.tid, core.core_id, core.now, "preempted"
            ))

    # ------------------------------------------------------------------
    # op execution
    # ------------------------------------------------------------------

    def _execute_next_op(self, core: _CoreRuntime, thread: SoftwareThread) -> None:
        op = core.held
        if op is _NOTHING:
            op = next(thread.body, None)
        else:
            core.held = _NOTHING
        if op is None:
            self._finish_thread(core, thread)
            return
        thread.ops_taken += 1
        tag = op.TAG
        cid = core.core_id
        now = core.now
        chip = self.chip
        if tag == TAG_COMPUTE:
            n = op.n
            thread.instrs += n
            core.now = now + (-(-n // self._width)) + chip.compute(cid, n, now)
        elif tag == TAG_LOAD:
            if self._guarded:
                self._check_access(thread, op.addr)
            thread.instrs += 1
            stall = chip.load(
                cid, op.addr, op.pc, now,
                overlappable=op.overlappable, dependent=op.dependent,
            )
            core.now = now + 1 + stall
        elif tag == TAG_STORE:
            if self._guarded:
                self._check_access(thread, op.addr)
            thread.instrs += 1
            core.now = now + 1 + chip.store(cid, op.addr, op.pc, now)
        else:
            self._execute_sync_op(core, thread, op, tag)

    def _execute_sync_op(self, core: _CoreRuntime, thread: SoftwareThread,
                         op, tag: int) -> None:
        """Execute a synchronization/scheduling op (shared between the
        reference loop and the fast-forward block)."""
        cid = core.core_id
        if tag == TAG_LOCK_ACQUIRE:
            self._lock_acquire(core, thread, self.sync.lock(op.lock_id))
        elif tag == TAG_LOCK_RELEASE:
            self._lock_release(core, thread, self.sync.lock(op.lock_id))
        elif tag == TAG_BARRIER_WAIT:
            self._barrier_wait(core, thread, self.sync.barrier(op.barrier_id))
        elif tag == TAG_YIELD_CPU:
            core.now += self.chip.drain(cid, core.now)
            thread.state = READY
            thread.ready_time = core.now
            thread.block_reason = BLOCK_PREEMPT
            core.queue.append(thread)
            core.current = None
            if self.bus is not None:
                self.bus.emit(ThreadDescheduled(
                    thread.tid, cid, core.now, "preempted"
                ))
        elif tag == TAG_FUTEX_WAIT:
            core.now += self.chip.drain(cid, core.now)
            self.sync.futex_queue(op.addr).append(thread)
            thread.state = BLOCKED
            thread.block_start = core.now
            thread.block_reason = BLOCK_SYNC
            thread.n_yields += 1
            core.current = None
            if self.bus is not None:
                self.bus.emit(ThreadDescheduled(
                    thread.tid, cid, core.now, "blocked"
                ))
        elif tag == TAG_FUTEX_WAKE:
            queue = self.sync.futex_queue(op.addr)
            if op.wake_all:
                while queue:
                    self._wake(queue.popleft(), core.now)
            elif queue:
                self._wake(queue.popleft(), core.now)
        else:  # pragma: no cover - op classes are closed
            raise self._error(SimulationError(f"unknown op {op!r}"))

    def _finish_thread(self, core: _CoreRuntime, thread: SoftwareThread) -> None:
        core.now += self.chip.drain(core.core_id, core.now)
        thread.state = FINISHED
        thread.end_time = core.now
        core.current = None
        self._n_finished += 1
        if self.bus is not None:
            self.bus.emit(ThreadDescheduled(
                thread.tid, core.core_id, core.now, "finished"
            ))

    # ------------------------------------------------------------------
    # synchronization state machines
    # ------------------------------------------------------------------

    def _charge_sync_instrs(self, thread: SoftwareThread, n: int) -> None:
        thread.instrs += n
        thread.sync_instrs += n

    def _lock_acquire(
        self, core: _CoreRuntime, thread: SoftwareThread, lock: LockState
    ) -> None:
        cid = core.core_id
        core.now += self.chip.drain(cid, core.now)
        t_start = core.now
        # Test-and-set: load the lock word; if free, claim it with a store.
        self._charge_sync_instrs(thread, 1)
        core.now += 1 + self.chip.load(
            cid, lock.addr, sync_pc.PC_LOCK_TEST, core.now,
            overlappable=False, dependent=True,
        )
        if lock.is_free:
            self._claim_lock(core, thread, lock)
        else:
            lock.n_contended += 1
            thread.spin = SpinContext("lock", lock, core.now)
        thread.gt_sync_cycles += core.now - t_start

    def _claim_lock(
        self, core: _CoreRuntime, thread: SoftwareThread, lock: LockState
    ) -> None:
        self._charge_sync_instrs(thread, 1)
        core.now += 1 + self.chip.store(
            core.core_id, lock.addr, sync_pc.PC_LOCK_TEST + 4, core.now
        )
        if thread.spin is not None:
            lock.total_wait_cycles += core.now - thread.spin.contention_start
            if self.bus is not None:
                self.bus.emit(SpinSegment(
                    thread.tid, core.core_id,
                    thread.spin.segment_start, core.now, "acquired",
                ))
        lock.holder = thread
        lock.hold_start = core.now
        lock.n_acquires += 1
        thread.n_lock_acquires += 1
        thread.spin = None

    def _lock_release(
        self, core: _CoreRuntime, thread: SoftwareThread, lock: LockState
    ) -> None:
        if lock.holder is not thread:
            raise self._error(SimulationError(
                f"thread {thread.tid} releasing lock {lock.lock_id} held by "
                f"{lock.holder.tid if lock.holder else None}"
            ))
        cid = core.core_id
        core.now += self.chip.drain(cid, core.now)
        t_start = core.now
        self._charge_sync_instrs(thread, 1)
        core.now += 1 + self.chip.store(
            cid, lock.addr, sync_pc.PC_LOCK_TEST + 8, core.now
        )
        lock.total_hold_cycles += core.now - lock.hold_start
        lock.holder = None
        if lock.waiters:
            waiter = lock.waiters.popleft()
            if lock.fifo_handoff:
                # Direct handoff: ownership passes to the woken waiter,
                # so barging spinners cannot steal the lock.
                lock.holder = waiter
            self._wake(waiter, core.now)
        thread.gt_sync_cycles += core.now - t_start

    def _barrier_wait(
        self, core: _CoreRuntime, thread: SoftwareThread, barrier: BarrierState
    ) -> None:
        cid = core.core_id
        core.now += self.chip.drain(cid, core.now)
        t_start = core.now
        thread.n_barrier_waits += 1
        if self.bus is not None:
            self.bus.emit(BarrierArrived(
                barrier.barrier_id, thread.tid, core.now
            ))
        # Atomic fetch-and-increment of the arrival counter.
        self._charge_sync_instrs(thread, 2)
        core.now += 1 + self.chip.load(
            cid, barrier.count_addr, sync_pc.PC_BARRIER_ARRIVE, core.now,
            overlappable=False, dependent=True,
        )
        core.now += 1 + self.chip.store(
            cid, barrier.count_addr, sync_pc.PC_BARRIER_ARRIVE + 4, core.now
        )
        my_generation = barrier.generation
        if barrier.arrive():
            # Last party: bump the generation word and release everyone.
            self._charge_sync_instrs(thread, 1)
            core.now += 1 + self.chip.store(
                cid, barrier.gen_addr, sync_pc.PC_BARRIER_ARRIVE + 8, core.now
            )
            while barrier.waiters:
                self._wake(barrier.waiters.popleft(), core.now)
            if self.bus is not None:
                self.bus.emit(BarrierReleased(barrier.barrier_id, core.now))
        else:
            thread.spin = SpinContext(
                "barrier", barrier, core.now, my_generation=my_generation
            )
        thread.gt_sync_cycles += core.now - t_start

    def _spin_iteration(self, core: _CoreRuntime, thread: SoftwareThread) -> None:
        ctx = thread.spin
        assert ctx is not None
        cid = core.core_id
        sync_cfg = self.machine.sync
        is_lock = ctx.kind == "lock"
        if is_lock:
            spin_addr = ctx.obj.addr
            pc_load = sync_pc.PC_LOCK_SPIN_LOAD
            pc_branch = sync_pc.PC_LOCK_SPIN_BRANCH
        else:
            spin_addr = ctx.obj.gen_addr
            pc_load = sync_pc.PC_BARRIER_SPIN_LOAD
            pc_branch = sync_pc.PC_BARRIER_SPIN_BRANCH

        n_loop = sync_cfg.spin_iter_instrs
        thread.spin_instrs += n_loop + 1
        thread.instrs += n_loop + 1
        chip = self.chip
        core.now += -(-n_loop // self._width) + chip.compute(cid, n_loop, core.now)
        core.now += 1 + chip.load(
            cid, spin_addr, pc_load, core.now, overlappable=False, dependent=True
        )
        if self.accountant.enabled:
            version, _ = chip.directory.load_value(spin_addr)
            self.accountant.on_backward_branch(cid, pc_branch, version, core.now)
        ctx.iters += 1

        if is_lock:
            if ctx.obj.is_free:
                self._claim_lock(core, thread, ctx.obj)
                return
            if ctx.obj.holder is thread:
                # FIFO direct handoff granted while we were waking up.
                ctx.obj.total_wait_cycles += core.now - ctx.contention_start
                ctx.obj.hold_start = core.now
                ctx.obj.n_acquires += 1
                thread.n_lock_acquires += 1
                if self.bus is not None:
                    self.bus.emit(SpinSegment(
                        thread.tid, cid, ctx.segment_start, core.now,
                        "acquired",
                    ))
                thread.spin = None
                return
        else:
            if ctx.obj.generation != ctx.my_generation:
                if self.bus is not None:
                    self.bus.emit(SpinSegment(
                        thread.tid, cid, ctx.segment_start, core.now,
                        "released",
                    ))
                thread.spin = None
                return
        if ctx.iters >= self._spin_threshold:
            self._yield_thread(core, thread)

    def _yield_thread(self, core: _CoreRuntime, thread: SoftwareThread) -> None:
        ctx = thread.spin
        assert ctx is not None
        if self.accountant.enabled:
            self.accountant.on_spin_truncated(
                core.core_id, core.now - ctx.episode_start
            )
        core.now += self.chip.drain(core.core_id, core.now)
        if self.bus is not None:
            # this drain runs inside the spin step's extent, so it is
            # part of gt_spin_cycles — the segment ends after it
            self.bus.emit(SpinSegment(
                thread.tid, core.core_id,
                ctx.segment_start, core.now, "yielded",
            ))
        waiters = ctx.obj.waiters
        waiters.append(thread)
        thread.state = BLOCKED
        thread.block_start = core.now
        thread.block_reason = BLOCK_SYNC
        thread.n_yields += 1
        core.current = None
        if self.bus is not None:
            self.bus.emit(ThreadDescheduled(
                thread.tid, core.core_id, core.now, "blocked"
            ))

    def _wake(self, thread: SoftwareThread, now: int) -> None:
        thread.state = READY
        thread.ready_time = now + self.machine.sched.wakeup_latency_cycles
        core = self.cores[thread.core_id]
        core.queue.append(thread)
        # The woken core may now act before the horizon picked for the
        # waker: the waker's fast-forward block must stop there.
        available = max(thread.ready_time, core.now)
        if available < self._ff_limit:
            self._ff_limit = available

    # ------------------------------------------------------------------
    # checkpointing (Snapshotable)
    # ------------------------------------------------------------------

    def state_dict(self) -> dict:
        """The full SimState tree: engine loop state, per-core runtime
        state, thread cursors/counters, sync primitives, the whole
        memory hierarchy, and (when accounting) the accountant.

        Thread op streams (Python generators) are represented by each
        thread's ``ops_taken`` cursor; :meth:`load_state_dict` replays
        the cursor against a deterministically rebuilt program.  Never
        mutates the simulation, so it is safe to call mid-run.
        """
        state = {
            "n_finished": self._n_finished,
            "steps": self._steps,
            "last_progress": list(self._last_progress),
            "last_progress_time": self._last_progress_time,
            "warmed": self._warmed,
            "threads": [thread.state_dict() for thread in self.threads],
            "cores": [
                {
                    "now": core.now,
                    "busy_cycles": core.busy_cycles,
                    "current": (
                        None if core.current is None else core.current.tid
                    ),
                    "queue": [thread.tid for thread in core.queue],
                }
                for core in self.cores
            ],
            "sync": self.sync.state_dict(),
            "chip": self.chip.state_dict(),
        }
        if self.accountant.enabled:
            state["accountant"] = self.accountant.state_dict()
        return state

    def _resolve_sync(self, kind: str, obj_id: int):
        if kind == "lock":
            return self.sync.lock(obj_id)
        return self.sync.barrier(obj_id)

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` tree onto a *fresh* simulation.

        The simulation must have been built from the same machine
        config and a freshly constructed, identical program (generators
        are stateful: a program whose bodies were already consumed
        cannot be reused).  Each thread's op stream is replayed to its
        recorded ``ops_taken`` cursor; a stream that exhausts early
        means the program does not match the checkpoint.
        """
        threads = self.threads
        if len(state["threads"]) != len(threads):
            raise CheckpointError(
                f"checkpoint has {len(state['threads'])} threads, "
                f"program has {len(threads)}"
            )
        for thread, thread_state in zip(threads, state["threads"]):
            target = thread_state["ops_taken"]
            if thread_state["state"] != FINISHED:
                body = thread.body
                for _ in range(target):
                    if next(body, _EXHAUSTED) is _EXHAUSTED:
                        raise CheckpointError(
                            f"thread {thread.tid} op stream exhausted before "
                            f"replaying {target} ops — the rebuilt program "
                            "does not match the checkpoint"
                        )
        self.sync.load_state_dict(state["sync"], threads)
        for thread, thread_state in zip(threads, state["threads"]):
            thread.load_state_dict(thread_state, self._resolve_sync)
        for core, core_state in zip(self.cores, state["cores"]):
            core.now = core_state["now"]
            core.busy_cycles = core_state["busy_cycles"]
            current = core_state["current"]
            core.current = None if current is None else threads[current]
            core.queue.clear()
            core.queue.extend(threads[tid] for tid in core_state["queue"])
        self.chip.load_state_dict(state["chip"])
        if "accountant" in state:
            if not self.accountant.enabled:
                raise CheckpointError(
                    "checkpoint carries accounting state but this "
                    "simulation has no accountant"
                )
            self.accountant.load_state_dict(state["accountant"])
        elif self.accountant.enabled:
            raise CheckpointError(
                "checkpoint lacks accounting state required by this "
                "simulation's accountant"
            )
        self._n_finished = state["n_finished"]
        self._steps = state["steps"]
        self._last_progress = tuple(state["last_progress"])
        self._last_progress_time = state["last_progress_time"]
        self._warmed = state["warmed"]
        self._ff_limit = _INFINITY


def simulate(
    machine: MachineConfig,
    program: Program,
    accountant=NULL_ACCOUNTANT,
    max_cycles: int | None = None,
    livelock_window: int | None = None,
    on_timeout: str = "raise",
    fast_forward: bool = True,
    bus=None,
    checkpoint=None,
) -> SimResult:
    """Convenience wrapper: build a :class:`Simulation` and run it."""
    return Simulation(machine, program, accountant,
                      fast_forward=fast_forward, bus=bus).run(
        max_cycles=max_cycles,
        livelock_window=livelock_window,
        on_timeout=on_timeout,
        checkpoint=checkpoint,
    )
