"""Multi-core execution engine.

The engine is a conservative discrete-event simulator: every core owns a
local clock, and the engine repeatedly advances the runnable core with
the *smallest* clock by one step (a compute chunk, one memory operation,
one spin-loop iteration, or one scheduling action).  Because shared
state — the memory hierarchy, lock/barrier state, run queues — is only
touched at a step's start time, and steps execute in global start-time
order, the simulation is causally consistent and fully deterministic.

The engine also embodies the OS model: per-core run queues, round-robin
thread placement, timeslice preemption, and futex-style block/wakeup
used by the spin-then-yield synchronization library.  Yield intervals
("the time a thread is scheduled out", Section 4.4) are reported to the
accounting layer from here, exactly as the paper has the operating
system do it.
"""

from __future__ import annotations

import logging
from collections import deque
from dataclasses import dataclass
from itertools import zip_longest

from repro.accounting.accountant import CycleAccountant
from repro.accounting.interface import NULL_ACCOUNTANT
from repro.components.registry import resolve
from repro.components.replacement import FifoPolicy, LruPolicy
from repro.config import MachineConfig
from repro.errors import (
    CheckpointError,
    DeadlockError,
    LivelockError,
    SimulationError,
)
from repro.observability.events import (
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
from repro.sim.coherence import CoherenceDirectory
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

logger = logging.getLogger(__name__)

#: steps between watchdog progress checks (cheap: amortized O(1/step))
_WATCHDOG_STRIDE = 1024

#: replacement policies whose victim is always the set front, the only
#: ones the fused warm-up loop inlines
_FRONT_EVICTING = (LruPolicy, FifoPolicy)


class _CoreRuntime:
    """Per-core scheduling state."""

    __slots__ = ("core_id", "now", "current", "queue", "busy_cycles")

    def __init__(self, core_id: int) -> None:
        self.core_id = core_id
        self.now = 0
        self.current: SoftwareThread | None = None
        self.queue: deque[SoftwareThread] = deque()
        self.busy_cycles = 0


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    machine: MachineConfig
    threads: list[SoftwareThread]
    chip: Chip
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


class Simulation:
    """Execute a :class:`Program` on a simulated CMP."""

    def __init__(
        self,
        machine: MachineConfig,
        program: Program,
        accountant=NULL_ACCOUNTANT,
        trace=None,
        barrier_observer=None,
        fast_forward: bool = True,
        bus=None,
    ) -> None:
        self.machine = machine
        self.program = program
        self.accountant = accountant
        self.trace = trace
        self.barrier_observer = barrier_observer
        #: optional observability EventBus; every emission is guarded by
        #: ``is not None`` and sits on scheduling-frequency paths only,
        #: so the disabled run pays nothing on the per-op hot loop
        self.bus = bus
        #: instruction-block fast-forward through quiescent regions; off
        #: switches back to the one-op-per-iteration reference loop (the
        #: two must produce identical results — see tests/parallel/)
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
        self._scheduler = resolve("scheduler", machine.sched.policy)(machine.sched)
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
            self._step(core)
            if fast_forward:
                steps = self._fast_forward_block(
                    core, max_cycles, livelock_window, steps
                )
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

    def snapshot(self):
        """Capture an :class:`~repro.robustness.snapshot.EngineSnapshot`
        of the current scheduling and synchronization state.

        .. deprecated::
            Thin alias kept for callers of the pre-checkpoint API; the
            snapshot is now a view over the :meth:`state_dict` tree
            (see :func:`repro.robustness.snapshot.capture_snapshot`).
        """
        return capture_snapshot(self)

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
        without promote and the inclusive drop of its victim, the
        sampled ATD fill, the clean L1 fill, and the sharer updates.
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
                        victim = cache_set.popitem(False)[0]
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
                            cache_set.move_to_end(line)
                    else:
                        if len(cache_set) >= assoc:
                            cache_set.popitem(False)
                            atd_evictions[cid] += 1
                        cache_set[line] = False
                # clean L1 fill, always to MRU; its victim loses this sharer
                cache_set = l1_sets[cid][line & l1_mask]
                if line in cache_set:
                    cache_set.move_to_end(line)
                else:
                    if len(cache_set) >= l1_assoc:
                        victim = cache_set.popitem(False)[0]
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
        best, best_time, second_time = self._scheduler.pick(self.cores)
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
        if self.trace is not None:
            self.trace.on_run_start(thread.tid, core.core_id, core.now)
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

    def _fast_forward_block(
        self,
        core: _CoreRuntime,
        max_cycles: int | None,
        livelock_window: int | None,
        steps: int,
    ) -> int:
        """Execute a block of ops on ``core`` without returning to the
        global scheduling loop, and return the updated step count.

        This is purely an optimization: an op is executed here only when
        the serial reference loop would inevitably execute exactly that
        op next.  The preconditions guarantee it:

        * ``core`` is *strictly* the earliest-available core (it stays
          that way while its clock is below ``limit``, since plain
          compute/memory ops never change another core's availability);
        * its thread is running and not spinning, and the local run
          queue is empty — so there is no dispatch, preemption, or spin
          state machine to consult between ops;
        * the block stops *before* a step on which the engine watchdog
          would run, and never executes an op past ``max_cycles`` — so
          watchdog progress checks fire on exactly the same step index
          and engine state as in the reference loop;
        * any synchronization op is executed through the same handler
          the reference loop uses, and then ends the block (sync can
          wake threads, invalidating the cached ``limit``).

        Differential and property tests assert that a run with
        ``fast_forward`` off is identical, component for component.
        """
        limit = self._ff_limit
        thread = core.current
        if (core.now >= limit or thread is None or thread.spin is not None
                or core.queue):
            return steps
        chip = self.chip
        stats = chip.stats[core.core_id]
        cid = core.core_id
        width = self._width
        body = thread.body
        block_start = core.now
        while core.now < limit:
            if max_cycles is not None and core.now > max_cycles:
                break
            if (livelock_window is not None
                    and (steps + 1) % _WATCHDOG_STRIDE == 0):
                break
            op = next(body, None)
            steps += 1
            if op is None:
                self._finish_thread(core, thread)
                break
            thread.ops_taken += 1
            tag = op.TAG
            now = core.now
            if tag == TAG_COMPUTE:
                n = op.n
                thread.instrs += n
                core.now = now + (-(-n // width)) + chip.compute(cid, n, now)
            elif tag == TAG_LOAD:
                thread.instrs += 1
                core.now = now + 1 + chip.load(
                    cid, op.addr, op.pc, now,
                    overlappable=op.overlappable, dependent=op.dependent,
                )
            elif tag == TAG_STORE:
                thread.instrs += 1
                core.now = now + 1 + chip.store(cid, op.addr, op.pc, now)
            else:
                self._execute_sync_op(core, thread, op, tag)
                delta = core.now - block_start
                core.busy_cycles += delta
                stats.busy_cycles += delta
                self._maybe_preempt(core)
                return steps
        delta = core.now - block_start
        core.busy_cycles += delta
        stats.busy_cycles += delta
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
        if self.trace is not None:
            self.trace.on_run_end(thread.tid, core.now, "preempted")
        if bus is not None:
            bus.emit(ThreadDescheduled(
                thread.tid, core.core_id, core.now, "preempted"
            ))

    # ------------------------------------------------------------------
    # op execution
    # ------------------------------------------------------------------

    def _execute_next_op(self, core: _CoreRuntime, thread: SoftwareThread) -> None:
        op = next(thread.body, None)
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
            thread.instrs += 1
            stall = chip.load(
                cid, op.addr, op.pc, now,
                overlappable=op.overlappable, dependent=op.dependent,
            )
            core.now = now + 1 + stall
        elif tag == TAG_STORE:
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
            if self.trace is not None:
                self.trace.on_run_end(thread.tid, core.now, "preempted")
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
            if self.trace is not None:
                self.trace.on_run_end(thread.tid, core.now, "blocked")
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
        if self.trace is not None:
            self.trace.on_run_end(thread.tid, core.now, "finished")
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
        if self.barrier_observer is not None:
            self.barrier_observer.on_arrival(
                barrier.barrier_id, thread.tid, core.now
            )
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
            if self.barrier_observer is not None:
                self.barrier_observer.on_release(
                    barrier.barrier_id, core.now
                )
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
        if self.trace is not None:
            self.trace.on_run_end(thread.tid, core.now, "blocked")
        if self.bus is not None:
            self.bus.emit(ThreadDescheduled(
                thread.tid, core.core_id, core.now, "blocked"
            ))

    def _wake(self, thread: SoftwareThread, now: int) -> None:
        thread.state = READY
        thread.ready_time = now + self.machine.sched.wakeup_latency_cycles
        self.cores[thread.core_id].queue.append(thread)

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
        scheduler_state = getattr(self._scheduler, "state_dict", None)
        if scheduler_state is not None:
            state["scheduler"] = scheduler_state()
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
        scheduler_load = getattr(self._scheduler, "load_state_dict", None)
        if scheduler_load is not None and "scheduler" in state:
            scheduler_load(state["scheduler"])
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
