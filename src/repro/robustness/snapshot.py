"""Engine-state snapshots for post-mortem diagnostics.

When the engine raises a :class:`~repro.errors.SimulationError` (or the
watchdog truncates a run), a snapshot of the scheduling and
synchronization state is captured: per-thread state, held locks and
their waiter queues, barrier arrival counts, and the core clocks.  The
snapshot is plain data (dataclasses of ints and strings) so it can be
attached to exceptions, dumped into the sweep journal as JSON, and
rendered in failure reports without keeping the simulation alive.

Since the checkpoint refactor the snapshot is a thin *view* over the
``state_dict()`` SimState tree: :func:`snapshot_from_state` projects
the scheduling/sync subset of a state tree (live or loaded from a
checkpoint file) into an :class:`EngineSnapshot`, and
:func:`capture_snapshot` builds that subset from a live simulation via
the same per-layer ``state_dict`` methods.

This module only *reads* engine state — it has no dependency on
:mod:`repro.sim.engine`, which imports it for error decoration.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from repro.osmodel.thread import FINISHED


@dataclass(frozen=True)
class ThreadSnapshot:
    """One software thread at the moment of capture."""

    tid: int
    state: str
    core_id: int
    block_reason: str
    ready_time: int
    instrs: int
    spin_instrs: int
    n_yields: int
    end_time: int
    #: what the thread is spin-waiting on, e.g. ``"lock:0"`` (or "")
    spinning_on: str = ""


@dataclass(frozen=True)
class LockSnapshot:
    lock_id: int
    holder_tid: int | None
    waiter_tids: tuple[int, ...]
    n_acquires: int
    n_contended: int


@dataclass(frozen=True)
class BarrierSnapshot:
    barrier_id: int
    n_parties: int
    arrived: int
    generation: int
    waiter_tids: tuple[int, ...]


@dataclass(frozen=True)
class EngineSnapshot:
    """Complete post-mortem of one :class:`~repro.sim.engine.Simulation`."""

    cycle: int
    n_finished: int
    core_clocks: tuple[int, ...]
    threads: tuple[ThreadSnapshot, ...] = ()
    locks: tuple[LockSnapshot, ...] = field(default_factory=tuple)
    barriers: tuple[BarrierSnapshot, ...] = field(default_factory=tuple)

    def to_dict(self) -> dict:
        """Plain-JSON form (used by the sweep journal): lists where the
        snapshot holds tuples, so it compares ``==`` to its own JSON
        round trip — a failed cell's outcome is the same from a queue
        worker's record as from the serial runner."""
        return json.loads(json.dumps(asdict(self)))

    @property
    def blocked_tids(self) -> tuple[int, ...]:
        return tuple(
            t.tid for t in self.threads
            if t.state not in (FINISHED,) and t.block_reason == "sync"
        )

    def summary(self) -> str:
        """One human line: where the run was when it died."""
        states: dict[str, int] = {}
        for t in self.threads:
            states[t.state] = states.get(t.state, 0) + 1
        state_txt = ", ".join(f"{k}={v}" for k, v in sorted(states.items()))
        held = [
            f"lock {s.lock_id} held by T{s.holder_tid}"
            f" ({len(s.waiter_tids)} waiting)"
            for s in self.locks if s.holder_tid is not None
        ]
        parts = [f"cycle {self.cycle}", f"threads: {state_txt}"]
        if held:
            parts.append("; ".join(held))
        waiting = [
            f"barrier {s.barrier_id}: {s.arrived}/{s.n_parties} arrived"
            for s in self.barriers
            if s.arrived or s.waiter_tids
        ]
        if waiting:
            parts.append("; ".join(waiting))
        return " | ".join(parts)


def _spin_target(spin_state: dict | None) -> str:
    if spin_state is None:
        return ""
    return f"{spin_state['kind']}:{spin_state['obj_id']}"


def snapshot_from_state(state: dict) -> EngineSnapshot:
    """Project a SimState tree (``Simulation.state_dict()`` output, or
    the payload of a checkpoint file) into an :class:`EngineSnapshot`.

    Only the scheduling/synchronization subset is read, so a partial
    tree with just ``threads``, ``sync`` and ``cores`` suffices.
    """
    threads = tuple(
        ThreadSnapshot(
            tid=t["tid"],
            state=t["state"],
            core_id=t["core_id"],
            block_reason=t["block_reason"],
            ready_time=t["ready_time"],
            instrs=t["instrs"],
            spin_instrs=t["spin_instrs"],
            n_yields=t["n_yields"],
            end_time=t["end_time"],
            spinning_on=_spin_target(t["spin"]),
        )
        for t in state["threads"]
    )
    sync = state["sync"]
    locks = tuple(
        LockSnapshot(
            lock_id=lock["lock_id"],
            holder_tid=lock["holder"],
            waiter_tids=tuple(lock["waiters"]),
            n_acquires=lock["n_acquires"],
            n_contended=lock["n_contended"],
        )
        for lock in sync["locks"]
    )
    barriers = tuple(
        BarrierSnapshot(
            barrier_id=b["barrier_id"],
            n_parties=b["n_parties"],
            arrived=b["arrived"],
            generation=b["generation"],
            waiter_tids=tuple(b["waiters"]),
        )
        for b in sync["barriers"]
    )
    clocks = tuple(core["now"] for core in state["cores"])
    return EngineSnapshot(
        cycle=max(clocks) if clocks else 0,
        n_finished=sum(1 for t in threads if t.state == FINISHED),
        core_clocks=clocks,
        threads=threads,
        locks=locks,
        barriers=barriers,
    )


def capture_snapshot(sim) -> EngineSnapshot:
    """Snapshot a live :class:`~repro.sim.engine.Simulation`.

    Builds only the scheduling/sync subset of the state tree (cheap —
    no cache or DRAM serialization) and projects it through
    :func:`snapshot_from_state`, so the post-mortem surface and the
    checkpoint format can never drift apart.
    """
    return snapshot_from_state({
        "threads": [thread.state_dict() for thread in sim.threads],
        "sync": sim.sync.state_dict(),
        "cores": [{"now": core.now} for core in sim.cores],
    })
