"""Typed event bus for engine, accounting and sweep instrumentation.

Design constraints, in order of importance:

1. **Zero overhead when disabled.**  Producers keep an optional ``bus``
   reference (default ``None``) and guard every emission with ``if bus
   is not None``.  No event object is ever constructed on the disabled
   path, and no hook sits on the per-op hot loops — emission points are
   at *scheduling* frequency (dispatch, block, spin episode, blocked
   miss, cell boundary), not per instruction or per cache access.
2. **Typed events.**  Every event is a small frozen dataclass; handlers
   subscribe per type (or to everything), so a consumer interested only
   in :class:`SpinSegment` never sees — or pays dispatch for — cache
   events.
3. **Pure observation.**  Emitting an event must never change simulated
   state; handlers receive immutable values.  A handler that raises
   propagates (instrumentation bugs should be loud in tests), but the
   engine's emission points carry no state mutations after the emit, so
   simulated results are unaffected either way.

Producers that want to skip even the cost of *constructing* an event
when nobody listens can pre-check ``EventType in bus`` (see
:meth:`EventBus.__contains__`) — the chip does this for
:class:`MissBlocked`, the highest-frequency event.
"""

from __future__ import annotations

from dataclasses import dataclass


# ----------------------------------------------------------------------
# engine events (scheduling frequency)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SimStarted:
    """A simulation run began."""

    n_threads: int
    n_cores: int


@dataclass(frozen=True)
class SimEnded:
    """A simulation run completed (or was truncated)."""

    total_cycles: int
    total_instrs: int
    truncated: bool
    reason: str | None = None


@dataclass(frozen=True)
class ThreadDispatched:
    """A thread was switched onto a core."""

    tid: int
    core: int
    t: int


@dataclass(frozen=True)
class ThreadDescheduled:
    """A thread left its core (``reason``: blocked/preempted/finished)."""

    tid: int
    core: int
    t: int
    reason: str


@dataclass(frozen=True)
class SpinSegment:
    """One contiguous on-core spin-waiting interval of a thread.

    ``outcome`` is how the segment ended: ``"acquired"`` (lock claimed),
    ``"released"`` (barrier generation flipped), ``"yielded"`` (spin
    budget exhausted, thread blocked), or ``"preempted"`` (timeslice
    expired mid-spin).  Segments of one logical episode tile exactly:
    summed per thread they equal the engine's ground-truth
    ``gt_spin_cycles``.
    """

    tid: int
    core: int
    start: int
    end: int
    outcome: str


@dataclass(frozen=True)
class YieldInterval:
    """A thread was scheduled out on synchronization from ``start`` to
    ``end`` (the instant it is running again — Section 4.4's yield
    interval, identical to what the accountant is told)."""

    tid: int
    core: int
    start: int
    end: int


@dataclass(frozen=True)
class BarrierArrived:
    """A thread reached a barrier (before its arrival instructions)."""

    barrier_id: int
    tid: int
    t: int


@dataclass(frozen=True)
class BarrierReleased:
    """The last party arrived: every waiter of the barrier was woken."""

    barrier_id: int
    t: int


@dataclass(frozen=True)
class WatchdogFired:
    """The engine watchdog truncated the run."""

    reason: str
    t: int


@dataclass(frozen=True)
class DeadlockDetected:
    """No runnable core with blocked threads remaining."""

    t: int
    blocked_tids: tuple[int, ...]


# ----------------------------------------------------------------------
# memory-system events (blocked-miss frequency)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MissBlocked:
    """An LLC miss blocked the ROB head from ``start`` to ``end``.

    ``interference`` is the portion attributable to other cores
    (bus/bank waits plus ORA-attributed page conflicts, capped at the
    blocked interval) — the same attribution the accountant's
    ``on_miss_blocked`` hook records, so per-core sums reconcile
    exactly with the negative-memory stack component.
    """

    core: int
    start: int
    end: int
    interference: int
    is_load: bool


# ----------------------------------------------------------------------
# accountant events (sampled / episode frequency)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class InterThreadAccess:
    """The ATD classified a sampled LLC access as inter-thread
    interference (``kind``: ``"hit"`` or ``"miss"``)."""

    core: int
    kind: str


@dataclass(frozen=True)
class SpinTruncated:
    """The sync library abandoned a spin loop to yield; the accountant
    charged ``elapsed`` spin cycles outside its hardware detectors."""

    core: int
    elapsed: int


# ----------------------------------------------------------------------
# sweep events (cell frequency)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SweepStarted:
    n_cells: int
    jobs: int


@dataclass(frozen=True)
class SweepFinished:
    ok: int
    failed: int
    resumed: int


@dataclass(frozen=True)
class CellStarted:
    key: str
    attempt: int


@dataclass(frozen=True)
class CellRetry:
    key: str
    attempt: int
    delay_s: float
    error: str


@dataclass(frozen=True)
class CellFinished:
    key: str
    status: str
    attempts: int


@dataclass(frozen=True)
class FaultArmed:
    """A fault-injection plan entry was applied to a cell."""

    key: str
    kind: str


@dataclass(frozen=True)
class WorkerCrashed:
    """A worker process died; ``suspects`` are the cells whose leases
    it held, expired at once and requeued (or quarantined)."""

    suspects: tuple[str, ...]


# ----------------------------------------------------------------------
# work-queue events (lease frequency — emitted by the queue driver)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LeaseExpired:
    """A worker's lease on a cell outlived its TTL (the worker was
    killed, hung, or its heartbeat stalled) and was reclaimed."""

    key: str
    worker: str
    expiries: int


@dataclass(frozen=True)
class CellRequeued:
    """A reclaimed or released cell went back to the pending queue,
    claimable after ``delay_s`` of (jittered) backoff."""

    key: str
    delay_s: float


@dataclass(frozen=True)
class CellQuarantined:
    """A poison cell: it expired ``expiries`` leases in a row and was
    pulled from circulation with its post-mortem attached."""

    key: str
    expiries: int


@dataclass(frozen=True)
class WorkerHeartbeat:
    """A queue worker refreshed its heartbeat file.

    ``timestamp`` is the worker's wall-clock (``time.time``) at write
    time; ``current_cell`` is the cell it was running, or None while
    idle.  The driver emits one of these per observed heartbeat change
    so the progress line can show per-worker last-heartbeat ages."""

    worker: str
    timestamp: float
    current_cell: str | None


#: the events a simulation emits (engine, memory system, accountant):
#: a bus with a handler for any of them observes the global order of
#: ops, so the engine does not run cores ahead while one is subscribed
SIM_EVENT_TYPES = (
    SimStarted,
    SimEnded,
    ThreadDispatched,
    ThreadDescheduled,
    SpinSegment,
    YieldInterval,
    BarrierArrived,
    BarrierReleased,
    WatchdogFired,
    DeadlockDetected,
    MissBlocked,
    InterThreadAccess,
    SpinTruncated,
)

#: the events a sweep emits (cells, workers, the work queue)
SWEEP_EVENT_TYPES = (
    SweepStarted,
    SweepFinished,
    CellStarted,
    CellRetry,
    CellFinished,
    FaultArmed,
    WorkerCrashed,
    LeaseExpired,
    CellRequeued,
    CellQuarantined,
    WorkerHeartbeat,
)

#: every event type, for subscribe-to-everything consumers and docs
EVENT_TYPES = SIM_EVENT_TYPES + SWEEP_EVENT_TYPES


class EventBus:
    """Synchronous publish/subscribe dispatch over the typed events.

    Handlers are called in subscription order, type-specific handlers
    before subscribe-all handlers.  ``unsubscribe`` during dispatch is
    safe (dispatch iterates over a snapshot).
    """

    __slots__ = ("_handlers", "_all", "n_emitted")

    def __init__(self) -> None:
        self._handlers: dict[type, list] = {}
        self._all: list = []
        #: total events emitted to at least zero handlers (diagnostics)
        self.n_emitted = 0

    # -- subscriptions --------------------------------------------------

    def subscribe(self, event_type: type, handler) -> None:
        """Call ``handler(event)`` for every emitted ``event_type``
        (one of :data:`EVENT_TYPES`; :meth:`subscribe_all` takes every
        type)."""
        if event_type not in EVENT_TYPES:
            raise TypeError(f"unknown event type: {event_type!r}")
        self._handlers.setdefault(event_type, []).append(handler)

    def subscribe_all(self, handler) -> None:
        """Call ``handler(event)`` for every event of any type."""
        self._all.append(handler)

    def unsubscribe(self, event_type: type, handler) -> None:
        """Remove one subscription; raises ``ValueError`` if absent."""
        handlers = self._handlers.get(event_type)
        if not handlers or handler not in handlers:
            raise ValueError(
                f"handler not subscribed to {event_type.__name__}"
            )
        handlers.remove(handler)
        if not handlers:
            del self._handlers[event_type]

    def unsubscribe_all(self, handler) -> None:
        """Remove a subscribe-all subscription."""
        self._all.remove(handler)

    # -- introspection --------------------------------------------------

    def __contains__(self, event_type: type) -> bool:
        """True when emitting ``event_type`` would reach a handler —
        producers use this to skip constructing high-frequency events
        nobody listens to."""
        return bool(self._all) or event_type in self._handlers

    @property
    def active(self) -> bool:
        """True when any subscription exists at all."""
        return bool(self._all or self._handlers)

    @property
    def observes_simulation(self) -> bool:
        """True when a handler listens to a simulation event (any of
        :data:`SIM_EVENT_TYPES`; a subscribe-all handler listens to
        every event).  A bus that only carries sweep events leaves the
        engine free to run cores ahead."""
        return bool(self._all) or any(
            event_type in self._handlers for event_type in SIM_EVENT_TYPES
        )

    # -- dispatch -------------------------------------------------------

    def emit(self, event) -> None:
        self.n_emitted += 1
        handlers = self._handlers.get(type(event))
        if handlers:
            for handler in tuple(handlers):
                handler(event)
        if self._all:
            for handler in tuple(self._all):
                handler(event)
