"""Threaded-program intermediate representation.

A *program* is a set of per-thread instruction streams.  Streams are
Python generators yielding lightweight micro-ops; the simulator executes
them one at a time.  This plays the role the Alpha binaries play in the
paper's gem5 setup: the simulator only ever sees dynamic instructions
(compute slots, loads, stores) and synchronization API calls — exactly
the surface the cycle-accounting hardware observes.

Ops carry an integer ``TAG`` class attribute for fast dispatch in the
engine's hot loop.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import chain
from typing import Callable, Iterator, overload

from repro.errors import ConfigError
from repro.sync.primitives import SYNC_REGION_BASE

# Op tags (engine dispatch).  Synchronization and scheduling ops take
# the tags after TAG_STORE.
TAG_COMPUTE = 0
TAG_LOAD = 1
TAG_STORE = 2
TAG_LOCK_ACQUIRE = 3
TAG_LOCK_RELEASE = 4
TAG_BARRIER_WAIT = 5
TAG_YIELD_CPU = 6
TAG_FUTEX_WAIT = 7
TAG_FUTEX_WAKE = 8


class Compute:
    """``n`` dynamic non-memory instructions (dispatch-bound)."""

    __slots__ = ("n",)
    TAG = TAG_COMPUTE

    def __init__(self, n: int) -> None:
        self.n = n

    def __repr__(self) -> str:
        return f"Compute({self.n})"


class Load:
    """A data load.

    ``overlappable`` marks the load as independent of its neighbours so
    the out-of-order core may overlap its miss with other misses in the
    ROB window (memory-level parallelism).  ``dependent`` marks a load
    whose consumer immediately follows (e.g. a spin-loop test), so even
    a cache hit stalls the pipeline for its full latency.
    """

    __slots__ = ("addr", "pc", "overlappable", "dependent")
    TAG = TAG_LOAD

    def __init__(
        self,
        addr: int,
        pc: int = 0,
        overlappable: bool = True,
        dependent: bool = False,
    ) -> None:
        self.addr = addr
        self.pc = pc
        self.overlappable = overlappable
        self.dependent = dependent

    def __repr__(self) -> str:
        return f"Load(0x{self.addr:x}, pc=0x{self.pc:x})"


class Store:
    """A data store (write-allocate, write-back)."""

    __slots__ = ("addr", "pc")
    TAG = TAG_STORE

    def __init__(self, addr: int, pc: int = 0) -> None:
        self.addr = addr
        self.pc = pc

    def __repr__(self) -> str:
        return f"Store(0x{self.addr:x})"


class LockAcquire:
    """Acquire a mutex; contended acquires spin then yield."""

    __slots__ = ("lock_id",)
    TAG = TAG_LOCK_ACQUIRE

    def __init__(self, lock_id: int) -> None:
        self.lock_id = lock_id

    def __repr__(self) -> str:
        return f"LockAcquire({self.lock_id})"


class LockRelease:
    __slots__ = ("lock_id",)
    TAG = TAG_LOCK_RELEASE

    def __init__(self, lock_id: int) -> None:
        self.lock_id = lock_id

    def __repr__(self) -> str:
        return f"LockRelease({self.lock_id})"


class BarrierWait:
    """Wait on a barrier shared by all threads of the program."""

    __slots__ = ("barrier_id",)
    TAG = TAG_BARRIER_WAIT

    def __init__(self, barrier_id: int) -> None:
        self.barrier_id = barrier_id

    def __repr__(self) -> str:
        return f"BarrierWait({self.barrier_id})"


class YieldCpu:
    """Voluntarily give up the core (sched_yield): the thread goes to
    the back of its core's run queue and stays runnable."""

    __slots__ = ()
    TAG = TAG_YIELD_CPU

    def __repr__(self) -> str:
        return "YieldCpu()"


class FutexWait:
    """Block until another thread wakes this address (futex WAIT).

    The caller must re-check its condition after waking: wakeups can be
    spurious with respect to the condition, exactly like real futexes.
    """

    __slots__ = ("addr",)
    TAG = TAG_FUTEX_WAIT

    def __init__(self, addr: int) -> None:
        self.addr = addr

    def __repr__(self) -> str:
        return f"FutexWait(0x{self.addr:x})"


class FutexWake:
    """Wake one (or all) threads blocked on an address (futex WAKE)."""

    __slots__ = ("addr", "wake_all")
    TAG = TAG_FUTEX_WAKE

    def __init__(self, addr: int, wake_all: bool = False) -> None:
        self.addr = addr
        self.wake_all = wake_all

    def __repr__(self) -> str:
        return f"FutexWake(0x{self.addr:x}, all={self.wake_all})"


Op = (
    Compute | Load | Store | LockAcquire | LockRelease | BarrierWait
    | YieldCpu | FutexWait | FutexWake
)
ThreadBody = Iterator[Op]
ThreadFactory = Callable[[int], ThreadBody]


class AddressRegions(Sequence[int]):
    """The addresses of consecutive ``range`` regions, as one sequence.

    A thread's warm-up working set is a few arithmetic runs of line
    addresses; holding the ranges instead of a list of their ints keeps
    it at a few hundred bytes, however many megabytes it covers.
    Iteration is repeatable, and indexing (negative indices and slices
    included) matches ``list(regions)``.
    """

    __slots__ = ("_ranges", "_len")

    def __init__(self, ranges: tuple[range, ...]) -> None:
        self._ranges = ranges
        self._len = sum(map(len, ranges))

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[int]:
        return chain.from_iterable(self._ranges)

    @overload
    def __getitem__(self, index: int) -> int: ...

    @overload
    def __getitem__(self, index: slice) -> list[int]: ...

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(self._len))]
        if index < 0:
            index += self._len
        if index >= 0:
            for region in self._ranges:
                if index < len(region):
                    return region[index]
                index -= len(region)
        raise IndexError("AddressRegions index out of range")


class Program:
    """A multi-threaded program: one op stream per software thread.

    ``warmup`` optionally lists, per thread, the addresses the thread's
    working set occupies (any sequence of ints: an explicit list, or
    the :class:`AddressRegions` synthesized workloads use); the
    simulator streams them through the caches untimed before
    measurement starts, so results reflect the steady state of the
    parallel fraction (the paper measures after the sequential
    initialization has run).

    ``private`` optionally declares, per thread, one byte-address
    ``range`` that no *other* thread's ops load or store (an empty
    range declares nothing).  A declaration also promises that each
    thread body draws its ops from that thread's own state only, so
    pulling an op earlier cannot change it; bodies that share Python
    state, like the pipeline's queue counter, must declare nothing.
    With it, the engine lets a core run ``Compute`` ops, and loads that
    hit its L1 on its declared lines, ahead of the other cores (see
    :meth:`~repro.sim.engine.Simulation.run`).  Ranges must not overlap
    and must end below the sync region; the engine also requires them
    to be line-aligned for its machine, and raises
    :class:`~repro.errors.SimulationError` on a run-ahead run when
    another thread loads or stores a declared line.
    """

    def __init__(
        self,
        name: str,
        thread_bodies: list[ThreadBody],
        warmup: list[Sequence[int]] | None = None,
        lock_fifo_handoff: bool = False,
        spin_threshold_override: int | None = None,
        private: list[range] | None = None,
    ) -> None:
        if not thread_bodies:
            raise ValueError("a program needs at least one thread")
        if warmup is not None and len(warmup) != len(thread_bodies):
            raise ValueError("warmup must have one address list per thread")
        if private is not None:
            _check_private(private, len(thread_bodies))
        self.name = name
        self.thread_bodies = thread_bodies
        self.warmup = warmup
        self.lock_fifo_handoff = lock_fifo_handoff
        #: override of the sync library's spin budget (SPLASH-2-style
        #: spinlocks spin much longer before yielding than pthreads)
        self.spin_threshold_override = spin_threshold_override
        self.private = private

    @property
    def n_threads(self) -> int:
        return len(self.thread_bodies)

    @classmethod
    def from_factory(
        cls, name: str, n_threads: int, factory: ThreadFactory
    ) -> "Program":
        """Build a program by calling ``factory(thread_id)`` per thread."""
        return cls(name, [factory(tid) for tid in range(n_threads)])


def _check_private(private: list[range], n_threads: int) -> None:
    """Reject a ``private`` declaration the engine could not trust:
    not one step-1 ``range`` per thread, overlapping between threads,
    or reaching the sync region."""
    if len(private) != n_threads:
        raise ConfigError(
            f"private must have one range per thread: {len(private)} "
            f"for {n_threads} threads", field="private",
        )
    for tid, region in enumerate(private):
        if not isinstance(region, range) or region.step != 1:
            raise ConfigError(
                f"private[{tid}] must be a step-1 range of byte "
                f"addresses, not {region!r}", field="private",
            )
        if region and (region.start < 0 or region.stop > SYNC_REGION_BASE):
            raise ConfigError(
                f"private[{tid}] {_hex_range(region)} must lie in "
                f"[0, 0x{SYNC_REGION_BASE:x}), below the sync region",
                field="private",
            )
    declared = sorted(
        (region.start, tid) for tid, region in enumerate(private) if region
    )
    for (_, before), (start, after) in zip(declared, declared[1:]):
        if private[before].stop > start:
            raise ConfigError(
                f"private ranges of threads {before} and {after} overlap: "
                f"{_hex_range(private[before])} and "
                f"{_hex_range(private[after])}", field="private",
            )


def _hex_range(region: range) -> str:
    return f"[0x{region.start:x}, 0x{region.stop:x})"
