"""A software-pipeline program: dedicated stage thread plus workers.

PARSEC's ferret is a multi-stage pipeline whose throughput is bounded
by a serialized stage, fed by bounded queues.  Two properties follow,
both visible in the paper's Figure 7:

* with 16 software threads, performance *saturates* once there are
  enough cores to keep the serial stage busy (8 cores), and adding more
  cores does not help (16 cores is slightly worse: scheduler overhead);
* spawning more software threads than cores *helps*: extra workers keep
  the serial stage's input queue full while others are descheduled, so
  "only a fraction of the threads is active at a time" without idling
  the bottleneck.

The program below distills that structure: thread 0 is the serial
stage consuming items from a bounded queue; the remaining threads
produce items (parallel work per item, then an enqueue under the queue
lock).  Item costs are heterogeneous (image queries vary in work), and
each worker owns a static contiguous block of items — so at low thread
counts one worker drags a cluster of heavy items (load imbalance),
while with many threads the per-thread blocks are fine-grained and the
OS scheduler balances the load across cores.  Queue fullness/emptiness is handled like user-level
synchronization: poll a few times on the queue word (real loads, so
spin hardware sees them), then ``sched_yield``.

The queue's occupancy lives in shared Python state owned by the
program; the generators read and update it between ops, which the
engine serializes exactly like memory state.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.workloads.program import (
    Compute,
    FutexWait,
    FutexWake,
    Load,
    LockAcquire,
    LockRelease,
    Program,
    Store,
)

QUEUE_LOCK = 0
QUEUE_ADDR = 0x5800_0000
#: futex words: consumers sleep on EMPTY, producers sleep on FULL
FUTEX_EMPTY = 0x5800_0040
FUTEX_FULL = 0x5800_0080
PC_POLL = 0x3000

#: brief spin before blocking on the futex (adaptive waiting)
POLL_BUDGET = 8


class _Queue:
    """Occupancy counter of the bounded stage queue."""

    __slots__ = ("n", "bound", "produced_done")

    def __init__(self, bound: int) -> None:
        self.n = 0
        self.bound = bound
        self.produced_done = 0


def _wait_until(queue, ready, futex_addr) -> object:
    """Adaptive wait: spin briefly on the queue word (real loads, so
    spin-detection hardware sees them), then block on the futex.  The
    condition is re-checked after every wakeup (futex semantics)."""
    spins = 0
    while not ready():
        yield Load(QUEUE_ADDR, PC_POLL, overlappable=False, dependent=True)
        yield Compute(4)
        spins += 1
        if spins % POLL_BUDGET == 0:
            yield FutexWait(futex_addr)


def _serial_stage(queue, n_items: int, serial_instrs: int):
    """Thread 0: dequeue one item at a time and process it serially."""
    for __ in range(n_items):
        yield from _wait_until(queue, lambda: queue.n > 0, FUTEX_EMPTY)
        yield LockAcquire(QUEUE_LOCK)
        queue.n -= 1
        yield Store(QUEUE_ADDR)
        yield LockRelease(QUEUE_LOCK)
        yield FutexWake(FUTEX_FULL)
        yield Compute(serial_instrs)


def _item_cost(item: int, n_items: int, work_instrs: int) -> int:
    """Per-item work: the first third of the items are heavy queries."""
    if item < n_items // 3:
        return int(work_instrs * 2.2)
    return int(work_instrs * 0.4)


def _worker(queue, tid: int, first_item: int, n_my_items: int,
            n_items: int, work_instrs: int):
    """Produce a contiguous block of items: work, then enqueue."""
    base = 0x7800_0000 + tid * 0x40_0000 + tid * 13 * 4096
    for item in range(first_item, first_item + n_my_items):
        cost = _item_cost(item, n_items, work_instrs)
        for step in range(0, cost, 200):
            yield Compute(min(200, cost - step))
            yield Load(base + ((item * 9 + step) % 256) * 64)
        yield from _wait_until(queue, lambda: queue.n < queue.bound,
                               FUTEX_FULL)
        yield LockAcquire(QUEUE_LOCK)
        queue.n += 1
        yield Store(QUEUE_ADDR)
        yield LockRelease(QUEUE_LOCK)
        yield FutexWake(FUTEX_EMPTY)


def _single_thread(n_items: int, serial_instrs: int, work_instrs: int):
    """Reference: one thread does each item's work and serial part."""
    base = 0x7800_0000
    for item in range(n_items):
        cost = _item_cost(item, n_items, work_instrs)
        for step in range(0, cost, 200):
            yield Compute(min(200, cost - step))
            yield Load(base + ((item * 9 + step) % 256) * 64)
        yield Compute(serial_instrs)


def build_pipeline_program(
    n_threads: int,
    n_items: int = 100,
    serial_instrs: int = 4300,
    work_instrs: int = 9100,
    queue_bound: int = 8,
) -> Program:
    """Build the ferret-style pipeline for ``n_threads`` threads.

    ``n_threads == 1`` builds the single-threaded reference that
    executes the same total work without the pipeline plumbing.
    """
    if n_threads < 1:
        raise ValueError("need at least one thread")
    if n_threads == 1:
        return Program(
            "ferret-pipeline",
            [_single_thread(n_items, serial_instrs, work_instrs)],
            warmup=[_worker_ws(0)],
        )
    queue = _Queue(queue_bound)
    n_workers = n_threads - 1
    share = n_items // n_workers
    remainder = n_items - share * n_workers
    bodies = [_serial_stage(queue, n_items, serial_instrs)]
    warmup: list[Sequence[int]] = [[QUEUE_ADDR]]
    next_item = 0
    for tid in range(1, n_threads):
        items = share + (1 if tid <= remainder else 0)
        bodies.append(
            _worker(queue, tid, next_item, items, n_items, work_instrs)
        )
        next_item += items
        warmup.append(_worker_ws(tid))
    return Program(
        "ferret-pipeline", bodies, warmup=warmup, lock_fifo_handoff=False
    )


def _worker_ws(tid: int) -> list[int]:
    """The 256 lines of one worker's private buffer."""
    base = 0x7800_0000 + tid * 0x40_0000 + tid * 13 * 4096
    return [base + k * 64 for k in range(256)]
