"""Address layout and deterministic helpers for synthetic workloads.

Each thread owns a private data region and all threads share one shared
region; synchronization variables live in their own reserved region
(:data:`repro.sync.primitives.SYNC_REGION_BASE`).  Private regions are
offset by an odd number of DRAM pages per thread so that concurrently
streaming threads spread across banks instead of pathologically
colliding on bank 0.

The thread bodies (:func:`repro.workloads.spec.build_program`) draw
their addresses from :class:`random.Random` instances seeded by
:func:`seed_for` from ``(benchmark name, thread id)``, so every
simulation is reproducible.
"""

from __future__ import annotations

import zlib
from math import gcd
from typing import Iterator

LINE = 64
PAGE = 4096

#: Layout constants.  Regions are far apart so they can never overlap
#: for any plausible working-set size.
PRIVATE_BASE = 0x1000_0000
PRIVATE_STRIDE = 0x400_0000  # 64 MB per thread
SHARED_BASE = 0x4000_0000_0000


def seed_for(name: str, thread_id: int) -> int:
    """Stable cross-run seed for one thread of one benchmark."""
    return zlib.crc32(f"{name}/{thread_id}".encode()) & 0x7FFF_FFFF


def private_base(thread_id: int) -> int:
    """Base address of a thread's private region (bank-interleaved)."""
    return PRIVATE_BASE + thread_id * PRIVATE_STRIDE + thread_id * 13 * PAGE


def round_robin_lock(
    thread_id: int, counter: int, n_locks: int
) -> int:
    """Deterministic lock selection spreading contention across locks."""
    if n_locks <= 1:
        return 0
    return (thread_id + counter) % n_locks


def skew_factor(thread_id: int, phase: int, n_threads: int, amplitude: float) -> float:
    """Per-phase work multiplier creating deterministic load imbalance.

    Values are centred on 1.0 (the mean over threads is ~1), with spread
    proportional to ``amplitude``; the skewed thread rotates with the
    phase so no single thread is always the straggler.
    """
    if n_threads <= 1 or amplitude <= 0:
        return 1.0
    # Walk the threads with a step coprime to the thread count so the
    # positions form a permutation of 0..n-1 (mean multiplier exactly 1).
    step = next(k for k in (7, 5, 9, 11, 3, 1) if gcd(k, n_threads) == 1)
    position = ((thread_id * step + phase * 3) % n_threads) / (n_threads - 1)
    return 1.0 + amplitude * (position - 0.5) * 2.0


def chunks(total: int, chunk: int) -> Iterator[int]:
    """Split ``total`` into chunks of at most ``chunk``."""
    remaining = total
    while remaining > 0:
        step = chunk if remaining >= chunk else remaining
        yield step
        remaining -= step
