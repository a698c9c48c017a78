"""Benchmark specification and program synthesis.

A :class:`BenchmarkSpec` captures the *behavioural characteristics* of
one benchmark from the paper's suite (SPLASH-2 / PARSEC / Rodinia) as a
set of knobs — working-set sizes, sharing, memory intensity,
synchronization pattern, imbalance, parallelization overhead.  The
:func:`build_program` synthesizer turns a spec into a concrete
multi-threaded :class:`~repro.workloads.program.Program` for any thread
count, dividing the total work across threads (strong scaling over the
given input size; different input classes of the same benchmark are
separate specs with different totals, which is how the weak-scaling
behaviour of e.g. ``swaptions`` emerges).

The single-threaded variant (``n_threads=1``) is the reference run: it
executes the same total work without parallelization-overhead
instructions and with the same lock/barrier calls (which are then all
uncontended), mirroring how the paper measures ``Ts`` on the parallel
fraction of each benchmark.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.workloads import generators as g
from repro.workloads.program import (
    AddressRegions,
    BarrierWait,
    Compute,
    Load,
    LockAcquire,
    LockRelease,
    Program,
    Store,
)

#: offset of a thread's cold region from its private base
COLD_OFFSET = 0x100_0000

#: Synthetic PC used by workload (non-synchronization) memory accesses.
PC_WORK_LOAD = 0x2000
PC_WORK_STORE = 0x2004

#: Instruction block granularity: memory ops are interleaved into
#: compute in blocks of this many instructions.
BLOCK_INSTRS = 100


@dataclass(frozen=True)
class BenchmarkSpec:
    """Knob set describing one benchmark's behaviour."""

    name: str
    suite: str = "synthetic"
    input_class: str = ""

    #: total dynamic work in thousands of instructions (divided across
    #: threads — strong scaling within one input size)
    total_kinstrs: int = 400
    #: memory operations per 1000 instructions
    mem_per_kinstr: int = 100
    #: per-thread private working set
    private_ws_kb: int = 64
    #: shared (read-mostly) working set, source of positive interference
    shared_ws_kb: int = 0
    #: fraction of memory ops that touch the shared region
    shared_fraction: float = 0.0
    #: fraction of *shared* accesses that are stores (coherency traffic)
    shared_store_fraction: float = 0.02
    #: producer-consumer stream: fraction of memory ops on a stream of
    #: freshly produced shared lines.  Producers store to brand-new
    #: lines; consumers read recently produced lines (mostly written by
    #: other threads).  First-touch reads of another thread's lines are
    #: inter-thread hits regardless of LLC size, which is what keeps the
    #: positive-interference component constant in the paper's Figure 9.
    stream_fraction: float = 0.0
    #: how far back (in own productions) consumers read
    stream_window: int = 96
    #: probability a stream access produces rather than consumes
    stream_produce_fraction: float = 0.35
    #: fraction of *private* accesses that are stores
    store_fraction: float = 0.2
    #: fraction of private accesses that stream sequentially
    stride_fraction: float = 0.6
    #: byte stride of streaming accesses (sub-line strides give spatial
    #: locality: 8-byte words mean 8 accesses per 64-byte line)
    stride_bytes: int = 16
    #: per-thread cold region scanned at a low rate: its lines stay
    #: resident in a private-LLC counterfactual (the ATD) but are
    #: recycled out of the shared LLC by the other threads, producing
    #: steady inter-thread (negative LLC) misses
    cold_ws_kb: int = 0
    #: fraction of private accesses that go to the cold region
    cold_fraction: float = 0.0
    #: streaming fraction within the cold region (random cold accesses
    #: keep most of the region ATD-resident, biasing the misses towards
    #: the inter-thread "cache" component rather than plain memory time)
    cold_stride_fraction: float = 1.0
    #: fraction of loads that are address-dependent (pointer chasing)
    dependent_fraction: float = 0.0
    #: fraction of private *stores* that instead hit a falsely-shared
    #: line: every thread writes its own word of the same small set of
    #: cache lines, so the lines ping-pong between L1s (coherency
    #: invalidations and upgrade misses without any data actually
    #: flowing between threads — Section 3.2's "unnecessary cache
    #: coherency traffic may result from false sharing")
    false_sharing_fraction: float = 0.0
    false_sharing_lines: int = 16
    #: lock synchronization: critical sections per 1000 instructions
    n_locks: int = 1
    cs_per_kinstr: float = 0.0
    cs_len_instrs: int = 200
    #: stores inside each critical section (shared-data updates)
    cs_stores: int = 2
    #: barrier phases over the whole run
    n_phases: int = 1
    #: per-phase work skew amplitude (0 = perfectly balanced)
    imbalance: float = 0.0
    #: extra instructions (fraction) each thread executes only when
    #: multi-threaded — parallelization overhead (Section 3.5)
    par_overhead: float = 0.02
    #: FIFO direct-handoff (fair) locks instead of barging spinlocks
    lock_fifo: bool = False
    #: spin budget override (iterations before yielding); SPLASH-2-style
    #: spinlocks spin far longer than pthreads before blocking
    spin_threshold: int | None = None
    #: end with a barrier (the convergence point of the parallel
    #: fraction): the paper measures "between the divergence and
    #: convergence of the threads", making the imbalance component ~0;
    #: disable to expose end-of-program imbalance instead (Section 4.6)
    final_barrier: bool = True

    # Fig. 6 reference metadata (targets, not inputs to the synthesis).
    target_speedup_16: float | None = None
    expected_class: str = ""
    expected_top: tuple[str, ...] = ()

    @property
    def full_name(self) -> str:
        if self.input_class:
            return f"{self.name}_{self.input_class}"
        return self.name

    def scaled(self, factor: float) -> "BenchmarkSpec":
        """Scale the total amount of work (for quick test runs)."""
        return replace(
            self, total_kinstrs=max(1, int(self.total_kinstrs * factor))
        )


def build_program(
    spec: BenchmarkSpec, n_threads: int, scale: float = 1.0
) -> Program:
    """Synthesize the program for ``n_threads`` threads."""
    if n_threads < 1:
        raise ValueError("need at least one thread")
    scaled = spec if scale == 1.0 else spec.scaled(scale)
    bodies = [
        _thread_body(scaled, tid, n_threads) for tid in range(n_threads)
    ]
    warmup = [_warmup_addrs(scaled, tid) for tid in range(n_threads)]
    return Program(
        scaled.full_name, bodies, warmup=warmup,
        lock_fifo_handoff=scaled.lock_fifo,
        spin_threshold_override=scaled.spin_threshold,
        private=_private_ranges(scaled, n_threads),
    )


def _private_ranges(spec: BenchmarkSpec, n_threads: int) -> list[range] | None:
    """Each thread's private working set as one byte range: the lines
    only that thread's private stream loads and stores.  None when a
    working set reaches past the next thread's base, where the layout
    no longer keeps the threads' regions apart."""
    size = spec.private_ws_kb * 1024
    if max(size, COLD_OFFSET + spec.cold_ws_kb * 1024) > g.PRIVATE_STRIDE:
        return None
    return [
        range(g.private_base(tid), g.private_base(tid) + size)
        for tid in range(n_threads)
    ]


def _warmup_addrs(spec: BenchmarkSpec, tid: int) -> AddressRegions:
    """The lines a thread's working set occupies.

    Cold and shared regions come first and the hot private working set
    last, so the hot data is the most-recently-used LLC content when
    measurement starts.
    """
    regions = []
    if spec.cold_fraction > 0:
        cold_base = g.private_base(tid) + COLD_OFFSET
        regions.append(
            range(cold_base, cold_base + spec.cold_ws_kb * 1024, g.LINE)
        )
    if spec.shared_fraction > 0:
        regions.append(range(
            g.SHARED_BASE, g.SHARED_BASE + spec.shared_ws_kb * 1024, g.LINE
        ))
    base = g.private_base(tid)
    regions.append(range(base, base + spec.private_ws_kb * 1024, g.LINE))
    return AddressRegions(tuple(region for region in regions if region))


#: base of the produced-stream region (disjoint from the shared region)
STREAM_BASE = g.SHARED_BASE + 0x2000_0000

#: base of the falsely-shared line region
FALSE_SHARING_BASE = g.SHARED_BASE + 0x3000_0000


class _Stream:
    """Per-thread producer-consumer stream state."""

    __slots__ = ("tid", "n_threads", "cursor", "window", "rng")

    def __init__(self, tid: int, n_threads: int, window: int, rng) -> None:
        self.tid = tid
        self.n_threads = n_threads
        self.cursor = 0
        self.window = window
        self.rng = rng

    def produce_addr(self) -> int:
        addr = STREAM_BASE + (self.cursor * self.n_threads + self.tid) * g.LINE
        self.cursor += 1
        return addr

    def consume_addr(self) -> int | None:
        """A recently produced line — by any thread, assuming the peers
        progress roughly in step (they execute the same op mix)."""
        hi = self.cursor * self.n_threads
        if hi <= 0:
            return None
        lo = max(0, hi - self.window * self.n_threads)
        return STREAM_BASE + self.rng.randrange(lo, hi) * g.LINE


def _thread_body(spec: BenchmarkSpec, tid: int, n_threads: int):
    """Generator of one thread's dynamic instruction stream."""
    rng = random.Random(g.seed_for(spec.full_name, tid))
    private = g.AddressStream(
        g.private_base(tid),
        spec.private_ws_kb * 1024,
        rng,
        stride_fraction=spec.stride_fraction,
        stride=spec.stride_bytes,
    )
    shared = None
    if spec.shared_ws_kb > 0 and spec.shared_fraction > 0:
        shared = g.SharedStream(spec.shared_ws_kb * 1024, rng)
    stream = None
    if spec.stream_fraction > 0:
        stream = _Stream(tid, n_threads, spec.stream_window, rng)
    cold = None
    if spec.cold_ws_kb > 0 and spec.cold_fraction > 0:
        cold = g.AddressStream(
            g.private_base(tid) + COLD_OFFSET,
            spec.cold_ws_kb * 1024,
            rng,
            stride_fraction=spec.cold_stride_fraction,
            stride=g.LINE,
        )

    total_instrs = spec.total_kinstrs * 1000
    base_share = total_instrs // n_threads
    if n_threads > 1 and spec.par_overhead > 0:
        base_share = int(base_share * (1.0 + spec.par_overhead))

    mem_per_block = spec.mem_per_kinstr * BLOCK_INSTRS / 1000.0
    cs_per_block = spec.cs_per_kinstr * BLOCK_INSTRS / 1000.0
    mem_debt = 0.0
    # Start each thread at a random phase of its critical-section cycle
    # so threads do not all reach their first CS at the same instant
    # (which would serialize the whole program through one convoy).
    cs_debt = rng.random()
    cs_counter = 0

    n_phases = max(1, spec.n_phases)
    for phase in range(n_phases):
        share = base_share // n_phases
        my_share = int(share * g.skew_factor(tid, phase, n_threads, spec.imbalance))
        for block in g.chunks(my_share, BLOCK_INSTRS):
            # Interleave compute with memory accesses; memory ops count
            # against the block's instruction budget, so the emitted
            # total matches the spec's instruction count.
            mem_debt += mem_per_block * (block / BLOCK_INSTRS)
            n_mem = int(mem_debt)
            if n_mem >= block:
                n_mem = block - 1 if block > 1 else 0
            mem_debt -= n_mem
            compute_budget = block - n_mem
            if n_mem == 0:
                yield Compute(block)
            else:
                sub = max(1, compute_budget // n_mem)
                emitted = 0
                for _ in range(n_mem):
                    step = min(sub, compute_budget - emitted)
                    if step > 0:
                        yield Compute(step)
                        emitted += step
                    yield _mem_access(
                        spec, rng, private, shared, cold, stream, tid
                    )
                if emitted < compute_budget:
                    yield Compute(compute_budget - emitted)

            # Critical sections (locks exist in the 1-thread run too —
            # they are then uncontended, like the paper's parallel
            # fraction measured single-threaded).
            cs_debt += cs_per_block * (block / BLOCK_INSTRS)
            while cs_debt >= 1.0:
                cs_debt -= 1.0
                cs_counter += 1
                lock_id = g.round_robin_lock(tid, cs_counter, spec.n_locks)
                yield LockAcquire(lock_id)
                yield Compute(spec.cs_len_instrs)
                for store_idx in range(spec.cs_stores):
                    addr = (
                        g.SHARED_BASE
                        + 0x100_0000
                        + (lock_id * 8 + store_idx) * g.LINE
                    )
                    yield Store(addr, PC_WORK_STORE)
                yield LockRelease(lock_id)
        if n_phases > 1 and phase < n_phases - 1:
            yield BarrierWait(phase)
    if spec.final_barrier:
        yield BarrierWait(n_phases)


def _mem_access(spec: BenchmarkSpec, rng: random.Random, private, shared,
                cold, stream, tid: int):
    """One memory access according to the spec's mix.

    A plain function (not a generator): the thread body yields the
    returned op directly, avoiding one generator object and a ``yield
    from`` frame per memory access on the synthesis hot path.  The RNG
    draw order is part of the workload definition and must not change.
    """
    if stream is not None and rng.random() < spec.stream_fraction:
        if rng.random() < spec.stream_produce_fraction:
            return Store(stream.produce_addr(), PC_WORK_STORE)
        addr = stream.consume_addr()
        if addr is None:
            return Store(stream.produce_addr(), PC_WORK_STORE)
        return Load(addr, PC_WORK_LOAD)
    if shared is not None and rng.random() < spec.shared_fraction:
        addr = shared.next_addr()
        if rng.random() < spec.shared_store_fraction:
            return Store(addr, PC_WORK_STORE)
        return Load(addr, PC_WORK_LOAD)
    if cold is not None and rng.random() < spec.cold_fraction:
        dependent = (
            spec.dependent_fraction > 0
            and rng.random() < spec.dependent_fraction
        )
        return Load(
            cold.next_addr(), PC_WORK_LOAD,
            overlappable=not dependent, dependent=dependent,
        )
    addr = private.next_addr()
    if rng.random() < spec.store_fraction:
        if (
            spec.false_sharing_fraction > 0
            and rng.random() < spec.false_sharing_fraction
        ):
            # own word of a hot shared line: pure coherency ping-pong
            line = rng.randrange(spec.false_sharing_lines)
            addr = FALSE_SHARING_BASE + line * g.LINE + (tid % 8) * 8
        return Store(addr, PC_WORK_STORE)
    dependent = (
        spec.dependent_fraction > 0
        and rng.random() < spec.dependent_fraction
    )
    return Load(
        addr, PC_WORK_LOAD, overlappable=not dependent, dependent=dependent
    )
