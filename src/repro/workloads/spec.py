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

#: base of the lines critical sections store to, eight per lock
CS_DATA_BASE = g.SHARED_BASE + 0x100_0000

#: the shared region's hot set: this share of shared accesses goes to
#: its first ``SHARED_HOT_LINES`` lines, which every thread reuses (the
#: rest sweep the whole region)
SHARED_HOT_FRACTION = 0.6
SHARED_HOT_LINES = 512


class _Computes(dict):
    """``Compute(n)`` by ``n``, each built on first use: nothing mutates
    an op, so a body can yield one object many times."""

    def __missing__(self, n: int) -> Compute:
        op = self[n] = Compute(n)
        return op


def _region_lines(size_bytes: int, what: str) -> int:
    if size_bytes < g.LINE:
        raise ValueError(f"{what} smaller than one cache line")
    return size_bytes // g.LINE


def _thread_body(spec: BenchmarkSpec, tid: int, n_threads: int):
    """Generator of one thread's dynamic instruction stream.

    Blocks of :data:`BLOCK_INSTRS` instructions interleave compute with
    the spec's memory accesses, then run the critical sections the
    block owes; barriers separate the phases.  Each memory access draws
    from the thread's RNG in a fixed order: the producer-consumer
    stream, the shared region, the cold region or the private working
    set; in a region, a strided or a random line; then a store or a
    load, a falsely-shared word, a dependent load.  That order is part
    of the workload's definition, and ``tests/workloads/test_spec.py``
    pins the resulting ops one by one.

    This runs once per op of every simulated thread, so it is one flat
    loop over locals.  A random line is the rejection loop CPython's
    ``randrange(n)`` runs over ``getrandbits``, written out; the rare
    stream and false-sharing picks call ``randrange`` itself.
    """
    line_bytes = g.LINE
    rng = random.Random(g.seed_for(spec.full_name, tid))
    random_ = rng.random
    getrandbits = rng.getrandbits
    randrange = rng.randrange
    load, store = Load, Store
    pc_load, pc_store = PC_WORK_LOAD, PC_WORK_STORE
    store_fraction = spec.store_fraction
    has_dependent = spec.dependent_fraction > 0
    dependent_fraction = spec.dependent_fraction
    has_false_sharing = spec.false_sharing_fraction > 0
    false_sharing_fraction = spec.false_sharing_fraction
    false_sharing_lines = spec.false_sharing_lines
    false_sharing_word = FALSE_SHARING_BASE + (tid % 8) * 8

    # private working set: a stride that wraps, or a random line
    p_base = g.private_base(tid)
    p_size = spec.private_ws_kb * 1024
    p_lines = _region_lines(p_size, "region")
    p_bits = p_lines.bit_length()
    p_stride_fraction = spec.stride_fraction
    p_stride = spec.stride_bytes
    p_cursor = 0
    # shared region: a random line of its hot set, or of all of it
    use_shared = spec.shared_ws_kb > 0 and spec.shared_fraction > 0
    shared_fraction = spec.shared_fraction
    shared_store_fraction = spec.shared_store_fraction
    shared_base = g.SHARED_BASE
    if use_shared:
        s_lines = _region_lines(spec.shared_ws_kb * 1024, "shared region")
        s_hot = min(SHARED_HOT_LINES, s_lines)
        s_bits = s_lines.bit_length()
        s_hot_bits = s_hot.bit_length()
    # producer-consumer stream: store a fresh line, or load one of the
    # last ``stream_window`` lines each thread produced
    use_stream = spec.stream_fraction > 0
    stream_fraction = spec.stream_fraction
    produce_fraction = spec.stream_produce_fraction
    window = spec.stream_window * n_threads
    produced = 0
    # cold region: like the private set, at a line stride
    use_cold = spec.cold_ws_kb > 0 and spec.cold_fraction > 0
    cold_fraction = spec.cold_fraction
    if use_cold:
        c_base = p_base + COLD_OFFSET
        c_size = spec.cold_ws_kb * 1024
        c_lines = _region_lines(c_size, "region")
        c_bits = c_lines.bit_length()
        c_stride_fraction = spec.cold_stride_fraction
        c_cursor = 0

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
    cs_debt = random_()
    cs_counter = 0
    computes = _Computes()

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
                yield computes[block]
            else:
                # a compute of ``step`` instructions before each of the
                # first ``lead`` accesses: all of them, or one each for
                # the first accesses of a block denser than that
                if compute_budget >= n_mem:
                    step, lead = compute_budget // n_mem, n_mem
                else:
                    step, lead = 1, compute_budget
                compute = computes[step]
                for index in range(n_mem):
                    if index < lead:
                        yield compute
                    if use_stream and random_() < stream_fraction:
                        if random_() < produce_fraction or not produced:
                            op = store(
                                STREAM_BASE
                                + (produced * n_threads + tid) * line_bytes,
                                pc_store,
                            )
                            produced += 1
                        else:
                            hi = produced * n_threads
                            lo = max(0, hi - window)
                            op = load(
                                STREAM_BASE + randrange(lo, hi) * line_bytes,
                                pc_load,
                            )
                    elif use_shared and random_() < shared_fraction:
                        if random_() < SHARED_HOT_FRACTION:
                            line = getrandbits(s_hot_bits)
                            while line >= s_hot:
                                line = getrandbits(s_hot_bits)
                        else:
                            line = getrandbits(s_bits)
                            while line >= s_lines:
                                line = getrandbits(s_bits)
                        addr = shared_base + line * line_bytes
                        if random_() < shared_store_fraction:
                            op = store(addr, pc_store)
                        else:
                            op = load(addr, pc_load)
                    elif use_cold and random_() < cold_fraction:
                        dependent = (
                            has_dependent and random_() < dependent_fraction
                        )
                        if random_() < c_stride_fraction:
                            addr = c_base + c_cursor
                            c_cursor = (c_cursor + line_bytes) % c_size
                        else:
                            line = getrandbits(c_bits)
                            while line >= c_lines:
                                line = getrandbits(c_bits)
                            addr = c_base + line * line_bytes
                        op = load(addr, pc_load, not dependent, dependent)
                    else:
                        if random_() < p_stride_fraction:
                            addr = p_base + p_cursor
                            p_cursor = (p_cursor + p_stride) % p_size
                        else:
                            line = getrandbits(p_bits)
                            while line >= p_lines:
                                line = getrandbits(p_bits)
                            addr = p_base + line * line_bytes
                        if random_() < store_fraction:
                            if (has_false_sharing
                                    and random_() < false_sharing_fraction):
                                # own word of a hot shared line: pure
                                # coherency ping-pong
                                addr = (
                                    false_sharing_word
                                    + randrange(false_sharing_lines)
                                    * line_bytes
                                )
                            op = store(addr, pc_store)
                        elif has_dependent and random_() < dependent_fraction:
                            op = load(addr, pc_load, False, True)
                        else:
                            op = load(addr, pc_load)
                    yield op
                if step * lead < compute_budget:
                    yield computes[compute_budget - step * lead]

            # Critical sections (locks exist in the 1-thread run too —
            # they are then uncontended, like the paper's parallel
            # fraction measured single-threaded).
            cs_debt += cs_per_block * (block / BLOCK_INSTRS)
            while cs_debt >= 1.0:
                cs_debt -= 1.0
                cs_counter += 1
                lock_id = g.round_robin_lock(tid, cs_counter, spec.n_locks)
                yield LockAcquire(lock_id)
                yield computes[spec.cs_len_instrs]
                for store_idx in range(spec.cs_stores):
                    yield store(
                        CS_DATA_BASE + (lock_id * 8 + store_idx) * line_bytes,
                        pc_store,
                    )
                yield LockRelease(lock_id)
        if n_phases > 1 and phase < n_phases - 1:
            yield BarrierWait(phase)
    if spec.final_barrier:
        yield BarrierWait(n_phases)
