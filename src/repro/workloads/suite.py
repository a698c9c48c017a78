"""The benchmark suite: 28 synthetic stand-ins for the paper's
SPLASH-2 / PARSEC / Rodinia benchmarks (one per row of Figure 6).

Each spec's knobs are chosen so that, on the simulated 16-core CMP, the
benchmark reproduces its row of Figure 6: the scaling class (good ≥ 10x,
poor < 5x, moderate in between), the ranked scaling delimiters, and
approximately the reported 16-thread speedup.  ``target_speedup_16`` and
``expected_top`` record the paper's values; they are *reference
metadata* used by the benches and tests, not inputs to the synthesis.

Mechanism notes (how each Figure 6 behaviour is realised):

* *yielding-dominant pipeline benchmarks* (ferret, dedup, freqmine,
  bodytrack, swaptions_small, water-nsquared, fluidanimate, facesim):
  a serialized section guarded by one lock with long critical sections;
  waiters exceed the spin budget and yield, so "only a few threads are
  active at a time" (Section 7.2);
* *yielding-dominant data-parallel benchmarks* (heartwall, lud, lu.*,
  srad, bfs, needle, fft, radix): barrier phases with skewed per-phase
  work; early arrivals yield at the barrier (the paper classifies
  barrier imbalance as synchronization, Section 4.6);
* *cache components*: a per-thread cold region that fits a private LLC
  (the ATD counterfactual) but is recycled out of the shared LLC by the
  other threads — inter-thread misses;
* *memory components*: streaming beyond any LLC (misses in both the
  shared LLC and the private counterfactual) so the cost is bus/bank/
  page contention, not extra misses;
* *positive interference* (cholesky, lu.*, canneal, bfs, needle):
  a shared region read by all threads under enough capacity pressure
  that it keeps being refetched by one thread and reused by the rest;
* *parallelization overhead*: extra per-thread instructions in
  multi-threaded mode; the paper reports ~26% for swaptions_small and
  ~18% for fluidanimate_medium (Section 6) and deliberately does not
  account them, which surfaces as estimation error.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.workloads.spec import BenchmarkSpec

GOOD = "good"
MODERATE = "moderate"
POOR = "poor"


def _pipeline(name, suite, input_class, s16, cpk, kinstr, *,
              par_overhead=0.02, mem=90, ws=64, cs_len=1600,
              expected=("yielding",), expected_class=POOR, **kw):
    """Serialized-section benchmark (yield-dominant).

    Uses FIFO direct-handoff locks: waiters queue up and the lock is
    passed in order, like the bounded queues between pipeline stages in
    dedup/ferret; ``cpk`` is critical sections per 1000 instructions.
    """
    return BenchmarkSpec(
        name=name, suite=suite, input_class=input_class,
        total_kinstrs=kinstr, mem_per_kinstr=mem, private_ws_kb=ws,
        n_locks=1, lock_fifo=True, cs_per_kinstr=cpk,
        cs_len_instrs=cs_len, par_overhead=par_overhead,
        target_speedup_16=s16, expected_class=expected_class,
        expected_top=expected, **kw)


def _phased(name, suite, input_class, s16, n_phases, imbalance, kinstr, *,
            par_overhead=0.02, mem=80, ws=64, expected=("yielding",),
            expected_class=MODERATE, **kw):
    """Barrier-phase benchmark with work skew (yield-dominant)."""
    return BenchmarkSpec(
        name=name, suite=suite, input_class=input_class,
        total_kinstrs=kinstr, mem_per_kinstr=mem, private_ws_kb=ws,
        n_phases=n_phases, imbalance=imbalance, par_overhead=par_overhead,
        target_speedup_16=s16, expected_class=expected_class,
        expected_top=expected, **kw)


SUITE: tuple[BenchmarkSpec, ...] = (
    # ----------------------------------------------------------- good
    BenchmarkSpec(
        name="blackscholes", suite="parsec", input_class="medium",
        total_kinstrs=960, mem_per_kinstr=60, private_ws_kb=48,
        par_overhead=0.005,
        target_speedup_16=15.94, expected_class=GOOD, expected_top=()),
    BenchmarkSpec(
        name="blackscholes", suite="parsec", input_class="small",
        total_kinstrs=640, mem_per_kinstr=60, private_ws_kb=48,
        par_overhead=0.008,
        target_speedup_16=15.71, expected_class=GOOD, expected_top=()),
    _phased("radix", "splash2", "", 11.60, 2, 0.04, 900,
            mem=150, ws=64, cold_ws_kb=4096, cold_fraction=0.007,
            stride_bytes=8, par_overhead=0.01,
            expected=("memory", "yielding"), expected_class=GOOD),
    BenchmarkSpec(
        name="swaptions", suite="parsec", input_class="medium",
        total_kinstrs=1600, mem_per_kinstr=90, private_ws_kb=64,
        n_locks=1, cs_per_kinstr=0.15, cs_len_instrs=400,
        par_overhead=0.04,
        target_speedup_16=12.99, expected_class=GOOD,
        expected_top=("yielding",)),
    _phased("heartwall", "rodinia", "", 10.39, 6, 0.19, 900,
            expected=("yielding",), expected_class=GOOD),
    # ------------------------------------------------------- moderate
    _phased("srad", "rodinia", "", 5.20, 4, 0.33, 800,
            mem=160, cold_ws_kb=2560, cold_fraction=0.022, stride_bytes=8,
            cold_stride_fraction=0.75,
            expected=("memory", "yielding", "cache")),
    BenchmarkSpec(
        name="cholesky", suite="splash2", input_class="",
        total_kinstrs=700, mem_per_kinstr=80, private_ws_kb=64,
        shared_ws_kb=1408, shared_fraction=0.045, stream_fraction=0.008,
        n_locks=2, cs_per_kinstr=1.6, cs_len_instrs=90, par_overhead=0.02,
        spin_threshold=220, n_phases=4, imbalance=0.15,
        target_speedup_16=5.02, expected_class=MODERATE,
        expected_top=("spinning", "yielding", "memory")),
    _phased("lud", "rodinia", "", 5.77, 10, 0.75, 800,
            expected=("yielding",)),
    _pipeline("water-nsquared", "splash2", "", 5.77, 0.046, 1200,
              mem=90, ws=96, expected=("yielding",),
              expected_class=MODERATE),
    _pipeline("fluidanimate", "parsec", "medium", 5.71, 0.038, 1200,
              par_overhead=0.18, expected=("yielding",),
              expected_class=MODERATE),
    _phased("lu.ncont", "splash2", "", 5.53, 8, 0.28, 800,
            shared_ws_kb=768, shared_fraction=0.035, stream_fraction=0.0015,
            cold_ws_kb=768, cold_fraction=0.012, stride_bytes=8,
            cold_stride_fraction=0.3,
            expected=("yielding",)),
    _phased("lu.cont", "splash2", "", 5.79, 8, 0.26, 800,
            shared_ws_kb=768, shared_fraction=0.035, stream_fraction=0.0015,
            cold_ws_kb=640, cold_fraction=0.011, stride_bytes=8,
            cold_stride_fraction=0.3,
            expected=("yielding",)),
    _pipeline("facesim", "parsec", "medium", 5.50, 0.040, 1200,
              mem=110, cold_ws_kb=1024, cold_fraction=0.009, stride_bytes=8,
              cold_stride_fraction=0.3,
              expected=("yielding", "cache", "memory"),
              expected_class=MODERATE),
    _pipeline("facesim", "parsec", "small", 5.46, 0.040, 1000,
              mem=110, cold_ws_kb=1024, cold_fraction=0.009, stride_bytes=8,
              cold_stride_fraction=0.3,
              expected=("yielding", "cache", "memory"),
              expected_class=MODERATE),
    _phased("fft", "splash2", "", 9.43, 3, 0.26, 900,
            mem=140, cold_ws_kb=4096, cold_fraction=0.008, stride_bytes=8,
            expected=("yielding", "memory")),
    BenchmarkSpec(
        name="canneal", suite="parsec", input_class="medium",
        total_kinstrs=1200, mem_per_kinstr=110, private_ws_kb=64,
        shared_ws_kb=1152, shared_fraction=0.09, dependent_fraction=0.30,
        stream_fraction=0.003,
        cold_ws_kb=3072, cold_fraction=0.005,
        n_locks=1, lock_fifo=True, cs_per_kinstr=0.042,
        cs_len_instrs=1600, par_overhead=0.02,
        target_speedup_16=7.61, expected_class=MODERATE,
        expected_top=("yielding", "memory")),
    BenchmarkSpec(
        name="canneal", suite="parsec", input_class="small",
        total_kinstrs=800, mem_per_kinstr=110, private_ws_kb=64,
        shared_ws_kb=1024, shared_fraction=0.11, dependent_fraction=0.30,
        stream_fraction=0.003,
        cold_ws_kb=2560, cold_fraction=0.008,
        n_locks=1, lock_fifo=True, cs_per_kinstr=0.050,
        cs_len_instrs=1600, par_overhead=0.02,
        target_speedup_16=6.93, expected_class=MODERATE,
        expected_top=("yielding", "memory")),
    _phased("bfs", "rodinia", "", 5.65, 12, 0.60, 800,
            mem=130, shared_ws_kb=1152, shared_fraction=0.20,
            stream_fraction=0.003,
            dependent_fraction=0.20,
            expected=("yielding", "memory")),
    # ----------------------------------------------------------- poor
    _pipeline("ferret", "parsec", "medium", 4.77, 0.059, 1400,
              expected=("yielding",)),
    _pipeline("water-spatial", "splash2", "", 4.57, 0.062, 1200,
              expected=("yielding",)),
    _pipeline("dedup", "parsec", "medium", 4.12, 0.067, 1400,
              expected=("yielding",)),
    _pipeline("freqmine", "parsec", "small", 4.09, 0.067, 1000,
              expected=("yielding",)),
    _pipeline("freqmine", "parsec", "medium", 3.89, 0.071, 1600,
              expected=("yielding",)),
    _pipeline("swaptions", "parsec", "small", 3.81, 0.062, 1000,
              par_overhead=0.26, expected=("yielding",)),
    _pipeline("dedup", "parsec", "small", 3.56, 0.076, 1000,
              expected=("yielding",)),
    _pipeline("bodytrack", "parsec", "small", 3.02, 0.092, 1000,
              expected=("yielding",)),
    _pipeline("ferret", "parsec", "small", 2.94, 0.096, 1000,
              expected=("yielding",)),
    _phased("needle", "rodinia", "", 4.14, 14, 0.60, 800,
            mem=120, shared_ws_kb=768, shared_fraction=0.15,
            stream_fraction=0.003,
            cold_ws_kb=768, cold_fraction=0.018, stride_bytes=8,
            expected=("yielding", "memory", "cache"),
            expected_class=POOR),
)


def by_name(full_name: str) -> BenchmarkSpec:
    """Look up a spec by its full name (e.g. ``facesim_medium``).

    Unknown names raise :class:`~repro.errors.ConfigError` with
    close-match suggestions and every valid name as ``choices``, so a
    typo in a sweep config fails with an actionable message.
    """
    for spec in SUITE:
        if spec.full_name == full_name:
            return spec
    import difflib

    names = [spec.full_name for spec in SUITE]
    close = difflib.get_close_matches(full_name, names, n=3)
    hint = f" (did you mean: {', '.join(close)}?)" if close else ""
    raise ConfigError(
        f"unknown benchmark {full_name!r}{hint}",
        field="benchmark",
        choices=tuple(names),
    )


def sweep_cells(
    benchmarks: tuple[str, ...] | None = None,
    thread_counts: tuple[int, ...] = (16,),
) -> list[tuple[BenchmarkSpec, int]]:
    """Enumerate the (spec, N) cells of a suite sweep.

    ``benchmarks`` is a tuple of full names (default: the whole suite);
    every name is validated up front so a bad sweep config fails before
    any simulation time is spent.
    """
    if benchmarks is None:
        specs = list(SUITE)
    else:
        specs = [by_name(name) for name in benchmarks]
    for n in thread_counts:
        if n < 1:
            raise ValueError(f"thread count must be >= 1: {n}")
    return [(spec, n) for spec in specs for n in thread_counts]


#: The Figure 8 benchmarks (non-negligible positive LLC interference).
FIG8_BENCHMARKS: tuple[str, ...] = (
    "cholesky", "lu.cont", "canneal_small", "canneal_medium",
    "bfs", "lu.ncont", "needle",
)

#: Figure 1 / Figure 5 benchmarks.
FIG5_BENCHMARKS: tuple[str, ...] = (
    "blackscholes_medium", "facesim_medium", "cholesky",
)
