"""Canned experiments: one driver per table/figure of the paper.

Each function reproduces the data behind one artifact of the
evaluation:

* :func:`speedup_curves`            — Figure 1 (and Figure 5's inputs)
* :func:`validation_sweep`          — Figure 4 + the error-per-thread-count
                                      numbers quoted in Section 6
* :func:`stack_series`              — Figure 5
* :func:`classification_tree`       — Figure 6
* :func:`ferret_core_sweep`         — Figure 7
* :func:`interference_breakdown`    — Figure 8
* :func:`llc_size_sweep`            — Figure 9

All drivers share an :class:`ExperimentCache` so that e.g. the Figure 4
sweep reuses the Figure 1 runs.  ``scale`` shrinks the workloads
uniformly (used by the test suite; the benches run at scale 1).
"""

from __future__ import annotations

import logging
import os
from dataclasses import dataclass, field

from repro.config import MB, ExperimentConfig, MachineConfig, RunConfig
from repro.core.analysis import (
    LlcInterference,
    LlcSizeSweepPoint,
    llc_interference,
)
from repro.core.classification import ClassificationTree, classify_stack
from repro.core.stack import SpeedupStack
from repro.core.validation import ValidationRow, errors_by_thread_count
from repro.experiments.runner import (
    CellResult,
    ReferenceMemo,
    finish_experiment,
    open_cell,
)
from repro.sim.engine import Simulation
from repro.workloads.pipeline import build_pipeline_program
from repro.workloads.spec import BenchmarkSpec
from repro.workloads.suite import FIG5_BENCHMARKS, FIG8_BENCHMARKS, SUITE, by_name

logger = logging.getLogger(__name__)

THREAD_COUNTS = (2, 4, 8, 16)
FIG9_LLC_SIZES = (2 * MB, 4 * MB, 8 * MB, 16 * MB)


def default_scale() -> float:
    """Workload scale factor, overridable via ``REPRO_SCALE``."""
    return float(os.environ.get("REPRO_SCALE", "1.0"))


@dataclass
class ExperimentCache:
    """Memoizes experiment runs within one process.

    ``machine`` (when set) is the base machine every run derives from by
    re-coring — the way an :class:`~repro.config.ExperimentConfig`'s
    machine reaches the figure drivers.  ``None`` keeps the historical
    default of a fresh paper-default machine per thread count.

    Results are stored as :class:`~repro.experiments.runner.CellResult`
    records, without their simulated machine: the figures read stacks
    and instruction counts only.
    """

    scale: float = 1.0
    machine: MachineConfig | None = None
    _results: dict[tuple, CellResult] = field(default_factory=dict)
    _references: ReferenceMemo = field(default_factory=ReferenceMemo)

    @classmethod
    def from_experiment(cls, experiment: ExperimentConfig) -> "ExperimentCache":
        """Cache whose runs use the experiment's machine and scale."""
        return cls(scale=experiment.workload.scale, machine=experiment.machine)

    def reference_cycles(
        self, spec: BenchmarkSpec, machine: MachineConfig
    ) -> int:
        """Single-threaded execution time Ts (cached per spec+machine)."""
        return self._references.get(spec, self.scale, machine).total_cycles

    def run(
        self,
        spec: BenchmarkSpec,
        n_threads: int,
        machine: MachineConfig | None = None,
    ) -> CellResult:
        """Accounted N-thread run + reference, cached."""
        if machine is None:
            machine = (
                self.machine.with_cores(n_threads)
                if self.machine is not None
                else MachineConfig(n_cores=n_threads)
            )
        key = (spec.full_name, n_threads, machine, self.scale)
        if key not in self._results:
            logger.info("accounted run: %s n=%d", spec.full_name, n_threads)
            st_result = self._references.get(spec, self.scale, machine)
            cell = open_cell(machine, spec, n_threads, self.scale, RunConfig())
            self._results[key] = CellResult.of(finish_experiment(
                spec.full_name, cell.kernel, st_result
            ))
        return self._results[key]


# ----------------------------------------------------------------------
# Figure 1 — speedup curves
# ----------------------------------------------------------------------

def speedup_curves(
    cache: ExperimentCache,
    benchmarks: tuple[str, ...] = FIG5_BENCHMARKS,
    thread_counts: tuple[int, ...] = THREAD_COUNTS,
) -> dict[str, dict[int, float]]:
    """Measured speedup as a function of thread count (speedup is 1.0
    at one thread by definition)."""
    curves: dict[str, dict[int, float]] = {}
    for name in benchmarks:
        spec = by_name(name)
        curve: dict[int, float] = {1: 1.0}
        for n in thread_counts:
            result = cache.run(spec, n)
            assert result.stack.actual_speedup is not None
            curve[n] = result.stack.actual_speedup
        curves[name] = curve
    return curves


# ----------------------------------------------------------------------
# Figure 4 — validation of estimated vs actual speedup
# ----------------------------------------------------------------------

@dataclass
class ValidationSummary:
    rows: list[ValidationRow]
    #: mean absolute error per thread count (fractions of N)
    error_by_threads: dict[int, float]
    #: parallelization overhead per benchmark (Section 6 discussion)
    overheads: dict[str, float]


def validation_sweep(
    cache: ExperimentCache,
    specs: tuple[BenchmarkSpec, ...] = SUITE,
    thread_counts: tuple[int, ...] = THREAD_COUNTS,
) -> ValidationSummary:
    """Actual vs estimated speedup for every benchmark and thread count."""
    rows: list[ValidationRow] = []
    overheads: dict[str, float] = {}
    for spec in specs:
        for n in thread_counts:
            result = cache.run(spec, n)
            stack = result.stack
            assert stack.actual_speedup is not None
            rows.append(
                ValidationRow(
                    name=spec.full_name,
                    n_threads=n,
                    actual_speedup=stack.actual_speedup,
                    estimated_speedup=stack.estimated_speedup,
                )
            )
            if n == max(thread_counts):
                # Overhead proxy: MT instructions minus spin instructions
                # versus the single-threaded program's instruction count
                # (Section 6's parallelization-overhead estimate).
                overhead = result.parallelization_overhead
                if overhead is not None:
                    overheads[spec.full_name] = overhead
    return ValidationSummary(
        rows=rows,
        error_by_threads=errors_by_thread_count(rows),
        overheads=overheads,
    )


# ----------------------------------------------------------------------
# Figure 5 — speedup stacks per thread count
# ----------------------------------------------------------------------

def stack_series(
    cache: ExperimentCache,
    benchmark: str,
    thread_counts: tuple[int, ...] = THREAD_COUNTS,
) -> list[SpeedupStack]:
    spec = by_name(benchmark)
    return [cache.run(spec, n).stack for n in thread_counts]


# ----------------------------------------------------------------------
# Figure 6 — classification tree
# ----------------------------------------------------------------------

def classification_tree(
    cache: ExperimentCache,
    specs: tuple[BenchmarkSpec, ...] = SUITE,
    n_threads: int = 16,
) -> ClassificationTree:
    tree = ClassificationTree()
    for spec in specs:
        result = cache.run(spec, n_threads)
        tree.add(classify_stack(result.stack, suite=spec.suite))
    return tree


# ----------------------------------------------------------------------
# Figure 7 — ferret: threads vs cores under oversubscription
# ----------------------------------------------------------------------

@dataclass
class CoreSweepPoint:
    n_cores: int
    n_threads: int
    speedup: float


def ferret_core_sweep(
    cache: ExperimentCache,
    core_counts: tuple[int, ...] = (2, 4, 8, 16),
    oversubscribed_threads: int = 16,
) -> tuple[list[CoreSweepPoint], list[CoreSweepPoint]]:
    """Speedups with threads == cores and with 16 threads on each core
    count (Figure 7).

    Uses the ferret *pipeline* program (dedicated serial-stage thread,
    bounded queue, heterogeneous item costs — see
    :mod:`repro.workloads.pipeline`): its structure, not a knob, is what
    produces the paper's observations that the 16-thread version
    saturates around 8 cores and that spawning more software threads
    than cores improves performance.  Oversubscribed runs have no
    speedup stack — the paper scopes scheduling effects out of the
    accounting — so raw simulations are used and speedup is measured
    against the same single-threaded reference.
    """
    n_items = max(10, int(100 * cache.scale))
    ts = Simulation(
        MachineConfig(n_cores=1), build_pipeline_program(1, n_items=n_items)
    ).run().total_cycles
    matched: list[CoreSweepPoint] = []
    oversubscribed: list[CoreSweepPoint] = []
    for n_cores in core_counts:
        machine = MachineConfig(n_cores=n_cores)
        tp = Simulation(
            machine, build_pipeline_program(n_cores, n_items=n_items)
        ).run().total_cycles
        matched.append(CoreSweepPoint(n_cores, n_cores, ts / tp))
        tp = Simulation(
            machine,
            build_pipeline_program(oversubscribed_threads, n_items=n_items),
        ).run().total_cycles
        oversubscribed.append(
            CoreSweepPoint(n_cores, oversubscribed_threads, ts / tp)
        )
    return matched, oversubscribed


# ----------------------------------------------------------------------
# Figure 8 — negative/positive/net LLC interference per benchmark
# ----------------------------------------------------------------------

def interference_breakdown(
    cache: ExperimentCache,
    benchmarks: tuple[str, ...] = FIG8_BENCHMARKS,
    n_threads: int = 16,
) -> list[LlcInterference]:
    return [
        llc_interference(cache.run(by_name(name), n_threads).stack)
        for name in benchmarks
    ]


# ----------------------------------------------------------------------
# Figure 9 — cholesky LLC interference vs LLC size
# ----------------------------------------------------------------------

def llc_size_sweep(
    cache: ExperimentCache,
    benchmark: str = "cholesky",
    llc_sizes: tuple[int, ...] = FIG9_LLC_SIZES,
    n_threads: int = 16,
) -> list[LlcSizeSweepPoint]:
    spec = by_name(benchmark)
    points = []
    for size in llc_sizes:
        machine = MachineConfig(n_cores=n_threads).with_llc_size(size)
        result = cache.run(spec, n_threads, machine)
        points.append(
            LlcSizeSweepPoint(
                llc_bytes=size,
                interference=llc_interference(
                    result.stack, name=f"{benchmark}@{size // MB}MB"
                ),
            )
        )
    return points
