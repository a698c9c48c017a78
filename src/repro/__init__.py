"""repro — speedup stacks for multi-threaded applications.

A from-scratch reproduction of *"Speedup Stacks: Identifying Scaling
Bottlenecks in Multi-Threaded Applications"* (Eyerman, Du Bois,
Eeckhout — ISPASS 2012): a simulated chip-multiprocessor, the paper's
per-thread cycle-accounting hardware (ATDs, ORAs, spin detectors), the
speedup-stack analysis itself, a 28-benchmark synthetic workload suite
mirroring Figure 6, and drivers for every figure in the evaluation.

Quickstart::

    from repro import (
        MachineConfig, build_program, by_name, run_experiment, render_stack,
    )

    spec = by_name("facesim_medium")
    machine = MachineConfig(n_cores=16)
    result = run_experiment(
        spec.full_name, machine,
        build_program(spec, 16), build_program(spec, 1),
    )
    print(render_stack(result.stack))
"""

from repro import components
from repro._version import repro_version
from repro.accounting.accountant import CycleAccountant
from repro.accounting.hardware_cost import (
    HardwareCost,
    HardwareCostParams,
    estimate_cost,
)
from repro.accounting.report import AccountingReport, ThreadComponents
from repro.config import (
    KB,
    MB,
    ON_ERROR_MODES,
    AccountingConfig,
    CacheConfig,
    CoreConfig,
    DramConfig,
    ExperimentConfig,
    MachineConfig,
    RunConfig,
    SchedConfig,
    SyncConfig,
    WorkloadConfig,
    dump_config,
    load_config,
    machine_from_dict,
    machine_to_dict,
)
from repro.core.analysis import LlcInterference, llc_interference
from repro.core.cpi import CpiStack, cpi_stacks, render_cpi_stacks
from repro.core.classification import (
    ClassificationTree,
    ClassifiedBenchmark,
    classify_stack,
    scaling_class,
)
from repro.core.components import Component, STACK_ORDER
from repro.core.rendering import (
    render_interference,
    render_speedup_curve,
    render_stack,
    render_stack_series,
    render_tree,
    render_validation_table,
)
from repro.core.regions import (
    Region,
    RegionObserver,
    RegionResult,
    region_stacks,
    run_region_experiment,
)
from repro.core.stack import SpeedupStack, build_stack
from repro.core.whatif import (
    Opportunity,
    Projection,
    advice,
    optimization_opportunities,
    project,
    remove_component,
)
from repro.core.validation import (
    ValidationRow,
    errors_by_thread_count,
    mean_absolute_error,
    validation_row,
)
from repro.errors import (
    ConfigError,
    DeadlockError,
    ExperimentError,
    LivelockError,
    ReproError,
    SimulationError,
    TraceParseError,
)
from repro.experiments.multiprogram import (
    MultiProgramResult,
    ProgramSlowdown,
    render_multiprogram,
    run_multiprogram,
)
from repro.experiments.perthread import (
    PerThreadValidation,
    ThreadValidation,
    render_per_thread,
    validate_per_thread,
)
from repro.experiments.runner import (
    BatchRunner,
    CellOutcome,
    CellResult,
    ExperimentResult,
    SweepReport,
    accounted_snapshot,
    run_accounted,
    run_experiment,
    run_reference,
)
from repro.checkpoint import (
    CheckpointHook,
    CheckpointPolicy,
    CheckpointReport,
    cell_descriptor,
    inspect_checkpoint,
    load_checkpoint,
    read_header,
    resume_simulation,
    save_checkpoint,
)
from repro.observability import (
    EventBus,
    MetricsRegistry,
    ProgressReporter,
    TimelineRecorder,
    harvest_cell_metrics,
    trace_cell,
)
from repro.robustness import (
    EngineSnapshot,
    FaultInjector,
    SweepJournal,
    capture_snapshot,
    make_fault,
)
from repro.experiments.scenarios import (
    ExperimentCache,
    classification_tree,
    ferret_core_sweep,
    interference_breakdown,
    llc_size_sweep,
    speedup_curves,
    stack_series,
    validation_sweep,
)
from repro.session import Session, SessionShell, SimulationKernel
from repro.sim.engine import SimResult, Simulation, simulate
from repro.sim.partition import WayPartitionedCache, equal_quotas
from repro.sync.profile import (
    BarrierProfile,
    LockProfile,
    barrier_profiles,
    lock_profiles,
    render_sync_profile,
)
from repro.workloads.pipeline import build_pipeline_program
from repro.workloads.program import (
    BarrierWait,
    Compute,
    FutexWait,
    FutexWake,
    Load,
    LockAcquire,
    LockRelease,
    Program,
    Store,
    YieldCpu,
)
from repro.workloads.tracefile import (
    dump_program,
    dump_trace,
    load_trace,
    parse_trace,
)
from repro.workloads.spec import BenchmarkSpec, build_program
from repro.workloads.suite import (
    FIG5_BENCHMARKS,
    FIG8_BENCHMARKS,
    SUITE,
    by_name,
    sweep_cells,
)

__version__ = repro_version()

__all__ = [
    "accounted_snapshot",
    "AccountingConfig",
    "AccountingReport",
    "advice",
    "barrier_profiles",
    "BarrierProfile",
    "BarrierWait",
    "BatchRunner",
    "BenchmarkSpec",
    "build_pipeline_program",
    "build_program",
    "build_stack",
    "by_name",
    "CacheConfig",
    "capture_snapshot",
    "cell_descriptor",
    "CellOutcome",
    "CellResult",
    "CheckpointHook",
    "CheckpointPolicy",
    "CheckpointReport",
    "classification_tree",
    "components",
    "ClassificationTree",
    "ClassifiedBenchmark",
    "classify_stack",
    "Component",
    "Compute",
    "ConfigError",
    "CoreConfig",
    "cpi_stacks",
    "CpiStack",
    "CycleAccountant",
    "DeadlockError",
    "DramConfig",
    "dump_config",
    "dump_program",
    "dump_trace",
    "EngineSnapshot",
    "equal_quotas",
    "errors_by_thread_count",
    "estimate_cost",
    "EventBus",
    "ExperimentCache",
    "ExperimentConfig",
    "ExperimentError",
    "ExperimentResult",
    "FaultInjector",
    "ferret_core_sweep",
    "FIG5_BENCHMARKS",
    "FIG8_BENCHMARKS",
    "FutexWait",
    "FutexWake",
    "HardwareCost",
    "HardwareCostParams",
    "harvest_cell_metrics",
    "inspect_checkpoint",
    "interference_breakdown",
    "KB",
    "LivelockError",
    "llc_interference",
    "llc_size_sweep",
    "LlcInterference",
    "Load",
    "load_checkpoint",
    "load_config",
    "load_trace",
    "lock_profiles",
    "LockAcquire",
    "LockProfile",
    "LockRelease",
    "MachineConfig",
    "machine_from_dict",
    "machine_to_dict",
    "make_fault",
    "MB",
    "mean_absolute_error",
    "MetricsRegistry",
    "MultiProgramResult",
    "ON_ERROR_MODES",
    "Opportunity",
    "optimization_opportunities",
    "parse_trace",
    "PerThreadValidation",
    "Program",
    "ProgramSlowdown",
    "ProgressReporter",
    "project",
    "Projection",
    "read_header",
    "Region",
    "region_stacks",
    "RegionObserver",
    "RegionResult",
    "remove_component",
    "render_cpi_stacks",
    "render_interference",
    "render_multiprogram",
    "render_per_thread",
    "render_speedup_curve",
    "render_stack",
    "render_stack_series",
    "render_sync_profile",
    "render_tree",
    "render_validation_table",
    "repro_version",
    "ReproError",
    "resume_simulation",
    "run_accounted",
    "run_experiment",
    "run_multiprogram",
    "run_reference",
    "run_region_experiment",
    "RunConfig",
    "save_checkpoint",
    "scaling_class",
    "SchedConfig",
    "Session",
    "SessionShell",
    "SimResult",
    "simulate",
    "Simulation",
    "SimulationError",
    "SimulationKernel",
    "speedup_curves",
    "SpeedupStack",
    "STACK_ORDER",
    "stack_series",
    "Store",
    "SUITE",
    "sweep_cells",
    "SweepJournal",
    "SweepReport",
    "SyncConfig",
    "ThreadComponents",
    "ThreadValidation",
    "TimelineRecorder",
    "trace_cell",
    "TraceParseError",
    "validate_per_thread",
    "validation_row",
    "validation_sweep",
    "ValidationRow",
    "WayPartitionedCache",
    "WorkloadConfig",
    "YieldCpu",
]
