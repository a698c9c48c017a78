"""Picklable value objects crossing the sweep's process boundary.

A :class:`CellSpec` describes one (benchmark, thread-count) experiment
well enough for any process to run it; a :class:`CellResult` carries
everything its consumers (CLI, journal, differential tests) read back.
Both are plain frozen data: no live generators, no closures, no open
handles — the property the work queue relies on to run a cell in any
worker process, local or remote.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.accounting.report import AccountingReport
from repro.config import MachineConfig, machine_from_dict, machine_to_dict
from repro.core.stack import SpeedupStack
from repro.robustness.faults import FAULT_KINDS
from repro.workloads.spec import BenchmarkSpec

@dataclass(frozen=True)
class CellSpec:
    """Picklable description of one sweep cell.

    Carries the full :class:`BenchmarkSpec` (a frozen value object), not
    a name, so ad-hoc specs — test fixtures, scaled variants — work
    without a suite lookup in the worker.  Faults are carried by *kind*
    (a :data:`~repro.robustness.faults.FAULT_KINDS` name) plus seed and
    rebuilt inside the worker: fault callables close over RNG state and
    do not pickle.
    """

    spec: BenchmarkSpec
    n_threads: int
    scale: float = 1.0
    #: named fault injected into this cell (None = healthy cell)
    fault: str | None = None
    fault_seed: int = 0
    #: base machine as canonical JSON of its dict form (None = the
    #: paper-default machine).  A string rather than a MachineConfig so
    #: the cell stays hashable, pickles as plain data, and keys the
    #: worker-side cache layer directly.
    machine_json: str | None = None

    def __post_init__(self) -> None:
        if self.fault is not None and self.fault not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.fault!r}; "
                f"expected one of {FAULT_KINDS}"
            )

    @property
    def machine(self) -> MachineConfig | None:
        return (
            machine_from_dict(json.loads(self.machine_json))
            if self.machine_json is not None
            else None
        )

    @property
    def name(self) -> str:
        return self.spec.full_name

    @property
    def key(self) -> str:
        return f"{self.spec.full_name}:{self.n_threads}"


@dataclass(frozen=True)
class CellResult:
    """Outcome of one worker-executed cell.

    The engine-level :class:`~repro.sim.engine.SimResult` holds live
    generators and cannot cross a process boundary; this carries the
    derived values every consumer actually reads: the full
    :class:`SpeedupStack`, the per-thread :class:`AccountingReport`,
    and the instruction counts behind the parallelization-overhead
    metric.  Workers commit it to the queue as canonical JSON (see
    :mod:`repro.parallel.transport`), never as a pickled object graph.
    """

    name: str
    n_threads: int
    status: str
    attempts: int
    stack: SpeedupStack | None = None
    report: AccountingReport | None = None
    total_cycles: int = 0
    truncated: bool = False
    mt_instrs: int = 0
    mt_spin_instrs: int = 0
    st_instrs: int = 0
    error: str | None = None
    error_type: str | None = None
    snapshot: dict | None = None
    #: flat deterministic ``sim.*`` metrics harvested in the worker
    #: (None unless the sweep runs with metrics collection enabled);
    #: a plain dict of ints — the only metrics shape that journals
    #: byte-deterministically
    metrics: dict | None = None
    #: this cell's harness span rows (None unless span collection is
    #: enabled).  Wall-clock, so — unlike ``metrics`` — these are
    #: merged into the parent's SpanRecorder and **never** journaled.
    spans: list | None = None

    @property
    def key(self) -> str:
        return f"{self.name}:{self.n_threads}"

    @property
    def actual_speedup(self) -> float | None:
        return self.stack.actual_speedup if self.stack else None

    @property
    def estimated_speedup(self) -> float | None:
        return self.stack.estimated_speedup if self.stack else None

    @property
    def parallelization_overhead(self) -> float | None:
        """Same definition as
        :attr:`~repro.experiments.runner.ExperimentResult.parallelization_overhead`."""
        if self.st_instrs == 0:
            return None
        return (self.mt_instrs - self.mt_spin_instrs - self.st_instrs) / (
            self.st_instrs
        )


def cells_from_sweep(
    sweep: list[tuple[BenchmarkSpec, int]],
    scale: float = 1.0,
    fault_kinds: dict[str, str] | None = None,
    machine: MachineConfig | None = None,
) -> list[CellSpec]:
    """Adapt ``suite.sweep_cells`` output (and the CLI's fault-kind
    plan) to :class:`CellSpec` values.  ``machine`` (when given) is the
    base machine each worker re-cores per cell; ``None`` keeps the
    paper-default machine and produces byte-identical cells to older
    callers."""
    fault_kinds = fault_kinds or {}
    machine_json = (
        json.dumps(machine_to_dict(machine), sort_keys=True)
        if machine is not None
        else None
    )
    return [
        CellSpec(
            spec=spec,
            n_threads=n_threads,
            scale=scale,
            fault=fault_kinds.get(f"{spec.full_name}:{n_threads}"),
            machine_json=machine_json,
        )
        for spec, n_threads in sweep
    ]
