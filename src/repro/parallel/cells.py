"""The sweep cell as plain data: what crosses the process boundary.

A :class:`CellSpec` describes one (benchmark, thread-count) experiment
well enough for any process to run it.  It is plain frozen data: no
live generators, no closures, no open handles — the property the work
queue relies on to run a cell in any worker process, local or remote.
What comes back is the cell's
:class:`~repro.experiments.runner.CellOutcome`, as
:mod:`repro.parallel.transport` encodes it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.config import MachineConfig, machine_from_dict, machine_to_dict
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
