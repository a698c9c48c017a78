"""Descriptors and crash-resume: rebuild a live Simulation from disk.

A checkpoint is only as good as the guarantee that it resumes *the
same* experiment.  The **cell descriptor** captures everything the
rebuilt run depends on:

* the machine config (pre-fault — the fault is replayed on resume),
* the benchmark name, thread count and problem scale,
* the armed fault (kind + seed + how many times the injector has been
  applied: the injector's RNG advances per application, so attempt 3
  of a retried cell runs a *different* program than attempt 1),
* the watchdog limits.

Its hash is stamped into the header at save time and checked at load
time, so a checkpoint refuses to resume under a different
:class:`~repro.config.ExperimentConfig`.

:func:`resume_simulation` then rebuilds the machine and program
deterministically (thread bodies are Python generators — they cannot
be serialized, only re-derived), replays the fault to the recorded
application count, constructs a fresh :class:`Simulation` with (when
the payload carries accounting state) a fresh accountant, and restores
the whole state tree onto it.  Calling ``run()`` on the result
continues exactly where the save left off.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.accounting.accountant import CycleAccountant
from repro.accounting.interface import NULL_ACCOUNTANT
from repro.checkpoint.format import load_checkpoint
from repro.config import MachineConfig, machine_from_dict, machine_to_dict
from repro.errors import CheckpointError
from repro.robustness.faults import make_fault
from repro.sim.engine import Simulation
from repro.workloads.spec import BenchmarkSpec, build_program


def fault_descriptor(kind: str, seed: int, applications: int) -> dict[str, Any]:
    """Descriptor entry for a string-kind fault armed on the cell.

    ``applications`` is the attempt number: how many times the
    injector built by ``make_fault(kind, seed)`` has been applied
    (including the application that produced the checkpointed run).
    """
    return {"kind": kind, "seed": seed, "applications": applications}


def cell_descriptor(
    machine: MachineConfig,
    benchmark: str,
    n_threads: int,
    scale: float,
    *,
    fault: dict[str, Any] | None = None,
    max_cycles: int | None = None,
    livelock_window: int | None = None,
) -> dict[str, Any]:
    """The config-hash identity of one (benchmark, N) run.

    ``machine`` is the *pre-fault* machine; a machine-transforming
    fault (e.g. ``mem-spike``) is described by ``fault`` and replayed
    on resume.
    """
    return {
        "machine": machine_to_dict(machine),
        "benchmark": benchmark,
        "n_threads": n_threads,
        "scale": scale,
        "fault": fault,
        "max_cycles": max_cycles,
        "livelock_window": livelock_window,
    }


def descriptor_diff(
    expected: dict[str, Any], actual: dict[str, Any], prefix: str = ""
) -> list[str]:
    """Human-readable field-level differences between two descriptors.

    The config hash tells you *that* a checkpoint belongs to a
    different experiment; this tells you *where* — one
    ``"path: checkpoint X, config Y"`` line per mismatched leaf, nested
    dicts flattened to dotted paths.  Used by
    :meth:`repro.session.Session.from_checkpoint` to turn the raw hash
    refusal into a :class:`~repro.errors.ConfigError` naming the
    fields.
    """
    diffs: list[str] = []
    for key in sorted(set(expected) | set(actual)):
        path = f"{prefix}{key}"
        if key not in expected:
            diffs.append(f"{path}: checkpoint {actual[key]!r}, "
                         "config <absent>")
        elif key not in actual:
            diffs.append(f"{path}: checkpoint <absent>, "
                         f"config {expected[key]!r}")
        elif isinstance(expected[key], dict) and isinstance(actual[key], dict):
            diffs.extend(
                descriptor_diff(expected[key], actual[key], f"{path}.")
            )
        elif expected[key] != actual[key]:
            diffs.append(
                f"{path}: checkpoint {actual[key]!r}, "
                f"config {expected[key]!r}"
            )
    return diffs


def _replay_fault(
    descriptor: dict[str, Any],
    fault_desc: dict[str, Any],
    program,
    machine: MachineConfig,
    spec: BenchmarkSpec,
):
    """Apply the descriptor's fault at the recorded application count.

    The injector RNG draws once (or more) per application, so earlier
    applications are burned on throwaway programs — cheap, because the
    program transforms are lazy generators that are never iterated.
    """
    if "kind" not in fault_desc:
        raise CheckpointError(
            "checkpoint was saved with an opaque (non-descriptor) fault; "
            "it cannot be rebuilt for resume"
        )
    fault = make_fault(fault_desc["kind"], fault_desc.get("seed", 0))
    for _ in range(fault_desc.get("applications", 1) - 1):
        throwaway = build_program(
            spec, descriptor["n_threads"], scale=descriptor["scale"]
        )
        fault(throwaway, machine)
    return fault(program, machine)


def resume_simulation(
    path: str | Path,
    *,
    spec: BenchmarkSpec | None = None,
    expected_descriptor: dict[str, Any] | None = None,
    bus=None,
) -> tuple[Simulation, dict[str, Any]]:
    """Rebuild a restored, ready-to-``run()`` Simulation from a file.

    ``spec`` overrides benchmark lookup for programs that are not part
    of the built-in suite (the spec must describe the same workload the
    checkpoint was saved from — the op-replay cursor check catches
    divergence, but only coarsely).  ``expected_descriptor`` adds the
    config-hash refusal on top of the schema check.

    Returns ``(simulation, header)``.
    """
    header, state = load_checkpoint(
        path, expected_descriptor=expected_descriptor
    )
    descriptor = header["descriptor"]
    machine = machine_from_dict(descriptor["machine"])
    if spec is None:
        from repro.workloads.suite import by_name

        spec = by_name(descriptor["benchmark"])
    program = build_program(
        spec, descriptor["n_threads"], scale=descriptor["scale"]
    )
    fault_desc = descriptor.get("fault")
    if fault_desc is not None:
        program, machine = _replay_fault(
            descriptor, fault_desc, program, machine, spec
        )
    accountant = (
        CycleAccountant(machine, bus=bus)
        if "accountant" in state
        else NULL_ACCOUNTANT
    )
    sim = Simulation(machine, program, accountant, bus=bus)
    sim.load_state_dict(state)
    return sim, header
