"""Checkpointable simulation kernel: save/restore, crash-resume, and
mid-run stack inspection.

Built on the :class:`~repro.components.protocols.Snapshotable` protocol
(``state_dict()`` / ``load_state_dict()``) that every stateful layer of
the simulator implements, this package provides:

* :mod:`repro.checkpoint.format` — the versioned two-line on-disk
  format, guarded by a schema version and a config hash;
* :mod:`repro.checkpoint.policy` — :class:`CheckpointPolicy` (every-N
  cycles / on-watchdog / on-fault) and the engine-facing
  :class:`CheckpointHook`;
* :mod:`repro.checkpoint.resume` — cell descriptors and
  :func:`resume_simulation`, which rebuilds a live run from a file;
* :mod:`repro.checkpoint.inspect` — :func:`inspect_checkpoint`, the
  partial speedup stack of a saved run.

The keystone invariant — locked by ``tests/checkpoint/`` — is that for
any checkpoint cycle C, running to completion and save-at-C → load →
continue produce byte-identical stacks, journals and metrics, under
every registered policy and under injected faults.
"""

from repro.checkpoint.format import (
    SCHEMA_VERSION,
    config_hash,
    load_checkpoint,
    read_header,
    save_checkpoint,
)
from repro.checkpoint.inspect import CheckpointReport, inspect_checkpoint
from repro.checkpoint.policy import CheckpointHook, CheckpointPolicy
from repro.checkpoint.resume import (
    cell_descriptor,
    descriptor_diff,
    fault_descriptor,
    replay_fault,
    resume_simulation,
)

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointHook",
    "CheckpointPolicy",
    "CheckpointReport",
    "cell_descriptor",
    "config_hash",
    "descriptor_diff",
    "fault_descriptor",
    "inspect_checkpoint",
    "load_checkpoint",
    "read_header",
    "replay_fault",
    "resume_simulation",
    "save_checkpoint",
]
