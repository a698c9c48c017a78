"""When to checkpoint: policy plus the engine-facing hook.

:class:`CheckpointPolicy` is a frozen description (serializable,
hashable) of the three triggers:

* ``every_cycles`` — periodic saves from the scheduling loop;
* ``on_watchdog`` — save the pre-truncation state when the engine
  watchdog fires (``max_cycles`` / ``livelock``), so a cut run can be
  resumed under a raised limit;
* ``on_fault`` — save on engine faults (deadlock and internal errors)
  before the error propagates.

:class:`CheckpointHook` binds a policy to a target path and a cell
descriptor and is what :meth:`repro.sim.engine.Simulation.run` consumes:
the engine calls ``due(now)`` once per scheduling step, ``save(sim,
"interval")`` when due, and routes watchdog/fault exits through
``wants(reason)``.  Saving serializes ``sim.state_dict()`` — which
never mutates the simulation — so an armed hook cannot perturb the
run's determinism.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.checkpoint.format import save_checkpoint

#: watchdog truncation reasons (covered by ``on_watchdog``)
WATCHDOG_REASONS = ("max_cycles", "livelock")
#: engine fault reasons (covered by ``on_fault``)
FAULT_REASONS = ("deadlock", "fault")


@dataclass(frozen=True)
class CheckpointPolicy:
    """Which events trigger a checkpoint save."""

    #: simulated cycles between periodic saves; None = no periodic saves
    every_cycles: int | None = None
    on_watchdog: bool = True
    on_fault: bool = False

    def __post_init__(self) -> None:
        if self.every_cycles is not None and self.every_cycles < 1:
            raise ValueError(
                f"every_cycles must be >= 1: {self.every_cycles}"
            )


class CheckpointHook:
    """One run's checkpoint target: path + descriptor + policy."""

    #: every save writes the simulation's state (a drain-only
    #: :class:`~repro.robustness.drain.DrainableHook` writes none, so
    #: the engine may still run ahead under it)
    saves_state = True

    def __init__(
        self,
        path: str | Path,
        descriptor: dict[str, Any],
        policy: CheckpointPolicy | None = None,
        start_cycle: int = 0,
    ) -> None:
        """``start_cycle`` is the cycle the run starts at: a run resumed
        from a checkpoint is next due as if it had just saved there."""
        self.path = Path(path)
        self.descriptor = descriptor
        self.policy = policy or CheckpointPolicy()
        self._next_due = self._due_after(start_cycle)
        #: saves performed so far (all reasons)
        self.n_saves = 0
        #: header of the most recent save (None until the first)
        self.last_header: dict[str, Any] | None = None

    def _due_after(self, cycle: int) -> int | None:
        """The first multiple of ``every_cycles`` past ``cycle`` (None:
        no periodic saves)."""
        every = self.policy.every_cycles
        return None if every is None else (cycle // every + 1) * every

    def due(self, now: int) -> bool:
        """Is a periodic save due at simulated time ``now``?"""
        return self._next_due is not None and now >= self._next_due

    def wants(self, reason: str) -> bool:
        """Does the policy cover an exit-path save for ``reason``?"""
        if reason in WATCHDOG_REASONS:
            return self.policy.on_watchdog
        if reason in FAULT_REASONS:
            return self.policy.on_fault
        return True

    def save(self, sim, reason: str) -> dict[str, Any]:
        """Serialize ``sim`` to the target path; returns the header."""
        cycle = max((core.now for core in sim.cores), default=0)
        header = save_checkpoint(
            self.path, sim.state_dict(), self.descriptor,
            cycle=cycle, reason=reason,
        )
        self._next_due = self._due_after(cycle)
        self.n_saves += 1
        self.last_header = header
        return header
