"""Steppable simulation kernel and interactive sessions.

Layering (see ``docs/architecture.md``)::

    repro session CLI / SessionShell      repl.py
        │
    Session  — step/peek/perturb facade   session.py
        │
    SimulationKernel — run lifecycle      kernel.py
        │
    Simulation                            repro.sim

:class:`SimulationKernel` hosts *every* run path — ``run_accounted``,
``run_experiment`` and the batch runner all drive their simulations
through it — while :class:`Session` adds the interactive layer on top:
partial stacks, snapshot/restore, and step-boundary perturbations.
"""

from repro.session.kernel import SimulationKernel
from repro.session.repl import SessionShell
from repro.session.session import (
    PERTURBATION_KINDS,
    SWAPPABLE_KINDS,
    Session,
)

__all__ = [
    "PERTURBATION_KINDS",
    "SWAPPABLE_KINDS",
    "Session",
    "SessionShell",
    "SimulationKernel",
]
