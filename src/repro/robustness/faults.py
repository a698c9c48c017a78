"""Deterministic fault injection.

A seeded :class:`FaultInjector` manufactures the pathologies the
robustness machinery must survive, so deadlock, livelock, parse-error
and memory-pressure paths can be exercised on demand (and
reproducibly — every decision comes from one ``random.Random(seed)``):

* :meth:`~FaultInjector.corrupt_trace` — mangle lines of a text trace
  so the parser's :class:`~repro.errors.TraceParseError` path fires;
* :meth:`~FaultInjector.drop_lock_releases` — silently swallow
  ``LockRelease`` ops, turning waiters into permanent blockers
  (:class:`~repro.errors.DeadlockError`);
* :meth:`~FaultInjector.spin_forever` — remove the spin budget so
  waiters never yield: with a dropped release this is a livelock (spin
  instructions retire, no forward progress);
* :meth:`~FaultInjector.skew_barrier_arrivals` — pad threads with
  extra compute before barrier waits (pathological imbalance);
* :meth:`~FaultInjector.spike_memory_latency` — scale the DRAM
  timings, modelling a saturated memory system.

:func:`make_fault` maps the CLI's ``--inject KIND@BENCH:N`` spellings
onto cell-level fault callables for the batch runner.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Callable

from repro.config import MachineConfig
from repro.errors import ConfigError
from repro.workloads.program import (
    Compute,
    Program,
    TAG_BARRIER_WAIT,
    TAG_LOCK_RELEASE,
)

#: A cell-level fault: transforms the (program, machine) pair of one
#: (benchmark, N) experiment cell before it runs.
CellFault = Callable[[Program, MachineConfig], tuple[Program, MachineConfig]]

#: spin budget that in practice never yields
_NEVER_YIELD = 1 << 60

FAULT_KINDS = (
    "deadlock", "livelock", "barrier-skew", "mem-spike",
)


class FaultInjector:
    """Seeded source of deterministic faults."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = random.Random(seed)

    # ------------------------------------------------------------------
    # trace corruption
    # ------------------------------------------------------------------

    def corrupt_trace(self, text: str, n_corruptions: int = 1) -> str:
        """Corrupt ``n_corruptions`` random op lines of a text trace.

        Corruption styles cover the parser's whole failure surface:
        bad integers, truncated lines, unknown ops/flags, and mangled
        thread tokens.
        """
        lines = text.splitlines()
        eligible = [
            i for i, line in enumerate(lines)
            if line.split("#", 1)[0].strip()
        ]
        if not eligible:
            return text
        for index in self.rng.sample(
            eligible, min(n_corruptions, len(eligible))
        ):
            lines[index] = self._corrupt_line(lines[index])
        return "\n".join(lines) + ("\n" if text.endswith("\n") else "")

    def _corrupt_line(self, line: str) -> str:
        tokens = line.split()
        style = self.rng.randrange(5)
        if style == 0 and len(tokens) >= 2:      # bad integer argument
            tokens[-1] = "0xNOT_A_NUMBER"
        elif style == 1:                         # truncate to the tid
            tokens = tokens[:1]
        elif style == 2 and len(tokens) >= 2:    # unknown op mnemonic
            tokens[1] = "FROBNICATE"
        elif style == 3:                         # mangled thread token
            tokens[0] = "Q" + tokens[0][1:]
        else:                                    # unknown trailing flag
            tokens.append("banana")
        return " ".join(tokens)

    # ------------------------------------------------------------------
    # program transforms
    # ------------------------------------------------------------------

    def drop_lock_releases(
        self, program: Program, fraction: float = 1.0
    ) -> Program:
        """Swallow each ``LockRelease`` with probability ``fraction``."""
        drop_rng = random.Random(self.rng.randrange(1 << 30))

        def transform(body, tid):
            for op in body:
                if (op.TAG == TAG_LOCK_RELEASE
                        and drop_rng.random() < fraction):
                    continue
                yield op

        return _rebuild(program, transform)

    def skew_barrier_arrivals(
        self,
        program: Program,
        extra_instrs: int = 50_000,
        fraction: float = 0.5,
    ) -> Program:
        """Insert up to ``extra_instrs`` of compute before each barrier
        wait of each thread with probability ``fraction``."""
        skew_rng = random.Random(self.rng.randrange(1 << 30))

        def transform(body, tid):
            for op in body:
                if (op.TAG == TAG_BARRIER_WAIT
                        and skew_rng.random() < fraction):
                    yield Compute(1 + skew_rng.randrange(extra_instrs))
                yield op

        return _rebuild(program, transform)

    def spin_forever(self, program: Program) -> Program:
        """Remove the spin budget: contended waiters never yield."""
        return _rebuild(
            program, lambda body, tid: body,
            spin_threshold_override=_NEVER_YIELD,
        )

    # ------------------------------------------------------------------
    # machine transforms
    # ------------------------------------------------------------------

    def spike_memory_latency(
        self, machine: MachineConfig, factor: int = 8
    ) -> MachineConfig:
        """Scale the DRAM timings by ``factor`` (saturated memory)."""
        dram = machine.dram
        return replace(
            machine,
            dram=replace(
                dram,
                bus_cycles=dram.bus_cycles * factor,
                t_cas=dram.t_cas * factor,
                t_rcd=dram.t_rcd * factor,
                t_rp=dram.t_rp * factor,
            ),
        )


def _rebuild(
    program: Program,
    transform: Callable,
    spin_threshold_override: int | None = None,
) -> Program:
    """New program with per-thread bodies passed through ``transform``.

    It declares no ``private`` ranges: the transforms draw from one RNG
    shared by all threads, so each thread's ops depend on the order in
    which the engine pulls them, which only the per-step order keeps."""
    bodies = [
        transform(body, tid)
        for tid, body in enumerate(program.thread_bodies)
    ]
    return Program(
        program.name,
        bodies,
        warmup=program.warmup,
        lock_fifo_handoff=program.lock_fifo_handoff,
        spin_threshold_override=(
            spin_threshold_override
            if spin_threshold_override is not None
            else program.spin_threshold_override
        ),
    )


def make_fault(kind: str, seed: int = 0) -> CellFault:
    """Build a cell-level fault callable for the batch runner/CLI.

    ``kind`` is one of :data:`FAULT_KINDS`.
    """
    injector = FaultInjector(seed)
    if kind == "deadlock":
        return lambda program, machine: (
            injector.drop_lock_releases(program), machine
        )
    if kind == "livelock":
        return lambda program, machine: (
            injector.spin_forever(injector.drop_lock_releases(program)),
            machine,
        )
    if kind == "barrier-skew":
        return lambda program, machine: (
            injector.skew_barrier_arrivals(program), machine
        )
    if kind == "mem-spike":
        return lambda program, machine: (
            program, injector.spike_memory_latency(machine)
        )
    raise ConfigError(
        f"unknown fault kind {kind!r}; expected one of {FAULT_KINDS}"
    )
