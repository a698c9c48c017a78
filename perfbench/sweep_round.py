"""One untraced round of a workload, in the fresh process it measures.

Started by ``run.py`` with a JSON argument: ``workload``, ``seed``,
``scale``, ``jobs`` and ``t_spawn`` (the parent's ``time.monotonic()``
just before it started this process; CLOCK_MONOTONIC is system-wide,
so the difference is this process's set-up time).  The sweep goes
through the entry points ``repro sweep`` uses: ``BatchRunner.run_sweep``
for one job and ``run_parallel_sweep`` for more, with the default
engine, the paper-default machine and a journal in a temp file.  Prints
one JSON line.  With ``setup_only`` it stops after the cell list.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import tempfile
import time

import workloads as wl

sys.path.insert(0, wl.SRC)

from repro.experiments.runner import BatchRunner  # noqa: E402
from repro.parallel import cells_from_sweep, run_parallel_sweep  # noqa: E402
from repro.robustness.journal import SweepJournal  # noqa: E402


def _cpu_s() -> float:
    """User + system CPU of this process and its reaped workers."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _cell(outcome) -> tuple[dict, int, int]:
    """(record, multi-threaded instructions, ST instructions) of one
    outcome.  The serial runner returns an ``ExperimentResult``, the
    pool a ``CellResult``; both carry the stack."""
    record = {"key": outcome.key, "status": outcome.status}
    res = outcome.result
    if res is None:
        return record, 0, 0
    mt = getattr(res, "mt_result", None)
    if mt is not None:
        truncated = mt.truncated
        mt_instrs, st_instrs = mt.total_instrs, res.st_result.total_instrs
    else:
        truncated = res.truncated
        mt_instrs, st_instrs = res.mt_instrs, res.st_instrs
    record.update(wl.stack_record(res.stack, truncated))
    return record, mt_instrs, st_instrs


def main() -> None:
    cfg = json.loads(sys.argv[1])
    cells = wl.build_cells(cfg["workload"], cfg["seed"])
    setup_s = time.monotonic() - cfg["t_spawn"]
    if cfg.get("setup_only"):
        print(json.dumps({"setup_s": setup_s}))
        return
    scale, jobs = cfg["scale"], cfg["jobs"]
    with tempfile.TemporaryDirectory(prefix="round-") as tmp:
        journal = SweepJournal(os.path.join(tmp, "journal.json"))
        steal0 = wl.steal_s()
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        if jobs > 1:
            report = run_parallel_sweep(
                cells_from_sweep(cells, scale=scale), jobs=jobs,
                journal=journal,
            )
        else:
            report = BatchRunner(scale=scale, journal=journal).run_sweep(
                cells
            )
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu_s() - cpu0
        steal_s = wl.steal_s() - steal0
    peak_kb = max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    )
    records = []
    instructions = 0
    st_instructions: dict[str, int] = {}
    for outcome in report.outcomes:
        record, mt_instrs, st_instrs = _cell(outcome)
        records.append(record)
        instructions += mt_instrs
        if st_instrs:
            # one ST reference per benchmark is what the sweep needs
            st_instructions[outcome.name] = st_instrs
    instructions += sum(st_instructions.values())
    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "steal_s": steal_s,
        "instructions": instructions,
        "cells": records,
    }))


if __name__ == "__main__":
    main()
