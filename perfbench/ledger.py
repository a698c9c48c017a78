"""Traced replay of a workload: the per-layer ledger, timed from outside.

Started by ``run.py`` with a JSON argument: ``workload``, ``seed``,
``scale``, ``spans`` (the span file to write) and ``engine`` (None for
the default engine, which is then passed to no call).  Replays the
cells serially in ``BatchRunner``'s order, with its ST-reference memo,
through ``repro``'s public per-layer calls, and times each call in a
span.  Spans stay in memory: one root span per cell, one child per
timed call carrying the cell's id.  They are written once, at the end,
in the row shape ``tools/validate_trace.py --kind spans`` accepts.
Prints one JSON line.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time
from contextlib import contextmanager

import workloads as wl

sys.path.insert(0, wl.SRC)

from repro.components import available  # noqa: E402
from repro.config import MachineConfig  # noqa: E402
from repro.core.stack import build_stack  # noqa: E402
from repro.errors import ConfigError  # noqa: E402
from repro.experiments.runner import (  # noqa: E402
    ExperimentResult,
    run_reference,
)
from repro.observability.metrics import harvest_cell_metrics  # noqa: E402
from repro.robustness.journal import SweepJournal  # noqa: E402
from repro.session.kernel import SimulationKernel  # noqa: E402
from repro.workloads.spec import build_program  # noqa: E402


class Spans:
    """Nested wall-clock spans kept in memory, in nanoseconds.

    The benchmark keeps its own recorder rather than the program's
    ``SpanRecorder`` so that a change to the program's tracing cannot
    change what the benchmark measures.
    """

    def __init__(self) -> None:
        self.rows: list[dict] = []
        self._open: list[int] = []
        self._epoch = time.perf_counter_ns()

    @contextmanager
    def span(self, name: str, cat: str, **args):
        row = {
            "id": len(self.rows),
            "parent": self._open[-1] if self._open else None,
            "name": name,
            "cat": cat,
            "args": args,
        }
        self.rows.append(row)
        self._open.append(row["id"])
        row["t0_ns"] = time.perf_counter_ns()
        try:
            yield
        finally:
            row["dur_ns"] = time.perf_counter_ns() - row["t0_ns"]
            self._open.pop()

    def export(self) -> list[dict]:
        """The rows with integer-microsecond times, in start order."""
        out = []
        for row in self.rows:
            exported = {
                "id": row["id"],
                "parent": row["parent"],
                "name": row["name"],
                "cat": row["cat"],
                "t0_us": (row["t0_ns"] - self._epoch) // 1000,
                "dur_us": row["dur_ns"] // 1000,
                "origin": "perfbench",
            }
            if row["args"]:
                exported["args"] = row["args"]
            out.append(exported)
        return out


def replay(cells, scale: float, engine: str | None, spans: Spans,
           journal: SweepJournal) -> dict:
    """Run every cell through the timed calls; return the ledger."""
    kw = {} if engine is None else {"engine": engine}
    st_memo: dict = {}
    records: list[dict] = []
    counts = dict.fromkeys(wl.SIM_COUNTS, 0)
    count_of = {source: metric for metric, source in wl.SIM_COUNTS.items()}
    warm_lines = mt_warm_lines = st_instructions = mt_instructions = 0
    for spec, n in cells:
        key = f"{spec.full_name}:{n}"
        with spans.span(key, "cell"):
            machine = MachineConfig(n_cores=n)
            with spans.span("workloads.build", "layer", cell=key):
                program = build_program(spec, n, scale=scale)
            st_key = (spec, machine.with_cores(1))
            st = st_memo.get(st_key)
            if st is None:
                with spans.span("workloads.build", "layer", cell=key):
                    st_program = build_program(spec, 1, scale=scale)
                with spans.span(
                    "experiments.st_reference", "layer", cell=key
                ):
                    st = run_reference(
                        machine, st_program, on_timeout="truncate", **kw
                    )
                st_memo[st_key] = st
                warm_lines += sum(map(len, st_program.warmup))
                st_instructions += st.total_instrs
            with spans.span("sim.build", "layer", cell=key):
                kernel = SimulationKernel(
                    machine, program, accounted=True,
                    on_timeout="truncate", **kw,
                )
            # a zero-cycle budget pauses at the first scheduling
            # boundary, which comes right after the untimed warm-up
            with spans.span("sim.warm", "layer", cell=key):
                kernel.step(0)
            with spans.span("sim.run", "layer", cell=key):
                mt = kernel.finish()
            with spans.span("accounting.report", "layer", cell=key):
                report = kernel.report()
            with spans.span("core.stack", "layer", cell=key):
                stack = build_stack(
                    spec.full_name, report,
                    ts_cycles=None if st.truncated else st.total_cycles,
                )
            with spans.span("robustness.journal", "layer", cell=key):
                journal.record_ok(
                    spec.full_name, n, attempts=1,
                    total_cycles=mt.total_cycles, truncated=mt.truncated,
                )
        # bookkeeping stays outside the cell span: it is the benchmark's
        # own work, not the program's
        lines = sum(map(len, program.warmup))
        warm_lines += lines
        mt_warm_lines += lines
        mt_instructions += mt.total_instrs
        harvested = harvest_cell_metrics(ExperimentResult(
            name=spec.full_name, n_threads=n, machine=machine, stack=stack,
            report=report, mt_result=mt, st_result=st,
        ))
        for label_key, value in harvested.items():
            metric = count_of.get(label_key.split("{", 1)[0])
            if metric is not None:
                counts[metric] += value
        record = {"key": key, "status": "ok"}
        record.update(wl.stack_record(stack, mt.truncated))
        records.append(record)

    layers = {f"{layer}_s": 0.0 for layer in wl.TIMED_LAYERS}
    cell_ns = child_ns = 0
    for row in spans.rows:
        if row["parent"] is None:
            cell_ns += row["dur_ns"]
        else:
            child_ns += row["dur_ns"]
            layers[f"{row['name']}_s"] += row["dur_ns"] / 1e9
    timed = dict(layers)
    timed["sim.warm_us_per_line"] = layers["sim.warm_s"] * 1e6 / mt_warm_lines
    timed["sim.run_us_per_kinstr"] = (
        layers["sim.run_s"] * 1e9 / mt_instructions
    )
    timed["trace.unaccounted_pct"] = 100.0 * (cell_ns - child_ns) / cell_ns
    return {
        # None once the kernel no longer names an engine
        "engine": getattr(kernel, "engine", None),
        "cell_s": cell_ns / 1e9,
        "timed": timed,
        "counts": {
            "workloads.warm_lines": warm_lines,
            "experiments.st_runs": len(st_memo),
            "experiments.st_instructions": st_instructions,
            **counts,
        },
        "cells": records,
    }


def main() -> None:
    cfg = json.loads(sys.argv[1])
    cells = wl.build_cells(cfg["workload"], cfg["seed"])
    spans = Spans()
    with tempfile.TemporaryDirectory(prefix="ledger-") as tmp:
        journal = SweepJournal(os.path.join(tmp, "journal.json"))
        cpu0 = time.process_time()
        try:
            ledger = replay(
                cells, cfg["scale"], cfg["engine"], spans, journal
            )
        except ConfigError as exc:
            # an engine the registry lists but cannot build here (the
            # vectorized one without numpy): the caller skips it
            print(json.dumps({"unavailable": str(exc)}))
            return
        ledger["cpu_s"] = time.process_time() - cpu0
    ledger["engines"] = list(available("engine"))
    with open(cfg["spans"], "w") as handle:
        json.dump({
            "metadata": {
                "workload": cfg["workload"],
                "seed": cfg["seed"],
                "scale": cfg["scale"],
                "engine": ledger["engine"],
            },
            "spans": spans.export(),
        }, handle)
        handle.write("\n")
    print(json.dumps(ledger))


if __name__ == "__main__":
    main()
