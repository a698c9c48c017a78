"""What the benchmark runs and how it checks the result.

Shared by the orchestrating process (``run.py``) and the fresh
processes it starts (``sweep_round.py``, ``ledger.py``).  Nothing here
imports ``repro`` at module level, so the orchestrator never loads the
program it measures; ``build_cells`` imports it in the measured process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: everything a run leaves behind: result records, span files, and the
#: temp dir (journals, pool spill files) the measured processes use
OUT = os.path.join(ROOT, ".perfbench")
TMP = os.path.join(OUT, "tmp")


@dataclasses.dataclass(frozen=True)
class Workload:
    """One batch job: every (benchmark, threads) cell, run back to back."""

    #: full benchmark names; None is the whole 28-benchmark suite
    benchmarks: tuple[str, ...] | None
    threads: tuple[int, ...]
    scale: float
    #: sweep worker processes (capped at the host's CPU count)
    jobs: int


#: why each workload exists is in BENCHMARK.json and README.md
WORKLOADS: dict[str, Workload] = {
    # the everyday sweep; the only workload that runs repro.parallel
    "suite": Workload(None, (2, 4), 0.05, 2),
    # warm-up bound: 2.5-4 MB per thread that scale does not shrink
    "warm16": Workload(("fft", "canneal_medium", "srad"), (16,), 0.3, 1),
    # run-loop bound: 64 KB private sets; the scale keeps warm-up under
    # a tenth even for cholesky's shared region
    "run16": Workload(
        ("cholesky", "lud", "heartwall", "bodytrack_small", "dedup_small"),
        (16,), 2.5, 1,
    ),
}

#: end-to-end metrics (tracing off): name -> unit
END_TO_END: dict[str, str] = {
    "wall_s": "s",
    "cpu_s": "s",
    "sim_kips": "kinstr/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "failed_frac": "ratio",
    "speedup_err_pct": "%",
}
#: printed and recorded, but left out of the result line the gate reads:
#: failed_frac is exactly 0 on a good run (it travels as failed /
#: attempted), and hypervisor steal on a shared VM moves wall_s between
#: runs of identical work by more than the largest bound a gate may use
UNGATED = ("wall_s", "failed_frac")

#: the traced replay's span names; span ``x`` sums into metric ``x_s``
TIMED_LAYERS = (
    "workloads.build",
    "experiments.st_reference",
    "sim.build",
    "sim.warm",
    "sim.run",
    "accounting.report",
    "core.stack",
    "robustness.journal",
)

#: ``sim.*`` counts totalled from ``harvest_cell_metrics``: metric ->
#: harvested base name (labels such as ``{core=3}`` are summed away)
SIM_COUNTS: dict[str, str] = {
    "sim.instructions": "sim.instructions",
    "sim.spin_instructions": "sim.spin_instructions",
    "sim.cycles": "sim.total_cycles",
    "sim.llc_hits": "sim.llc_hits",
    "sim.llc_misses": "sim.llc_misses",
    "sim.dram_accesses": "sim.dram_accesses",
    "sim.yields": "sim.yields",
    "sim.lock_acquires": "sim.lock_acquires",
    "sim.barrier_waits": "sim.barrier_waits",
}

#: per-layer metrics (traced run): name -> unit
PER_LAYER: dict[str, str] = {
    **{f"{layer}_s": "s" for layer in TIMED_LAYERS},
    "workloads.warm_lines": "count",
    "experiments.st_runs": "count",
    "experiments.st_instructions": "count",
    "sim.warm_us_per_line": "us/line",
    "sim.run_us_per_kinstr": "us/kinstr",
    "parallel.efficiency": "ratio",
    **{metric: "count" for metric in SIM_COUNTS},
    "trace.unaccounted_pct": "%",
    "trace.overhead_pct": "%",
}


def seeded(spec, seed: int):
    """The spec under ``seed``.

    Seed 0 is the suite as shipped.  Any other seed renames the spec;
    ``seed_for`` hashes the name, so every thread draws a new random
    stream while every behavioural knob stays as it is.
    """
    if seed == 0:
        return spec
    return dataclasses.replace(spec, name=f"{spec.name}.s{seed}")


def build_cells(workload: str, seed: int) -> list:
    """The workload's (spec, threads) cells in ``repro sweep`` order."""
    from repro.workloads.suite import sweep_cells

    w = WORKLOADS[workload]
    return [
        (seeded(spec, seed), n)
        for spec, n in sweep_cells(w.benchmarks, w.threads)
    ]


def stack_record(stack, truncated: bool) -> dict:
    """What the output check and the result record keep of one stack."""
    doc = json.dumps(dataclasses.asdict(stack), sort_keys=True)
    error = stack.estimation_error
    return {
        "digest": hashlib.sha256(doc.encode()).hexdigest()[:16],
        "truncated": bool(truncated or stack.truncated),
        "speedup": stack.actual_speedup,
        "err_pct": None if error is None else abs(error) * 100.0,
    }


def check_cell(record: dict, reference: dict | None = None) -> str | None:
    """Why one cell fails the output check, or None when it passes.

    ``reference`` is the same cell from another execution of the run
    (it has no digest when that execution failed the cell).
    """
    if record["status"] != "ok":
        return f"status {record['status']}"
    if record["truncated"]:
        return "truncated by the watchdog"
    if record["speedup"] is None:
        return "no actual speedup"
    if reference is not None and record["digest"] != reference.get("digest"):
        return f"stack {record['digest']} != {reference.get('digest')}"
    return None


def steal_s() -> float:
    """CPU seconds the hypervisor has given other guests, over all CPUs
    since boot: the part of a wall-time swing that is not this run's."""
    with open("/proc/stat") as handle:
        fields = handle.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def combined_digest(records: list[dict]) -> str:
    """One digest over every cell's stack digest, in cell order."""
    text = ",".join(f"{r['key']}={r.get('digest')}" for r in records)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
