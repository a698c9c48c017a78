"""The repository benchmark: one workload at one seed, measured from outside.

    python3 perfbench/run.py --workload suite --seed 0 --seconds 35 --trace 0

``--trace 0`` runs untraced rounds of the workload, each in a fresh
process (``sweep_round.py``), while the next round is expected to end
within ``--seconds`` (at least one), plus a few processes that only set
up, and prints the end-to-end metrics: medians over the rounds.  ``--trace 1`` runs one untraced round, then the traced
replay (``ledger.py``) on the default engine and on every other engine
the registry lists, and prints the per-layer metrics.  Every stack goes
through the output check in ``workloads.check_cell``.

The last line of standard output is the result as one JSON object.  A
record with the host, every metric and every stack digest is written to
``.perfbench/results/``; the traced run's spans go to
``.perfbench/spans/``.  ``--scale`` overrides the workload's scale (the
self-test uses it to run tiny).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import workloads as wl

#: processes per untraced run that only set up, beside each round's own
SETUP_PROBES = 6
#: no run outlives this, whatever --seconds says
DEADLINE_S = 170.0


def run_child(script: str, cfg: dict, deadline: float) -> dict:
    """Run one measured process to completion; return its JSON line.

    Temp files (journals, pool spill files) stay inside the checkout,
    and a fixed hash seed gives every round the same dict layouts.
    """
    env = dict(os.environ, TMPDIR=wl.TMP, PYTHONHASHSEED="0")
    cmd = [
        sys.executable, os.path.join(wl.HERE, script),
        json.dumps(dict(cfg, t_spawn=time.monotonic())),
    ]
    # its own session, so a timeout also takes down its pool workers
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=wl.ROOT,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    if proc.returncode != 0:
        raise RuntimeError(f"{script} exited with status {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def host_record() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy,
        "loadavg_before": os.getloadavg(),
        "steal_s_before": wl.steal_s(),
    }


def untraced(cfg: dict, seconds: float, deadline: float) -> dict:
    rounds = []
    start = time.monotonic()
    while True:
        rounds.append(run_child("sweep_round.py", cfg, deadline))
        now = time.monotonic()
        next_end = now + (now - start) / len(rounds)
        if next_end - start > seconds or next_end > deadline - 10.0:
            break
    setups = [r["setup_s"] for r in rounds] + [
        run_child("sweep_round.py", dict(cfg, setup_only=True), deadline)[
            "setup_s"
        ]
        for _ in range(SETUP_PROBES)
    ]
    # every round is another execution of the same cells: each stack
    # must equal the first round's
    first = {rec["key"]: rec for rec in rounds[0]["cells"]}
    failures = []
    for rnd in rounds:
        for rec in rnd["cells"]:
            reason = wl.check_cell(rec, first[rec["key"]])
            if reason:
                failures.append(f"{rec['key']}: {reason}")
    attempted = sum(len(rnd["cells"]) for rnd in rounds)
    errors = [
        rec["err_pct"] for rec in rounds[0]["cells"]
        if rec.get("err_pct") is not None
    ]
    return {
        "metrics": {
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
            "sim_kips": statistics.median(
                r["instructions"] / 1000.0 / r["cpu_s"] for r in rounds
            ),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(
                r["peak_rss_mb"] for r in rounds
            ),
            "failed_frac": len(failures) / attempted,
            "speedup_err_pct": statistics.fmean(errors) if errors else 0.0,
        },
        "extra": {},
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "cells": rounds[0]["cells"],
        "rounds": [
            {k: v for k, v in r.items() if k != "cells"} for r in rounds
        ],
        "setups": setups,
    }


def traced(cfg: dict, deadline: float) -> dict:
    base = run_child("sweep_round.py", cfg, deadline)
    spans_dir = os.path.join(wl.OUT, "spans")
    stem = f"{cfg['workload']}-s{cfg['seed']}"

    def ledger(engine):
        path = os.path.join(spans_dir, f"{stem}-{engine or 'default'}.json")
        return run_child(
            "ledger.py", dict(cfg, engine=engine, spans=path), deadline
        )

    default = ledger(None)
    others = {}
    for engine in default["engines"]:
        if engine == default["engine"]:
            continue
        result = ledger(engine)
        if "unavailable" in result:
            print(f"engine {engine} skipped: {result['unavailable']}")
        else:
            others[engine] = result

    # the untraced sweep, the traced replay and every other engine's
    # replay execute the same cells: their stacks must be equal
    untraced_cells = {rec["key"]: rec for rec in base["cells"]}
    default_cells = {rec["key"]: rec for rec in default["cells"]}
    failures = []
    failed_keys = set()
    for rec in base["cells"]:
        reason = wl.check_cell(rec)
        if reason:
            failures.append(f"{rec['key']}: {reason}")
            failed_keys.add(rec["key"])
    for name, led, against in [("traced", default, untraced_cells)] + [
        (engine, led, default_cells) for engine, led in others.items()
    ]:
        for key in set(against) ^ {rec["key"] for rec in led["cells"]}:
            failures.append(f"{key} ({name}): not in both executions")
            failed_keys.add(key)
        for rec in led["cells"]:
            reason = wl.check_cell(rec, against.get(rec["key"], rec))
            if reason:
                failures.append(f"{rec['key']} ({name}): {reason}")
                failed_keys.add(rec["key"])

    jobs = cfg["jobs"]
    metrics = dict(default["timed"], **default["counts"])
    metrics["parallel.efficiency"] = (
        default["cell_s"] / (jobs * base["wall_s"])
    )
    # CPU against CPU: steal on a shared VM swings wall time far more
    # than tracing costs, and a pooled sweep splits its wall time
    metrics["trace.overhead_pct"] = (
        100.0 * (default["cpu_s"] - base["cpu_s"]) / base["cpu_s"]
    )
    extra = {
        f"{name}.{engine}": value
        for engine, led in others.items()
        for name, value in led["timed"].items()
    }
    return {
        "metrics": metrics,
        "extra": extra,
        "attempted": len(base["cells"]),
        "failed": len(failed_keys),
        "failures": failures,
        "cells": base["cells"],
        "rounds": [{k: v for k, v in base.items() if k != "cells"}],
        "ledgers": {
            led["engine"] or "default": {
                k: v for k, v in led.items() if k != "cells"
            }
            for led in [default, *others.values()]
        },
    }


def _unit(name: str) -> str:
    """Unit of a printed metric; other engines' copies carry a suffix."""
    units = {**wl.END_TO_END, **wl.PER_LAYER}
    return units.get(name) or units[name.rsplit(".", 1)[0]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", type=float, default=None)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(wl.SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {wl.SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    for sub in ("tmp", "results", "spans"):
        os.makedirs(os.path.join(wl.OUT, sub), exist_ok=True)
    workload = wl.WORKLOADS[args.workload]
    host = host_record()
    cfg = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": workload.scale if args.scale is None else args.scale,
        "jobs": min(workload.jobs, host["nproc"]),
    }
    try:
        if args.trace:
            run = traced(cfg, deadline)
        else:
            run = untraced(cfg, args.seconds, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    host["loadavg_after"] = os.getloadavg()
    host["steal_s"] = wl.steal_s() - host.pop("steal_s_before")

    failed = run["failed"]
    digest = wl.combined_digest(run["cells"])
    record = dict(cfg, trace=args.trace, seconds=args.seconds, host=host,
                  digest=digest, **run)
    path = os.path.join(
        wl.OUT, "results",
        f"{args.workload}-s{args.seed}-t{args.trace}-{time.time_ns()}.json",
    )
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run['rounds'])} round(s), jobs {cfg['jobs']}, "
          f"scale {cfg['scale']}")
    for name, value in {**run["metrics"], **run["extra"]}.items():
        print(f"  {name:<36} {value:>16.6f} {_unit(name)}")
    for failure in run["failures"]:
        print(f"  FAILED {failure}")
    print(f"stacks: {len(run['cells'])} cells, digest {digest}")
    print(f"host: nproc {host['nproc']}, {host['platform']}, python "
          f"{host['python']}, numpy {host['numpy']}, load "
          f"{host['loadavg_before'][0]:.2f} -> {host['loadavg_after'][0]:.2f}"
          f", steal {host['steal_s']:.2f} s")
    print(f"record: {os.path.relpath(path, wl.ROOT)}")
    names = wl.PER_LAYER if args.trace else wl.END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": run["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": run["metrics"][name], "unit": unit}
            for name, unit in names.items() if name not in wl.UNGATED
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
