#!/usr/bin/env python
"""Summarize perfbench records as the ``BENCH_sweep.json`` document.

    python tools/bench_summary.py .perfbench/results/*.json > BENCH_sweep.json

Groups the records by (workload, seed, scale, jobs, trace).  Each group
carries its run count, its stack digest, every metric's median,
quartiles and per-run values with the unit ``BENCHMARK.json`` declares
(null for a metric it does not gate, such as ``wall_s``), and each
run's record name and host, steal included.  A group whose records
disagree on the stack digest, or a record with a failed cell, is
refused with one ``error:`` line and exit status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GROUP_KEY = ("workload", "seed", "scale", "jobs", "trace")
RECORD_FIELDS = ("digest", "failed", "failures", "host", "metrics")


def _metric(unit: str | None, values: list[float]) -> dict:
    q1, _, q3 = (
        statistics.quantiles(values, n=4, method="inclusive")
        if len(values) > 1 else values * 3
    )
    return {
        "unit": unit,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "values": values,
    }


def summarize(paths: list[str]) -> dict:
    """The summary document of the records at ``paths``; raises
    ``ValueError`` for a record it refuses."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    units = {
        metric["name"]: metric["unit"]
        for metric in declared["end_to_end"] + declared["per_layer"]
    }
    order = [workload["name"] for workload in declared["workloads"]]
    groups: dict[tuple, list[tuple[str, dict]]] = {}
    for path in sorted(paths, key=os.path.basename):
        name = os.path.basename(path)
        with open(path) as handle:
            record = json.load(handle)
        missing = set(GROUP_KEY + RECORD_FIELDS) - set(record)
        if missing:
            raise ValueError(
                f"{name}: not a perfbench record (no "
                f"{', '.join(sorted(missing))})"
            )
        if record["failed"]:
            raise ValueError(
                f"{name}: {record['failed']} failed cell(s): "
                f"{record['failures'][0]}"
            )
        key = tuple(record[field] for field in GROUP_KEY)
        groups.setdefault(key, []).append((name, record))
    summary = []
    for key in sorted(groups, key=lambda k: (order.index(k[0]), k[1:])):
        runs = groups[key]
        label = f"{key[0]} seed {key[1]} scale {key[2]} trace {key[4]}"
        digests = {record["digest"] for _, record in runs}
        if len(digests) > 1:
            raise ValueError(
                f"{label}: the records disagree on the stack digest "
                f"({', '.join(sorted(digests))})"
            )
        if len({tuple(record["metrics"]) for _, record in runs}) > 1:
            raise ValueError(f"{label}: the records name different metrics")
        summary.append({
            **dict(zip(GROUP_KEY, key)),
            "runs": len(runs),
            "digest": digests.pop(),
            "metrics": {
                metric: _metric(
                    units.get(metric),
                    [record["metrics"][metric] for _, record in runs],
                )
                for metric in runs[0][1]["metrics"]
            },
            "records": [
                {"record": name, "host": record["host"]}
                for name, record in runs
            ],
        })
    return {"groups": summary}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("records", nargs="+", metavar="RECORD",
                        help="perfbench result records "
                             "(.perfbench/results/*.json)")
    args = parser.parse_args(argv)
    try:
        doc = summarize(args.records)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(doc, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
