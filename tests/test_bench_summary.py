"""``tools/bench_summary.py`` and the ``BENCH_sweep.json`` it writes."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_summary.py"


def _record(tmp_path, name, *, trace=0, cpu_s=1.0, digest="aaaa",
            failed=0) -> str:
    """A perfbench result record with the fields the summary reads."""
    path = tmp_path / name
    path.write_text(json.dumps({
        "workload": "suite", "seed": 0, "scale": 0.05, "jobs": 2,
        "trace": trace, "seconds": 35.0, "digest": digest,
        "host": {"nproc": 2, "steal_s": 0.25},
        "metrics": {"cpu_s": cpu_s, "wall_s": 2 * cpu_s},
        "attempted": 56, "failed": failed,
        "failures": ["fft:2: status failed"] if failed else [],
    }))
    return str(path)


def _summarize(*paths) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *paths],
        capture_output=True, text=True, timeout=60,
    )


def test_median_quartiles_and_runs(tmp_path):
    paths = [
        _record(tmp_path, f"suite-s0-t0-{i}.json", cpu_s=value)
        for i, value in enumerate([4.0, 1.0, 3.0, 2.0])
    ]
    paths.append(_record(tmp_path, "suite-s0-t1-9.json", trace=1,
                         cpu_s=7.0))
    proc = _summarize(*reversed(paths))
    assert proc.returncode == 0, proc.stderr
    untraced, traced = json.loads(proc.stdout)["groups"]
    assert untraced["runs"] == 4
    assert untraced["digest"] == "aaaa"
    assert (untraced["workload"], untraced["trace"]) == ("suite", 0)
    assert untraced["metrics"]["cpu_s"] == {
        "unit": "s", "median": 2.5, "q1": 1.75, "q3": 3.25,
        "values": [4.0, 1.0, 3.0, 2.0],
    }
    # a metric BENCHMARK.json does not gate has no declared unit
    assert untraced["metrics"]["wall_s"]["unit"] is None
    assert [run["record"] for run in untraced["records"]] == [
        f"suite-s0-t0-{i}.json" for i in range(4)
    ]
    assert untraced["records"][0]["host"]["steal_s"] == 0.25
    assert traced["runs"] == 1
    assert traced["metrics"]["cpu_s"] == {
        "unit": "s", "median": 7.0, "q1": 7.0, "q3": 7.0, "values": [7.0],
    }


@pytest.mark.parametrize("second, message", [
    ({"digest": "bbbb"}, "disagree on the stack digest"),
    ({"failed": 1}, "1 failed cell(s): fft:2: status failed"),
])
def test_refuses_mixed_digests_and_failed_cells(tmp_path, second, message):
    proc = _summarize(
        _record(tmp_path, "a.json"), _record(tmp_path, "b.json", **second),
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert message in proc.stderr


def test_committed_summary_covers_every_workload():
    """``BENCH_sweep.json`` holds, for every benchmark workload, a seed-0
    untraced group of at least 5 runs with every end-to-end metric and
    a traced group with every per-layer metric."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    groups = json.loads((ROOT / "BENCH_sweep.json").read_text())["groups"]
    for workload in declared["workloads"]:
        mine = [
            g for g in groups
            if g["workload"] == workload["name"] and g["seed"] == 0
        ]
        untraced = [g for g in mine if g["trace"] == 0 and g["runs"] >= 5]
        traced = [g for g in mine if g["trace"] == 1]
        assert untraced and traced, workload["name"]
        for metric in declared["end_to_end"]:
            stats = untraced[0]["metrics"][metric["name"]]
            assert stats["unit"] == metric["unit"]
            assert stats["q1"] <= stats["median"] <= stats["q3"]
            assert len(stats["values"]) == untraced[0]["runs"]
        for metric in declared["per_layer"]:
            assert traced[0]["metrics"][metric["name"]]["unit"] == (
                metric["unit"]
            )
        assert traced[0]["digest"] == untraced[0]["digest"]
