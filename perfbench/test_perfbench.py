"""Self-test of the benchmark: every workload at a tiny scale.

    python3 -m pytest perfbench

Runs each workload untraced and traced through ``run.py`` and checks
that every metric prints by name with its unit, that every stack passes
the output check, that the ledger's layer spans cover the cell time,
and that the span file validates.  It takes a few minutes on two CPUs:
the 16-thread warm-up does not shrink with scale.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

import workloads as wl

TINY = 0.02


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(name -> printed unit, result JSON) of one tiny run."""
    proc = subprocess.run(
        [
            sys.executable, os.path.join(wl.HERE, "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--scale", str(TINY),
        ],
        capture_output=True, text=True, cwd=wl.ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    table = {
        fields[0]: fields[2]
        for fields in map(str.split, lines[:-1])
        if len(fields) == 3
    }
    table["stacks"] = next(
        line for line in lines if line.startswith("stacks:")
    )
    return table, json.loads(lines[-1])


def assert_correct(result: dict) -> None:
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_untraced_run_prints_every_end_to_end_metric(workload):
    table, result = run(workload, 0, 0)
    assert_correct(result)
    for name, unit in wl.END_TO_END.items():
        assert table.get(name) == unit, name
    assert set(result["metrics"]) == set(wl.END_TO_END) - set(wl.UNGATED)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == wl.END_TO_END[name]
        assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_traced_run_prints_every_per_layer_metric(workload):
    table, result = run(workload, 0, 1)
    assert_correct(result)
    for name, unit in wl.PER_LAYER.items():
        assert table.get(name) == unit, name
        assert result["metrics"][name]["unit"] == unit
    assert set(result["metrics"]) == set(wl.PER_LAYER)
    assert result["metrics"]["trace.unaccounted_pct"]["value"] <= 5.0
    spans = os.path.join(wl.OUT, "spans", f"{workload}-s0-default.json")
    check = subprocess.run(
        [
            sys.executable, os.path.join(wl.ROOT, "tools", "validate_trace.py"),
            "--kind", "spans", spans,
        ],
        capture_output=True, text=True, timeout=60,
    )
    assert check.returncode == 0, check.stderr


def test_another_seed_changes_a_stack_and_passes_the_check():
    stacks = {}
    for seed in (0, 1):
        table, result = run("run16", seed, 0)
        assert_correct(result)
        stacks[seed] = table["stacks"]
    assert stacks[0] != stacks[1]


def test_benchmark_json_names_every_metric_and_workload():
    with open(os.path.join(wl.ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    assert end_to_end == {
        name: unit for name, unit in wl.END_TO_END.items()
        if name not in wl.UNGATED
    }
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == wl.PER_LAYER
    assert {w["name"] for w in doc["workloads"]} == set(wl.WORKLOADS)
