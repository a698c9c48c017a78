"""Every entry point runs a cell through one protocol, so every entry
point gives the same stack.

The reference is ``run_experiment`` with its ST program; each other way
to run a cell — the batch runner, the figure cache, a session (built at
N or re-cored to it), the CLI (fresh and resumed from a mid-run
checkpoint), the process pool and the work queue — must return a stack
that compares ``==`` to it.
"""

from __future__ import annotations

import pytest

from repro import cli
from repro.checkpoint import read_header
from repro.config import MachineConfig
from repro.core.rendering import render_stack
from repro.experiments.runner import BatchRunner, run_experiment
from repro.experiments.scenarios import ExperimentCache
from repro.parallel import cells_from_sweep, run_parallel_sweep
from repro.queue import run_queue_sweep
from repro.session import Session
from repro.workloads.spec import build_program
from repro.workloads.suite import by_name

CELLS = [("cholesky", 4), ("fft", 2)]
SCALE = 0.05
CHECKPOINT_EVERY = 2_000


@pytest.fixture(scope="module")
def expected():
    """The stack of each cell through ``run_experiment``."""
    stacks = {}
    for name, n in CELLS:
        spec = by_name(name)
        stacks[f"{name}:{n}"] = run_experiment(
            name, MachineConfig(n_cores=n),
            build_program(spec, n, scale=SCALE),
            build_program(spec, 1, scale=SCALE),
        ).stack
    return stacks


def _cli_stacks(monkeypatch, argv):
    """The stacks ``repro stack`` prints, captured where it prints."""
    printed = []
    print_stack = cli._print_stack

    def capture(stack):
        printed.append(stack)
        print_stack(stack)

    monkeypatch.setattr(cli, "_print_stack", capture)
    assert cli.main(argv) == 0
    return printed


def test_batch_runner_cell(expected):
    runner = BatchRunner(scale=SCALE)
    for name, n in CELLS:
        outcome = runner.run_cell(by_name(name), n)
        assert outcome.result.stack == expected[outcome.key]


def test_experiment_cache(expected):
    cache = ExperimentCache(scale=SCALE)
    for name, n in CELLS:
        assert cache.run(by_name(name), n).stack == expected[f"{name}:{n}"]


def test_session(expected):
    for name, n in CELLS:
        stack = Session.from_config(name, n, scale=SCALE).stack()
        assert stack == expected[f"{name}:{n}"]


def test_session_recored(expected):
    """A session re-cored to N runs the same cell as one built at N."""
    for name, n in CELLS:
        other = Session.from_config(name, 2 if n != 2 else 4, scale=SCALE)
        stack = other.recored(n).stack()
        assert stack == expected[f"{name}:{n}"]


def test_cli_stack(expected, monkeypatch, capsys):
    for name, n in CELLS:
        [stack] = _cli_stacks(
            monkeypatch, ["stack", name, "-n", str(n), "--scale", str(SCALE)]
        )
        assert stack == expected[f"{name}:{n}"]
        assert render_stack(stack) in capsys.readouterr().out


def test_cli_stack_resumed_from_mid_run_checkpoint(
    expected, monkeypatch, capsys, tmp_path
):
    for name, n in CELLS:
        ckpt = tmp_path / f"{name}.ckpt"
        _cli_stacks(monkeypatch, [
            "stack", name, "-n", str(n), "--scale", str(SCALE),
            "--checkpoint", str(ckpt),
            "--checkpoint-every", str(CHECKPOINT_EVERY),
        ])
        assert read_header(ckpt)["cycle"] >= CHECKPOINT_EVERY
        [stack] = _cli_stacks(
            monkeypatch, ["stack", name, "--resume-from", str(ckpt)]
        )
        assert stack == expected[f"{name}:{n}"]
        assert "resuming" in capsys.readouterr().out


def _sweep_cells():
    return cells_from_sweep(
        [(by_name(name), n) for name, n in CELLS], scale=SCALE
    )


def test_process_pool(expected):
    report = run_parallel_sweep(_sweep_cells(), jobs=2)
    assert report.ok
    assert {o.key: o.result.stack for o in report.completed} == expected


def test_work_queue(expected, tmp_path):
    report = run_queue_sweep(
        _sweep_cells(), workers=2, queue_dir=tmp_path / "q",
    )
    assert report.ok
    assert {o.key: o.result.stack for o in report.completed} == expected
