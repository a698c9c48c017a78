"""Journal concurrency guarantees under parallel execution.

Two properties keep the journal sound when cells run on worker
processes:

1. every write goes through the parent — a :class:`SweepJournal` hard
   refuses to ``save()`` from any process other than the one that
   created it, so a worker cannot race the parent on the file;
2. the parent serializes appends — after *every* record the on-disk
   journal is one complete, parseable JSON document with fully-formed
   cell records (two completing cells can never interleave).
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.config import RunConfig
from repro.parallel import cells_from_sweep, run_parallel_sweep
from repro.robustness.journal import SweepJournal
from repro.workloads.suite import sweep_cells

OK_RECORD_KEYS = {"status", "attempts", "total_cycles", "truncated"}
FAILED_RECORD_KEYS = {"status", "attempts", "error", "error_type", "snapshot"}


def _save_in_child(journal, queue):
    try:
        journal.record_ok("smuggled", 2, attempts=1, total_cycles=1)
    except RuntimeError as exc:
        queue.put(str(exc))
    else:
        queue.put(None)


def test_journal_refuses_foreign_process_writes(tmp_path):
    journal = SweepJournal(str(tmp_path / "journal.json"))
    journal.record_ok("own", 2, attempts=1, total_cycles=10)

    ctx = multiprocessing.get_context("fork")
    queue = ctx.Queue()
    child = ctx.Process(target=_save_in_child, args=(journal, queue))
    child.start()
    error = queue.get(timeout=30)
    child.join(timeout=30)
    assert error is not None and "owning (parent) process" in error
    # the smuggled record never reached the file
    cells = json.loads((tmp_path / "journal.json").read_text())["cells"]
    assert list(cells) == ["own:2"]


def test_journal_same_process_writes_still_work(tmp_path):
    journal = SweepJournal(str(tmp_path / "journal.json"))
    journal.record_ok("a", 2, attempts=1, total_cycles=5)
    journal.record_failure("b", 4, attempts=2, error="x", error_type="E")
    assert journal.completed("a", 2)
    assert journal.failed_keys == ["b:4"]


class _SnapshottingJournal(SweepJournal):
    """Journal that snapshots the on-disk bytes after every save."""

    def __init__(self, path):
        self.disk_states = []
        super().__init__(path)

    def save(self):
        super().save()
        with open(self.path, "rb") as handle:
            self.disk_states.append(handle.read())


def test_parallel_journal_states_never_interleave(tmp_path):
    """After each of N cells completes, the journal on disk is a
    complete JSON document whose records all have every field — no
    torn or interleaved writes at any intermediate point."""
    cells = sweep_cells(("cholesky", "blackscholes_small"), (2, 4))
    journal = _SnapshottingJournal(str(tmp_path / "journal.json"))
    run_parallel_sweep(
        cells_from_sweep(cells, scale=0.2),
        jobs=2,
        policy=RunConfig(on_error="skip", max_cycles=2_000_000),
        journal=journal,
    )
    assert len(journal.disk_states) == len(cells)
    for step, state in enumerate(journal.disk_states, start=1):
        doc = json.loads(state)  # parse failure == torn write
        assert len(doc["cells"]) == step
        for key, record in doc["cells"].items():
            expected = (
                OK_RECORD_KEYS if record["status"] == "ok"
                else FAILED_RECORD_KEYS
            )
            assert set(record) == expected, (step, key)


def test_worker_processes_never_touch_the_journal_file(tmp_path):
    """The journal file is created by the parent only: a journal-less
    parallel sweep leaves the directory empty."""
    cells = sweep_cells(("cholesky",), (2,))
    before = set(os.listdir(tmp_path))
    run_parallel_sweep(
        cells_from_sweep(cells, scale=0.2),
        jobs=2,
        policy=RunConfig(on_error="skip", max_cycles=2_000_000),
        journal=SweepJournal(None),
    )
    assert set(os.listdir(tmp_path)) == before
