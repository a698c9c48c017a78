"""Warm-worker cache correctness.

A queue worker keeps one runner per (scale, machine) for its whole
life, so the single-threaded reference it measured, the trace-decode
memo and the engine's warm-filled tag stores serve every cell it
claims.  That only earns its keep if it is *invisible*: a worker that
has already run other benchmarks and other machines must commit
exactly the outcome a cold worker commits.  These tests run warm/cold
differentials with an in-process :class:`QueueWorker` over a
:class:`QueueStore`, as a forked worker runs them.
"""

from __future__ import annotations

from repro.config import MachineConfig, RunConfig
from repro.parallel import cells_from_sweep
from repro.parallel.transport import outcome_from_dict
from repro.queue import QueueStore
from repro.queue.worker import QueueWorker
from repro.workloads.suite import sweep_cells

POLICY = RunConfig(on_error="skip", max_cycles=2_000_000)
SCALE = 0.2

#: an LLC half the default size: different stacks, so cross-machine
#: cache bleed would be loud
SMALL_LLC = MachineConfig().with_llc_size(1024 * 1024)


def _work(queue_dir, cells):
    """Run ``cells`` on one in-process worker: the outcomes it committed
    (by key, in queue order) and the worker."""
    store = QueueStore.create(queue_dir, cells, POLICY)
    worker = QueueWorker(store, worker_id="w0")
    assert worker.run() == 0
    outcomes = {
        key: outcome_from_dict(store.result(key)) for key in store.order
    }
    return outcomes, worker


def _cold(tmp_path, cells):
    """Each cell's outcome from a fresh worker that runs only it."""
    cold = {}
    for i, cell in enumerate(cells):
        cold.update(_work(tmp_path / f"cold{i}", [cell])[0])
    return cold


def test_warm_worker_mixed_benchmarks_match_cold(tmp_path):
    """A worker that has run other benchmarks commits byte-identical
    outcomes for the next one: the ST-reference memo and trace decode it
    warmed up must key on the benchmark, not leak across it."""
    cells = cells_from_sweep(
        sweep_cells(("cholesky", "blackscholes_small"), (2, 4)),
        scale=SCALE,
    )
    warm, worker = _work(tmp_path / "warm", cells)
    assert warm == _cold(tmp_path, cells)
    assert all(o.status == "ok" for o in warm.values())
    # the warm pass really did share one runner across all four cells
    assert len(worker._runners) == 1


def test_warm_worker_mixed_machines_match_cold(tmp_path):
    """Two machines interleaved through one worker stay isolated: the
    worker keeps a runner per machine_json, so the small-LLC cell can
    never see the default machine's reference memo or warm tag stores
    (or vice versa).  Queue keys are unique, so the small-LLC cell runs
    at its own thread count, between two default-machine cells."""
    default = cells_from_sweep(sweep_cells(("cholesky",), (2, 8)), scale=SCALE)
    [small] = cells_from_sweep(
        sweep_cells(("cholesky",), (4,)), scale=SCALE, machine=SMALL_LLC
    )
    cells = [default[0], small, default[1]]
    warm, worker = _work(tmp_path / "warm", cells)
    assert warm == _cold(tmp_path, cells)
    # a smaller LLC must actually change the reference run, or this
    # test could not detect a memo shared across machines at all
    ts = {key: o.result.stack.ts_cycles for key, o in warm.items()}
    assert ts["cholesky:4"] != ts["cholesky:2"] == ts["cholesky:8"]
    assert len(worker._runners) == 2
