"""Warm-worker cache correctness.

The warm caches in :mod:`repro.parallel.worker` only earn their keep if
they are *invisible*: a worker that has already run other benchmarks
and other machines must produce exactly the result a cold worker
produces.  These tests run warm/cold differentials in-process through
the same :class:`WorkerCaches` and :func:`execute_cell` a queue worker
runs its cells with.
"""

from __future__ import annotations

from repro.config import MachineConfig, RunConfig
from repro.parallel import WorkerCaches, cells_from_sweep
from repro.parallel.worker import execute_cell
from repro.workloads.suite import sweep_cells

POLICY = RunConfig(on_error="skip", max_cycles=2_000_000)
SCALE = 0.2

#: an LLC half the default size: different stacks, so cross-machine
#: cache bleed would be loud
SMALL_LLC = MachineConfig().with_llc_size(1024 * 1024)


def _run(caches, cell):
    runner = caches.runner(POLICY, cell.scale, cell.machine_json)
    return execute_cell(runner, cell)


def _cold_run(cell):
    return _run(WorkerCaches(), cell)


def test_warm_worker_mixed_benchmarks_match_cold():
    """A worker that has run other benchmarks produces byte-identical
    results for the next one: the ST-reference memo and trace decode it
    warmed up must key on the benchmark, not leak across it."""
    cells = cells_from_sweep(
        sweep_cells(("cholesky", "blackscholes_small"), (2, 4)),
        scale=SCALE,
    )
    cold = [_cold_run(cell) for cell in cells]
    caches = WorkerCaches()
    warm = [_run(caches, cell) for cell in cells]
    assert warm == cold
    # the warm pass really did share one runner across all four cells
    assert len(caches._runners) == 1


def test_warm_worker_mixed_machines_match_cold():
    """Two machines interleaved through one worker stay isolated: the
    runner cache keys on machine_json, so the small-LLC cell can never
    see the default machine's warm cache arrays (or vice versa)."""
    sweep = sweep_cells(("cholesky",), (2,))
    default_cell = cells_from_sweep(sweep, scale=SCALE)[0]
    small_cell = cells_from_sweep(sweep, scale=SCALE, machine=SMALL_LLC)[0]
    cold_default = _cold_run(default_cell)
    cold_small = _cold_run(small_cell)
    # a smaller LLC must actually change the result, or this test
    # could not detect bleed at all
    assert cold_small.stack != cold_default.stack
    caches = WorkerCaches()
    interleaved = [
        _run(caches, default_cell),
        _run(caches, small_cell),
        _run(caches, default_cell),
    ]
    assert interleaved[0] == cold_default
    assert interleaved[1] == cold_small
    assert interleaved[2] == cold_default
    assert len(caches._runners) == 2
