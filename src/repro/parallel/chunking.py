"""Deterministic cell→chunk assignment for warm-worker dispatch.

One task per cell made the pool a net loss: every short cell paid the
full submit/pickle/collect round-trip, and cells of the same benchmark
scattered across workers re-ran the single-threaded reference and
re-decoded traces that a serial sweep computes once.  Chunking fixes
both — a worker receives a *contiguous run* of cells, so the per-task
overhead amortizes over the chunk and the canonical sweep order (all
thread counts of a benchmark adjacent) keeps each benchmark's warm
state inside one worker.

The assignment is a pure function of the cell list, the job count and
the :class:`ChunkingPolicy` — never of wall time, pids or completion
order — so a sweep plans the same chunks on every run and the parent
can merge results back into canonical order for byte-identical
journals.  The adaptive mode sizes chunks by a cheap per-cell cost
estimate (:func:`estimate_cell_cost`): chunks even out to roughly
``total_cost / (jobs * chunks_per_job)`` each, which keeps enough
chunks in flight to load-balance while amortizing dispatch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.parallel.cells import CellSpec

#: floor for any cell's cost estimate: keeps zero-work synthetic specs
#: from collapsing the adaptive target to 0 (degenerate 1-cell chunks)
MIN_CELL_COST = 1.0


@dataclass(frozen=True)
class ChunkingPolicy:
    """How pending cells are grouped into worker chunks.

    ``chunk_cells`` pins every chunk to exactly that many cells (the
    last chunk takes the remainder) — the knob the differential tests
    sweep and ``sweep --chunk-cells`` exposes.  ``None`` (default)
    selects adaptive mode: target ``chunks_per_job`` chunks per worker
    by estimated cost, each capped at ``max_chunk_cells`` so one chunk
    never starves the crash-recovery and drain granularity.
    """

    chunk_cells: int | None = None
    chunks_per_job: int = 4
    max_chunk_cells: int = 16

    def __post_init__(self) -> None:
        if self.chunk_cells is not None and self.chunk_cells < 1:
            raise ConfigError("chunk_cells: must be >= 1", field="chunk_cells")
        if self.chunks_per_job < 1:
            raise ConfigError(
                "chunks_per_job: must be >= 1", field="chunks_per_job"
            )
        if self.max_chunk_cells < 1:
            raise ConfigError(
                "max_chunk_cells: must be >= 1", field="max_chunk_cells"
            )


@dataclass(frozen=True)
class Chunk:
    """One dispatch unit: a contiguous slice of the pending cell list.

    ``cells`` pairs each :class:`CellSpec` with its index in the *full*
    sweep, so results merge back into canonical order no matter which
    worker ran the chunk or when it finished.
    """

    chunk_id: str
    cells: tuple[tuple[int, CellSpec], ...]
    est_cost: float

    @property
    def keys(self) -> tuple[str, ...]:
        return tuple(cell.key for _, cell in self.cells)


def estimate_cell_cost(cell: CellSpec) -> float:
    """Cheap deterministic proxy for one cell's wall time.

    Simulated work scales with the spec's dynamic instruction count and
    its memory intensity (memory ops dominate the engine's per-op
    cost); the scheduling loop adds per-cycle work proportional to the
    core count.  Absolute accuracy does not matter — chunks only need
    *relative* sizing — but the estimate must be O(1) and derived from
    frozen spec fields so planning stays deterministic and free.
    """
    spec = cell.spec
    work = spec.total_kinstrs * cell.scale * (
        1.0 + spec.mem_per_kinstr / 1000.0
    )
    return max(MIN_CELL_COST, work * (1.0 + 0.15 * cell.n_threads))


def partition_costs(
    costs: list[float],
    jobs: int,
    policy: ChunkingPolicy | None = None,
) -> list[list[int]]:
    """Partition ``range(len(costs))`` into contiguous chunks.

    The pure planning core, separated from :class:`CellSpec` so the
    property suite can drive it with arbitrary cost lists.  Guarantees
    (hypothesis-tested in ``tests/parallel/test_property_chunking.py``):

    * every index appears in exactly one chunk (exact partition);
    * concatenating the chunks reproduces ``range(len(costs))`` in
      order (canonical order survives the merge);
    * no chunk is empty, and no chunk exceeds the policy's cell cap;
    * the output is a pure function of the inputs.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    policy = policy or ChunkingPolicy()
    n = len(costs)
    if n == 0:
        return []
    if policy.chunk_cells is not None:
        size = policy.chunk_cells
        return [
            list(range(start, min(start + size, n)))
            for start in range(0, n, size)
        ]
    total = sum(max(MIN_CELL_COST, c) for c in costs)
    target = total / max(1, jobs * policy.chunks_per_job)
    chunks: list[list[int]] = []
    current: list[int] = []
    current_cost = 0.0
    for index in range(n):
        cost = max(MIN_CELL_COST, costs[index])
        if current and (
            current_cost + cost > target
            or len(current) >= policy.max_chunk_cells
        ):
            chunks.append(current)
            current = []
            current_cost = 0.0
        current.append(index)
        current_cost += cost
    if current:
        chunks.append(current)
    return chunks


def plan_chunks(
    pending: list[tuple[int, CellSpec]],
    jobs: int,
    policy: ChunkingPolicy | None = None,
    id_prefix: str = "",
) -> list[Chunk]:
    """Group pending (sweep-index, cell) pairs into dispatch chunks.

    ``pending`` must already be in canonical sweep order (the dispatcher
    builds it that way); chunks are contiguous slices of it, so merging
    chunk results by sweep index restores that order exactly.
    ``id_prefix`` namespaces chunk ids across dispatch rounds (crash
    requeues re-plan the survivors as a fresh round).
    """
    costs = [estimate_cell_cost(cell) for _, cell in pending]
    groups = partition_costs(costs, jobs, policy)
    return [
        Chunk(
            chunk_id=f"{id_prefix}c{ordinal}",
            cells=tuple(pending[i] for i in group),
            est_cost=sum(costs[i] for i in group),
        )
        for ordinal, group in enumerate(groups)
    ]
