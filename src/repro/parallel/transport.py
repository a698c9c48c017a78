"""Canonical-bytes result transport between workers and the parent.

Workers used to return pickled :class:`~repro.parallel.cells.CellResult`
object graphs — a :class:`SpeedupStack` plus an
:class:`AccountingReport` holding per-thread and per-core dataclasses —
and the parent paid a rich unpickle per cell.  Here a chunk's results
travel as **one** canonical JSON byte string: the worker serializes
derived plain data, the parent decodes once per chunk.

Canonical means *deterministic by construction*: every dict is built in
dataclass field order (or, for harvested metrics, in the harvester's
insertion order, which the journal must preserve byte-for-byte), and
encoding never reorders keys.  JSON round-trips Python floats exactly
(shortest-repr), so a decoded stack compares ``==`` to the in-process
original — the property the differential suite leans on.

The same per-result encoding backs the **spill protocol**: a worker
appends one flushed line per completed cell to its chunk's spill file,
so when the worker dies mid-chunk the parent recovers every finished
cell from the spill and re-runs only the rest (see
:mod:`repro.parallel.dispatch`).
"""

from __future__ import annotations

import json
import logging
from dataclasses import fields
from typing import IO

from repro.accounting.report import (
    AccountingReport,
    CoreRawCounters,
    ThreadComponents,
)
from repro.core.stack import SpeedupStack
from repro.parallel.cells import CellResult

logger = logging.getLogger(__name__)

#: compact separators: the bytes are a pipe payload, not a human artifact
_SEPARATORS = (",", ":")


def _dataclass_to_dict(value) -> dict:
    """Field-order dict of a flat (non-nested) dataclass instance."""
    return {f.name: getattr(value, f.name) for f in fields(value)}


def stack_to_dict(stack: SpeedupStack) -> dict:
    return _dataclass_to_dict(stack)


def stack_from_dict(doc: dict) -> SpeedupStack:
    return SpeedupStack(**doc)


def report_to_dict(report: AccountingReport) -> dict:
    return {
        "n_threads": report.n_threads,
        "tp_cycles": report.tp_cycles,
        "threads": [_dataclass_to_dict(t) for t in report.threads],
        "cores": [_dataclass_to_dict(c) for c in report.cores],
        "truncated": report.truncated,
    }


def report_from_dict(doc: dict) -> AccountingReport:
    return AccountingReport(
        n_threads=doc["n_threads"],
        tp_cycles=doc["tp_cycles"],
        threads=[ThreadComponents(**t) for t in doc["threads"]],
        cores=[CoreRawCounters(**c) for c in doc["cores"]],
        truncated=doc["truncated"],
    )


def result_to_dict(result: CellResult) -> dict:
    doc = {
        "name": result.name,
        "n_threads": result.n_threads,
        "status": result.status,
        "attempts": result.attempts,
        "stack": (
            stack_to_dict(result.stack) if result.stack is not None else None
        ),
        "report": (
            report_to_dict(result.report)
            if result.report is not None else None
        ),
        "total_cycles": result.total_cycles,
        "truncated": result.truncated,
        "mt_instrs": result.mt_instrs,
        "mt_spin_instrs": result.mt_spin_instrs,
        "st_instrs": result.st_instrs,
        "error": result.error,
        "error_type": result.error_type,
        "snapshot": result.snapshot,
    }
    # absent (not null) when collection is off: presence mirrors whether
    # the journal will carry a metrics key for this cell
    if result.metrics is not None:
        doc["metrics"] = result.metrics
    # spans likewise absent when collection is off — and, unlike
    # metrics, never journaled (wall-clock is nondeterministic)
    if result.spans is not None:
        doc["spans"] = result.spans
    return doc


def result_from_dict(doc: dict) -> CellResult:
    return CellResult(
        name=doc["name"],
        n_threads=doc["n_threads"],
        status=doc["status"],
        attempts=doc["attempts"],
        stack=(
            stack_from_dict(doc["stack"])
            if doc["stack"] is not None else None
        ),
        report=(
            report_from_dict(doc["report"])
            if doc["report"] is not None else None
        ),
        total_cycles=doc["total_cycles"],
        truncated=doc["truncated"],
        mt_instrs=doc["mt_instrs"],
        mt_spin_instrs=doc["mt_spin_instrs"],
        st_instrs=doc["st_instrs"],
        error=doc["error"],
        error_type=doc["error_type"],
        snapshot=doc["snapshot"],
        metrics=doc.get("metrics"),
        spans=doc.get("spans"),
    )


# ----------------------------------------------------------------------
# chunk payloads (worker return value)
# ----------------------------------------------------------------------


def encode_chunk_results(
    results: list[tuple[int, CellResult]],
    spans: list | None = None,
) -> bytes:
    """One chunk's (sweep-index, result) pairs as canonical JSON bytes.

    ``spans`` carries the *chunk-level* worker span rows (e.g. the
    ``chunk.execute`` envelope; per-cell spans ride inside each
    result).  With spans disabled the payload stays the legacy bare
    list — byte-identical to pre-span builds.
    """
    payload = [
        {"index": index, "result": result_to_dict(result)}
        for index, result in results
    ]
    if spans is not None:
        doc: dict = {"results": payload, "spans": spans}
        return json.dumps(doc, separators=_SEPARATORS).encode("utf-8")
    return json.dumps(payload, separators=_SEPARATORS).encode("utf-8")


def decode_chunk_payload(
    payload: bytes,
) -> tuple[list[tuple[int, CellResult]], list]:
    """Decode a chunk payload into (pairs, chunk-level span rows).

    Accepts both payload shapes: the legacy bare list (spans disabled)
    and the ``{"results": ..., "spans": ...}`` envelope.
    """
    doc = json.loads(payload.decode("utf-8"))
    if isinstance(doc, dict):
        entries = doc["results"]
        spans = doc.get("spans") or []
    else:
        entries, spans = doc, []
    return (
        [(entry["index"], result_from_dict(entry["result"]))
         for entry in entries],
        spans,
    )


# ----------------------------------------------------------------------
# spill protocol (crash recovery)
# ----------------------------------------------------------------------


def append_spill(handle: IO[str], index: int, result: CellResult) -> None:
    """Append one completed cell to the chunk's spill file and flush.

    The flush matters: a crashing worker exits via ``os._exit`` (or is
    killed outright), which never flushes Python's userspace buffers —
    only lines already pushed to the OS survive for recovery.
    """
    handle.write(
        json.dumps(
            {"index": index, "result": result_to_dict(result)},
            separators=_SEPARATORS,
        )
        + "\n"
    )
    handle.flush()


def read_spill(path: str) -> dict[int, CellResult]:
    """Recover completed cells from a (possibly absent or torn) spill.

    A worker killed mid-``write`` leaves a truncated final line; any
    line that does not parse is dropped — the cell it described simply
    re-runs, which is always safe (cells are deterministic).
    """
    recovered: dict[int, CellResult] = {}
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError:
        return recovered
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
            recovered[entry["index"]] = result_from_dict(entry["result"])
        except (ValueError, KeyError, TypeError):
            logger.warning("dropping torn spill line in %s", path)
    return recovered
